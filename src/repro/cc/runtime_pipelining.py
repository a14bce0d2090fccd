"""Runtime pipelining (Section 4.4.2).

RP statically orders the tables touched by its group into pipeline *steps*
(strongly connected components of the table-access graph, topologically
sorted).  At runtime a transaction executes step by step; when it moves to a
new step it *step-commits* the previous one, releasing its step-level locks
and exposing its writes to the next transaction in the pipeline.  A
transaction that became dependent on another may only execute step ``i`` once
that transaction has finished or moved past step ``i`` — this is what turns a
queue of conflicting writers into a pipeline instead of a serial schedule.

As an internal node, transactions of the same child subtree are allowed to
share step-level locks and to execute the same step concurrently (delegation);
conflicts across child subtrees follow the pipeline rules above.

RP is a 2PL node that releases by step (Section 4.4.2): it inherits
:class:`~repro.cc.two_phase_locking.TwoPhaseLocking`'s lock table, phantom
guard, committed-read fallback and release at finish, and adds the steps,
the step-commit and the record of passed accesses.
"""

from repro.analysis.rp_analysis import analyze_pipeline
from repro.cc.base import register_cc
from repro.cc.locks import EXCLUSIVE, SHARED
from repro.cc.two_phase_locking import TwoPhaseLocking
from repro.core.waits import MovedEvents


@register_cc
class RuntimePipelining(TwoPhaseLocking):
    """Runtime pipelining over statically derived table steps."""

    name = "rp"
    handles_contention = True
    requires_profiles = True
    extra_operation_rtts = 1  # per-operation coordination round-trip

    def __init__(self, engine, node, lock_timeout=None):
        # The lock table holds step locks.  The range locks of the phantom
        # guard are held until finish: a step-committed scan's predicate
        # must keep excluding phantom inserts, exactly like passed point
        # accesses in ``_passed``.
        super().__init__(engine, node, lock_timeout)
        # The steps come from the group's profiles, in name order: the
        # analysis breaks ties by the order it is given the profiles in.
        self.analysis = analyze_pipeline(engine.profiles_for(sorted(node.subtree_types)))
        self._active = {}
        #: A transaction moves when it advances a step or finishes.
        self._moved = MovedEvents(engine.env)
        # key -> {txn_id: (txn, mode)}: still-active transactions that have
        # step-committed (released) an access to the key.  Lock handoff order
        # defines the pipeline order, and it must survive the release: a
        # later conflicting access has to be ordered after these
        # transactions even though the lock table no longer sees them
        # (otherwise the rw anti-dependency of a passed *reader* is lost and
        # ordering cycles close undetected).  It is also the one record of
        # which step-committed write a reader observes (``_exposed``).
        self._passed = {}
        # Flattened copies of the analysis lookup for the per-operation path.
        self._table_to_step = dict(self.analysis.table_to_step)
        self._last_step = max(self.analysis.num_steps - 1, 0)

    # -- helpers ------------------------------------------------------------------

    def _step_of_key(self, key):
        return self._table_to_step.get(key[0], self._last_step)

    def _current_step(self, txn):
        return self.state(txn).get("step", -1)

    # -- start phase -----------------------------------------------------------------

    def start(self, txn):
        state = self.state(txn)
        state["step"] = -1
        state["step_keys"] = {}
        self._active[txn.txn_id] = txn

    # -- execution phase -----------------------------------------------------------------

    # Hooks return ``None`` on the non-blocking fast path (same pipeline
    # step, lock granted immediately) and a coroutine when the transaction
    # has to advance a step or queue for a lock.

    def before_read(self, txn, key):
        return self._pipelined_access(txn, key, SHARED)

    def before_update_read(self, txn, key):
        return self._pipelined_access(txn, key, EXCLUSIVE)

    def before_write(self, txn, key, value):
        if self.ranges is None:
            return self._pipelined_access(txn, key, EXCLUSIVE)
        self.ranges.register_intent(txn, key)
        return self.ranges.write_wait(
            txn, key, self._pipelined_access(txn, key, EXCLUSIVE)
        )

    def before_scan(self, txn, key_range):
        state = self.state(txn)
        target = self._table_to_step.get(key_range.table, self._last_step)
        self.ranges.register_scan(txn, key_range)
        if target <= state.get("step", -1):
            return self.ranges.scan_wait(txn, key_range)
        return self._scan_past_ranges(txn, key_range, state, target)

    def _scan_past_ranges(self, txn, key_range, state, target):
        # A scan enters the scanned table's pipeline step exactly like a
        # point access would; its per-key reads then reuse the step.  The
        # writers it waits for are looked up once it has entered the step.
        self._step_commit(txn, state)
        state["step"] = target
        self._moved.fire(txn)
        yield from self._wait_for_pipeline(txn, target)
        wait = self.ranges.scan_wait(txn, key_range)
        if wait is not None:
            yield from wait

    def _pipelined_access(self, txn, key, mode):
        state = self.state(txn)
        target = self._step_of_key(key)
        if target > state.get("step", -1):
            return self._advance_and_acquire(txn, key, mode, state, target)
        wait = self.locks.request(txn, key, mode)
        if wait is not None:
            return self._acquire_and_track(txn, key, mode, state, wait)
        if key in self._passed:
            self._order_after_passed(txn, key, mode)
        self._track_step_key(key, mode, state)
        return None

    def _track_step_key(self, key, mode, state):
        step_keys = state.get("step_keys")
        if step_keys is None:
            step_keys = state["step_keys"] = {}
        if step_keys.get(key) != EXCLUSIVE:
            step_keys[key] = mode

    def _acquire_and_track(self, txn, key, mode, state, wait):
        yield from wait
        if key in self._passed:
            self._order_after_passed(txn, key, mode)
        self._track_step_key(key, mode, state)

    def _advance_and_acquire(self, txn, key, mode, state, target):
        self._step_commit(txn, state)
        state["step"] = target
        self._moved.fire(txn)
        yield from self._wait_for_pipeline(txn, target)
        wait = self.locks.request(txn, key, mode)
        if wait is not None:
            yield from wait
        if key in self._passed:
            self._order_after_passed(txn, key, mode)
        self._track_step_key(key, mode, state)

    def _order_after_passed(self, txn, key, mode):
        """Order ``txn`` after conflicting step-committed accessors of ``key``.

        The step locks were already released, so the lock table cannot record
        these dependencies; without them a write after a passed *read* drops
        the rw anti-dependency and the pipeline order can silently invert.
        """
        passed = self._passed.get(key)
        if not passed:
            return
        txn_id = txn.txn_id
        stale = None
        for other_id, (other, other_mode) in passed.items():
            if other_id == txn_id:
                continue
            if not other.is_active or other_id not in self._active:
                if stale is None:
                    stale = []
                stale.append(other_id)
                continue
            if mode == SHARED and other_mode == SHARED:
                continue
            if self.same_child_group(txn, other):
                continue
            if self.engine.depends_transitively(other_id, txn_id):
                # The passed accessor is already ordered after us; adopting
                # the handoff order as well would close an ordering cycle.
                self.waits.abort(txn, "order-conflict", other)
            txn.add_dependency(other_id)
        if stale:
            for other_id in stale:
                passed.pop(other_id, None)
            if not passed:
                self._passed.pop(key, None)

    def _step_commit(self, txn, state):
        """Release the previous step's locks and expose its writes.

        Released accesses are remembered in ``_passed`` (until the
        transaction finishes): the pipeline order they established must keep
        constraining later conflicting accesses to the same keys.
        """
        step_keys = state.get("step_keys")
        if not step_keys:
            state["step_keys"] = {}
            return
        passed = self._passed
        passed_keys = state.get("passed_keys")
        if passed_keys is None:
            passed_keys = state["passed_keys"] = []
        for key, mode in step_keys.items():
            entry = passed.get(key)
            if entry is None:
                entry = passed[key] = {}
            previous = entry.get(txn.txn_id)
            if previous is None:
                entry[txn.txn_id] = (txn, mode)
                passed_keys.append(key)
            elif previous[1] != EXCLUSIVE:
                # Never downgrade: a later re-read must not weaken the
                # ordering constraint of an earlier passed write.
                entry[txn.txn_id] = (txn, mode)
        self.locks.release(txn, step_keys)
        state["step_keys"] = {}

    def _wait_for_pipeline(self, txn, step):
        # Only dependencies that are still active in this node can gate the
        # step entry; snapshot them once so re-checks after each progress
        # notification stay cheap.
        dependencies = txn.dependencies
        if not dependencies:
            return
        active = self._active
        watched = [
            (other, self.same_child_group(txn, other))
            for dep_id in dependencies
            if (other := active.get(dep_id)) is not None
        ]
        if not watched:
            return

        def _blockers():
            blockers = []
            for other, in_group in watched:
                if not other.is_active or other.txn_id not in self._active:
                    continue
                other_step = self._current_step(other)
                if in_group:
                    # In-group dependencies only need to have *started* the step.
                    if other_step < step:
                        blockers.append(other)
                elif other_step <= step:
                    # Cross-group dependencies must have finished the step.
                    blockers.append(other)
            return blockers

        for other, _in_group in watched:
            if other.is_active and self.engine.depends_transitively(other.txn_id, txn.txn_id):
                # A pipeline predecessor is already ordered after us: waiting
                # for it would deadlock, so resolve the inversion by aborting.
                self.waits.abort(txn, "order-conflict", other)
        yield from self.waits.wait(
            txn,
            _blockers,
            "rp-pipeline",
            events=lambda blocker: [*self._moved.events(blocker), blocker.finish_event],
        )

    # -- read resolution -----------------------------------------------------------------

    def _pipelined_read(self, txn, key, candidate):
        if candidate is not None and not candidate.committed:
            if candidate.writer == txn.txn_id:
                return candidate
            writer = self.engine.find_transaction(candidate.writer)
            if writer is not None and self.is_member(writer) and writer.is_active:
                # A child subtree can propose a member writer's version even
                # after a writer in a *different* child step-committed a
                # newer one through this node's pipeline — the child cannot
                # see the cross-group writer.  The handoff order here already
                # put the exposed writer after the candidate's, and every
                # reader arriving here is ordered after the exposed writer
                # too (``_order_after_passed``, or its own child's proposal
                # when they share a group), so it observes the exposed one.
                exposed = self._exposed(key) if key in self._passed else None
                if (
                    exposed is not None
                    and exposed.writer != candidate.writer
                    and self.engine.depends_transitively(
                        exposed.writer, candidate.writer
                    )
                ):
                    return exposed
                return candidate
        if key in self._passed:
            exposed = self._exposed(key)
            if exposed is not None:
                return exposed
        return self._committed_read(key, candidate)

    def _exposed(self, key):
        """The step-committed write of ``key`` a reader at this node observes.

        Derived where it is asked for: the uncommitted version of the last
        transaction, in handoff order, that passed the key ``EXCLUSIVE`` and
        is still active (an entry leaves ``_passed`` when its transaction
        finishes here).  When that writer aborts, its predecessor in
        ``_passed[key]`` — after which ``_order_after_passed`` has already
        ordered the reader — is exposed again, not the committed version
        underneath both.
        """
        own_uncommitted = self.engine.store.own_uncommitted
        for writer_id, (writer, mode) in reversed(self._passed[key].items()):
            if mode == EXCLUSIVE and writer.is_active:
                version = own_uncommitted(key, writer_id)
                if version is not None:
                    return version
        return None

    def select_version(self, txn, key):
        candidate = self.engine.store.own_uncommitted(key, txn.txn_id)
        return self._pipelined_read(txn, key, candidate)

    def amend_read(self, txn, key, candidate):
        return self._pipelined_read(txn, key, candidate)

    # -- validation & commit ------------------------------------------------------------------

    # validate() inherited: wait for in-subtree dependencies to commit.

    def finish(self, txn, committed):
        self._active.pop(txn.txn_id, None)
        state = self.state(txn)
        state["step"] = self.analysis.num_steps + 1
        passed_keys = state.get("passed_keys")
        if passed_keys:
            txn_id = txn.txn_id
            passed = self._passed
            for key in passed_keys:
                entry = passed.get(key)
                if entry is not None:
                    entry.pop(txn_id, None)
                    if not entry:
                        del passed[key]
            state["passed_keys"] = []
        super().finish(txn, committed)
        # After the release, so lock waiters are granted before the
        # pipeline waiters on this transaction wake.
        self._moved.fire(txn)

    def describe(self):
        return f"rp@{self.node.node_id} ({self.analysis.num_steps} steps)"
