"""Deterministic batched execution over a dependency graph (BOHM/DGCC-style).

Arriving transactions are grouped into *batches*.  When a batch seals (size
or time window), a sequencing step assigns each member a position in one
total order and pre-declares its write set — and the ranges its scans may
touch — as *version slots* in the multiversion store.  The declared slots
form the batch dependency graph: a transaction conflicts exactly with the
earlier-sequenced transactions whose declared writes intersect its declared
writes or scan ranges.  Execution is then lock-free: an operation waits only
until the conflicting slots of earlier-sequenced transactions resolve
(install, or release at commit for declared-but-unwritten keys), reads
observe the latest version *in sequence order* — uncommitted versions
included — and members commit in sequence order, so the per-key version
chains equal the pre-decided order and no member ever aborts on a conflict
with another member.

The mechanism mirrors deterministic database execution (Calvin's sequencing
layer, BOHM's version pre-assignment, DGCC's dependency graphs): contention
does not cause aborts or lock convoys, at the price of requiring declarable
write sets.  Transaction types whose write keys cannot be computed from the
arguments alone (e.g. a dequeue that finds its victim by scanning) are
rejected when the engine builds its tree.

As a member of the hierarchical CC tree the mechanism is leaf-only and
composes under delegating ancestors (2PL / SSI / OCC nexus): members appear
to the ancestor as one child group, so cross-group conflicts are mediated by
the nexus while in-group conflicts are sequenced here.  An RP ancestor
re-orders reads against its own pipeline and would override the sequence,
so it is rejected (TSO cannot be an internal node at all).
"""

from heapq import heappop, heappush
from itertools import count

from repro.cc.base import ConcurrencyControl, register_cc
from repro.core.waits import NONE, MovedEvents
from repro.errors import ConfigurationError
from repro.sim.events import Condition, Event
from repro.storage.ranges import KeyRange


class _Batch:
    """One admission wave: members, seal state, and completion countdown.

    ``members`` is the open wave only: the seal drops the list, so a sealed
    batch does not point back at the transactions whose state points at it.
    """

    __slots__ = ("members", "sealed", "sealed_event", "remaining")

    def __init__(self, env, name):
        self.members = []
        self.sealed = False
        self.sealed_event = Event(env, name=name)
        self.remaining = 0


@register_cc
class DeterministicBatch(ConcurrencyControl):
    """Deterministic batch execution with pre-declared version slots."""

    name = "batch"
    handles_contention = True
    efficient_internal = False
    requires_profiles = True
    # One total order per group: independent per-partition instances would
    # split the sequence, and the sequencer cannot federate child groups.
    supports_partitioning = False
    leaf_only = True
    # RP amends member reads against its pipeline and would override the
    # batch sequence.
    forbidden_ancestors = frozenset({"rp"})
    # The seal pre-declares every member's version slots.
    needs_declared_writes = True
    extra_start_rtts = 1  # sequencer round-trip

    def __init__(
        self,
        engine,
        node,
        batch_size=8,
        batch_window=0.01,
        max_inflight_batches=4,
    ):
        super().__init__(engine, node)
        if batch_size < 1:
            raise ConfigurationError("batch_size must be >= 1")
        if batch_window <= 0:
            raise ConfigurationError("batch_window must be positive")
        if max_inflight_batches < 1:
            raise ConfigurationError("max_inflight_batches must be >= 1")
        self.batch_size = batch_size
        self.batch_window = float(batch_window)
        self.max_inflight_batches = max_inflight_batches
        self._open_batch = None
        self._inflight = 0
        self._seq_counter = count(1)
        self._active = {}  # txn_id -> txn (joined a batch, not finished)
        # The sealed members in flight, kept in the shape each question asks
        # for.  Both fill at the seal in sequence order and both let go of a
        # member when it finishes, so neither outgrows the members in flight.
        #: seq -> txn, members still executing (commit point not reached):
        #: its first entry is whom the commit-order wait is waiting for.
        self._executing = {}
        #: declared write key -> {txn_id: seq}: who a new member's declared
        #: writes and scan ranges conflict with, without asking every member.
        self._writers = {}
        #: Dependency-graph edges materialised across all seals (stats).
        self.graph_edges = 0
        self.batches_sealed = 0
        self.admission = Condition(engine.env, name=f"batch-admit@{node.node_id}")
        # Wakes go only to whom a change concerns; an entry leaves when it fires.
        #: A member moves when it installs or finishes.
        self._moved = MovedEvents(engine.env)
        #: heap of (seq, Event), one per member waiting at its commit point:
        #: a turn fires once no member sequenced before it is executing.
        self._turns = []

    # -- helpers -----------------------------------------------------------------

    def _wait_for_progress(self, txn, pending, reason, events):
        """Wait until ``pending()`` (earlier-sequenced members in the way)
        is empty, re-checking whenever ``events(head)`` fires.

        ``pending()`` yields the lowest-sequenced such member first and may
        stop there: the wait reads its head and whether there is one.
        """
        return self.waits.wait(txn, pending, reason, events=events, check=NONE)

    def _take_turn(self, seq):
        """``events=`` of the commit-order wait.  Called at most once per
        wait: the turn fires only when the wait is over, and a deadline that
        fires first ends it with an abort."""
        turn = Event(self.env, name="batch-turn")
        heappush(self._turns, (seq, turn))
        return [turn]

    def _pass_turns(self):
        """``_executing`` lost an entry: fire every turn sequenced before its
        new head.  No earlier sequence can enter it again, so a fired turn's
        member is never blocked again."""
        turns = self._turns
        if turns:
            head = next(iter(self._executing), None)
            while turns and (head is None or turns[0][0] < head):
                heappop(turns)[1].succeed()

    def _seq(self, txn):
        return self.state(txn).get("seq", 0)

    def _pending_slot_writers(self, txn, my_seq, key):
        """Active members sequenced before ``txn`` with an unresolved slot on key."""
        slots = self.engine.store.slot_writers(key)
        if not slots:
            return []
        pending = []
        for writer_id, seq in slots.items():
            if writer_id == txn.txn_id or seq >= my_seq:
                continue
            writer = self._active.get(writer_id)
            if writer is not None:
                pending.append(writer)
        return pending

    def _pending_range_writers(self, my_seq, key_range):
        """The first earlier-sequenced member with an unresolved slot inside
        the range, alone: a wait reads only the head of its blockers."""
        slot_writers = self.engine.store.slot_writers
        head_seq, head = my_seq, None
        for key, holders in self._writers.items():
            if key_range.covers(key):
                unresolved = slot_writers(key)
                if not unresolved:
                    continue
                for writer_id, seq in holders.items():  # in sequence order
                    if seq >= head_seq:
                        break
                    if writer_id in unresolved:
                        head_seq, head = seq, writer_id
                        break
        return () if head is None else (self._active[head],)

    # -- admission & start phase -------------------------------------------------

    def admit(self, txn_type, args):
        """Park new arrivals while the backlog of sealed batches is full."""
        if self._inflight < self.max_inflight_batches:
            return None
        return self._admit_wait()

    def _admit_wait(self):
        while self._inflight >= self.max_inflight_batches:
            yield from self.admission.wait()

    def start(self, txn):
        batch = self._open_batch
        if batch is None:
            batch = self._open_batch = _Batch(
                self.env, name=f"batch-seal@{self.node.node_id}"
            )
            self.env.process(
                self._window(batch), name=f"batch-window@{self.node.node_id}"
            )
        batch.members.append(txn)
        self._active[txn.txn_id] = txn
        self.state(txn)["batch"] = batch
        if len(batch.members) >= self.batch_size:
            self._seal(batch)
        # Execution begins only once the batch seals and the member holds a
        # sequence position and declared slots.
        yield batch.sealed_event

    def _window(self, batch):
        yield self.batch_window
        if not batch.sealed:
            self._seal(batch)

    def _seal(self, batch):
        """Sequencing step: total order, slot pre-declaration, dependency graph."""
        if batch.sealed:
            return
        batch.sealed = True
        if self._open_batch is batch:
            self._open_batch = None
        # Drop members that died while waiting for the seal (force-aborts).
        members = [txn for txn in batch.members if txn.txn_id in self._active]
        batch.members = None
        batch.remaining = len(members)
        if not members:
            batch.sealed_event.succeed()
            return
        self._inflight += 1
        self.batches_sealed += 1
        store = self.engine.store
        writers = self._writers
        for txn in members:
            seq = next(self._seq_counter)
            state = self.state(txn)
            state["seq"] = seq
            self._executing[seq] = txn
            profile = self.engine.profile_of(txn.txn_type)
            keys = ()
            if profile.promise_keys is not None:
                keys = tuple(profile.promise_keys(txn.args))
            my_writes = state["write_keys"] = frozenset(keys)
            ranges = ()
            if profile.scan_ranges is not None:
                ranges = [
                    KeyRange(table, lo, hi)
                    for table, lo, hi in profile.scan_ranges(txn.args)
                ]
            # Dependency-graph build: an edge to every earlier-sequenced
            # active member whose declared writes intersect this member's
            # declared writes or scan ranges.  Reads are not declared;
            # read-write ordering is enforced at execution time by the slot
            # waits, which the same declared slots drive.
            earlier = {}
            for key in my_writes:
                holders = writers.get(key)
                if holders is not None:
                    earlier.update(holders)
            if ranges:
                for key, holders in writers.items():
                    if any(key_range.covers(key) for key_range in ranges):
                        earlier.update(holders)
            # Filled in sequence order: the predecessor wait blocks on the
            # first active member the set yields.
            preds = state["preds"] = set(sorted(earlier, key=earlier.get))
            self.graph_edges += len(preds)
            if keys:
                for key in keys:
                    writers.setdefault(key, {})[txn.txn_id] = seq
                # Pre-assign version slots: later-sequenced readers and
                # writers wait on these instead of locks, and declared
                # inserts become enumerable to scans before they install.
                store.declare_slots(txn.txn_id, seq, keys)
        batch.sealed_event.succeed()

    # -- execution phase ----------------------------------------------------------

    def before_read(self, txn, key):
        """Wait until earlier-sequenced slots on ``key`` resolve."""
        my_seq = self._seq(txn)
        if not self._pending_slot_writers(txn, my_seq, key):
            return None
        return self._wait_for_progress(
            txn,
            lambda: self._pending_slot_writers(txn, my_seq, key),
            "batch-slot-wait",
            self._moved.events,
        )

    def before_write(self, txn, key, value):
        state = self.state(txn)
        if key not in state.get("write_keys", ()):
            # The sequencing step never saw this write, so no slot exists and
            # the pre-decided dependency graph is wrong: the only safe move
            # is to abort (the profile under-declared its write set).
            self.waits.abort(txn, "batch-undeclared-write")
        my_seq = state["seq"]
        # Installs happen in sequence order per key: wait for the
        # dependency-graph predecessors still holding unresolved slots here
        # (every earlier-sequenced slot holder on a declared key is, by the
        # seal-time graph build, one of this member's predecessors).
        if not self._pending_slot_writers(txn, my_seq, key):
            return None
        return self._wait_for_progress(
            txn,
            lambda: self._pending_slot_writers(txn, my_seq, key),
            "batch-install-order",
            self._moved.events,
        )

    def before_scan(self, txn, key_range):
        """Phantom guard: drain earlier-sequenced declared writes in the range.

        Declared inserts are indexed when their slots are declared, so the
        engine's enumeration already sees keys that do not exist yet; this
        wait ensures every earlier-sequenced write (insert or update) inside
        the predicate has resolved before the per-key reads run.  Later-
        sequenced inserts are ordered after the scan by the sequence.
        """
        my_seq = self._seq(txn)
        if not self._pending_range_writers(my_seq, key_range):
            return None
        return self._wait_for_progress(
            txn,
            lambda: self._pending_range_writers(my_seq, key_range),
            "batch-scan-wait",
            self._moved.events,
        )

    def select_version(self, txn, key):
        """Read the latest version in *sequence* order, uncommitted included."""
        store = self.engine.store
        own = store.own_uncommitted(key, txn.txn_id)
        if own is not None:
            return own
        my_seq = self._seq(txn)
        best = None
        best_seq = -1
        per_key = store.uncommitted_map(key)
        if per_key:
            for writer_id, version in per_key.items():
                seq = version.batch_seq
                if seq is None or seq >= my_seq or seq <= best_seq:
                    continue
                if writer_id in self._active:
                    best, best_seq = version, seq
        if best is not None:
            return best
        # Members commit in sequence order, so a committed member version
        # sequenced after this transaction should be impossible while it is
        # active; the guard keeps reads sequence-consistent even if an
        # ancestor re-proposes the chain tail.
        for version in reversed(store.committed_versions(key)):
            seq = version.batch_seq
            if seq is not None and seq >= my_seq:
                continue
            return version
        return None

    def after_write(self, txn, key, version):
        version.batch_seq = self._seq(txn)
        # Installing resolved this key's slot: wake whoever this member heads.
        self._moved.fire(txn)

    # -- validation & commit -------------------------------------------------------

    def validate(self, txn):
        """Enter commit in sequence order; pipeline independent commits.

        Two waits, both pointing at earlier sequence positions only:

        1. Every earlier-sequenced active member must have *reached its own
           commit point* (stopped executing).  This guarantees that no member
           sequenced after an active transaction is ever visible to it as
           committed — which keeps delegating ancestors (whose amends may
           prefer the committed chain tail) consistent with the sequence —
           without serialising the commit phases of independent members into
           one 1/phase-delay bottleneck.
        2. Dependency-graph predecessors (declared write/scan overlaps) must
           *finish*, so per-key committed chains equal the pre-decided order
           even for blind writes that adopted no version.
        """
        state = self.state(txn)
        my_seq = state["seq"]
        # Mark the commit point first: later-sequenced members may stop
        # waiting on this transaction as soon as it stops executing.
        executing = self._executing
        del executing[my_seq]
        self._pass_turns()

        def _executing_earlier():
            # The lowest-sequenced member still executing, if it is earlier.
            for head_seq, head in executing.items():
                return (head,) if head_seq < my_seq else ()
            return ()

        yield from self._wait_for_progress(
            txn,
            _executing_earlier,
            "batch-commit-order",
            lambda blocker: self._take_turn(my_seq),
        )

        def _active_preds():
            active = self._active
            return [active[pred] for pred in state["preds"] if pred in active]

        yield from self.waits.wait(txn, _active_preds, "batch-pred-commit")
        deps = self.subtree_dependencies(txn)
        if deps:
            yield from self.engine.wait_for_transactions(txn, deps)

    def finish(self, txn, committed):
        self._active.pop(txn.txn_id, None)
        state = self.state(txn)
        batch = state.get("batch")
        if batch is not None:
            if batch.sealed:
                # An abort may come before the commit point.
                if self._executing.pop(state["seq"], None) is not None:
                    self._pass_turns()
                writers = self._writers
                for key in state["write_keys"]:
                    holders = writers[key]
                    del holders[txn.txn_id]
                    if not holders:
                        del writers[key]
                batch.remaining -= 1
                if batch.remaining == 0:
                    self._inflight -= 1
                    self.admission.notify_all()
            else:
                try:
                    batch.members.remove(txn)
                except ValueError:
                    pass
        # Unwritten declared slots were retracted by the store at commit or
        # abort: wake whoever this member heads.
        self._moved.fire(txn)
