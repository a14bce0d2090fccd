"""The Tebaldi engine: transaction lifecycle over the hierarchical CC tree.

The engine implements the four-phase execution protocol of Section 4.3.1:

* **start** — top-down: every CC on the transaction's path allocates metadata
  (timestamps, batches); bottom-up dependency reporting is implicit in the
  shared dependency set.
* **execution** — per operation, top-down constraining (locks, pipeline
  steps, snapshot write checks), then bottom-up version selection: the leaf
  proposes a candidate version and ancestors may amend it (Figure 4.5).
* **validation** — bottom-up: each CC enforces consistent ordering, typically
  by waiting for the transaction's in-subtree dependencies to commit.
* **commit** — chained, uninterrupted: versions become visible atomically and
  every CC releases its resources.

The engine also hosts the shared services: multi-version storage, timestamp
oracle, durability and the contention profiler.  Nothing runs in the
background but the durability flusher, and nothing collects garbage: one
retention rule (:meth:`TebaldiEngine._release_finished`) says which finished
transactions something live may still be concurrent with, and the store
drops a superseded version on the commit path once its successor's writer
is not among them.

Each phase is one TC/DS exchange over the engine's phase transport.  The
engine's own is the constant-delay one (:meth:`TebaldiEngine._delay_phase`),
one precomputed sleep per phase at the cost constants of
:mod:`repro.sim.network`.  A run with armed message faults installs a
:class:`~repro.sim.network.MessageTransport` in its place before any
transaction begins.  Both end the commit phase in
:meth:`TebaldiEngine.apply_commit`, and the engine's one admission park loop
also holds new work while that transport's valve is closed.

Hot-path design notes: a transaction's route — the bound hooks of the
mechanisms on its path, its cost constants and its group tokens — is built
once per type (per partition value under a partition-by-instance leaf) and
pinned on the transaction in :meth:`begin` as ``charges``, and finished
transactions are released as soon as nothing active is concurrent with them
(O(1) amortized).
"""

from collections import deque
from dataclasses import dataclass, field

from repro.cc.timestamps import TimestampOracle
from repro.core.config import Configuration
from repro.core.context import TransactionContext
from repro.core.stats import StatsCollector
from repro.core.transaction import ReadRecord, Transaction, TransactionStatus
from repro.core.tree import build_routes, build_tree
from repro.core.waits import ALL, Waits
from repro.errors import ConfigurationError, TransactionAborted
from repro.sim.events import Condition, Event, any_of
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.mvstore import MultiVersionStore

_ACTIVE = TransactionStatus.ACTIVE
_VALIDATING = TransactionStatus.VALIDATING
_COMMITTED = TransactionStatus.COMMITTED
_ABORTED = TransactionStatus.ABORTED


@dataclass
class EngineOptions:
    """Tunables of the engine (virtual-time costs, timeouts, features)."""

    lock_timeout: float = 0.5
    commit_wait_timeout: float = 1.0
    charge_costs: bool = True
    durability: DurabilityConfig = field(default_factory=DurabilityConfig)


def _node_built_from(spec):
    """What one runtime node is built from.  ``signature()`` is the
    optimizer's structural key: it leaves out params and which
    ``instance_key`` callable a leaf partitions by."""
    return (
        spec.cc,
        sorted(spec.transactions),
        spec.params,
        spec.instance_key,
        len(spec.children),
    )


def _built_from(spec):
    """What a runtime subtree is built from: its nodes' keys in pre-order
    (the child counts make the order determine the shape)."""
    return [_node_built_from(node) for node in spec.iter_nodes()]


def _spec_at(configuration, path):
    spec = configuration.root
    for index in path:
        spec = spec.children[index]
    return spec


class TebaldiEngine:
    """A single Tebaldi database instance (simulated cluster)."""

    def __init__(
        self,
        env,
        configuration,
        transaction_types,
        store=None,
        options=None,
        profiler=None,
        durability=None,
        txn_id_start=1,
    ):
        if not isinstance(configuration, Configuration):
            raise ConfigurationError("configuration must be a Configuration instance")
        self.env = env
        self.options = options or EngineOptions()
        self.transaction_types = dict(transaction_types)
        self._check_configuration(configuration)
        self.configuration = configuration
        self.store = store if store is not None else MultiVersionStore()
        self.oracle = TimestampOracle()
        self.stats = StatsCollector(env)
        # The crash harness injects a shared manager that survives engine
        # rebuilds across simulated crashes; ``txn_id_start`` likewise keeps
        # transaction ids unique across incarnations.
        self.durability = (
            durability
            if durability is not None
            else DurabilityManager(self.options.durability)
        )
        # Static for the engine's lifetime; cached off the property chain.
        self._durable = self.durability.enabled
        self.commit_condition = Condition(env, name="commit")
        self.admission_condition = Condition(env, name="admission")

        # Ids are allotted in begin() order: ``active`` (insertion ordered)
        # has its oldest transaction first and ``_last_txn_id`` is the id
        # horizon, everything begun so far.  ``finished`` keeps what may
        # still be concurrent with something (see _release_finished), with
        # the horizon at each finish in ``_finished_order`` and at each CC
        # hold in ``_holds``.
        self.active = {}
        # The one wait loop and the one reported abort of every CC on the
        # tree, with the wait-for graph they share (see repro.core.waits).
        self.waits = Waits(
            env, self.active, profiler, timeout=self.options.commit_wait_timeout
        )
        self._first_txn_id = txn_id_start
        self._last_txn_id = txn_id_start - 1
        self.finished = {}
        self._finished_order = deque()
        self._holds = {}
        self._recorder = None
        self._paused_types = set()
        self._draining = False
        # The phase transport: the constant-delay one unless a message
        # transport (repro.sim.network) installs itself before any
        # transaction begins.  One whose retry backlog is high closes
        # admission by setting ``throttled`` to its park counter, which
        # every arrival it parks calls once.
        self.transport = self._delay_phase
        self.throttled = None

        self.root, self.nodes = build_tree(self, configuration)
        self._rebuild_routes()

    def _rebuild_routes(self):
        """Per-type routes over the current tree; holds of CCs no longer in
        it go with them."""
        self._routes = build_routes(self.nodes, self.transaction_types)
        live = set(self.nodes)
        self._holds = {
            key: at for key, at in self._holds.items() if key[0].node in live
        }

    # -- configuration helpers ------------------------------------------------

    def _check_configuration(self, configuration):
        missing = configuration.transaction_types - set(self.transaction_types)
        if missing:
            raise ConfigurationError(
                f"configuration references unknown transaction types: {sorted(missing)}"
            )
        unassigned = set(self.transaction_types) - configuration.transaction_types
        if unassigned:
            raise ConfigurationError(
                f"transaction types missing from configuration: {sorted(unassigned)}"
            )

    def profile_of(self, txn_type):
        return self.transaction_types[txn_type].profile

    def profiles_for(self, txn_types):
        return [self.profile_of(name) for name in txn_types]

    def is_read_only_type(self, txn_type):
        return self.transaction_types[txn_type].read_only

    def find_transaction(self, txn_id):
        """Active or still retained (:meth:`_release_finished`), else None."""
        txn = self.active.get(txn_id)
        if txn is not None:
            return txn
        return self.finished.get(txn_id)

    # -- lifecycle --------------------------------------------------------------

    def _attach_recorder(self, recorder):
        if recorder is not None and self._last_txn_id >= self._first_txn_id:
            raise ConfigurationError("attach the history recorder before the first begin()")
        self._recorder = recorder

    #: Optional streaming isolation recorder (see repro.isolation.history),
    #: notified with every commit and abort.  Attached before the first
    #: ``begin()``: a transaction begun without it records no reads.
    history_recorder = property(lambda self: self._recorder, _attach_recorder)

    def begin(self, txn_type, args=None, client_id=-1):
        """Create and register a new transaction instance, on the route of
        its type or, under a partitioned leaf, of its partition value."""
        route = self._routes.get(txn_type)
        if route is None:
            raise ConfigurationError(f"unknown transaction type {txn_type!r}")
        args = dict(args or {})
        txn_id = self._last_txn_id = self._last_txn_id + 1
        txn = Transaction(
            txn_id=txn_id,
            txn_type=txn_type,
            args=args,
            client_id=client_id,
            read_only=route.read_only,
            begin_time=self.env._now,
        )
        txn.leaf_node_id = route.leaf_node_id
        if route.instance_key is not None:
            route = route.partition(self, route.instance_key(args))
        # Pin the runtime path, its precomputed cost constants and its
        # immutable group tokens, so that in-flight transactions are
        # unaffected by online reconfigurations swapping parts of the tree,
        # and the hot path never rebuilds them.
        txn.charges = route
        txn.group_tokens = route.group_tokens
        if route.records_reads or self._recorder is not None:
            txn.reads, txn.scans = [], []
        txn.dep_listener = self._on_new_dependency
        txn.finish_event = Event(self.env, "finish")
        self.active[txn_id] = txn
        return txn

    def execute_transaction(self, txn_type, args=None, client_id=-1):
        """Coroutine: run one transaction attempt end-to-end.

        Returns the committed :class:`Transaction`; raises
        :class:`TransactionAborted` if the attempt aborts (the caller decides
        whether to retry).
        """
        if self._draining or self.throttled or txn_type in self._paused_types:
            yield from self._wait_for_admission(txn_type)
        route = self._routes.get(txn_type)
        if route is not None and route.admission_hooks:
            # Batched-admission path: mechanisms that admit work in waves
            # (deterministic batch execution) park arriving requests here,
            # before begin(), so a full backlog never inflates the active
            # set or the dependency graph.
            for admit_hook in route.admission_hooks:
                step = admit_hook(txn_type, args)
                if step is not None:
                    yield from step
        txn = self.begin(txn_type, args, client_id)
        try:
            result = yield from self._run(txn)
        except TransactionAborted as abort:
            self._finish_abort(txn, abort.reason)
            raise
        txn.result = result
        return txn

    def _wait_for_admission(self, txn_type):
        if self.throttled is not None:
            # Parked by a message transport's admission valve, not by a
            # reconfiguration: the transport counts it.  Parked
            # transactions resume when its backlog drains.
            self.throttled()
        while self._draining or self.throttled or txn_type in self._paused_types:
            yield from self.admission_condition.wait()

    def _run(self, txn):
        """Coroutine: the four protocol phases of one transaction attempt.

        Each phase is one TC/DS exchange over the engine's phase transport,
        then the phase's CC hooks; the commit exchange carries the
        server-side apply (:meth:`apply_commit`) itself.
        """
        charges = txn.charges
        transport = self.transport
        # Start phase -------------------------------------------------------
        yield from transport(txn, "start")
        for start_hook in charges.start_hooks:
            step = start_hook(txn)
            if step is not None:
                yield from step
        # Execution phase (driven by the stored procedure) -------------------
        context = TransactionContext(self, txn)
        result = yield from charges.procedure(context, **txn.args)
        # Validation phase ----------------------------------------------------
        txn.status = TransactionStatus.VALIDATING
        yield from transport(txn, "validate")
        for validate_hook in charges.validate_hooks:
            step = validate_hook(txn)
            if step is not None:
                yield from step
        self._check_cascading_abort(txn)
        # Commit phase ---------------------------------------------------------
        yield from transport(txn, "precommit")
        if txn.status is not _COMMITTED:
            # An injected crash fired inside the precommit: the machine is
            # down and this commit never becomes visible.  Park the process
            # on an event that never triggers — if the full precommit set
            # made it to disk first, recovery resurrects the transaction as
            # a *ghost* (durable, unacknowledged).
            yield Event(self.env, "crashed")
        if self._durable:
            # The exchange is over: nothing can retransmit this precommit.
            self.durability.release_precommit(txn)
            delay = self.durability.flush_delay()
            if delay:
                yield delay
        for finish_hook in charges.finish_hooks:
            finish_hook(txn, committed=True)
        self.commit_condition.notify_all()
        return result

    def apply_commit(self, txn):
        """The server-side apply of the commit request, shared by both
        phase transports: cascading-abort check, pre-commit validation hooks,
        durable precommit and the installation of the versions.  It runs
        synchronously at delivery, which preserves the no-interleaving
        guarantee OCC's backward validation relies on."""
        self._check_cascading_abort(txn)
        for pre_commit_hook in txn.charges.pre_commit_hooks:
            pre_commit_hook(txn)
        if self._durable:
            # Durable precommit and epoch propagation run *before* the
            # versions become visible: any transaction that reads this one
            # therefore precommits in the same or a later GCP epoch, so a
            # durable reader can never survive recovery while its writer
            # vanishes (cross-crash recoverability of the DSG).
            durability = self.durability
            writes = [(v.key, v.value) for v in self.store.pending_versions(txn.txn_id)]
            global_epoch = durability.precommit(txn, writes)
            durability.commit_notification(txn, global_epoch)
            if durability.halted:
                # Crashed inside the precommit: _run parks the process.
                return
        self._commit(txn)

    def _commit(self, txn):
        versions = self.store.commit_transaction(
            txn, timestamp=txn.commit_timestamp, retained=self.finished
        )
        txn.status = TransactionStatus.COMMITTED
        if not txn.finish_event.triggered:
            txn.finish_event.succeed(True)
        if self._recorder is not None:  # before _retire, which may release txn
            self._recorder.on_commit(txn, versions)
        self._retire(txn)
        self.stats.record_commit(txn)
        return versions

    # -- phase transport ---------------------------------------------------------

    def _delay_phase(self, txn, phase):
        """Constant-delay transport: the phase's round-trips and CPU are one
        precomputed sleep; the commit apply runs inline at its end."""
        if self.options.charge_costs:
            charges = txn.charges
            delay = charges.start_delay if phase == "start" else charges.phase_delay
            yield delay
        if phase == "precommit":
            self.apply_commit(txn)

    def _finish_abort(self, txn, reason):
        txn.status = TransactionStatus.ABORTED
        txn.abort_reason = reason
        if not txn.finish_event.triggered:
            txn.finish_event.succeed(False)
        self.store.abort_transaction(txn)
        for finish_hook in txn.charges.finish_hooks:
            finish_hook(txn, committed=False)
        if self._recorder is not None:  # before _retire, which may release txn
            self._recorder.on_abort(txn)
        self._retire(txn)
        self.stats.record_abort(txn, reason)
        self.commit_condition.notify_all()

    def _retire(self, txn):
        txn_id = txn.txn_id
        self.active.pop(txn_id, None)
        if txn_id not in self.finished:
            # Every transaction that overlapped this one began before now,
            # so its id is at most the horizon recorded here.
            self._finished_order.append((self._last_txn_id, txn_id))
        self.finished[txn_id] = txn
        self._release_finished()

    def _release_finished(self):
        """The retention rule: a finished transaction is kept only while one
        that began before it finished is still active, or a CC holds that
        span open (:meth:`hold_finished`).

        Horizons grow with finish order and with hold order, so releasing is
        a walk from the left.  A released transaction is not touched — the
        engine just stops holding it, and ``find_transaction`` misses, which
        its callers only see for transactions they never overlapped.  It is
        the one rule for what others keep per transaction: the mechanisms on
        a committed one's route let go of it (``release``), and the recorder
        hears of every one (``on_release``).
        """
        floor = next(iter(self.active), None)
        if self._holds:
            held = next(iter(self._holds.values()))
            if floor is None or held < floor:
                floor = held
        order, recorder = self._finished_order, self._recorder
        while order and (floor is None or order[0][0] < floor):
            txn = self.finished.pop(order.popleft()[1])
            if txn.status is _COMMITTED:
                for release_hook in txn.charges.release_hooks:
                    release_hook(txn)
            if recorder is not None:
                recorder.on_release(txn.txn_id)

    def hold_finished(self, key):
        """Keep whatever finishes from now until ``drop_hold(key)`` — for a
        CC whose members are concurrent with transactions gone before they
        began (a timestamp batch hands its older snapshot to late joiners).
        ``key`` is ``(cc, ...)``: a reconfiguration that removes the node
        drops its holds."""
        self._holds[key] = self._last_txn_id

    def drop_hold(self, key):
        self._holds.pop(key, None)

    def user_abort(self, txn, reason="user-abort"):
        raise TransactionAborted(txn.txn_id, reason)

    def _check_cascading_abort(self, txn):
        # A writer read from overlapped its reader, so the retention rule
        # still holds it (``_release_finished``) while the reader is active.
        for dep_id in txn.read_from:
            if self.find_transaction(dep_id).status is _ABORTED:
                raise TransactionAborted(txn.txn_id, "cascading-abort")

    # -- operations ---------------------------------------------------------------

    def perform_read(self, txn, key, for_update=False):
        """Coroutine implementing one read of the execution phase."""
        status = txn.status
        if status is not _ACTIVE and status is not _VALIDATING:
            raise TransactionAborted(txn.txn_id, txn.abort_reason or "not-active")
        charges = txn.charges
        if self.options.charge_costs:
            yield charges.op_delay
        hooks = charges.update_read_hooks if for_update else charges.read_hooks
        for hook in hooks:
            step = hook(txn, key)
            if step is not None:
                yield from step
        candidate = charges.select_version(txn, key)
        for amend_hook in charges.amend_hooks:
            candidate = amend_hook(txn, key, candidate)
        if (
            candidate is not None
            and not candidate.committed
            and candidate.writer != txn.txn_id
            and self.depends_transitively(candidate.writer, txn.txn_id)
        ):
            # Reading this exposed value would order us after a transaction
            # that is already ordered after us — an ordering cycle.
            self.waits.abort(
                txn, "order-conflict", self.active.get(candidate.writer)
            )
        if txn.reads is not None:
            txn.reads.append(ReadRecord(key, candidate))
        if candidate is None:
            return None
        if candidate.writer != txn.txn_id and (
            not candidate.committed or candidate.writer in self.active
        ):
            # Only still-active writers matter for ordering waits; committed
            # writers impose no further constraint on this transaction.
            txn.add_dependency(candidate.writer, read_from=not candidate.committed)
        value = candidate.value
        return dict(value) if isinstance(value, dict) else value

    def perform_write(self, txn, key, value):
        """Coroutine implementing one write of the execution phase."""
        status = txn.status
        if status is not _ACTIVE and status is not _VALIDATING:
            raise TransactionAborted(txn.txn_id, txn.abort_reason or "not-active")
        charges = txn.charges
        if self.options.charge_costs:
            yield charges.op_delay
        for hook in charges.write_hooks:
            step = hook(txn, key, value)
            if step is not None:
                yield from step
        # Order this write after existing writers of the key (only active
        # writers can still constrain ordering decisions).  If an existing
        # writer is already ordered after this transaction, installing on top
        # of it would create an ordering cycle — abort instead.
        latest = self.store.latest_committed(key)
        if latest is not None and latest.writer in self.active:
            txn.add_dependency(latest.writer)
        pending_map = self.store.uncommitted_map(key)
        if pending_map:
            for pending_writer in pending_map:
                if pending_writer == txn.txn_id:
                    continue
                if self.depends_transitively(pending_writer, txn.txn_id):
                    raise TransactionAborted(txn.txn_id, "order-conflict")
                txn.add_dependency(pending_writer)
        version = self.store.install(key, value, txn)
        for after_write_hook in charges.after_write_hooks:
            after_write_hook(txn, key, version)
        return version

    def perform_scan(self, txn, key_range):
        """Coroutine implementing one ordered range scan of the execution phase.

        The scan first runs the top-down ``before_scan`` hooks with the
        :class:`~repro.storage.ranges.KeyRange` predicate (range locks,
        snapshot range registration, timestamp range reads), then enumerates
        the matching keys from the store's ordered index — including
        in-flight inserts — and drives every key through the ordinary
        per-key read path, so CC hooks constrain each key exactly as they
        would a point read.  Returns ``[(pk, row), ...]`` in key order,
        skipping missing/deleted rows.

        ``txn.scans`` exists only for a reader (OCC, the oracle), and gets
        the scan's range, from which the oracle derives phantom
        anti-dependencies.
        """
        status = txn.status
        if status is not _ACTIVE and status is not _VALIDATING:
            raise TransactionAborted(txn.txn_id, txn.abort_reason or "not-active")
        charges = txn.charges
        if self.options.charge_costs:
            # One operation charge for the index probe; every enumerated key
            # then pays the normal per-read charge in perform_read.
            yield charges.op_delay
        for hook in charges.scan_hooks:
            step = hook(txn, key_range)
            if step is not None:
                yield from step
        candidates = self.store.range_keys(key_range.table, key_range.lo, key_range.hi)
        rows = []
        for key in candidates:
            value = yield from self.perform_read(txn, key)
            if value is not None:
                rows.append((key[1], value))
        if txn.scans is not None:
            txn.scans.append(key_range)
        return rows

    def _on_new_dependency(self, txn, other_id):
        """Maintain reverse dependency edges."""
        # Only active transactions relay ordering (see depends_transitively),
        # so an edge into a finished one needs no reverse entry.
        other = self.active.get(other_id)
        if other is not None:
            other.dependents.add(txn.txn_id)

    def depends_transitively(self, source_id, target_id):
        """True if active transaction ``source_id`` is ordered after ``target_id``.

        Used to detect (and break, by aborting) ordering cycles before they
        can cause unserializable pipelining or wait-for deadlocks.  Walks the
        engine-maintained reverse dependency edges from ``target_id``; only
        active transactions relay an ordering constraint, and the walk stops
        at ``source_id`` (the closure is typically a transaction or none).
        """
        if source_id == target_id:
            return True
        active = self.active
        target = active.get(target_id)
        if target is None or not target.dependents or source_id not in active:
            return False
        seen = {target_id}
        frontier = [target]
        while frontier:
            for dep_id in frontier.pop().dependents:
                if dep_id == source_id:
                    return True
                if dep_id not in seen:
                    seen.add(dep_id)
                    dependent = active.get(dep_id)
                    if dependent is not None:
                        frontier.append(dependent)
        return False

    # -- waiting helpers ------------------------------------------------------------

    def wait_for_transactions(self, txn, dep_ids):
        """Coroutine: block until every id in ``dep_ids`` has finished.

        Used by CC validate hooks to enforce consistent ordering (adoption).
        Aborts the waiting transaction if it read from a dependency that
        aborted (cascading abort), if a pending dependency already waits for
        it, or if the wait times out (cycle relief).  Each pass waits on the
        first pending dependency's finish event, so only its dependents wake
        up when it commits or aborts.
        """
        active = self.active
        txn_id = txn.txn_id
        yield from self.waits.wait(
            txn,
            lambda: [active[dep] for dep in dep_ids if dep != txn_id and dep in active],
            "commit-order",
            check=ALL,
            deadlock_reason="wait-deadlock",
        )
        self._check_cascading_abort(txn)

    # -- background services --------------------------------------------------------------

    def start_services(self, stop_event=None):
        """Spawn the durability flusher, if durability is asynchronous."""
        if self.durability.enabled and self.durability.config.asynchronous:
            self.env.process(
                self.durability.run_flusher(self.env, stop_event), name="gcp-flusher"
            )

    # -- reconfiguration (Section 5.5) -------------------------------------------------------

    def reconfigure_partial_restart(self, new_configuration, force_abort_after=None):
        """Coroutine: the partial-restart protocol.

        Clean-up phase: stop admitting transactions and wait for ongoing ones
        to finish (optionally force-aborting after a timeout).  Prepare phase:
        rebuild the CC module with the new configuration (storage untouched).
        Apply phase: resume admission.

        The drain is event-driven: the engine waits on the commit condition
        (notified on every commit and abort) plus, when a force-abort window
        is set, a single deadline timeout — no polling.
        """
        self._draining = True
        deadline_event = None
        if force_abort_after is not None:
            deadline_event = self.env.timeout(force_abort_after)
        try:
            while self.active:
                if deadline_event is not None and deadline_event._processed:
                    for txn in list(self.active.values()):
                        txn.status = TransactionStatus.ABORTED
                        txn.abort_reason = "forced-reconfiguration"
                    break
                if deadline_event is not None:
                    # The one deadline wait outside repro.core.waits: the
                    # drain waits for no transaction in particular.
                    yield any_of(
                        self.env, [self.commit_condition._event, deadline_event]
                    )
                else:
                    yield from self.commit_condition.wait()
        finally:
            # A drain that finishes early drops its deadline (owner cancels).
            if deadline_event is not None:
                deadline_event.cancel()
        self._swap_configuration(new_configuration)
        self._draining = False
        self.admission_condition.notify_all()

    def reconfigure_online(self, new_configuration):
        """Coroutine: the online-update protocol.

        The lowest subtree containing every change is identified; only the
        transaction types assigned to that subtree are paused and drained,
        then the runtime subtree is replaced in place.  Every other type
        keeps executing during the switch, so the throughput dip is much
        smaller than with the partial restart (Figure 5.19).  If the change
        reaches the root, the protocol falls back to the partial restart.
        """
        change_path = self._lowest_changed_subtree(new_configuration)
        if change_path is None:
            # Nothing a mechanism is built from changed; adopt the new object.
            self.configuration = new_configuration
            return
        if not change_path:
            yield from self.reconfigure_partial_restart(new_configuration)
            return
        # The splice replaces every mechanism instance of the subtree, so
        # every type routed through it, before or after, is drained.
        affected = set()
        for configuration in (self.configuration, new_configuration):
            affected.update(_spec_at(configuration, change_path).all_transactions())
        self._paused_types |= affected
        while any(txn.txn_type in affected for txn in self.active.values()):
            # Event-driven drain: every commit/abort notifies the condition.
            yield from self.commit_condition.wait()
        self._splice_subtree(new_configuration, change_path)
        self._paused_types -= affected
        self.admission_condition.notify_all()

    def _lowest_changed_subtree(self, new_configuration):
        """Child-index path to the lowest subtree containing all changes.

        Returns ``None`` if both configurations build the same runtime tree
        and ``[]`` (the root) when the change cannot be localised below the
        root.
        """
        old_spec, new_spec = self.configuration.root, new_configuration.root
        if _built_from(old_spec) == _built_from(new_spec):
            return None
        path = []
        while True:
            if old_spec.is_leaf or _node_built_from(old_spec) != _node_built_from(new_spec):
                return path
            diffs = [
                index
                for index, (old_child, new_child) in enumerate(
                    zip(old_spec.children, new_spec.children)
                )
                if _built_from(old_child) != _built_from(new_child)
            ]
            if len(diffs) != 1:
                return path
            index = diffs[0]
            path.append(index)
            old_spec = old_spec.children[index]
            new_spec = new_spec.children[index]

    def _splice_subtree(self, new_configuration, change_path):
        """Replace the runtime subtree at ``change_path`` with fresh nodes."""
        self._check_configuration(new_configuration)
        old_node = self.root
        for index in change_path:
            old_node = old_node.children[index]
        new_spec = _spec_at(new_configuration, change_path)
        sub_config = Configuration(new_spec, name=f"{new_configuration.name}-subtree")
        sub_root, sub_nodes = build_tree(self, sub_config)
        # Renumber the spliced nodes to occupy the replaced position.
        prefix = old_node.node_id
        for node in sub_nodes:
            node.node_id = prefix + node.node_id[1:]
        sub_root.parent = old_node.parent
        if old_node.parent is not None:
            position = old_node.parent.children.index(old_node)
            old_node.parent.children[position] = sub_root
        else:
            self.root = sub_root
        # The ancestors keep their subtree types, and the range locks built
        # for them: the change path stops above any type that moved, so the
        # splice moves none across its root.
        self.configuration = new_configuration
        self.nodes = list(self.root.iter_subtree())
        self._rebuild_routes()

    def _swap_configuration(self, new_configuration):
        self._check_configuration(new_configuration)
        self.configuration = new_configuration
        self.root, self.nodes = build_tree(self, new_configuration)
        self._rebuild_routes()
