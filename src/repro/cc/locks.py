"""Lock table with group-aware ("nexus") compatibility and timeout deadlock
handling, and the range locks that guard it against phantoms.

Used by 2PL: transaction-duration locks, or step-duration ones under
runtime pipelining, a 2PL node that releases by step.  The *same-group*
predicate implements the nexus-lock behaviour of Modular Concurrency
Control: transactions of the same child subtree never conflict at this
node — their conflicts are delegated to the child CC.  A node whose
routes scan adds a :class:`RangeLockManager`: the scans in one
:class:`~repro.storage.ranges.ScanSet`, the writes as per-key intents.

The table is on the per-operation hot path of every lock-based CC, so the
uncontended acquire is cheap: lock records are keyed by transaction id (no
Python-level ``__hash__`` dispatch) and conflict detection avoids building
lists until a block is certain.  A record exists only while its key has a
holder or a waiter — every path that removes one drops the record it leaves
idle — so the table is as large as the locks in flight, not as the keys the
run has touched.
"""

from collections import deque

from repro.core.waits import Waits
from repro.errors import TransactionAborted
from repro.sim.events import Event
from repro.storage.ranges import ScanSet


SHARED = "S"
EXCLUSIVE = "X"


class _LockRecord:
    __slots__ = ("holders", "queue")

    def __init__(self):
        # txn_id -> (transaction, mode); keyed by id so the hot path never
        # goes through Transaction.__hash__.
        self.holders = {}
        # Lazily allocated on first waiter: most records never see one.
        self.queue = None


class _WaitRequest:
    __slots__ = ("txn", "mode", "event")

    def __init__(self, txn, mode, event):
        self.txn = txn
        self.mode = mode
        self.event = event


class LockTable:
    """Per-key lock table with FIFO waiting and timeout-based deadlock relief."""

    def __init__(self, env, same_group=None, timeout=1.0, name="locks",
                 order_guard=None, waits=None):
        self.env = env
        self.same_group = same_group or (lambda a, b: False)
        self.timeout = timeout
        self.name = name
        # Optional predicate(blocker_id, waiter_id) -> True when the blocker
        # already (transitively) depends on the waiter, i.e. waiting would
        # create an ordering cycle and the waiter should abort instead.
        self.order_guard = order_guard
        # Where this table blocks and aborts (the engine's); a table on its
        # own reports to nobody and sees no wait-for graph.
        self.waits = waits if waits is not None else Waits(env)
        self._locks = {}
        # txn_id -> {key: None}: a dict used as an insertion-ordered set.
        # Releasing grants queued waiters key by key, so the iteration order
        # decides wake order; a plain set of (table, pk) keys would follow
        # the per-process string-hash salt (PYTHONHASHSEED).
        self._held_by_txn = {}
        self._waiting_keys = {}
        self.timeout_count = 0

    # -- introspection ------------------------------------------------------

    def holders(self, key):
        record = self._locks.get(key)
        if not record:
            return {}
        return {txn: mode for txn, mode in record.holders.values()}

    # -- core protocol --------------------------------------------------------

    def _conflicts(self, record, txn, mode):
        """Transactions whose held locks conflict with ``txn`` requesting ``mode``.

        Mode compatibility is checked before the (Python-level) same-group
        predicate, so shared readers piling onto a hot key skip it entirely.
        """
        conflicting = []
        txn_id = txn.txn_id
        for holder_id, (holder, held_mode) in record.holders.items():
            if holder_id == txn_id:
                continue
            if held_mode == SHARED and mode == SHARED:
                continue
            if self.same_group(txn, holder):
                continue
            conflicting.append(holder)
        return conflicting

    def request(self, txn, key, mode):
        """Acquire if possible without waiting; otherwise return a coroutine.

        Returns ``None`` when the lock was granted (or already held)
        immediately — the caller skips the generator machinery entirely —
        and a blocking coroutine (to ``yield from``) when the transaction
        must queue.  This is the hot-path entry used by the CC hooks.
        """
        txn_id = txn.txn_id
        record = self._locks.get(key)
        if record is not None:
            entry = record.holders.get(txn_id)
            if entry is not None:
                held = entry[1]
                if held == EXCLUSIVE or held == mode:
                    return None
            conflicting = self._conflicts(record, txn, mode)
            if conflicting or record.queue:
                # Waiters and no conflicting holder: respect FIFO ordering.
                return self._blocking_acquire(txn, key, mode, record, conflicting)
            self._grant(record, txn, key, mode)
            return None
        # No record, so nobody holds or waits for the key: grant inline.
        record = self._locks[key] = _LockRecord()
        record.holders[txn_id] = (txn, mode)
        held_keys = self._held_by_txn.get(txn_id)
        if held_keys is None:
            held_keys = self._held_by_txn[txn_id] = {}
        held_keys[key] = None
        return None

    def _blocking_acquire(self, txn, key, mode, record, conflicting):
        if record.queue is None:
            record.queue = deque()
        blockers = conflicting or [req.txn for req in record.queue][-1:]
        if self.order_guard is not None:
            for other in blockers:
                if self.order_guard(other.txn_id, txn.txn_id):
                    # The holder is already ordered after us somewhere else:
                    # waiting for it would create an ordering cycle.
                    self.waits.abort(txn, "order-conflict", other)
        request = _WaitRequest(txn=txn, mode=mode, event=Event(self.env, name="lock"))
        record.queue.append(request)
        self._waiting_keys.setdefault(txn.txn_id, set()).add(key)
        # Only conflicting *holders* order this transaction after them; a
        # queued request ahead of us is a scheduling artefact, not an
        # ordering decision.
        for other in conflicting:
            txn.add_dependency(other.txn_id)
        granted = request.event
        try:
            # Blocked on the first holder (or the request queued ahead) until
            # granted; a wait-for cycle or the deadline aborts instead.
            yield from self.waits.wait(
                txn,
                lambda: () if granted.triggered else blockers,
                f"lock:{self.name}",
                events=lambda blocker: [granted],
                timeout=self.timeout,
                kind=f"lock:{key[0]}",
                timeout_reason="deadlock-timeout",
                deadlock_reason="wait-deadlock",
            )
        except TransactionAborted as abort:
            if request in record.queue:
                record.queue.remove(request)
                self._grant_from_queue(record, key)
            self._drop_if_idle(key, record)
            if abort.reason == "deadlock-timeout":
                self.timeout_count += 1
            raise
        finally:
            waiting = self._waiting_keys.get(txn.txn_id)
            if waiting is not None:
                waiting.discard(key)
                if not waiting:
                    del self._waiting_keys[txn.txn_id]

    def _grant(self, record, txn, key, mode):
        txn_id = txn.txn_id
        entry = record.holders.get(txn_id)
        held = entry[1] if entry is not None else None
        if held == EXCLUSIVE:
            mode = EXCLUSIVE
        record.holders[txn_id] = (
            txn,
            EXCLUSIVE if (held == EXCLUSIVE or mode == EXCLUSIVE) else mode,
        )
        held_keys = self._held_by_txn.get(txn_id)
        if held_keys is None:
            held_keys = self._held_by_txn[txn_id] = {}
        held_keys[key] = None

    def release_all(self, txn):
        """Release every lock held by ``txn`` and grant eligible waiters."""
        txn_id = txn.txn_id
        keys = self._held_by_txn.pop(txn_id, None)
        if keys is None:
            return {}
        locks = self._locks
        for key in keys:
            record = locks[key]
            del record.holders[txn_id]
            if record.queue:
                self._grant_from_queue(record, key)
            if not record.holders and not record.queue:
                del locks[key]
        return keys

    def release(self, txn, keys):
        """Release a specific set of keys (used by RP step-commit)."""
        txn_id = txn.txn_id
        held = self._held_by_txn.get(txn_id)
        if held is None:
            return
        locks = self._locks
        for key in keys:
            if key not in held:
                continue
            del held[key]
            record = locks[key]
            del record.holders[txn_id]
            if record.queue:
                self._grant_from_queue(record, key)
            if not record.holders and not record.queue:
                del locks[key]

    def _drop_if_idle(self, key, record):
        # A waiter found inactive at the head of the queue is popped by the
        # release that meets it, which may already have dropped the record.
        if not record.holders and not record.queue and self._locks.get(key) is record:
            del self._locks[key]

    def cancel_waits(self, txn):
        """Drop any queued (not yet granted) requests of an aborting txn."""
        keys = self._waiting_keys.pop(txn.txn_id, ())
        for key in keys:
            record = self._locks.get(key)
            if record is None or not record.queue:
                continue
            record.queue = deque(req for req in record.queue if req.txn is not txn)
            self._grant_from_queue(record, key)
            self._drop_if_idle(key, record)

    def _grant_from_queue(self, record, key):
        # Strict FIFO: grant consecutive head-of-queue requests while they are
        # compatible with the holders; run after a release or a leaving request.
        while record.queue:
            request = record.queue[0]
            if not request.txn.is_active:
                record.queue.popleft()
                continue
            if self._conflicts(record, request.txn, request.mode):
                return
            record.queue.popleft()
            self._grant(record, request.txn, key, request.mode)
            if not request.event.triggered:
                request.event.succeed(None)


class RangeLockManager:
    """Predicate (range) locks: the phantom guard of lock-based CCs.

    Point locks cannot protect a scan against the *insertion* of a key that
    matched its predicate but did not exist yet.  The manager closes that
    window with two symmetrically registered intents, both held until the
    owning transaction finishes:

    * a scan registers its :class:`~repro.storage.ranges.KeyRange` in the
      node's :class:`~repro.storage.ranges.ScanSet`; a later write of a key
      the range covers must wait for the scanner to finish (strictness: the
      scanner's view of the range stays stable until commit);
    * a write registers a per-key write intent *before* it starts waiting
      for its point lock; a later scan whose range covers the intent must
      wait for the writer to finish.

    Registration and conflict checks are synchronous (no yield between
    them), so under the simulator's cooperative scheduling one side always
    observes the other — there is no race window.  Same-child-group
    transactions never conflict (nexus delegation: their phantoms are the
    child CC's job), mirroring :class:`LockTable`.  Both waits block through
    the node's ``waits`` as ``"range-lock"``.

    A 2PL node — runtime pipelining is one — holds one only when a type
    routed through it declares a scan (``phantom_guard``): no other scan
    can reach the node.
    """

    def __init__(self, waits, same_group=None):
        self.waits = waits
        self.same_group = same_group or (lambda a, b: False)
        self.scans = ScanSet()
        # table -> {txn_id: (txn, set of pks with write intents)}
        self._intents = {}

    def register_scan(self, txn, key_range):
        self.scans.add(txn, key_range)

    def register_intent(self, txn, key):
        table, pk = key
        per_table = self._intents.get(table)
        if per_table is None:
            per_table = self._intents[table] = {}
        entry = per_table.get(txn.txn_id)
        if entry is None:
            per_table[txn.txn_id] = (txn, {pk})
        else:
            entry[1].add(pk)

    def conflicting_scanners(self, txn, key):
        """Active other-group scanners whose predicate covers ``key``."""
        txn_id = txn.txn_id
        return [
            scanner
            for scanner in self.scans.covering(key)
            if scanner.txn_id != txn_id
            and scanner.is_active
            and not self.same_group(txn, scanner)
        ]

    def conflicting_writers(self, txn, key_range):
        """Active other-group writers with an intent inside ``key_range``."""
        per_table = self._intents.get(key_range.table)
        if not per_table:
            return []
        txn_id = txn.txn_id
        blockers = []
        for writer_id, (writer, pks) in per_table.items():
            if writer_id == txn_id or not writer.is_active:
                continue
            if self.same_group(txn, writer):
                continue
            if any(key_range.contains_pk(pk) for pk in pks):
                blockers.append(writer)
        return blockers

    def write_wait(self, txn, key, lock_wait):
        """A write of ``key`` past the scanners covering it, after
        ``lock_wait`` (its point lock's, or ``None``): ``None`` when neither
        blocks, else the combined wait.  The caller registered the write's
        intent before it requested the point lock."""
        if lock_wait is None and not self.conflicting_scanners(txn, key):
            return None
        return self._write_past_scanners(txn, key, lock_wait)

    def _write_past_scanners(self, txn, key, lock_wait):
        if lock_wait is not None:
            yield from lock_wait
        yield from self.waits.wait(
            txn, lambda: self.conflicting_scanners(txn, key), "range-lock"
        )

    def scan_wait(self, txn, key_range):
        """``None`` when no writer's intent lies inside ``key_range``, else
        the wait for those writers to finish."""
        if not self.conflicting_writers(txn, key_range):
            return None
        return self.waits.wait(
            txn, lambda: self.conflicting_writers(txn, key_range), "range-lock"
        )

    def release(self, txn):
        """Drop every predicate and intent of ``txn`` (at finish)."""
        txn_id = txn.txn_id
        self.scans.drop(txn_id)
        intents = self._intents
        emptied = [
            table
            for table, per_table in intents.items()
            if per_table.pop(txn_id, None) is not None and not per_table
        ]
        for table in emptied:
            del intents[table]
