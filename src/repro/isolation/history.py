"""Execution histories extracted from a running engine.

A history records, per committed transaction, the versions it read and the
versions it installed; together with the per-object version order kept by the
storage module this is everything Adya's graph-based definitions need.

:class:`HistoryRecorder` streams the history out of a *running* engine: the
engine notifies it on every commit and abort, so the recorder observes every
committed version (including ones the store later drops) in commit order.
It is the only source of histories — the engine itself keeps no transaction
past the last one concurrent with it — and the backbone of the harness's
``check_isolation`` mode.
"""

from bisect import bisect_right
from collections import OrderedDict
from dataclasses import dataclass, field

from repro.isolation.levels import kinds_for
from repro.isolation.streaming import StreamingDSGChecker


@dataclass
class HistoryTransaction:
    """One committed transaction in a history."""

    txn_id: int
    txn_type: str
    reads: list = field(default_factory=list)     # (key, writer_id, commit_seq|None)
    writes: list = field(default_factory=list)    # (key, commit_seq)
    scans: list = field(default_factory=list)     # KeyRange per range scan
    begin_time: float = 0.0
    end_time: float = 0.0


@dataclass
class History:
    """Committed transactions plus the per-key committed version order.

    ``extra_committed`` names transactions that are known to have committed
    but whose read/write details are no longer retained (evicted from a
    bounded :class:`HistoryRecorder` ring).  The checker treats them as
    committed so that reads-from and version orders referencing them do not
    produce false aborted-read reports.
    """

    transactions: dict = field(default_factory=dict)
    version_orders: dict = field(default_factory=dict)   # key -> [(commit_seq, writer)]
    aborted_ids: set = field(default_factory=set)
    extra_committed: set = field(default_factory=set)

    def add_transaction(self, txn):
        self.transactions[txn.txn_id] = txn

    def committed_ids(self):
        """Every transaction id known to have committed."""
        if self.extra_committed:
            return set(self.transactions) | self.extra_committed
        return set(self.transactions)

    def __len__(self):
        return len(self.transactions)

    def writers_of(self, key):
        return [writer for _seq, writer in self.version_orders.get(key, [])]

    def _seqs_of(self, key):
        """Cached ascending commit-sequence list of ``key`` (bisect support)."""
        cache = getattr(self, "_seq_cache", None)
        if cache is None:
            cache = self._seq_cache = {}
        seqs = cache.get(key)
        if seqs is None:
            seqs = cache[key] = [seq for seq, _writer in self.version_orders.get(key, [])]
        return seqs

    def next_writer_after(self, key, commit_seq):
        """Writer of the next committed version of ``key`` after ``commit_seq``.

        Version orders are ascending in commit sequence, so this is a bisect
        (hot keys in long histories have thousands of versions; a linear scan
        per read would make checking quadratic).
        """
        order = self.version_orders.get(key)
        if not order:
            return None, None
        index = bisect_right(self._seqs_of(key), commit_seq)
        if index < len(order):
            seq, writer = order[index]
            return writer, seq
        return None, None

    def final_write_seqs(self):
        """Map of ``(key, writer) -> last committed seq`` over all versions."""
        final = {}
        for key, order in self.version_orders.items():
            for seq, writer in order:
                final[(key, writer)] = seq
        return final


#: A retained record is one flat tuple: ``txn_type, begin_time, end_time,
#: scans, num_writes``, then ``key, commit_seq`` per write from this index
#: on, then ``key, writer, commit_seq`` per read to the end (the observed
#: ``Version`` stands in for a ``commit_seq`` not yet assigned).
_WRITES_AT = 5


class HistoryRecorder:
    """Streaming history recorder attached to a running engine.

    The engine calls :meth:`on_commit` (with the freshly committed versions)
    and :meth:`on_abort` from its commit/abort paths, so the recorder sees
    the authoritative per-key version order even though the store drops
    superseded versions from the chains.

    A retained record is one flat tuple (layout at :data:`_WRITES_AT`): a
    read of a version already sequenced when its reader commits is kept as
    the atoms ``key, writer, commit_seq`` — a sequence never changes once
    assigned — and only a read of a still-unsequenced version (a pipelined
    read under RP) keeps the observed :class:`Version` in the sequence's
    place, so :meth:`history` picks up the writer's final commit sequence
    (``None``, an aborted read, if it never commits).  Atoms do not pin
    superseded versions, and the cyclic collector stops tracking them.

    ``max_transactions`` bounds memory for long runs: the recorder keeps a
    ring of the most recent committed transactions (their read/write sets)
    while retaining the full, compact per-key version order.  Evicted
    transactions surface via ``History.extra_committed`` — derived from the
    version orders (every evicted *writer* still appears there, and reads
    only ever reference writers) so eviction leaves no growing side table.

    ``level`` enables the in-line streaming DSG checker: every commit's
    dependency edges are derived immediately and fed to the incremental
    cycle detector, so the circularity verdict at that isolation level is
    ready the moment the run ends — no post-hoc graph pass.  The streaming
    checker sees every commit (it is fed before ring eviction and is
    unaffected by it).  ``level=None`` records only, as before.

    With the streaming checker on, the retained records are only a
    convenience (``history()`` for diagnostics) — the verdict never needs
    them — so retention defaults to a bounded ring
    (:data:`STREAMING_WINDOW_DEFAULT`) instead of the whole run.  This pins
    the recorder's memory in long checked runs: record retention, not the
    checker, used to dominate checked-run overhead.  Pass an explicit
    ``max_transactions`` (or ``level=None``) to override.
    """

    #: Default record-ring size when the streaming checker is active.
    STREAMING_WINDOW_DEFAULT = 50_000

    def __init__(self, max_transactions=None, level=None, trace_edges=False):
        if max_transactions is None and level is not None:
            max_transactions = self.STREAMING_WINDOW_DEFAULT
        if max_transactions is not None and max_transactions < 1:
            # A ring of no records answers every check with "nothing wrong".
            raise ValueError(
                f"max_transactions must be at least 1, got {max_transactions}"
            )
        self.max_transactions = max_transactions
        self.level = level
        self.streaming_checker = None
        if level is not None:
            self.streaming_checker = StreamingDSGChecker(
                kinds_for(level), trace_edges=trace_edges
            )
        # txn_id -> flat record (see _WRITES_AT)
        self._records = OrderedDict()
        self._version_orders = {}
        # Insertion-ordered so a window bounds it like the commit ring; old
        # aborted writers stay detectable anyway (their reads resolve to
        # commit_seq None and the writer is never in the committed set).
        self._aborted_ids = OrderedDict()
        self._evicted = False
        self.recorded_commits = 0
        #: Transaction ids committed more than once — a phantom commit
        #: (e.g. a retransmitted commit applied twice by a broken dedup).
        #: Must stay empty; the degraded harness asserts on it.
        self.duplicate_commits = []
        #: True once on_crash() stitched a crash into this recorder; the
        #: checker then complements the streaming verdict with the
        #: aborted/intermediate-read passes over the retained records.
        self.crossed_crash = False

    def on_commit(self, txn, versions):
        """Record one committed transaction and its installed versions."""
        if txn.txn_id in self._records:
            # A second commit of the same transaction would silently
            # overwrite the first record; flag it loudly instead — no
            # engine path may commit twice, retransmits included.
            self.duplicate_commits.append(txn.txn_id)
        scans = tuple([record.key_range for record in txn.scans]) if txn.scans else ()
        flat = [txn.txn_type, txn.begin_time, txn.end_time, scans, len(versions)]
        self._record_versions(versions, flat)
        reads = [
            (record.key, record.version)
            for record in txn.reads
            if record.version is not None
        ]
        for key, version in reads:
            seq = version.commit_seq
            flat += (key, version.writer, version if seq is None else seq)
        if self.streaming_checker is not None:
            self.streaming_checker.on_commit(txn.txn_id, versions, reads, scans)
        self._records[txn.txn_id] = tuple(flat)
        self.recorded_commits += 1
        limit = self.max_transactions
        if limit is not None:
            records = self._records
            while len(records) > limit:
                records.popitem(last=False)
                self._evicted = True

    def _record_versions(self, versions, flat):
        """Append ``versions`` to the per-key version orders and, as ``key,
        commit_seq`` pairs, to the flat record under construction."""
        orders = self._version_orders
        for version in versions:
            key = version.key
            seq = version.commit_seq
            flat += (key, seq)
            order = orders.get(key)
            if order is None:
                order = orders[key] = []
            order.append((seq, version.writer))

    def on_abort(self, txn):
        """Record that a transaction aborted (readers of it are doomed)."""
        if self.streaming_checker is not None:
            self.streaming_checker.on_abort(txn.txn_id)
        aborted = self._aborted_ids
        aborted[txn.txn_id] = None
        limit = self.max_transactions
        if limit is not None:
            while len(aborted) > limit:
                aborted.popitem(last=False)

    def on_crash(self, vanished):
        """Stitch a simulated crash into the recorded history.

        ``vanished`` are transactions that committed in memory but did not
        survive recovery.  They are erased from the retained records and
        from every per-key version order — as if they never committed — and
        marked aborted, so a surviving transaction that *read* their data
        is flagged as an aborted read by the checker.  The streaming
        checker (if any) performs the matching purge.
        """
        vanished = {txn_id for txn_id in vanished if txn_id}
        if not vanished:
            self.crossed_crash = True
            return
        aborted = self._aborted_ids
        for txn_id in vanished:
            if self._records.pop(txn_id, None) is not None:
                self.recorded_commits -= 1
            aborted[txn_id] = None
        orders = self._version_orders
        for key in list(orders):
            order = orders[key]
            if not any(writer in vanished for _seq, writer in order):
                continue
            kept = [entry for entry in order if entry[1] not in vanished]
            if kept:
                orders[key] = kept
            else:
                del orders[key]
        if self.streaming_checker is not None:
            self.streaming_checker.on_crash(vanished)
        self.crossed_crash = True

    def on_recovered(self, txn_id, versions, txn_type="recovered", now=0.0):
        """Register a *ghost* survivor: a transaction whose precommit was
        durable when the crash hit but which never committed in memory (the
        crash fired between precommit and acknowledgement).  Recovery
        resurrects its writes; its reads died with the crash, so only the
        writes constrain the stitched graph — exactly the information the
        durable log retains."""
        flat = [txn_type, now, now, (), len(versions)]
        self._record_versions(versions, flat)
        if self.streaming_checker is not None:
            self.streaming_checker.on_commit(txn_id, versions, (), ())
        self._records[txn_id] = tuple(flat)
        self.recorded_commits += 1

    def seq_of(self, key, writer):
        """Last recorded commit sequence of ``writer``'s version of ``key``.

        The version orders are never ring-evicted, so this is authoritative
        for the whole run — the crash harness uses it to restore surviving
        versions with their original sequence numbers."""
        order = self._version_orders.get(key)
        if order:
            for seq, order_writer in reversed(order):
                if order_writer == writer:
                    return seq
        return None

    def __len__(self):
        return len(self._records)

    def history(self):
        """Materialise the recorded run as a :class:`History`."""
        extra_committed = set()
        if self._evicted:
            retained = self._records
            extra_committed = {
                writer
                for order in self._version_orders.values()
                for _seq, writer in order
                if writer not in retained
            }
        history = History(
            version_orders={key: list(order) for key, order in self._version_orders.items()},
            aborted_ids=set(self._aborted_ids),
            extra_committed=extra_committed,
        )
        for txn_id, flat in self._records.items():
            txn_type, begin, end, scans, num_writes = flat[:_WRITES_AT]
            reads_at = _WRITES_AT + 2 * num_writes
            writes, reads = flat[_WRITES_AT:reads_at], flat[reads_at:]
            history.add_transaction(
                HistoryTransaction(
                    txn_id=txn_id,
                    txn_type=txn_type,
                    begin_time=begin,
                    end_time=end,
                    writes=list(zip(writes[::2], writes[1::2])),
                    reads=[
                        (key, writer, seq if isinstance(seq, int) else seq.commit_seq)
                        for key, writer, seq in zip(reads[::3], reads[1::3], reads[2::3])
                    ],
                    scans=list(scans),
                )
            )
        return history
