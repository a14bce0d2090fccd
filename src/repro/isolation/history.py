"""Execution histories extracted from a running engine.

A history records, per committed transaction, the versions it read and the
versions it installed, together with the per-key order of every committed
version; this is everything Adya's graph-based definitions need.

:class:`HistoryRecorder` streams the history out of a *running* engine: the
engine notifies it on every commit and abort, and it folds each one into the
isolation oracle (:class:`~repro.isolation.streaming.StreamingDSGChecker`),
which keeps every committed version's place in its key's order — including
versions the store later drops.  It is the only source of histories — the
engine itself keeps no transaction past the last one concurrent with it —
and the backbone of the harness's ``check_isolation`` mode.
"""

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
    bounded :class:`HistoryRecorder` ring).  They count as committed, so
    reads-from and version orders referencing them are not aborted reads.
    """

    transactions: dict = field(default_factory=dict)
    version_orders: dict = field(default_factory=dict)   # key -> [(commit_seq, writer)]
    aborted_ids: set = field(default_factory=set)
    extra_committed: set = field(default_factory=set)

    def add_transaction(self, txn):
        self.transactions[txn.txn_id] = txn

    def __len__(self):
        return len(self.transactions)


#: A retained record is one flat tuple: ``txn_type, begin_time, end_time,
#: scans, num_writes``, then ``key, commit_seq`` per write from this index
#: on, then ``key, writer, commit_seq`` per read to the end (the observed
#: ``Version`` stands in for a ``commit_seq`` not yet assigned).
_WRITES_AT = 5


class HistoryRecorder:
    """Streaming history recorder and isolation oracle of a running engine.

    The engine calls :meth:`on_commit` (with the freshly committed versions)
    and :meth:`on_abort` from its commit/abort paths.  Each event goes
    straight to the in-line :class:`StreamingDSGChecker` at ``level``
    (serializable unless told otherwise): every commit's dependency edges
    are derived immediately and fed to the incremental cycle detector, so
    the verdict is ready the moment the run ends — no post-hoc graph pass.
    The checker sees every commit (it is fed before ring eviction) and owns
    the run's per-key version order — every committed version, although the
    store drops superseded ones — which :meth:`seq_of` and :meth:`history`
    read; its detector forgets what the engine releases (:meth:`on_release`).

    A retained record is one flat tuple (layout at :data:`_WRITES_AT`): a
    read of a version already sequenced when its reader commits is kept as
    the atoms ``key, writer, commit_seq`` — a sequence never changes once
    assigned — and only a read of a still-unsequenced version (a pipelined
    read under RP) keeps the observed :class:`Version` in the sequence's
    place, so :meth:`history` picks up the writer's final commit sequence
    (``None``, an aborted read, if it never commits).  Atoms do not pin
    superseded versions, and the cyclic collector stops tracking them.

    The verdict never needs the records — they serve :meth:`history` (the
    fault lanes' checks, diagnostics) and the crash stitch — so they are a
    ring of the ``max_transactions`` most recent commits (default
    :data:`STREAMING_WINDOW_DEFAULT`), which pins the recorder's memory in
    long checked runs.  Evicted transactions surface via
    ``History.extra_committed`` — derived from the version orders (every
    evicted *writer* still appears there, and reads only ever reference
    writers) so eviction leaves no growing side table.
    """

    #: Default size of the record ring.
    STREAMING_WINDOW_DEFAULT = 50_000

    def __init__(self, max_transactions=None, level="serializable"):
        if max_transactions is None:
            max_transactions = self.STREAMING_WINDOW_DEFAULT
        if max_transactions < 1:
            # A ring of no records answers every check with "nothing wrong".
            raise ValueError(
                f"max_transactions must be at least 1, got {max_transactions}"
            )
        self.max_transactions = max_transactions
        # ValueError on an unknown level, None included.
        self.streaming_checker = StreamingDSGChecker(kinds_for(level))
        # txn_id -> flat record (see _WRITES_AT)
        self._records = OrderedDict()
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

    def on_commit(self, txn, versions):
        """Record one committed transaction and its installed versions."""
        if txn.txn_id in self._records:
            # A second commit of the same transaction would silently
            # overwrite the first record; flag it loudly instead — no
            # engine path may commit twice, retransmits included.
            self.duplicate_commits.append(txn.txn_id)
        scans = tuple(txn.scans) if txn.scans else ()
        flat = [txn.txn_type, txn.begin_time, txn.end_time, scans, len(versions)]
        for version in versions:
            flat += (version.key, version.commit_seq)
        reads = [
            (record.key, record.version)
            for record in txn.reads
            if record.version is not None
        ]
        for key, version in reads:
            seq = version.commit_seq
            flat += (key, version.writer, version if seq is None else seq)
        self.streaming_checker.on_commit(txn.txn_id, versions, reads, scans)
        records = self._records
        records[txn.txn_id] = tuple(flat)
        self.recorded_commits += 1
        while len(records) > self.max_transactions:
            records.popitem(last=False)
            self._evicted = True

    def on_abort(self, txn):
        """Record that a transaction aborted (readers of it are doomed)."""
        self.streaming_checker.on_abort(txn.txn_id)
        aborted = self._aborted_ids
        aborted[txn.txn_id] = None
        while len(aborted) > self.max_transactions:
            aborted.popitem(last=False)

    def on_release(self, txn_id):
        """The engine let go of committed ``txn_id``: the detector may prune it."""
        self.streaming_checker.detector.release(txn_id)

    def on_crash(self, vanished):
        """Stitch a simulated crash into the recorded history.

        ``vanished`` are transactions that committed in memory but did not
        survive recovery.  They are erased from the retained records and —
        by the checker's matching purge — from every per-key version order,
        as if they never committed, and marked aborted.  A surviving read of
        their data is an aborted read: the checker flags the readers it
        still holds parked, and one scan of the retained records here hands
        it the rest (a reader a later writer of the key already released),
        each read flagged once.  Intermediate reads need no second look:
        purging vanished writers leaves every survivor's final version of a
        key where it was.
        """
        vanished = {txn_id for txn_id in vanished if txn_id}
        if not vanished:
            return
        records, aborted = self._records, self._aborted_ids
        for txn_id in vanished:
            if records.pop(txn_id, None) is not None:
                self.recorded_commits -= 1
            aborted[txn_id] = None
        checker = self.streaming_checker
        checker.on_crash(vanished)
        flagged = set(checker.aborted_reads)
        flagged.update(checker.pending_aborted_reads())
        for txn_id, flat in records.items():
            reads = flat[_WRITES_AT + 2 * flat[_WRITES_AT - 1]:]
            for key, writer in zip(reads[::3], reads[1::3]):
                entry = (txn_id, key, writer)
                if writer in vanished and entry not in flagged:
                    flagged.add(entry)
                    checker.aborted_reads.append(entry)

    def on_recovered(self, txn_id, versions, txn_type="recovered", now=0.0):
        """Register a *ghost* survivor: a transaction whose precommit was
        durable when the crash hit but which never committed in memory (the
        crash fired between precommit and acknowledgement).  Recovery
        resurrects its writes; its reads died with the crash, so only the
        writes constrain the stitched graph — exactly the information the
        durable log retains."""
        flat = [txn_type, now, now, (), len(versions)]
        for version in versions:
            flat += (version.key, version.commit_seq)
        self.streaming_checker.on_commit(txn_id, versions, (), ())
        self._records[txn_id] = tuple(flat)
        self.recorded_commits += 1

    def seq_of(self, key, writer):
        """Last recorded commit sequence of ``writer``'s version of ``key``.

        The checker's version orders are never ring-evicted, so this is
        authoritative for the whole run — the crash harness uses it to
        restore surviving versions with their original sequence numbers."""
        return self.streaming_checker._final.get((key, writer))

    def __len__(self):
        return len(self._records)

    def history(self):
        """Materialise the recorded run as a :class:`History`."""
        checker = self.streaming_checker
        version_orders = {
            key: list(zip(checker._seqs[key], writers))
            for key, writers in checker._writers.items()
        }
        extra_committed = set()
        if self._evicted:
            retained = self._records
            extra_committed = {
                writer
                for writers in checker._writers.values()
                for writer in writers
                if writer not in retained
            }
        history = History(
            version_orders=version_orders,
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
