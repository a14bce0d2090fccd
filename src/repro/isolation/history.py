"""Execution histories extracted from a running engine.

A history records, per committed transaction, the versions it read and
installed, with the per-key order of every committed version: everything
Adya's graph-based definitions need.  :class:`HistoryRecorder` streams it
out of a *running* engine into the isolation oracle
(:class:`~repro.isolation.streaming.StreamingDSGChecker`).  It backs the
harness's ``check_isolation`` mode; only a fault lane's recorder keeps the
commit records and whole version orders a history is built from (the
engine keeps no transaction past the last one concurrent with it).
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


@dataclass
class History:
    """Committed transactions plus the per-key committed version order.

    ``extra_committed`` names committed transactions whose records a
    :class:`HistoryRecorder`'s ring evicted: reads of them are no aborted reads.
    """

    transactions: dict = field(default_factory=dict)
    version_orders: dict = field(default_factory=dict)   # key -> [(commit_seq, writer)]
    aborted_ids: set = field(default_factory=set)
    extra_committed: set = field(default_factory=set)

    def add_transaction(self, txn):
        self.transactions[txn.txn_id] = txn

    def __len__(self):
        return len(self.transactions)


#: A retained record is one flat tuple: ``txn_type, scans, num_writes``,
#: then ``key, commit_seq`` per write from this index on, then ``key,
#: writer, commit_seq`` per read to the end (the observed ``Version`` stands
#: in for a ``commit_seq`` not yet assigned).
_WRITES_AT = 3


class HistoryRecorder:
    """Streaming history recorder and isolation oracle of a running engine.

    The engine calls :meth:`on_commit` (with the freshly committed versions),
    :meth:`on_abort` and :meth:`on_release`.  Each commit goes straight to
    the in-line :class:`StreamingDSGChecker` at ``level`` (serializable
    unless told otherwise), so the verdict is ready when the run ends; the
    checker forgets what the engine released and no later commit can ask.

    The verdict never reads a commit record, so a recorder keeps them only
    when built with ``records=True``, for the fault lanes: their checks read
    them through :meth:`history` and the crash stitch (:meth:`on_crash`),
    each of which raises without them, and read every committed version's
    place in its key's order, so that recorder's checker releases its
    detector alone.  The records are a ring of the :attr:`RECORD_RING` most
    recent commits (and as many aborted ids); an evicted writer surfaces in
    ``History.extra_committed``, derived from the version orders.

    A record is one flat tuple (layout at :data:`_WRITES_AT`) of atoms,
    which pin no superseded version and which the cyclic collector stops
    tracking: a read keeps ``key, writer, commit_seq``, and only a read of a
    still-unsequenced version (pipelined under RP) keeps the observed
    :class:`Version` in the sequence's place, so :meth:`history` picks up
    the writer's final sequence (``None``, an aborted read, if it never
    commits).
    """

    #: Size of the record ring (and of the aborted-id ring).
    RECORD_RING = 50_000

    def __init__(self, level="serializable", records=False):
        # ValueError on an unknown level, None included.
        self.streaming_checker = StreamingDSGChecker(kinds_for(level))
        # txn_id -> flat record (see _WRITES_AT), and the aborted-id ring.
        self._records = OrderedDict() if records else None
        self._aborted_ids = OrderedDict() if records else None
        self._evicted = False
        self.recorded_commits = 0
        #: Transaction ids committed more than once — a phantom commit
        #: (e.g. a retransmitted commit applied twice by a broken dedup).
        #: Must stay empty; the degraded harness asserts on it.
        self.duplicate_commits = []

    def _held(self):
        """The record ring; a recorder without one refuses to answer."""
        if self._records is None:
            raise ValueError("this recorder keeps no commit records (records=False)")
        return self._records

    def on_commit(self, txn, versions):
        """Fold one committed transaction and its installed versions."""
        checker, txn_id = self.streaming_checker, txn.txn_id
        if checker.phantom_commit(txn_id):
            # No engine path may commit twice, retransmits included.
            self.duplicate_commits.append(txn_id)
        scans = tuple(txn.scans) if txn.scans else ()
        reads = [(record.key, record.version) for record in txn.reads
                 if record.version is not None]
        records = self._records
        if records is not None:
            flat = [txn.txn_type, scans, len(versions)]
            for version in versions:
                flat += (version.key, version.commit_seq)
            for key, version in reads:
                seq = version.commit_seq
                flat += (key, version.writer, version if seq is None else seq)
            records[txn_id] = tuple(flat)
            while len(records) > self.RECORD_RING:
                records.popitem(last=False)
                self._evicted = True
        checker.on_commit(txn_id, versions, reads, scans)
        self.recorded_commits += 1

    def on_abort(self, txn):
        """Record that a transaction aborted (readers of it are doomed)."""
        self.streaming_checker.on_abort(txn.txn_id)
        aborted = self._aborted_ids
        if aborted is not None:
            aborted[txn.txn_id] = None
            while len(aborted) > self.RECORD_RING:
                aborted.popitem(last=False)

    def on_release(self, txn_id):
        """The engine let go of ``txn_id``: the checker forgets what no
        later commit can ask about it — its detector alone when commit
        records are kept, since the lanes read the rest."""
        checker = self.streaming_checker
        (checker.release if self._records is None else checker.detector.release)(txn_id)

    def on_crash(self, vanished):
        """Stitch a simulated crash into the recorded history.

        ``vanished`` committed in memory but did not survive recovery: they
        leave the records and (by the checker's purge) every version order,
        and count as aborted.  A surviving read of their data is an aborted
        read: the checker flags the readers it still holds parked, and one
        scan of the records here hands it the rest, each read once.
        Purging leaves every survivor's final version of a key in place, so
        intermediate reads need no second look.
        """
        records, aborted = self._held(), self._aborted_ids
        vanished = {txn_id for txn_id in vanished if txn_id}
        if not vanished:
            return
        checker = self.streaming_checker
        # The checker's committed set, not the ring, spans the whole run.
        self.recorded_commits -= len(vanished & checker._committed)
        for txn_id in vanished:
            records.pop(txn_id, None)
            aborted[txn_id] = None
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

    def on_recovered(self, txn_id, versions, txn_type="recovered"):
        """Register a *ghost* survivor, durable but never committed in memory
        (the crash fired between precommit and acknowledgement): recovery
        resurrects its writes, and only they constrain the stitched graph —
        its reads died with the crash, as the durable log keeps none."""
        records = self._held()
        flat = [txn_type, (), len(versions)]
        for version in versions:
            flat += (version.key, version.commit_seq)
        self.streaming_checker.on_commit(txn_id, versions, (), ())
        records[txn_id] = tuple(flat)
        self.recorded_commits += 1

    def seq_of(self, key, writer):
        """Commit sequence of ``writer``'s last version of ``key``, read from
        the tail of the checker's version order (``None`` if there is none).

        The crash harness restores surviving versions with it.  A lane's
        recorder keeps the whole order, so the answer spans the run; without
        records, a writer older than the trimmed head has none."""
        checker = self.streaming_checker
        for seq, found in zip(reversed(checker._seqs.get(key, ())),
                              reversed(checker._writers.get(key, ()))):
            if found == writer:
                return seq
        return None

    def history(self):
        """Materialise the recorded run as a :class:`History`."""
        records = self._held()
        checker = self.streaming_checker
        version_orders = {
            key: list(zip(checker._seqs[key], writers))
            for key, writers in checker._writers.items()
        }
        extra_committed = {
            writer for writers in checker._writers.values() for writer in writers
            if writer not in records
        } if self._evicted else set()
        history = History(
            version_orders=version_orders,
            aborted_ids=set(self._aborted_ids),
            extra_committed=extra_committed,
        )
        for txn_id, flat in records.items():
            txn_type, scans, num_writes = flat[:_WRITES_AT]
            reads_at = _WRITES_AT + 2 * num_writes
            writes, reads = flat[_WRITES_AT:reads_at], flat[reads_at:]
            history.add_transaction(
                HistoryTransaction(
                    txn_id=txn_id,
                    txn_type=txn_type,
                    writes=list(zip(writes[::2], writes[1::2])),
                    reads=[
                        (key, writer, seq if isinstance(seq, int) else seq.commit_seq)
                        for key, writer, seq in zip(reads[::3], reads[1::3], reads[2::3])
                    ],
                    scans=list(scans),
                )
            )
        return history
