"""Streaming DSG maintenance: dependency edges derived at commit time.

:class:`StreamingDSGChecker` derives every ``ww``/``wr``/``rw`` edge *as
transactions commit* and feeds it to an
:class:`~repro.isolation.cycles.IncrementalCycleDetector`, in the spirit of
DGCC's on-the-path dependency bookkeeping, instead of rebuilding the Direct
Serialization Graph after the run.  Aborted and intermediate reads are
caught in the same pass, so the final check is a sweep of the parked-reader
frontier.  It is the one isolation oracle; the post-hoc pass it is held to
lives with the tests (``tests/reference_checker.py``).

Edge derivation per commit of ``T`` (mirrors the reference's whole-history one):

* reads ``(key, version)``: a ``wr`` edge from the version's committed
  writer; an ``rw`` anti-dependency from ``T`` to the *next* committed
  writer of the key (bisect on the streamed version order).  A read whose
  successor has not committed yet — or whose writer is still in flight —
  parks ``T`` in a per-``(key, writer)`` waiting set, popped when the
  successor commits.
* writes: a ``ww`` edge from the previous committed writer of each key, an
  ``rw`` edge from every parked reader of that previous version, and a
  ``wr`` edge to every committed reader that read ``T``'s own version
  before ``T`` committed (runtime pipelining).
* scans: the *phantom* rw edge to the first committed writer of a key the
  predicate covers but the scan never read, committed before the scan
  (a per-table index of committed keys, bounded by distinct keys like the
  store) or after it (a per-table registry of committed predicates, which
  grows with committed scans: an edge out of a pruned scanner is dropped,
  but ``num_edges`` still counts it).

Writer id 0 (database population) is an always committed pseudo-transaction
that never appears as a graph node, matching the post-hoc reference.

The rest holds only what a later commit can still ask, by the engine's
retention rule (:meth:`StreamingDSGChecker.release`).  An edge out of a
pruned detector node is dropped, an edge into one is reported
(``edges_into_pruned``), and so is a read below a trimmed version order
(``reads_below_trimmed``): never a wrong edge.  A recorder that keeps commit
records (a fault lane's) releases the detector alone, since its lanes read
the whole version orders and ids.
"""

from bisect import bisect_left, bisect_right, insort
from collections import OrderedDict

from repro.isolation.cycles import IncrementalCycleDetector
from repro.storage.ranges import slice_sorted_pks


class StreamingDSGChecker:
    """Incremental DSG circularity + anomaly check over a commit/abort stream.

    It owns the per-key version order (``_writers`` / ``_seqs``) its
    :class:`~repro.isolation.history.HistoryRecorder` reads: trimmed by
    :meth:`release`, purged of vanished writers by :meth:`on_crash`.
    """

    __slots__ = (
        "kinds", "detector", "_writers", "_seqs", "_waiting", "_committed",
        "_released", "_aborted", "_anchors", "_last_abort", "_table_pks",
        "_scan_watch", "aborted_reads", "intermediate_reads",
        "edges_into_pruned", "reads_below_trimmed", "num_edges",
    )

    def __init__(self, kinds):
        self.kinds = frozenset(kinds)
        self.detector = IncrementalCycleDetector()
        self._writers = {}   # key -> [writer, ...] in commit order (None: floor)
        self._seqs = {}      # key -> [commit_seq, ...] (parallel list, bisect)
        self._waiting = {}   # (key, writer) -> {reader id: observed commit_seq}
        self._committed = set()  # committed, not yet released
        self._released = 0       # every id up to the highest released one finished
        self._aborted = OrderedDict()  # aborted id -> None, in abort order
        self._anchors = {}     # commit id -> last abort before it
        self._last_abort = None  # an abort no commit has followed yet
        self._table_pks = {}   # table -> sorted pks with a committed version
        self._scan_watch = {}  # table -> [(scanner, KeyRange, read keys), ...]
        # Violations: (reader, key, writer) reads and (source, target) edges.
        self.aborted_reads, self.intermediate_reads, self.reads_below_trimmed = [], [], []
        self.edges_into_pruned, self.num_edges = [], 0

    @property
    def cycle(self):
        """The first forbidden cycle (edge list) or ``None``."""
        return self.detector.cycle

    def _add_edge(self, source, target, kind):
        if source == target:
            return
        self.num_edges += 1
        if kind in self.kinds:
            # Both ends have committed, so one that is no node was pruned.
            if target not in self.detector:
                self.edges_into_pruned.append((source, target))
            elif source in self.detector:
                self.detector.add_edge(source, target)

    def on_commit(self, txn_id, versions, reads, scans=()):
        """Fold one committed transaction into the graph: ``versions`` it
        installed, the ``(key, version)`` ``reads`` it observed and its
        effective :class:`~repro.storage.ranges.KeyRange` ``scans``."""
        committed, released = self._committed, self._released
        writers_map, seqs_map, waiting = self._writers, self._seqs, self._waiting
        add_edge = self._add_edge
        self.detector.add_node(txn_id)
        if self._last_abort is not None:
            self._anchors[txn_id], self._last_abort = self._last_abort, None
        for key, version in reads:
            writer = version.writer
            if writer == txn_id:
                continue
            seq = version.commit_seq
            # A released writer finished, and only a commit sequences a version.
            if writer in committed or (seq is not None and 0 < writer <= released):
                add_edge(writer, txn_id, "wr")
                if seq is None:
                    # Committed writer but an unsequenced version object: a
                    # replaced intermediate; no rw edge is derivable (the
                    # post-hoc reference skips it identically).
                    continue
            elif writer != 0:
                if writer in self._aborted:
                    self.aborted_reads.append((txn_id, key, writer))
                else:
                    # In-flight writer (pipelined read): its commit resolves
                    # the wr edge (and the intermediate-read check against
                    # its final version), a later writer of the key the rw
                    # edge; a writer that never commits is flagged by
                    # pending_aborted_reads().
                    slot = waiting.get((key, writer))
                    if slot is None:
                        slot = waiting[(key, writer)] = {}
                    slot[txn_id] = seq
                continue
            elif seq is None:
                continue
            # rw anti-dependency: next committed writer of the key after seq.
            # A writer's versions of a key are adjacent (one commit sequences
            # them all), so a read whose successor is its own writer's saw a
            # version that was not that writer's final one.
            seqs = seqs_map.get(key)
            if seqs:
                index = bisect_right(seqs, seq)
                if index < len(seqs):
                    successor = writers_map[key][index]
                    if successor is None:
                        self.reads_below_trimmed.append((txn_id, key, writer))
                        continue
                    if successor == writer:
                        self.intermediate_reads.append((txn_id, key, writer))
                    add_edge(txn_id, successor, "rw")
                    continue
            # No successor committed yet: park until one arrives.
            slot = waiting.get((key, writer))
            if slot is None:
                slot = waiting[(key, writer)] = {}
            slot[txn_id] = seq
        if scans:
            # Phantom rw edges, backward direction: keys already committed
            # inside a scanned range that the scan never read — the scan
            # observed their absence, which precedes their first committed
            # version.  Forward direction (keys committed later) is handled
            # by the watch registry in the versions loop below.
            read_keys = {key for key, _version in reads}
            table_pks = self._table_pks
            scan_watch = self._scan_watch
            for key_range in scans:
                table = key_range.table
                pks = table_pks.get(table)
                if pks:
                    start, stop = slice_sorted_pks(pks, key_range.lo, key_range.hi)
                    for pk in pks[start:stop]:
                        key = (table, pk)
                        if key in read_keys:
                            continue
                        first = writers_map[key][0]
                        if first is None:
                            self.reads_below_trimmed.append((txn_id, key, None))
                        else:
                            add_edge(txn_id, first, "rw")
                watchers = scan_watch.get(table)
                if watchers is None:
                    watchers = scan_watch[table] = []
                watchers.append((txn_id, key_range, read_keys))
        committed.add(txn_id)
        for version in versions:
            key = version.key
            seq = version.commit_seq
            writers = writers_map.get(key)
            if writers is None:
                writers = writers_map[key] = []
                seqs_map[key] = []
                if isinstance(key, tuple) and len(key) == 2:
                    # First committed version of the key: index it for later
                    # scans, and give every earlier scan that covered (but
                    # never read) it the phantom rw edge it is owed.
                    table, pk = key
                    pks = self._table_pks.get(table)
                    if pks is None:
                        pks = self._table_pks[table] = []
                    insort(pks, pk)
                    watchers = self._scan_watch.get(table)
                    if watchers:
                        for scanner_id, key_range, read_keys in watchers:
                            if scanner_id == txn_id or key in read_keys:
                                continue
                            if key_range.contains_pk(pk):
                                add_edge(scanner_id, txn_id, "rw")
            elif len(writers) > 1 and writers[1] not in committed:
                # Trim: an entry goes once its successor's writer is released
                # (it left the committed set); the last to go stays as the
                # floor.  The tail stays: its successor is this version.
                dead, last = 1, len(writers) - 1
                while dead < last and writers[dead + 1] not in committed:
                    dead += 1
                if dead > 1:
                    del writers[:dead - 1], seqs_map[key][:dead - 1]
                writers[0] = None
            previous = writers[-1] if writers else 0
            writers.append(txn_id)
            seqs_map[key].append(seq)
            if previous:
                add_edge(previous, txn_id, "ww")
            parked = waiting.pop((key, previous), None)
            if parked:
                for reader in parked:
                    add_edge(reader, txn_id, "rw")
            pipelined = waiting.get((key, txn_id))
            if pipelined:
                # Readers that consumed T's version before T committed: the
                # wr edge lands now (they stay parked for their rw edge, with
                # T's sequence, which the run-end sweep reads once T is
                # released), and a reader that observed a sequenced
                # non-final version saw an intermediate write.
                for reader, read_seq in pipelined.items():
                    add_edge(txn_id, reader, "wr")
                    if read_seq is not None and read_seq != seq:
                        self.intermediate_reads.append((reader, key, txn_id))
                    pipelined[reader] = seq

    def on_abort(self, txn_id):
        """Record the abort so later-committing readers of it are flagged."""
        self._aborted[txn_id] = None
        self._last_abort = txn_id

    def phantom_commit(self, txn_id):
        """Whether a commit of ``txn_id`` now would be a phantom: it committed
        already, or it is at or below the highest released id, so it finished
        (as a commit, unless its abort is still held; a released abort counts
        too, since the id finished).  The answer spans the run."""
        return txn_id in self._committed or (
            0 < txn_id <= self._released and txn_id not in self._aborted
        )

    def release(self, txn_id):
        """The engine let go of committed ``txn_id``: all active began after
        it finished.  So its node is pruned with its in-neighbours; an entry
        whose successor it wrote goes at the key's next commit (the store's
        chain trim), the last one kept as the floor, writer erased; it leaves
        the committed ids for the watermark, as every id up to it finished;
        and an abort before its commit goes: its readers overlapped it."""
        self.detector.release(txn_id)
        self._committed.discard(txn_id)
        if txn_id > self._released:
            self._released = txn_id
        last = self._anchors.pop(txn_id, None)
        aborted = self._aborted
        if last in aborted:
            while aborted.popitem(last=False)[0] != last:
                pass

    def on_crash(self, vanished):
        """Stitch across a crash: ``vanished`` committed in memory but were
        not durable, so recovery discarded them.  Their order entries go
        (later edges join the survivors), their ids count as aborted (a
        retained read of them is an aborted read), and as readers they leave
        no trace.  This is sound without re-running the detector: the rebuilt
        store sequences above every pre-crash version, so every cross-crash
        edge points forward, and the edges folded in really happened."""
        vanished = set(vanished)
        if not vanished:
            return
        self._committed -= vanished
        self._aborted.update(dict.fromkeys(sorted(vanished)))
        writers_map, seqs_map = self._writers, self._seqs
        for key, writers in list(writers_map.items()):
            if vanished.isdisjoint(writers):
                continue
            kept = [pair for pair in zip(seqs_map[key], writers) if pair[1] not in vanished]
            if kept:
                seqs_map[key], writers_map[key] = map(list, zip(*kept))
                continue
            del writers_map[key], seqs_map[key]
            if isinstance(key, tuple) and len(key) == 2:
                pks = self._table_pks.get(key[0])
                index = bisect_left(pks, key[1]) if pks else 0
                if pks and index < len(pks) and pks[index] == key[1]:
                    del pks[index]
        # Parked reads of a vanished reader would surface as false aborted
        # reads, and its scans would owe phantom edges nobody can be
        # charged with.  A surviving reader of a vanished writer stays
        # parked (the sweep flags it) or HistoryRecorder.on_crash hands it
        # back from the records.
        for slot_key, readers in list(self._waiting.items()):
            for reader in vanished.intersection(readers):
                del readers[reader]
            if not readers:
                del self._waiting[slot_key]
        for table, watchers in self._scan_watch.items():
            self._scan_watch[table] = [entry for entry in watchers if entry[0] not in vanished]
        self.aborted_reads = [entry for entry in self.aborted_reads if entry[0] not in vanished]
        self.intermediate_reads = [
            entry for entry in self.intermediate_reads if entry[0] not in vanished
        ]

    def pending_aborted_reads(self):
        """Parked readers whose writer never committed: aborted reads.

        Run-end sweep of the waiting frontier, O(parked readers).  Mirrors
        the post-hoc condition: the writer aborted, or the observed version
        never got a commit sequence and its writer never committed (a
        released writer's parked readers all hold a sequence).
        """
        committed, aborted = self._committed, self._aborted
        flagged = []
        for (key, writer), readers in self._waiting.items():
            if writer == 0 or writer in committed:
                continue
            writer_aborted = writer in aborted
            for reader, seq in sorted(readers.items()):
                if writer_aborted or seq is None:
                    flagged.append((reader, key, writer))
        return flagged
