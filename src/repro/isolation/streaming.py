"""Streaming DSG maintenance: dependency edges derived at commit time.

A post-hoc checker rebuilds the whole Direct Serialization Graph from a
recorded history after the run (history materialisation plus one batch
pass, roughly linear in reads+writes but with a large constant — the
wall-clock cliff of checked runs).  :class:`StreamingDSGChecker` instead
derives every ``ww``/``wr``/``rw`` edge *as transactions commit* and feeds
them to an :class:`~repro.isolation.cycles.IncrementalCycleDetector`, in
the spirit of DGCC's on-the-path dependency bookkeeping.  The aborted-read
and intermediate-read anomalies are detected in the same pass, so the
post-measurement "check" is just a sweep of the parked-reader frontier —
no history materialisation, no graph build.  It is the one isolation
oracle; the post-hoc pass it is held to lives with the tests
(``tests/reference_checker.py``).

Edge derivation per commit of ``T`` (mirrors the reference's whole-history one):

* reads ``(key, version)``: a ``wr`` edge from the version's committed
  writer; an ``rw`` anti-dependency from ``T`` to the *next* committed
  writer of the key (bisect on the streamed version order).  A read whose
  successor has not committed yet — or whose writer is still in flight —
  parks ``T`` in a per-``(key, writer)`` waiting set.
* writes: a ``ww`` edge from the previous committed writer of each key, an
  ``rw`` edge from every parked reader of that previous version, and a
  ``wr`` edge to every committed reader that read ``T``'s own version
  before ``T`` committed (runtime pipelining).

Waiting sets are popped when the successor commits, so steady-state memory
is the per-key frontier (readers of each key's latest version), not the
whole run.  Writer id 0 (database population) is treated as an always
committed pseudo-transaction that never appears as a graph node, matching
the post-hoc reference.

Scans add the *phantom* rw edges item-level derivation cannot see: a
committed scan whose predicate covers a key it never read anti-depends on
the key's first committed writer — whether that writer committed before
the scan (the scan's snapshot missed it) or after (classic phantom).  The
checker keeps a per-table index of committed keys for the backward
direction and a per-table registry of committed scan predicates for the
forward one; both grow with distinct keys / committed scans, like the
detector's node set.
"""

from bisect import bisect_left, bisect_right, insort

from repro.isolation.cycles import IncrementalCycleDetector
from repro.storage.ranges import slice_sorted_pks


class StreamingDSGChecker:
    """Incremental DSG circularity + anomaly check over a commit/abort stream.

    It also owns the run's per-key version order (``_writers`` / ``_seqs``,
    never evicted, purged only by :meth:`on_crash`), which the
    :class:`~repro.isolation.history.HistoryRecorder` feeding it reads.
    """

    __slots__ = (
        "kinds",
        "detector",
        "_writers",
        "_seqs",
        "_waiting",
        "_committed",
        "_aborted",
        "_final",
        "_table_pks",
        "_scan_watch",
        "aborted_reads",
        "intermediate_reads",
        "num_edges",
    )

    def __init__(self, kinds):
        self.kinds = frozenset(kinds)
        self.detector = IncrementalCycleDetector()
        self._writers = {}   # key -> [writer, ...] in commit order
        self._seqs = {}      # key -> [commit_seq, ...] (parallel list, bisect)
        self._waiting = {}   # (key, writer) -> {reader id: observed commit_seq}
        self._committed = set()
        self._aborted = set()
        self._final = {}     # (key, writer) -> final commit_seq of that version
        self._table_pks = {}   # table -> sorted pks with a committed version
        self._scan_watch = {}  # table -> [(scanner, KeyRange, read keys), ...]
        self.aborted_reads = []
        self.intermediate_reads = []
        self.num_edges = 0

    @property
    def cycle(self):
        """The first forbidden cycle (edge list) or ``None``."""
        return self.detector.cycle

    def _add_edge(self, source, target, kind):
        if source == target:
            return
        self.num_edges += 1
        if kind in self.kinds:
            self.detector.add_edge(source, target)

    def on_commit(self, txn_id, versions, reads, scans=()):
        """Fold one committed transaction into the graph.

        ``versions`` are the freshly installed (committed) versions;
        ``reads`` is a ``(key, version)`` list of the versions it observed;
        ``scans`` is a list of :class:`~repro.storage.ranges.KeyRange`
        predicates (the transaction's effective scan ranges).
        """
        committed = self._committed
        writers_map, seqs_map, waiting = self._writers, self._seqs, self._waiting
        final = self._final
        add_edge = self._add_edge
        for key, version in reads:
            writer = version.writer
            if writer == txn_id:
                continue
            seq = version.commit_seq
            if writer in committed:
                add_edge(writer, txn_id, "wr")
                if seq is None:
                    # Committed writer but an unsequenced version object: a
                    # replaced intermediate; no rw edge is derivable (the
                    # post-hoc reference skips it identically).
                    continue
                if final.get((key, writer), seq) != seq:
                    self.intermediate_reads.append((txn_id, key, writer))
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
            seqs = seqs_map.get(key)
            if seqs:
                index = bisect_right(seqs, seq)
                if index < len(seqs):
                    add_edge(txn_id, writers_map[key][index], "rw")
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
                        add_edge(txn_id, writers_map[key][0], "rw")
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
            previous = writers[-1] if writers else 0
            writers.append(txn_id)
            seqs_map[key].append(seq)
            final[(key, txn_id)] = seq
            if previous:
                add_edge(previous, txn_id, "ww")
            parked = waiting.pop((key, previous), None)
            if parked:
                for reader in parked:
                    add_edge(reader, txn_id, "rw")
            pipelined = waiting.get((key, txn_id))
            if pipelined:
                # Readers that consumed T's version before T committed: the
                # wr edge lands now (they stay parked for their rw edge),
                # and a reader that observed a sequenced non-final version
                # saw an intermediate write.
                for reader, read_seq in pipelined.items():
                    add_edge(txn_id, reader, "wr")
                    if read_seq is not None and read_seq != seq:
                        self.intermediate_reads.append((reader, key, txn_id))

    def on_abort(self, txn_id):
        """Record the abort so later-committing readers of it are flagged."""
        self._aborted.add(txn_id)

    def on_crash(self, vanished):
        """Stitch across a simulated crash: erase the *vanished* writers.

        ``vanished`` are transactions that committed in memory but were not
        durable when the crash hit — recovery discarded them, so their
        versions leave the durable timeline entirely.  Their per-key
        version-order entries are purged (post-recovery edge derivation then
        connects surviving versions directly) and the ids move from
        committed to aborted, so any retained read of their data is flagged
        exactly like a read of an aborted transaction.

        Soundness of purging (rather than re-running the detector): the
        rebuilt store hands out commit sequences strictly above every
        pre-crash sequence, so every cross-crash edge points from the
        pre-crash side to the post-crash side — no cycle can span the
        crash, and edges already folded into the detector remain valid
        (they were derived from reads/writes that really happened before
        the crash; a cycle among them was a genuine pre-crash anomaly).
        """
        vanished = set(vanished)
        if not vanished:
            return
        self._committed -= vanished
        self._aborted |= vanished
        writers_map, seqs_map, final = self._writers, self._seqs, self._final
        dead_keys = []
        for key, writers in writers_map.items():
            if not any(writer in vanished for writer in writers):
                continue
            for writer in writers:
                if writer in vanished:
                    final.pop((key, writer), None)
            kept = [
                (seq, writer)
                for seq, writer in zip(seqs_map[key], writers)
                if writer not in vanished
            ]
            if kept:
                seqs_map[key] = [seq for seq, _writer in kept]
                writers_map[key] = [writer for _seq, writer in kept]
            else:
                dead_keys.append(key)
        for key in dead_keys:
            del writers_map[key]
            del seqs_map[key]
            if isinstance(key, tuple) and len(key) == 2:
                table, pk = key
                pks = self._table_pks.get(table)
                if pks:
                    index = bisect_left(pks, pk)
                    if index < len(pks) and pks[index] == pk:
                        del pks[index]
        # A vanished transaction must leave no trace as a *reader* either:
        # its parked reads would otherwise surface as false pending-aborted
        # reads, and its scan predicates would owe phantom edges it can no
        # longer be charged with.
        empty_slots = []
        for slot_key, readers in self._waiting.items():
            for reader in list(readers):
                if reader in vanished:
                    del readers[reader]
            if not readers:
                empty_slots.append(slot_key)
        for slot_key in empty_slots:
            del self._waiting[slot_key]
        for table, watchers in self._scan_watch.items():
            self._scan_watch[table] = [
                entry for entry in watchers if entry[0] not in vanished
            ]
        # Anomalies already charged to a now-vanished reader evaporate with
        # it (it left no trace); a surviving reader of a vanished writer is
        # still parked (pending_aborted_reads flags it) or is handed back by
        # HistoryRecorder.on_crash, which holds the reads.
        self.aborted_reads = [
            entry for entry in self.aborted_reads if entry[0] not in vanished
        ]
        self.intermediate_reads = [
            entry for entry in self.intermediate_reads if entry[0] not in vanished
        ]

    def pending_aborted_reads(self):
        """Parked readers whose writer never committed: aborted reads.

        Run-end sweep of the waiting frontier — O(parked readers), the only
        post-measurement work the streaming checker needs.  Mirrors the
        post-hoc condition: the read is aborted when the writer aborted, or
        when the observed version never got a commit sequence and its
        writer never committed.
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
