"""The post-hoc isolation pass the streaming oracle is held to (test-only).

:func:`check_history` checks a materialised
:class:`~repro.isolation.history.History` against Definition 4.2.1 the
long way round: two linear anomaly passes, every dependency edge derived
from the whole history (:func:`iter_dsg_edges`) and one batch Tarjan pass
(:func:`find_cycle`).  It shares no code with
:class:`~repro.isolation.streaming.StreamingDSGChecker`, which derives the
same edges one commit at a time, so an equivalence test compares two
derivations.  Standard library only: it runs where networkx is missing;
the networkx graph of ``tests/reference_dsg.py`` takes its edges from
:func:`iter_dsg_edges` here.
"""

from bisect import bisect_right

from repro.isolation.checker import IsolationReport
from repro.isolation.cycles import strongly_connected_components
from repro.storage.ranges import slice_sorted_pks

ALL_EDGE_KINDS = frozenset({"ww", "wr", "rw"})


# -- version-order queries over a History ------------------------------------


def writers_of(history, key):
    return [writer for _seq, writer in history.version_orders.get(key, [])]


def _seqs_of(history, key):
    """Cached ascending commit-sequence list of ``key`` (bisect support)."""
    cache = getattr(history, "_seq_cache", None)
    if cache is None:
        cache = history._seq_cache = {}
    seqs = cache.get(key)
    if seqs is None:
        seqs = cache[key] = [seq for seq, _writer in history.version_orders.get(key, [])]
    return seqs


def next_writer_after(history, key, commit_seq):
    """Writer of the next committed version of ``key`` after ``commit_seq``.

    Version orders are ascending in commit sequence, so this is a bisect
    (hot keys in long histories have thousands of versions; a linear scan
    per read would make checking quadratic).
    """
    order = history.version_orders.get(key)
    if not order:
        return None, None
    index = bisect_right(_seqs_of(history, key), commit_seq)
    if index < len(order):
        seq, writer = order[index]
        return writer, seq
    return None, None


def committed_ids(history):
    """Every transaction id of ``history`` known to have committed."""
    return set(history.transactions) | history.extra_committed


def final_write_seqs(history):
    """Map of ``(key, writer) -> last committed seq`` over all versions."""
    final = {}
    for key, order in history.version_orders.items():
        for seq, writer in order:
            final[(key, writer)] = seq
    return final


# -- the Direct Serialization Graph (Adya, Section 2.2.3) ---------------------


def iter_dsg_edges(history):
    """Yield every ``(source, target, kind)`` dependency edge of a history."""
    committed = committed_ids(history)

    # ww edges: consecutive committed versions of each key.
    for order in history.version_orders.values():
        previous_writer = None
        for _seq, writer in order:
            if previous_writer is not None and previous_writer in committed and writer in committed:
                if previous_writer != writer:
                    yield previous_writer, writer, "ww"
            previous_writer = writer

    # wr and rw edges from each transaction's reads.
    for txn in history.transactions.values():
        for key, writer, commit_seq in txn.reads:
            if writer in committed and writer != txn.txn_id:
                yield writer, txn.txn_id, "wr"
            if commit_seq is None:
                # Read of a version that never committed (should have been
                # prevented); the checker flags it as an aborted read.
                continue
            next_writer, _next_seq = next_writer_after(history, key, commit_seq)
            if next_writer is not None and next_writer in committed:
                if next_writer != txn.txn_id:
                    yield txn.txn_id, next_writer, "rw"

    # Phantom rw edges from recorded scans: a scan anti-depends on the first
    # committed writer of every key its predicate covers but it never read —
    # the scan observed the key's absence, which precedes that version.
    # (The loader, writer 0, is skipped: its versions predate every scan, so
    # a scan that missed one simply had the version hidden by its CC; the
    # derivable constraint is against the first transactional writer.)
    scanners = [txn for txn in history.transactions.values() if txn.scans]
    if scanners:
        table_pks = {}
        first_writer = {}
        for key, order in history.version_orders.items():
            if not (isinstance(key, tuple) and len(key) == 2):
                continue
            writer = next(
                (w for _seq, w in order if w != 0 and w in committed), None
            )
            if writer is None:
                continue
            table, pk = key
            pks = table_pks.get(table)
            if pks is None:
                pks = table_pks[table] = []
            pks.append(pk)
            first_writer[key] = writer
        for pks in table_pks.values():
            pks.sort()
        for txn in scanners:
            read_keys = {key for key, _writer, _seq in txn.reads}
            for key_range in txn.scans:
                pks = table_pks.get(key_range.table)
                if not pks:
                    continue
                start, stop = slice_sorted_pks(pks, key_range.lo, key_range.hi)
                for pk in pks[start:stop]:
                    key = (key_range.table, pk)
                    if key in read_keys:
                        continue
                    writer = first_writer[key]
                    if writer != txn.txn_id:
                        yield txn.txn_id, writer, "rw"


def find_cycle(adjacency):
    """Find one cycle in ``{node: successors}``; edge list or ``None``.

    The first component :func:`strongly_connected_components` closes that
    holds a cycle — more than one node, or one node with a self-loop — is
    the witness's home; a bounded walk inside it then extracts a concrete
    cycle for the report.
    """
    for component in strongly_connected_components(adjacency):
        if len(component) > 1:
            break
        node = component[0]
        if node in adjacency.get(node, ()):
            return [(node, node)]
    else:
        return None

    # Walk inside the SCC until a node repeats: that suffix is a cycle.  The
    # walk starts at the set's first member, not the list's, so the witness a
    # report names for a given history is the one it has always named.
    target_scc = set(component)
    start = next(iter(target_scc))
    path = [start]
    position = {start: 0}
    while True:
        current = path[-1]
        step = next(
            successor
            for successor in adjacency.get(current, ())
            if successor in target_scc
        )
        if step in position:
            loop = path[position[step]:]
            return [
                (loop[index], loop[(index + 1) % len(loop)])
                for index in range(len(loop))
            ]
        position[step] = len(path)
        path.append(step)


# -- the post-hoc check --------------------------------------------------------


def _check_anomalies(history):
    """Aborted- and intermediate-read passes (Definition 4.2.1, items 1-2)."""
    report = IsolationReport(num_transactions=len(history))
    committed = committed_ids(history)

    # Anomaly 1: aborted reads (a committed txn read a version that never committed).
    for txn in history.transactions.values():
        for key, writer, commit_seq in txn.reads:
            if writer in history.aborted_ids or (
                commit_seq is None and writer not in committed and writer != 0
            ):
                report.aborted_reads.append((txn.txn_id, key, writer))

    # Anomaly 2: intermediate reads are prevented structurally (the storage
    # module overwrites a transaction's earlier uncommitted version of the
    # same key), but double-check: a read's version must be the writer's
    # final installed version of that key.  One pass over the version orders
    # builds the final-seq map; a per-read rescan would be quadratic on hot
    # keys.
    final_seqs = final_write_seqs(history)
    for txn in history.transactions.values():
        for key, writer, commit_seq in txn.reads:
            if writer not in committed or commit_seq is None:
                continue
            final_seq = final_seqs.get((key, writer))
            if final_seq is not None and commit_seq != final_seq:
                report.intermediate_reads.append((txn.txn_id, key, writer))
    return report


def check_history(history):
    """Check a history for serializability: no aborted or intermediate
    read, and no DSG cycle of any edge kind (Adya's definition, item-level
    only, as noted in Section 2.2.3)."""
    report = _check_anomalies(history)

    # Circularity: one native Tarjan pass over every edge.
    adjacency = {}
    num_edges = 0
    for source, target, _kind in iter_dsg_edges(history):
        num_edges += 1
        successors = adjacency.get(source)
        if successors is None:
            successors = adjacency[source] = set()
        successors.add(target)
    report.num_edges = num_edges
    cycle = find_cycle(adjacency)
    if cycle:
        report.cycles.append(cycle)
        report.serializable = False
    return report
