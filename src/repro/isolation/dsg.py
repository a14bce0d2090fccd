"""Direct Serialization Graphs (Adya, Section 2.2.3).

Nodes are committed transactions; edges are the three kinds of direct
dependencies: write-read (``wr``), write-write (``ww``) and read-write
anti-dependencies (``rw``).  Isolation levels are characterised by which
cycles they forbid.

:func:`iter_dsg_edges` is the single source of truth for how a history
maps to dependency edges; both the native checker path
(:mod:`repro.isolation.checker`) and the networkx reference graph the tests
keep (``tests/reference_dsg.py``) derive their edges from it, so equivalence
tests compare detectors, not derivations.
"""

from repro.storage.ranges import slice_sorted_pks

ALL_EDGE_KINDS = frozenset({"ww", "wr", "rw"})


def iter_dsg_edges(history):
    """Yield every ``(source, target, kind)`` dependency edge of a history."""
    committed = history.committed_ids()

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
            next_writer, _next_seq = history.next_writer_after(key, commit_seq)
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
