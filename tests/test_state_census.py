"""State census: nothing under ``src/repro`` is written and never read.

A second copy of a fact, kept by different rules than its source, is how the
RP stale slot and the SSI drain floor went wrong; the cheapest mirror to keep
out is the one nobody reads at all.  AST only, nothing is imported: every
attribute *assigned* under ``src/repro/`` (``obj.name = ...``, ``obj.name +=
...`` — which reads only to write back — and the class-level fields of
``Transaction`` and ``Version``) must have a *load* (``obj.name`` in any
other position) somewhere under ``src/``, be read by a test
(``READ_BY_TESTS``, checked the same way under ``tests/``), or be kept for a
stated reason (``KEPT_UNREAD``).

Names are matched without types — ``retries`` on one class covers
``retries`` on another — so the census can miss a dead attribute that shares
its name with a live one; it never reports a live one.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "repro"

#: Dataclasses whose fields are state even when only the constructor sets them.
FIELD_CLASSES = {"Transaction", "Version"}

#: Counters and fields that only tests read.
READ_BY_TESTS = {
    "timeout_count",         # LockTable
    "graph_edges",           # DeterministicBatch
    "batches_sealed",        # DeterministicBatch
    "duplicate_requests",    # TimestampOracle
    "duplicate_precommits",  # DurabilityManager
    "records_written",       # DurabilityManager
    "sent", "dropped", "delayed", "reordered",  # LinkState, one per fault kind
    "cause",                 # Interrupt
}

#: attribute -> why it stays although nothing reads it.
KEPT_UNREAD = {
    "client_id": "Transaction.client_id — the one thing that says which "
    "closed-loop client issued an attempt; BenchmarkRunner passes it through "
    "execute_transaction/begin, and the trace spine's retry and abort events "
    "(ROADMAP) are keyed by it",
}


def _census(root):
    """Attribute names stored (with the first site) and loaded under ``root``."""
    stores, loads = {}, set()
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Attribute):
                if isinstance(node.ctx, ast.Store):
                    stores.setdefault(node.attr, f"{where}:{node.lineno}")
                elif isinstance(node.ctx, ast.Load):
                    loads.add(node.attr)
            elif isinstance(node, ast.ClassDef) and node.name in FIELD_CLASSES:
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        stores.setdefault(item.target.id, f"{where}:{item.lineno}")
            elif (
                # getattr(obj, "name", ...) is a load by another spelling.
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "getattr"
                and len(node.args) >= 2
                and isinstance(node.args[1], ast.Constant)
            ):
                loads.add(node.args[1].value)
    return stores, loads


def test_every_attribute_written_under_src_is_read():
    stores, loads = _census(SRC)
    assert len(stores) > 300, "the census walked nothing"
    unread = {
        name: site
        for name, site in stores.items()
        if name not in loads and name not in READ_BY_TESTS and name not in KEPT_UNREAD
    }
    assert unread == {}, (
        "written under src/repro but never read under src/ — delete the state, "
        f"or list it in READ_BY_TESTS / KEPT_UNREAD: {unread}"
    )


def test_the_exceptions_are_what_they_say():
    stores, loads = _census(SRC)
    _test_stores, test_loads = _census(TESTS)
    exceptions = READ_BY_TESTS | set(KEPT_UNREAD)
    assert exceptions <= set(stores), "an exception names state that is gone"
    assert not exceptions & loads, "an exception is read under src/ after all"
    assert READ_BY_TESTS <= test_loads, "no test reads it any more"
