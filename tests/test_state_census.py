"""State census: nothing under ``src/repro`` is written and never read, and
nothing is defined and never used.

A second copy of a fact, kept by different rules than its source, is how the
RP stale slot and the SSI drain floor went wrong; the cheapest mirror to keep
out is the one nobody reads at all.  AST only, nothing is imported: every
attribute *assigned* under ``src/repro/`` (``obj.name = ...``, ``obj.name +=
...`` — which reads only to write back — and the class-level fields of
``Transaction`` and ``Version``) must have a *load* (``obj.name`` in any
other position) somewhere under ``src/``, be read by a test
(``READ_BY_TESTS``, checked the same way under ``tests/``), or be kept for a
stated reason (``KEPT_UNREAD``).

The second census is over definitions: every module-level function or
class and every public method under ``src/repro`` must be *referenced* —
a module-level name loaded as a name or an attribute, a method loaded as an
attribute (or through a literal ``getattr``) — somewhere
under ``src/``, ``benchmarks/`` or ``examples/``, or be named in
``USED_BY_TESTS`` with the test module that reads it.  An import or an
``__all__`` entry is not a use; a class handed to ``@register_cc`` is (the
registry instantiates it by its ``name``).

Names are matched without types — ``retries`` on one class covers
``retries`` on another — so either census can miss a dead name that shares
its spelling with a live one; it never reports a live one.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent
SRC = REPO / "src" / "repro"

#: Dataclasses whose fields are state even when only the constructor sets them.
FIELD_CLASSES = {"Transaction", "Version"}

#: Counters and fields that only tests read.
READ_BY_TESTS = {
    "timeout_count",         # LockTable
    "graph_edges",           # DeterministicBatch
    "batches_sealed",        # DeterministicBatch
    "duplicate_precommits",  # DurabilityManager
    "records_written",       # DurabilityManager
}

#: attribute -> why it stays although nothing reads it.
KEPT_UNREAD = {
    "client_id": "Transaction.client_id — the one thing that says which "
    "closed-loop client issued an attempt; BenchmarkRunner passes it through "
    "execute_transaction/begin, and the trace spine's retry and abort events "
    "(ROADMAP) are keyed by it",
}


def _is_literal_getattr(node):
    """``getattr(obj, "name", ...)`` is a load by another spelling."""
    return (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "getattr"
        and len(node.args) >= 2
        and isinstance(node.args[1], ast.Constant)
    )


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
            elif _is_literal_getattr(node):
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


# -- definitions -------------------------------------------------------------

#: definition -> the test module that uses it (nothing under ``src/``,
#: ``benchmarks/`` or ``examples/`` does).  Inspection surface for tests and
#: callers of the library, kept on purpose; anything else the census turns
#: up is deleted instead.
USED_BY_TESTS = {
    "TransactionProfile.write_tables": "test_config_and_analysis",
    "TransactionProfile.read_tables": "test_config_and_analysis",
    "RPAnalysis.step_of": "test_config_and_analysis",
    "LockTable.try_acquire": "test_engine_and_cc",
    "LockTable.acquire": "test_engine_and_cc",
    "LockTable.waiting": "test_engine_and_cc",
    "Transaction.aborted": "test_engine_and_cc",
    "WriteAheadLog.pending": "test_storage",
    "TimestampOracle.last": "test_engine_and_cc",
    "TransactionContext.think": "test_cc_conformance",
    "PartitionedCC.instances": "test_engine_and_cc",
    "Database.read_row": "test_isolation_workloads_autoconf",
    "History.committed_ids": "reference_checker",
    "Process.is_alive": "test_sim_kernel",
    # The only backend whose values leave the process (ROADMAP: stays).
    "FileBackend": "test_storage",
    "DurabilityManager.persistent_gcp_epoch": "test_crash_recovery",
    "DurabilityManager.wait_durable": "test_storage",
    "RecoveryResult.require_transaction": "test_storage",
    "MultiVersionStore.unresolved_slots_of": "test_batch_reference",
    "KeyRange.contains_key": "test_scans",
    "Catalog.table_names": "test_storage",
    "Workload.transaction_names": "test_engine_and_cc",
}

#: Decorators that hand the class to a registry which instantiates it by name.
REGISTERING_DECORATORS = {"register_cc"}


def _registers_itself(node):
    return any(
        isinstance(decorator, ast.Name) and decorator.id in REGISTERING_DECORATORS
        for decorator in node.decorator_list
    )


def _definitions(root):
    """``name`` / ``Class.method`` -> site, for what the census covers."""
    found = {}
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for path in sorted(root.rglob("*.py")):
        where = path.relative_to(root)
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, kinds) or _registers_itself(node):
                continue
            found.setdefault(node.name, f"{where}:{node.lineno}")
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, kinds[:2]) and not item.name.startswith("_"):
                        found.setdefault(
                            f"{node.name}.{item.name}", f"{where}:{item.lineno}"
                        )
    return found


def _referenced(paths):
    """What ``paths`` load: bare names, and attributes (``obj.name``, ``getattr``).

    A name in store context is not a use — a local called ``last`` must not
    keep ``TimestampOracle.last`` alive.
    """
    names, attributes = set(), set()
    for path in paths:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                if isinstance(node.ctx, ast.Load):
                    names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
            elif _is_literal_getattr(node):
                attributes.add(node.args[1].value)
    return names, attributes


def _used_outside_tests():
    roots = (REPO / "src", REPO / "benchmarks", REPO / "examples")
    return _referenced(path for root in roots for path in sorted(root.rglob("*.py")))


def _is_used(definition, referenced):
    """A method is reached through an attribute; only a module-level name is
    also reached bare."""
    names, attributes = referenced
    owner, _dot, bare = definition.rpartition(".")
    return bare in attributes or (not owner and bare in names)


def test_every_definition_under_src_is_used():
    definitions = _definitions(SRC)
    assert len(definitions) > 400, "the census walked nothing"
    used = _used_outside_tests()
    unused = {
        name: site
        for name, site in definitions.items()
        if not _is_used(name, used) and name not in USED_BY_TESTS
    }
    assert unused == {}, (
        "defined under src/repro, referenced nowhere under src/, benchmarks/ or "
        f"examples/ — delete it, or name its reader in USED_BY_TESTS: {unused}"
    )


def test_the_test_only_definitions_are_what_they_say():
    assert set(USED_BY_TESTS) <= set(_definitions(SRC)), "an entry names a definition that is gone"
    used = _used_outside_tests()
    live = {name for name in USED_BY_TESTS if _is_used(name, used)}
    assert not live, f"used outside tests/ after all: {live}"
    read_by = {
        module: _referenced([TESTS / f"{module}.py"])
        for module in set(USED_BY_TESTS.values())
    }
    for name, module in USED_BY_TESTS.items():
        assert _is_used(name, read_by[module]), (name, module)
