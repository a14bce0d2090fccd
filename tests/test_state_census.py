"""State census: nothing under ``src/repro`` is written and never read,
nothing is defined that only tests use, and nothing is settable that only
tests set.

A second copy of a fact, kept by different rules than its source, is how the
RP stale slot and the SSI drain floor went wrong; the cheapest mirror to keep
out is the one nobody reads at all.  And a definition only tests use is code
the engine, the harness, the benchmarks and the examples never run: a helper
a test needs lives under ``tests/``.  An option only tests set is a value
the traffic never varies: a named constant.  AST only, nothing is imported
(but ``option_counts``, which ``scripts/check.sh`` prints).

The first census is over fields, each owned by a class: every name its body
assigns (a ``@dataclass`` field, a class-level flag), every ``__slots__``
entry and every ``self.name`` a method assigns must be *read*
somewhere under ``src/``, ``benchmarks/`` or ``examples/``, be read by a test
(``READ_BY_TESTS``, with the test module that reads it) or be kept for a
stated reason (``KEPT_UNREAD``).  Attributes assigned onto other objects
(``txn.reads = ...``) count as fields of no class.  A field's own update
reads it only to write it back, so it is no read: ``x.f += ...``,
``x.f = g(x.f, ...)`` and ``x.f[k] += ...``.  What reads a field:

* ``self.name`` inside a method of a class in the owner's hierarchy (its
  ancestors and descendants under ``src/repro``) — a ``self._active`` that
  one class reads does not keep another class's ``self._active`` alive;
* ``obj.name`` on anything else, or a literal ``getattr(obj, "name")``;
* a call ``obj.name(...)`` only when no class under ``src/repro`` defines a
  method called ``name`` (the field holds a callable); otherwise the call is
  the method's use — ``stats.throughput_series()`` keeps no data field
  called ``throughput_series`` alive.

The second census is over definitions: every module-level function or
class and every method but a dunder under ``src/repro``, private ones
included, must be *referenced* somewhere under ``src/``, ``benchmarks/`` or
``examples/`` outside its own body — a module-level name loaded as a name or
an attribute, a method loaded or called as an attribute (``self.name`` by
its own hierarchy only, as above) or through a literal ``getattr`` — or be
named in ``USED_BY_TESTS`` with the test module that reads it.  An import or
an ``__all__`` entry is not a use, and neither is a recursive call; a class
handed to ``@register_cc`` is (the registry instantiates it by its
``name``).

Outside ``self``, names are matched without types — ``retries`` on one
object covers ``retries`` on another — so either census can miss a dead name
that shares its spelling with a live one.  Neither reports a live one, unless
the only read is one the census cannot see: a method the dataclass machinery
generates (``__eq__``, ``__hash__``), a computed ``getattr``, or a call of a
callable field that shares its name with a method.  Such a field goes in
``KEPT_UNREAD``, naming that reader (none does today).

The third census is over options: every defaulted ``__init__`` or
``from_seed`` parameter under ``src/repro`` and every dataclass field with a
default nothing assigns later is set under ``src/``, ``benchmarks/`` or
``examples/``, or sits in ``SET_BY_TESTS`` with the test module that sets it
and why (:func:`options`, :func:`unset_options`).  It matches names the same
way, so a keyword of one call sets every option so spelt.

The planted-source tests at the end hold the census to what it must catch.
"""

import ast
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
REPO = TESTS.parent

#: ``Class.field`` -> the test module that reads it (nothing outside
#: ``tests/`` does): counters a test pins, the outcome of fault handling a
#: test pins, and what feeds the post-hoc reference checker.
READ_BY_TESTS = {
    "LockTable.timeout_count": "test_engine_and_cc",
    "DeterministicBatch.graph_edges": "test_engine_and_cc",
    "DeterministicBatch.batches_sealed": "test_engine_and_cc",
    "DurabilityManager.duplicate_precommits": "test_network_chaos",
    "CrashReport.committed_before": "test_crash_recovery",
    "RecoveryResult.discarded_transactions": "test_crash_recovery",
    "History.aborted_ids": "reference_checker",
    "History.extra_committed": "reference_checker",
    # The per-reason abort count (cascades against their roots, ROADMAP
    # direction 21); the stream digests pin it, nothing reports it yet.
    "StatsCollector.abort_reasons": "test_profiler_stream",
}

#: ``Class.field`` -> why it stays although nothing outside ``tests/`` reads it.
KEPT_UNREAD = {
    "Transaction.client_id": "the one thing that says which closed-loop "
    "client issued an attempt; BenchmarkRunner passes it through "
    "execute_transaction/begin, and the trace spine's retry and abort events "
    "(ROADMAP) are keyed by it",
    "TransactionProfile.description": "documentation: the one-line summary "
    "each workload gives its stored procedure, next to its access profile",
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


def _is_dunder(name):
    return name.startswith("__") and name.endswith("__")


def _base_name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _slots(node):
    for item in node.body:
        if (
            isinstance(item, ast.Assign)
            and any(isinstance(t, ast.Name) and t.id == "__slots__" for t in item.targets)
            and isinstance(item.value, (ast.Tuple, ast.List))
        ):
            for element in item.value.elts:
                if isinstance(element, ast.Constant) and not element.value.startswith("__"):
                    yield element.value, element.lineno


#: Decorators that hand the class to a registry which instantiates it by name.
REGISTERING_DECORATORS = {"register_cc"}


class _Sources(ast.NodeVisitor):
    """What a set of source files defines, assigns and reads.

    ``classes``: name -> ``{"bases", "fields", "methods"}`` (fields and
    methods with their sites); ``definitions``: module-level ``name`` and
    every ``Class.method`` but a dunder -> site; ``foreign_stores``: attribute -> site,
    for stores onto anything but ``self``; ``names``: bare names loaded;
    ``loads`` / ``calls``: attributes loaded / called on anything but
    ``self``; ``self_loads`` / ``self_calls``: ``(class, attribute)``.  Each
    reference maps to the definitions it sits in (``within``): the
    module-level name, and ``Class.method`` inside a method.
    """

    def __init__(self, paths, base):
        self.classes, self.definitions, self.foreign_stores = {}, {}, {}
        self.names, self.loads, self.calls = {}, {}, {}
        self.self_loads, self.self_calls = {}, {}
        self._class = self._self = None
        self._within = ()
        for path in paths:
            self._where = path.relative_to(base)
            module = ast.parse(path.read_text(), filename=str(path))
            # ids of the loads a field's own update makes, per module: an
            # id is only unique while its tree lives.
            self._updates = set()
            for node in module.body:
                self._define(node)
            self.visit(module)

    def _site(self, node):
        return f"{self._where}:{node.lineno}"

    def _define(self, node):
        kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        if not isinstance(node, kinds):
            return
        if any(_base_name(d) in REGISTERING_DECORATORS for d in node.decorator_list):
            return
        self.definitions.setdefault(node.name, self._site(node))
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds[:2]) and not _is_dunder(item.name):
                    self.definitions.setdefault(f"{node.name}.{item.name}", self._site(item))

    def _note(self, table, key):
        table.setdefault(key, set()).add(self._within)

    def _enter(self, key):
        """Visit a definition's body as within ``key`` (``None``: as it is)."""
        outer = self._within
        if key is not None:
            self._within = outer + (key,)
        return outer

    def visit_ClassDef(self, node):
        info = self.classes.setdefault(node.name, {"bases": [], "fields": {}, "methods": {}})
        info["bases"].extend(filter(None, map(_base_name, node.bases)))
        for item in node.body:
            if isinstance(item, ast.Assign):
                targets = item.targets
            elif isinstance(item, ast.AnnAssign):
                targets = [item.target]
            else:
                continue
            for target in targets:
                if isinstance(target, ast.Name) and not _is_dunder(target.id):
                    info["fields"].setdefault(target.id, self._site(item))
        for name, lineno in _slots(node):
            info["fields"].setdefault(name, f"{self._where}:{lineno}")
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                info["methods"].setdefault(item.name, self._site(item))
        outer = self._class, self._self, self._enter(None if self._within else node.name)
        self._class, self._self = node.name, None
        self.generic_visit(node)
        self._class, self._self, self._within = outer

    def visit_FunctionDef(self, node):
        outer = self._self
        static = any(_base_name(d) == "staticmethod" for d in node.decorator_list)
        if self._self is None and self._class is not None and node.args.args and not static:
            # A method's first argument is the instance (or the class).
            self._self = node.args.args[0].arg
        if not self._within:
            key = node.name
        elif self._within == (self._class,):
            key = f"{self._class}.{node.name}"
        else:
            key = None
        within = self._enter(key)
        self.generic_visit(node)
        self._self, self._within = outer, within

    visit_AsyncFunctionDef = visit_FunctionDef

    def _on_self(self, node):
        return (
            self._self is not None
            and isinstance(node.value, ast.Name)
            and node.value.id == self._self
        )

    def visit_Name(self, node):
        # A name in store context is not a use: a local called ``last``
        # keeps no function ``last`` alive.
        if isinstance(node.ctx, ast.Load):
            self._note(self.names, node.id)

    def visit_Call(self, node):
        func = node.func
        if isinstance(func, ast.Attribute):
            if self._on_self(func):
                self._note(self.self_calls, (self._class, func.attr))
            else:
                self._note(self.calls, func.attr)
                self.visit(func.value)
            for child in (*node.args, *node.keywords):
                self.visit(child)
            return
        if _is_literal_getattr(node):
            self._note(self.loads, node.args[1].value)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        # ``x.f[k] += ...`` loads ``x.f`` only to update it.
        if isinstance(node.target, ast.Subscript) and isinstance(node.target.value, ast.Attribute):
            self._updates.add(id(node.target.value))
        self.generic_visit(node)

    def visit_Assign(self, node):
        # ``x.f = g(x.f, ...)``: the loads of the target itself update it.
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                spelling = ast.dump(target.value)
                self._updates.update(
                    id(load) for load in ast.walk(node.value)
                    if isinstance(load, ast.Attribute) and load.attr == target.attr
                    and ast.dump(load.value) == spelling
                )
        self.generic_visit(node)

    def visit_Attribute(self, node):
        if id(node) in self._updates:
            self.generic_visit(node)
        elif isinstance(node.ctx, ast.Store):
            if self._on_self(node):
                fields = self.classes[self._class]["fields"]
                fields.setdefault(node.attr, self._site(node))
            else:
                self.foreign_stores.setdefault(node.attr, self._site(node))
        elif isinstance(node.ctx, ast.Load):
            if self._on_self(node):
                self._note(self.self_loads, (self._class, node.attr))
            else:
                self._note(self.loads, node.attr)
        self.generic_visit(node)

    def hierarchy(self, name):
        """``name``, its ancestors and its descendants among ``classes``."""
        parents = {
            cls: [b for b in info["bases"] if b in self.classes]
            for cls, info in self.classes.items()
        }
        children = {}
        for cls, bases in parents.items():
            for base in bases:
                children.setdefault(base, []).append(cls)
        found = {name}
        for edges in (parents, children):
            stack = [name]
            while stack:
                for other in edges.get(stack.pop(), ()):
                    if other not in found:
                        found.add(other)
                        stack.append(other)
        return found

    def fields(self, under):
        """``Class.field`` (``.field`` for a store onto another object) ->
        site, for the fields assigned under ``under``."""
        found = {
            f"{cls}.{field}": site
            for cls, info in self.classes.items()
            for field, site in info["fields"].items()
        }
        owned = {key.rpartition(".")[2] for key in found}
        for field, site in self.foreign_stores.items():
            if field not in owned:
                found[f".{field}"] = site
        return {key: site for key, site in found.items() if site.startswith(under)}

    def reads(self, key):
        """Whether anything scanned reads the field ``Class.field``."""
        cls, _dot, field = key.rpartition(".")
        if field in self.loads:
            return True
        if field in self.calls and not any(
            field in info["methods"] for info in self.classes.values()
        ):
            return True
        if not cls:
            return False
        family = self.hierarchy(cls)
        self_reads = set(self.self_loads)
        if not any(field in self.classes[member]["methods"] for member in family):
            self_reads |= set(self.self_calls)
        return any((member, field) in self_reads for member in family)

    def uses(self, definition):
        """Whether anything scanned references ``name`` or ``Class.method``.

        A method is reached through an attribute (``self.name`` from its own
        hierarchy only); only a module-level name is also reached bare.  A
        reference inside the definition's own body is no use.
        """
        owner, _dot, bare = definition.rpartition(".")

        def elsewhere(table, key):
            return any(definition not in within for within in table.get(key, ()))

        if elsewhere(self.loads, bare) or elsewhere(self.calls, bare):
            return True
        if not owner:
            return elsewhere(self.names, bare)
        if owner not in self.classes:
            return False
        if (owner,) in self.names.get(bare, ()):
            return True  # a bare name in the class body (``property(getter, setter)``)
        return any(
            elsewhere(self.self_loads, (member, bare)) or elsewhere(self.self_calls, (member, bare))
            for member in self.hierarchy(owner)
        )


#: Where the library's users live: what is read or referenced here is live.
LIBRARY = ("src", "benchmarks", "examples")


def _library(base):
    """Everything under ``base``'s library directories, scanned once."""
    paths = [path for d in LIBRARY for path in sorted((base / d).rglob("*.py"))]
    return _Sources(paths, base)


def _test_module(module):
    return _Sources([TESTS / f"{module}.py"], REPO)


def unread_fields(base):
    """Fields assigned under ``base/src/repro`` that nothing under ``base``'s
    library reads: ``Class.field`` -> site."""
    library = _library(base)
    return {
        key: site for key, site in library.fields("src/repro/").items()
        if not library.reads(key)
    }


def unused_definitions(base):
    """Definitions under ``base/src/repro`` that nothing under ``base``'s
    library references: ``name`` / ``Class.method`` -> site."""
    library = _library(base)
    return {
        name: site for name, site in library.definitions.items()
        if site.startswith("src/repro/") and not library.uses(name)
    }


def test_every_attribute_written_under_src_is_read():
    assert len(_library(REPO).fields("src/repro/")) > 500, "the census walked nothing"
    unread = {
        key: site
        for key, site in unread_fields(REPO).items()
        if key not in READ_BY_TESTS and key not in KEPT_UNREAD
    }
    assert unread == {}, (
        "a field under src/repro nothing under src/, benchmarks/ or examples/ "
        "reads — delete it and what feeds it, or list it in READ_BY_TESTS / "
        f"KEPT_UNREAD: {unread}"
    )


def test_the_exceptions_are_what_they_say():
    unread = unread_fields(REPO)
    exceptions = set(READ_BY_TESTS) | set(KEPT_UNREAD)
    assert exceptions <= set(unread), "an exception is gone, or read outside tests/ after all"
    for key, module in READ_BY_TESTS.items():
        assert _test_module(module).reads(key), (key, module)


# -- definitions -------------------------------------------------------------

#: definition -> the test module that uses it (nothing under ``src/``,
#: ``benchmarks/`` or ``examples/`` does).  Anything else the census turns up
#: is deleted, or moves under ``tests/`` if a test still needs it.
USED_BY_TESTS = {
    # The only backend whose values leave the process (ROADMAP: stays).
    "FileBackend": "test_storage",
}


def test_every_definition_under_src_is_used():
    assert len(_library(REPO).definitions) > 400, "the census walked nothing"
    unused = {
        name: site
        for name, site in unused_definitions(REPO).items()
        if name not in USED_BY_TESTS
    }
    assert unused == {}, (
        "defined under src/repro, referenced nowhere under src/, benchmarks/ or "
        f"examples/ — delete it, or move it under tests/: {unused}"
    )


def test_the_test_only_definitions_are_what_they_say():
    assert set(USED_BY_TESTS) <= set(unused_definitions(REPO)), (
        "an entry is gone, or used outside tests/ after all"
    )
    for name, module in USED_BY_TESTS.items():
        assert _test_module(module).uses(name), (name, module)


def allow_lists():
    """The census's exceptions, counted (``scripts/check.sh`` prints them)."""
    return (
        f"census allow-lists: test-only definitions {len(USED_BY_TESTS)}, "
        f"fields only tests read {len(READ_BY_TESTS)}, kept unread {len(KEPT_UNREAD)}"
    )


# -- options -----------------------------------------------------------------

#: option -> (the test module that sets it, why it stays settable): nothing
#: under ``src/``, ``benchmarks/`` or ``examples/`` passes it.  Anything else
#: the census turns up becomes a named constant.
_PINNED = "sizes a test cell whose outcome a test pins"
SET_BY_TESTS = {
    **{f"EngineOptions.{name}": ("conftest", "every conformance tuple and stream digest "
                                 "is recorded under the tests' costs and timeouts")
       for name in ("lock_timeout", "commit_wait_timeout", "charge_costs")},
    "CrossGroupConflictWorkload(local_rows)": ("test_cc_conformance", _PINNED),
    "SEATSWorkload(seats_per_flight)": ("test_engine_and_cc", _PINNED),
    "SmallBankWorkload(hot_probability)": ("test_isolation_workloads_autoconf", _PINNED),
    "SmallBankWorkload(initial_balance)": ("test_isolation_workloads_autoconf", _PINNED),
    "TPCCScale.districts_per_warehouse": ("conftest", _PINNED),
    "TPCCScale.customers_per_district": ("conftest", _PINNED),
    "TPCCScale.initial_orders_per_district": ("conftest", _PINNED),
    "TPCCWorkload(scale)": ("conftest", _PINNED),
    "YCSBWorkload(max_scan_length)": ("test_isolation_workloads_autoconf", _PINNED),
    "MessageFault.servers": ("test_network_chaos", "a partition of chosen servers; "
                             "a seeded point cuts the exchange's own destinations"),
    "MessageFault.phases": ("test_network_chaos", "a fault aimed at the one exchange "
                            "whose idempotency a test probes; seeded plans match any"),
    "DurabilityManager(backend_factory)": ("test_storage", "the log on disk (FileBackend), "
                                           "which a test reads back"),
}

#: A dataclass field that starts as an empty container collects state: no option.
_EMPTY_FACTORIES = {"list", "dict", "set", "Counter", "OrderedDict", "defaultdict"}


def _is_dataclass(node):
    return any(
        _base_name(d.func if isinstance(d, ast.Call) else d) == "dataclass"
        for d in node.decorator_list
    )


def _is_option_default(value):
    """Whether a dataclass field's default makes it an option."""
    if value is None:
        return False
    if isinstance(value, ast.Call) and _base_name(value.func) == "field":
        given = {keyword.arg: keyword.value for keyword in value.keywords}
        if "default" in given:
            return True
        return "default_factory" in given and (
            _base_name(given["default_factory"]) not in _EMPTY_FACTORIES
        )
    return True


def options(base):
    """Every option under ``base/src/repro``: ``Class(param)`` and
    ``Class.from_seed(param)`` for a defaulted parameter, ``Class.field``
    for a dataclass field with a default -> (callee, name, positional
    index or ``None``, whether a field, site)."""
    found = {}
    for path in sorted((base / "src/repro").rglob("*.py")):
        where = path.relative_to(base)
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.ClassDef):
                continue
            if _is_dataclass(node):
                order = [
                    item for item in node.body
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name)
                ]
                for index, item in enumerate(order):
                    if _is_option_default(item.value):
                        name = item.target.id
                        found[f"{node.name}.{name}"] = (
                            node.name, name, index, True, f"{where}:{item.lineno}"
                        )
            for item in node.body:
                if not isinstance(item, ast.FunctionDef) or item.name not in (
                    "__init__", "from_seed"
                ):
                    continue
                args = item.args
                positional = [a.arg for a in (*args.posonlyargs, *args.args)][1:]
                defaulted = positional[len(positional) - len(args.defaults):]
                defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d]
                callee = node.name if item.name == "__init__" else f"{node.name}.from_seed"
                for name in defaulted:
                    index = positional.index(name) if name in positional else None
                    found[f"{callee}({name})"] = (
                        callee, name, index, False, f"{where}:{item.lineno}"
                    )
    return found


def _passed(paths):
    """What ``paths`` pass: keyword names and string keys of dict literals
    (a spec's ``params``, a figure row's workload arguments, both handed on
    as keywords), the most positional arguments per callee (``Class`` or
    ``Class.from_seed``) and the attributes stored outside ``__post_init__``."""
    keywords, positional, stores = set(), {}, set()
    for path in paths:
        module = ast.parse(path.read_text())
        normalising = {
            id(inner) for node in ast.walk(module)
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
            for inner in ast.walk(node)
        }
        for node in ast.walk(module):
            if isinstance(node, ast.Call):
                keywords.update(keyword.arg for keyword in node.keywords if keyword.arg)
                func = node.func
                callee = _base_name(func)
                if callee == "from_seed" and isinstance(func, ast.Attribute):
                    callee = f"{_base_name(func.value)}.from_seed"
                count = sum(not isinstance(arg, ast.Starred) for arg in node.args)
                positional[callee] = max(positional.get(callee, 0), count)
            elif isinstance(node, ast.Dict):
                keywords.update(
                    key.value for key in node.keys
                    if isinstance(key, ast.Constant) and isinstance(key.value, str)
                )
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Store):
                if id(node) not in normalising:
                    stores.add(node.attr)
    return keywords, positional, stores


def _sets(passed, option):
    keywords, positional, stores = passed
    callee, name, index, is_field, _site = option
    return (
        name in keywords
        or (index is not None and positional.get(callee, 0) > index)
        or (is_field and name in stores)  # assigned later: state, not an option
    )


def unset_options(base):
    """Options under ``base/src/repro`` nothing under ``base``'s library
    sets: key -> site."""
    passed = _passed([path for d in LIBRARY for path in sorted((base / d).rglob("*.py"))])
    return {
        key: option[-1] for key, option in options(base).items()
        if not _sets(passed, option)
    }


def test_every_option_under_src_is_set_outside_the_tests():
    assert len(options(REPO)) > 100, "the census walked nothing"
    unset = {
        key: site for key, site in unset_options(REPO).items() if key not in SET_BY_TESTS
    }
    assert unset == {}, (
        "an option under src/repro nothing under src/, benchmarks/ or examples/ "
        "sets — make it a named constant, or list it in SET_BY_TESTS: "
        f"{unset}"
    )


def test_the_options_only_tests_set_are_what_they_say():
    assert set(SET_BY_TESTS) <= set(unset_options(REPO)), (
        "an entry is gone, or set outside tests/ after all"
    )
    found = options(REPO)
    for key, (module, _why) in SET_BY_TESTS.items():
        assert _sets(_passed([TESTS / f"{module}.py"]), found[key]), (key, module)


def option_counts():
    """What can be set, counted (``scripts/check.sh`` prints it)."""
    from dataclasses import fields

    from repro.core.engine import EngineOptions
    from repro.storage.durability import DurabilityConfig
    from tests.test_composition import constructor_parameters

    knobs = sum(map(len, constructor_parameters().values()))
    return (
        f"options: cc constructor knobs {knobs}, EngineOptions fields "
        f"{len(fields(EngineOptions))}, DurabilityConfig fields "
        f"{len(fields(DurabilityConfig))}, set only by tests {len(SET_BY_TESTS)}"
    )


# -- the census catches what it must ------------------------------------------

#: A planted library: each case is one dead thing the census must report,
#: next to a live one of the same shape it must not.  The census before it
#: knew classes missed the unread dataclass field (it counted fields of
#: ``Transaction`` and ``Version`` only), the data field named like a live
#: method and the dead ``self._x``; it caught the unread ``__slots__`` entry
#: (assigned, so counted) and the test-only method.  Before private methods
#: counted and a definition's own body was no use, it missed both recursive
#: helpers (``ConfigurationOptimizer._path_to`` was one under ``src/``).
#: Before class bodies counted, it missed the unread class-level flag (six
#: such, ``read_optimized`` and ``write_optimized``, sat under ``src/repro/cc``).
#: Before a field's own update was no read, it missed the maximum and the
#: per-key count nothing else reads (``TypeStats.max_latency`` was one).
PLANTED = {
    "src/repro/planted.py": '''
from collections import Counter
from dataclasses import dataclass


@dataclass
class Outcome:
    duration: float
    unread_field: float


class Slotted:
    __slots__ = ("kept", "unread_slot")

    def __init__(self):
        self.kept = 1
        self.unread_slot = 2

    def value(self):
        return self.kept


class Mechanism:
    leaf_only = False
    tuned_for_reads = True


class Tool:
    def used(self):
        return 1

    def only_tests_call(self):
        return 2


class Stats:
    def series(self):
        return []


@dataclass
class Report:
    series: list


class Environment:
    def __init__(self):
        self._active = True


class Pipeline:
    def __init__(self):
        self._active = {}

    def size(self):
        return len(self._active)


@dataclass
class Costs:
    extra_rtts: int = 0


class Walker:
    def walk(self, depth):
        return self._step(depth)

    def _step(self, depth):
        return depth

    def _descend(self, depth):
        return self._descend(depth - 1) if depth else 0


def _countdown(n):
    return _countdown(n - 1) if n else 0


class Tally:
    def __init__(self):
        self.seen = 0
        self.peak = 0.0
        self.by_reason = Counter()

    def record(self, value, reason):
        self.seen += 1
        self.peak = max(self.peak, value)
        self.by_reason[reason] += 1


def run(outcome, stats, costs, mechanism=Mechanism):
    assert not mechanism.leaf_only
    Tool().used()
    Walker().walk(1)
    Slotted().value()
    Pipeline().size()
    Environment()
    Report(series=stats.series())
    tally = Tally()
    tally.record(1.0, "ok")
    assert tally.seen
    return outcome.duration + getattr(costs, "extra_rtts", 0)
''',
    "benchmarks/bench_planted.py": '''
from repro.planted import Costs, Outcome, Stats, run

run(Outcome(1.0, 2.0), Stats(), Costs())
''',
    "tests/test_planted.py": '''
from repro.planted import Tool

assert Tool().only_tests_call() == 2
''',
}


@pytest.fixture
def planted(tmp_path):
    for name, source in PLANTED.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    return tmp_path


#: What the census must report in the planted library, and what it is.
PLANTED_DEAD = {
    "Outcome.unread_field": "an unread dataclass field",
    "Mechanism.tuned_for_reads": "an unread class-level flag",
    "Slotted.unread_slot": "an unread __slots__ entry",
    "Tool.only_tests_call": "a public method only a test calls",
    "Report.series": "a data field named like the live Stats.series()",
    "Environment._active": "a dead self._active named like Pipeline's live one",
    "Walker._descend": "a private method only its own body calls",
    "_countdown": "a module function only its own body calls",
    "Tally.peak": "a maximum only its own max() update reads",
    "Tally.by_reason": "a per-key count only its own x.f[k] += reads",
}


@pytest.mark.parametrize("dead", sorted(PLANTED_DEAD))
def test_the_census_reports_a_planted_dead_name(planted, dead):
    reported = {**unread_fields(planted), **unused_definitions(planted)}
    assert dead in reported, PLANTED_DEAD[dead]


def test_the_census_reports_nothing_live_in_the_planted_library(planted):
    """Not the live twins of the dead names (``Walker._step`` is the
    recursive helpers' twin), and not ``Costs.extra_rtts``, which is read
    through a literal ``getattr`` only."""
    reported = {**unread_fields(planted), **unused_definitions(planted)}
    assert set(reported) == set(PLANTED_DEAD)


#: A planted library of options, each unset one next to a set twin: set by
#: position, by keyword, by a dict literal's key, or a field assigned later
#: (state), and a field that starts as an empty container.
PLANTED_OPTIONS = {
    "src/repro/knobs.py": '''
from dataclasses import dataclass, field


@dataclass
class Settings:
    by_position: int = 0
    unset_field: int = 1
    counter: int = 0
    log: list = field(default_factory=list)


class Knob:
    def __init__(self, given, by_dict_key=1, unset_param=2):
        self.total = given + by_dict_key + unset_param

    @classmethod
    def from_seed(cls, seed, unset_draw=3, by_keyword=4):
        return cls(seed + by_keyword + unset_draw)


def run():
    settings = Settings(5)
    settings.counter += 1
    knob = Knob(1, **{"by_dict_key": 2})
    return Knob.from_seed(7, by_keyword=1).total + knob.total + settings.counter
''',
    "benchmarks/bench_knobs.py": '''
from repro.knobs import run

run()
''',
}


def test_the_census_reports_a_planted_unset_option(tmp_path):
    for name, source in PLANTED_OPTIONS.items():
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
    assert set(unset_options(tmp_path)) == {
        "Settings.unset_field", "Knob(unset_param)", "Knob.from_seed(unset_draw)"
    }


#: The documents that point at tests by ``tests/<file>.py::<Name>``
#: (CHANGES.md is history: its pointers name what was there then).
POINTING_DOCS = ("PERFORMANCE.md", "ROADMAP.md", ".claude/skills/verify/SKILL.md")


def test_every_doc_pointer_names_a_definition_of_its_file():
    """A ``tests/<file>.py::<Name>`` pointer (a name may wrap onto the next
    line) names a class or function defined in that file, at any depth."""
    import re

    root = Path(__file__).resolve().parent.parent
    pointer = re.compile(r"tests/([\w/]+\.py)::\s*(\w+)(?:::(\w+))?")
    dangling, seen = [], 0
    for doc in POINTING_DOCS:
        for match in pointer.finditer((root / doc).read_text()):
            path = root / "tests" / match.group(1)
            defined = path.exists() and {
                node.name for node in ast.walk(ast.parse(path.read_text()))
                if isinstance(node, (ast.ClassDef, ast.FunctionDef))
            }
            seen += 1
            if not defined or not {n for n in match.groups()[1:] if n} <= defined:
                dangling.append((doc, match.group(0)))
    assert seen > 40 and dangling == []
