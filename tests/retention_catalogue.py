"""The retention catalogue: everything kept across transactions, one row each.

The engine keeps a finished transaction only while something that began
before it finished is still active, or a CC holds that span open (a
timestamp batch hands its older snapshot to late joiners).  That is the one
release rule (``TebaldiEngine._release_finished``), Hekaton's for garbage
collection too, and everything else follows it.  What a node keeps per
transaction leaves when its transaction finishes (lock records, scan
predicates, write intents, moved events, pipeline handoffs, batch indexes,
in-flight versions, the precommit dedup entry) or, if later readers may run
into it, when the engine releases it (SIREAD entries, the oracle's ids and
detector nodes).  What is kept per key is trimmed against the retained
transactions at the key's next commit (the store's chains, the oracle's
version orders).  The kernel forgets a cancelled deadline, and the log folds
into a per-key image at every persistent GCP advance.  What outlives its
transaction by function is named: one record of folded ids per fold, and
commit records only for a fault lane's recorder.

:data:`ROWS` declares each structure once: its owner, a getter and a bound
written as a formula over a :class:`Sample`'s variables; a getter that
returns transaction ids is bounded by the set its letter names (``I`` in
flight, ``R`` retained, ``L`` active or retained), and an entry it finds
wrong in itself (a key kept with no id, a member its own mechanism has let
go of) it names by a tuple, which no set holds.  ``tests/test_retention.py``
holds every row on the 44 registry cells, at two commit counts and drained,
and on the reference cells after every step, and runs each row's
never-release twin (the structure before it let go of anything) to show
that releasing changes no outcome.  A structure that still grows is a
strict-xfail row with its numbers (:data:`GROWTH`).  New state is a new row.

``python -m tests.retention_catalogue`` runs each reference cell once and
prints the census figures ``scripts/check.sh`` shows, then every row's value
next to its bound at each reference cell (about 8 s on 2 vCPUs).
"""

import gc
import hashlib
import random
from collections import Counter, deque
from dataclasses import dataclass
from functools import partial
from types import SimpleNamespace
from typing import Callable

from repro.cc.base import create_cc
from repro.cc.locks import LockTable
from repro.core.config import monolithic
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.harness import configs
from repro.harness import runner as runner_module
from repro.harness.cli import build_workload
from repro.harness.degraded import NetFaultLane
from repro.harness.runner import BenchmarkRunner
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.sim.faults import MessageFaultPlan
from repro.storage.durability import DurabilityConfig
from repro.storage.mvstore import MultiVersionStore
from repro.storage.wal import KIND, WriteAheadLog
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.schema import TPCCScale
from repro.workloads.ycsb import YCSBWorkload
from tests.conftest import OverlapAuditEngine, build_engine, run_transactions
from tests.test_cc_conformance import CONFORMANCE_TREES, ConformanceWorkload

TREES = configs.WORKLOAD_CONFIGURATIONS
#: Clients of the reference cells (the registry sweep runs the CLI's 8).
CLIENTS = 16


_micro = partial(CrossGroupConflictWorkload, shared_rows=20, cold_rows=1000, operations=5)
_tiny_tpcc = partial(TPCCWorkload, scale=TPCCScale(
    warehouses=1, districts_per_warehouse=4, customers_per_district=30, items=100,
    initial_orders_per_district=10))
_zipf = partial(YCSBWorkload, records=100, profile="a", distribution="zipfian", zipf_theta=0.99)
_smallbank = partial(SmallBankWorkload, customers=200, hot_accounts=10)
_scan = partial(YCSBWorkload, records=300, profile="e")


def _digest(store):
    state = store.latest_state()
    canonical = repr(sorted((repr(key), repr(value)) for key, value in state.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _drain(runner):
    """Stop the clients and run until the last transaction has finished."""
    runner.stop()
    runner.env.run()
    assert runner.engine.active == {}


def mechanisms(engine):
    """``(tree node, mechanism)`` for every mechanism instance in the tree:
    a node's one, or a partitioned leaf's instance per value used so far."""
    for node in engine.nodes:
        for cc in node.instances.values() if node.instances is not None else [node.cc]:
            yield node, cc


# -- the never-release twins, and a read instrument ---------------------------------------


class KeepEverythingEngine(TebaldiEngine):
    """Test-only: the engine as it was before it released anything."""

    def _release_finished(self):
        pass


class _EveryWriter:
    def __contains__(self, writer):
        return True


class KeepEveryVersionStore(MultiVersionStore):
    """Test-only: the store as it was before a commit dropped anything."""

    def commit_transaction(self, txn, timestamp=None, retained=()):
        return super().commit_transaction(txn, timestamp, _EveryWriter())


class NeverPruneRecorder(HistoryRecorder):
    """Test-only: the recorder as it was before the oracle forgot anything
    (the engine's releases are not passed on: no pruned node, no trimmed
    version order, every committed and aborted id held)."""

    def on_release(self, txn_id):
        pass


class NeverFoldLog(WriteAheadLog):
    """Test-only: the log as it was before its release rule.  An advance's
    fold keeps every record; only the recovery checkpoint, which folds the
    log it has just reset, re-bases it."""

    def fold(self, image=()):
        if self._next_lsn == 1:
            super().fold(image)


class _KeptRecords(dict):
    """A lock map that forgets nothing."""

    def __delitem__(self, key):
        pass


class KeepEveryRecordLockTable(LockTable):
    """Test-only: the table as it was before it dropped an idle record."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._locks = _KeptRecords()


class ReadLogEngine(TebaldiEngine):
    """Test-only read instrument: for every finished transaction, by id, its
    type, whether it committed, the reads and scans it performed, what the
    read records it carried returned — ``(key, (writer, commit_seq) or
    None)`` — and how many scan records it carried (``None`` where it kept
    no list)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_log, self.performed = {}, Counter()

    def perform_read(self, txn, key, for_update=False):
        self.performed[txn.txn_id, "read"] += 1
        return (yield from super().perform_read(txn, key, for_update))

    def perform_scan(self, txn, key_range):
        self.performed[txn.txn_id, "scan"] += 1
        return (yield from super().perform_scan(txn, key_range))

    def _retire(self, txn):
        reads = None if txn.reads is None else [
            (read.key, read.version and (read.version.writer, read.version.commit_seq))
            for read in txn.reads
        ]
        self.read_log[txn.txn_id] = (
            txn.txn_type, txn.committed, self.performed.pop((txn.txn_id, "read"), 0),
            self.performed.pop((txn.txn_id, "scan"), 0), reads,
            None if txn.scans is None else len(txn.scans),
        )
        super()._retire(txn)


# -- a sample and its variables ---------------------------------------------------------


def _log_held(log):
    """Image and tail records a log holds, durable or buffered, and its
    records of folded ids."""
    kinds = Counter(record[KIND] for record in log.records())
    return kinds["checkpoint"] + kinds["precommit"], kinds["folded"]


def _entries(per_key):
    """Transaction ids a ``key -> {txn_id: ...}`` map names, one per entry;
    a key kept with no id is named ``("empty", key)``, never in a bound's set."""
    return [txn_id for key, entry in per_key.items() for txn_id in entry or [("empty", key)]]


def _ids(per_key):
    return set(_entries(per_key))


class Sample:
    """One look at a run (an :class:`~tests.conftest.OverlapAuditEngine`'s)
    and the variables a bound is written over: ``C`` clients; ``A`` active,
    ``R`` retained, ``L = A + R``, ``I`` in-flight (active, or committed
    with finish hooks to run: a durable flush) and ``N`` finished
    transactions; ``W`` ids begun since the release rule's floor (the
    oldest active transaction or hold, or a hold dropped since the last
    retire, whose release waits for the next one), so ``R + A <= W + C``;
    ``Rmax`` the most retained when a commit trimmed a chain; ``M`` members a
    mechanism has in flight (its ``_active``: a row per mechanism); ``K`` keys,
    ``T`` types, ``P`` partition instances, ``Sc`` tables a scanning type
    may scan, ``Ns`` lock nodes a scanning type routes through, ``Lk`` keys
    a lock-table entry holds or waits for; ``B`` batches in flight (live SSI
    timestamp batches, the batch leaf's sealed and open ones), ``V`` batch
    window timers; ``Rd`` released detector nodes, ``Rh`` those an unpruned
    in-neighbour holds; durable runs: ``S`` servers, ``F`` folds, ``E``
    commits since the last fold plus ``C``, and ``Ks`` keys a server owns (a
    row per server).
    """

    def __init__(self, runner, clients):
        engine, store, manager = runner.engine, runner.store, runner.manager
        self.runner, self.engine, self.store = runner, engine, store
        self.mechanisms = list(mechanisms(engine))
        lock_nodes = [(node, cc.locks) for node, cc in self.mechanisms
                      if isinstance(vars(cc).get("locks"), LockTable)]
        self.locks = [table for _node, table in lock_nodes]
        self.chains = list(map(len, store._committed.values()))
        self.active, self.retained = set(engine.active), set(engine.finished)
        self.live = self.active | self.retained
        self.in_flight = self.active | getattr(engine, "finishing", set())
        self.checker = runner.recorder and runner.recorder.streaming_checker
        detector = self.checker.detector if self.checker else SimpleNamespace(_released=())
        floors = [next(iter(engine.active), None), next(iter(engine._holds.values()), None),
                  getattr(engine, "dropped_floor", None)]
        floor = min((f for f in floors if f is not None), default=None)
        scans = [p for p in (t.profile for t in engine.transaction_types.values())
                 if p.declares_scan]
        timers = [getattr(entry[2], "__self__", None) for entry in runner.env._queue]
        stats = engine.stats
        self.vars = {
            "C": clients, "A": len(self.active), "R": len(self.retained), "L": len(self.live),
            "I": len(self.in_flight), "N": stats.commits + stats.aborts,
            "W": 0 if floor is None else engine._last_txn_id - floor + 1,
            "Rmax": getattr(engine, "peak_retained", 0), "K": len(store._committed),
            "T": len(engine.transaction_types),
            "P": sum(len(n.instances) for n in engine.nodes if n.instances is not None),
            "Sc": len({table for p in scans for table in p.scans or p.tables()}),
            "Ns": sum(any(p.name in node.subtree_types for p in scans) for node, _t in lock_nodes),
            "Lk": sum(len({k for keys in [*t._held_by_txn.values(), *t._waiting_keys.values()]
                           for k in keys}) for t in self.locks),
            "B": sum(len(cc.batches._live) for _n, cc in self.of("ssi"))
            + sum(cc._inflight + (cc._open_batch is not None) for _n, cc in self.of("batch")),
            "V": sum(getattr(timer, "name", "").startswith("batch-window") for timer in timers),
            "Rd": len(detector._released),
            "Rh": sum(any(n in detector._ord for n in detector._in[released])
                      for released in detector._released),
        }
        if manager.enabled:
            folds = getattr(manager, "folds", [0])
            self.vars.update(S=len(manager.logs), F=len(folds) - 1,
                             E=stats.commits - folds[-1] + clients)

    def of(self, *names):
        return [(node, cc) for node, cc in self.mechanisms if cc.name in names]

    def check(self, row):
        """``(value, bound, stray)``: what ``row`` measures, its bound here,
        and for a set of ids those outside the set its bound names (per
        server or mechanism, whose own variables come with its value: a
        tuple of values and one of bounds)."""
        if row.owner in ("recorder", "oracle") and self.checker is None:
            return 0, 0, ()  # an unchecked run has neither
        value, bound = row.get(self), row.bound
        if row.lane and self.runner.lanes:
            bound, value = row.lane, len(value) if isinstance(value, set) else value
        if isinstance(value, set):
            scope = {"I": self.in_flight, "R": self.retained, "L": self.live}[bound]
            return len(value), self.vars[bound], tuple(sorted(value - scope, key=repr))
        if isinstance(value, list):
            bounds = tuple(eval(bound, {}, {**self.vars, **own}) for _v, own in value)
            return tuple(v for v, _own in value), bounds, ()
        return value, eval(bound, {}, self.vars), ()


# -- the rows -----------------------------------------------------------------------------


@dataclass(frozen=True)
class Row:
    """A structure, who keeps it, how to read it, its bound (and under a
    fault lane, whose recorder keeps what its checks read, ``lane``), and
    its never-release twin."""

    structure: str
    owner: str
    get: Callable
    bound: str
    twin: type = None
    lane: str = None

    def __str__(self):
        return self.structure


def _ranges(sample):
    return [cc.ranges for _n, cc in sample.mechanisms if getattr(cc, "ranges", None) is not None]


def _held(names, *attributes, per_key=True):
    """Ids the ``attributes`` of every mechanism named ``names`` hold: the
    ``{txn_id: ...}`` entries of per-key maps, else a map's keys."""
    return lambda sample: set().union(*(
        (_ids if per_key else set)(getattr(cc, name))
        for _n, cc in sample.of(*names) for name in attributes))


def _per_log(index):
    def get(sample):
        manager = sample.runner.manager
        if not manager.enabled:
            return []
        owned = Counter(manager.server_for(key) for key in sample.store._committed)
        return [(_log_held(log)[index], {"Ks": owned[s]}) for s, log in enumerate(manager.logs)]
    return get


def _own(names, ids, cap=lambda cc: len(cc._active)):
    """Ids ``ids(cc)`` lists at each mechanism called ``names``: one its own
    ``_active`` has let go of is flagged, and so are more than ``cap(cc)``."""
    def get(sample):
        found = set()
        for _n, cc in sample.of(*names):
            listed, node = ids(cc), cc.node.node_id
            found.update(i if i in cc._active else (node, i) for i in listed)
            if len(listed) > cap(cc):
                found.add((node, "entries", len(listed), cap(cc)))
        return found
    return get


def _declared(cc):
    """How many write keys a batch leaf's members declared."""
    return sum(len(txn.cc_state.get(cc.node.node_id, {}).get("write_keys", ()))
               for txn in cc._active.values())


def _readers(sample):
    """SSI's SIREAD entries by reader, a read ``ssi-committed-pivot`` aborts
    inside ``_snapshot_read`` included (an empty per-key map is an entry no
    set holds)."""
    found = set()
    for _n, cc in sample.of("ssi"):
        for key, readers in cc._readers.items():
            found.update(readers or (("empty", key),))
    return found


def _pivot_aborted_readers(sample):
    """SIREAD entries of released readers ``ssi-committed-pivot`` aborted
    inside ``_snapshot_read`` whose key is missing from the ``read_keys``
    their release walked: the one way an entry was seen to outlive its
    reader, while ``_snapshot_read`` filed the key after the rw checks."""
    found = set()
    for _n, cc in sample.of("ssi"):
        for key, readers in cc._readers.items():
            for txn_id, txn in readers.items():
                if txn_id not in sample.live and txn.abort_reason == "ssi-committed-pivot" and (
                        key not in txn.cc_state[cc.node.node_id].get("read_keys", ())):
                    found.add(txn_id)
    return len(found)


def _oracle(get):
    return lambda sample: get(sample.checker)


ROWS = [
    Row("engine.finished", "engine", lambda s: len(s.engine.finished), "W + C - A",
        KeepEverythingEngine),
    Row("engine._finished_order", "engine", lambda s: len(s.engine._finished_order), "R"),
    Row("engine._holds", "engine", lambda s: len(s.engine._holds), "B"),
    Row("engine._routes", "engine", lambda s: sum(
        1 + len(getattr(route, "partitions", None) or ()) for route in s.engine._routes.values()),
        "T * (1 + P)"),
    Row("env._queue", "kernel", lambda s: len(s.runner.env._queue), "2 * (C + A + V + 1)"),
    Row("store chain (longest)", "store", lambda s: max(s.chains), "Rmax + 2",
        KeepEveryVersionStore),
    Row("store versions per key", "store", lambda s: round(sum(s.chains) / len(s.chains), 2),
        "Rmax + 2"),
    Row("store._uncommitted", "store", lambda s: _ids(s.store._uncommitted), "I"),
    Row("store._writes_by_txn", "store", lambda s: set(s.store._writes_by_txn), "I"),
    Row("store._slots", "store", lambda s: _ids(s.store._slots) | set(s.store._slots_by_txn), "I"),
    Row("store._table_index", "store", lambda s: len(s.store._table_index), "Sc"),
    Row("locks._locks", "2PL, RP", lambda s: sum(len(t._locks) for t in s.locks), "Lk",
        KeepEveryRecordLockTable),
    Row("locks._held_by_txn", "2PL, RP", lambda s: {i for t in s.locks for i in t._held_by_txn},
        "I"),
    Row("locks._waiting_keys", "2PL, RP", lambda s: {i for t in s.locks for i in t._waiting_keys},
        "I"),
    Row("range managers", "2PL, RP", lambda s: len(_ranges(s)), "Ns"),
    Row("ranges.scans, ._intents", "2PL, RP", lambda s: {
        i for r in _ranges(s) for i in _ids(r.scans) | _ids(r._intents)}, "I"),
    Row("ssi._readers", "SSI", _readers, "L"),
    Row("ssi._readers, pivot-aborted reads", "SSI", _pivot_aborted_readers, "0"),
    Row("ssi._scans", "SSI", _held(["ssi"], "_scans"), "L"),
    Row("ssi._write_intents", "SSI", _held(["ssi"], "_write_intents"), "I"),
    Row("ssi.batches._live", "SSI", lambda s: {
        i for _n, cc in s.of("ssi") for batch in cc.batches._live.values()
        for i in batch["members"]}, "I"),
    Row("ssi.batches._current", "SSI", lambda s: sum(
        len(cc.batches._current) for _n, cc in s.of("ssi")), "B"),
    Row("rp/tso/batch._active", "RP, TSO, batch",
        _held(["rp", "tso", "batch"], "_active", per_key=False), "I"),
    Row("rp/tso/batch._moved", "RP, TSO, batch",
        _own(("rp", "tso", "batch"), lambda cc: list(cc._moved)), "I"),
    Row("rp._passed", "RP", _held(["rp"], "_passed"), "I"),
    Row("tso._reads, ._scans", "TSO", _held(["tso"], "_reads", "_scans"), "I"),
    Row("batch._executing", "batch", _own(("batch",), lambda cc: [
        txn.txn_id for txn in cc._executing.values()]), "I"),
    Row("batch._writers", "batch", _own(("batch",), lambda cc: _entries(cc._writers), _declared),
        "I"),
    Row("batch wakes (_moved + _turns)", "batch", lambda s: [
        (len(cc._moved) + len(cc._turns), {"M": len(cc._active)}) for _n, cc in s.of("batch")],
        "M"),
    Row("batch._inflight", "batch", lambda s: sum(cc._inflight for _n, cc in s.of("batch")), "B"),
    Row("durability._precommit_epochs", "durability",
        lambda s: set(s.runner.manager._precommit_epochs), "I"),
    Row("log image + tail (per server)", "durability", _per_log(0), "Ks + E", NeverFoldLog),
    Row("log folded-id records (per server)", "durability", _per_log(1), "F"),
    Row("recorder._records", "recorder", lambda s: len(s.runner.recorder._records or ()), "0",
        lane="N"),
    Row("recorder._aborted_ids", "recorder",
        lambda s: len(s.runner.recorder._aborted_ids or ()), "0", lane="N"),
    Row("oracle._writers (longest order)", "oracle", _oracle(
        lambda c: max(map(len, c._writers.values()), default=0)), "Rmax + 3",
        NeverPruneRecorder, "N"),
    Row("oracle._committed", "oracle", _oracle(lambda c: set(c._committed)), "R", lane="N"),
    Row("oracle._aborted", "oracle", _oracle(lambda c: set(c._aborted)), "R", lane="N"),
    Row("oracle._scan_watch", "oracle", _oracle(lambda c: sum(map(len, c._scan_watch.values()))),
        "L", lane="N"),
    Row("detector._ord", "oracle", _oracle(lambda c: len(c.detector._ord)), "R + Rd"),
    Row("detector._released", "oracle", _oracle(lambda c: len(c.detector._released)), "Rh"),
]

#: (row, cell) -> what was measured where a structure still grows with the
#: run: a strict xfail each, until a release lands.
GROWTH = {
    **{("oracle._scan_watch", cell): f"{numbers} predicates at 200 -> 800 commits: each committed "
       "scan's stays for the run; a release first needs the num_edges decision, and releasing "
       "early would move all_quick.txt (queue/2layer 6,221 -> 6,093 edges; ROADMAP, *Smaller*)"
       for cell, numbers in {
           "queue/2layer": "125 -> 538", "queue/2pl": "129 -> 534", "queue/3layer": "129 -> 538",
           "queue/ssi": "139 -> 520", "tpcc-scan/2layer": "51 -> 197",
           "tpcc-scan/2pl": "50 -> 197", "tpcc-scan/3layer": "50 -> 198",
           "tpcc-scan/ssi": "50 -> 206",
           "ycsb-scan/2layer": "214 -> 759", "ycsb-scan/2pl": "239 -> 796",
           "ycsb-scan/batch": "197 -> 785", "ycsb-scan/batch-2layer": "209 -> 762",
           "ycsb-scan/ssi": "218 -> 779"}.items()},
}


# -- runs ---------------------------------------------------------------------------------

#: Every cell of the registry, as ``--all --quick`` runs it (8 clients), checked.
CELLS = [f"{workload}/{tree}" for workload in sorted(TREES) for tree in sorted(TREES[workload])]
#: Commit counts a registry cell is looked at (and once more, drained).
TARGETS = (200, 800)


def build(workload, configuration, engine_class=OverlapAuditEngine, **kwargs):
    """A runner (seed 7 unless given) whose engine is ``engine_class``; its
    durability manager notes the commits at each fold (``folds``)."""
    kwargs.setdefault("seed", 7)
    original, runner_module.TebaldiEngine = runner_module.TebaldiEngine, engine_class
    try:
        runner = BenchmarkRunner(workload, configuration, **kwargs)
    finally:
        runner_module.TebaldiEngine = original
    manager, advance = runner.manager, runner.manager.advance_gcp_epoch
    manager.folds = [0]

    def counted_advance():
        manager.folds.append(runner.engine.stats.commits)
        return advance()

    manager.advance_gcp_epoch = counted_advance
    return runner


def look(runner, clients, figures=None):
    """Every row's ``(value, bound, stray)`` now, by structure, the sample's
    variables (``"vars"``) and ``figures(sample)``, the census figures."""
    sample = Sample(runner, clients)
    looked = {row.structure: sample.check(row) for row in ROWS}
    looked["vars"] = sample.vars
    looked.update(figures(sample) if figures else {})
    return looked


def _over(value, bound, stray):
    if isinstance(value, tuple):  # per server
        return stray or any(map(int.__gt__, value, bound))
    return stray or value > bound


def sample_run(runner, clients, targets, step=0.01, figures=None, every=False):
    """Run ``clients`` clients to each commit count of ``targets``, then
    drain: ``{at: look}`` at each target and once drained (``"drained"``).
    With ``every``, each row is also checked after every step: a look over
    a bound is kept (at ``("step", commits)``), and each target's look has
    every row's peak so far (``"peak"``)."""
    looks, peak = {}, {}
    try:
        runner.add_clients(clients)
        for target in targets:
            while runner.engine.stats.commits < target:
                runner.run_additional(step)
                if every:
                    stepped = look(runner, clients)
                    for row in ROWS:
                        value = stepped[row.structure][0]
                        if not isinstance(value, tuple):
                            peak[row.structure] = max(peak.get(row.structure, value), value)
                        if _over(*stepped[row.structure]):
                            looks["step", runner.engine.stats.commits] = stepped
            looks[target] = look(runner, clients, figures)
            looks[target]["peak"] = dict(peak)
        _drain(runner)
        looks["drained"] = look(runner, clients, figures)
    finally:
        runner.stop()
    return looks


def sweep(cell, targets=TARGETS):
    """A registry cell's looks; the run must pass the oracle and the audit."""
    workload, tree = cell.split("/")
    runner = build(build_workload(workload), TREES[workload][tree](), check_isolation=True)
    looks = sample_run(runner, 8, targets)
    assert runner.check_isolation().ok and runner.engine.bad_misses == []
    return looks


def violations(looks, row):
    """Where ``row`` is over its bound or names a transaction outside it."""
    return [(at, value, bound, stray[:5]) for at, looked in looks.items()
            for value, bound, stray in [looked[row.structure]] if _over(value, bound, stray)]


def as_run(engine):
    """What :class:`Sample` reads off a runner, for an engine run without one."""
    return SimpleNamespace(engine=engine, store=engine.store, env=engine.env, lanes=(),
                           manager=engine.durability, recorder=engine.history_recorder)


def run_conformance_tree(tree, engine_class=OverlapAuditEngine, store_class=MultiVersionStore):
    """Sixty fixed scripted requests in six lanes under ``tree``; the engine."""
    workload, rng = ConformanceWorkload(), random.Random(99)
    requests = [workload.next_transaction(rng) for _ in range(60)]
    engine = build_engine(
        Environment(), workload, CONFORMANCE_TREES[tree](),
        options=EngineOptions(charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4),
        engine_class=engine_class, store_class=store_class,
    )
    run_transactions(engine.env, engine, requests, lanes=6)
    return engine


# -- the census ---------------------------------------------------------------------------

FOLDING = DurabilityConfig(enabled=True, gcp_epoch_length=0.05)
SSI_TRACKING = ("_readers", "_scans", "_write_intents")
#: The conformance trees that scan through every registry kind: range locks
#: (2PL, RP, 2PL over RP), SSI's and TSO's range reads.
SCAN_DRAIN_TREES = ("mono-2pl", "mono-rp", "mono-ssi", "mono-tso", "2pl/(rp,rp)")


def _figures(sample, tracked=False):
    """What the census reads at a reference cell's target, beside the rows."""
    engine, manager, checker = sample.engine, sample.runner.manager, sample.checker
    figures = {
        "commits": engine.stats.commits, "read records": engine.read_records,
        "misses": engine.misses, "scan indexes": tuple(sorted(sample.store._table_index)),
        "versions per key": sum(sample.chains) / len(sample.chains),
        "ssi": tuple(sum(len(getattr(cc, name)) for _n, cc in sample.of("ssi"))
                     for name in SSI_TRACKING),
        "containers": tuple(sorted({name for _n, cc in sample.of("ssi", "tso")
                                    for name, value in vars(cc).items()
                                    if isinstance(value, (dict, set, list, deque))})),
    }
    if checker:
        figures.update(recorded=sample.runner.recorder.recorded_commits,
                       order=(sum(map(len, checker._writers.values())), len(checker._writers)))
    if manager.enabled:
        records = tuple(record for log in manager.logs for record in log.records())
        retries = sum(lane.transport.stats["retries"] for lane in sample.runner.lanes)
        figures.update(records=records, folds=tuple(manager.folds), retries=retries)
    if tracked:
        for _ in range(4):
            gc.collect()
        figures["tracked"] = len(gc.get_objects())
    return figures


def _tso():
    return monolithic("tso", sorted(_zipf().transaction_types()), name="ycsb-tso")


def _smallbank_3layer(**kwargs):
    return lambda: build(_smallbank(), configs.smallbank_3layer(), **kwargs)


#: name -> (runner factory, commit targets[, step]): one run per census
#: figure ``scripts/check.sh`` printed before the catalogue, and the cells the
#: old bounds were measured on, at 16 clients and their commit counts.
REFERENCE = {
    "tpcc/3layer": (lambda: build(_tiny_tpcc(), configs.tpcc_tebaldi_3layer()),
                    (300, 600, 1200, 2400)),
    "ycsb-scan/2layer": (lambda: build(_scan(), configs.ycsb_2layer()), (300, 1200)),
    "micro/ssi-2layer": (lambda: build(_micro(), configs.micro_ssi_2layer(), check_isolation=True),
                         (300, 1200, 4800)),
    "smallbank/3layer checked": (_smallbank_3layer(check_isolation=True), (300, 1200, 2100, 4800)),
    "smallbank/3layer durable": (_smallbank_3layer(
        options=EngineOptions(durability=DurabilityConfig(enabled=True))), (300, 1200), 0.002),
    "micro/2layer": (lambda: build(_micro(), configs.micro_2layer()), (300, 1200)),
    # Short-lived entries (moved events, promise waits, batch wakes, dedup
    # entries under retransmits) are looked at as finely as their old tests did.
    "tpcc/3layer moved": (lambda: build(_tiny_tpcc(), configs.tpcc_tebaldi_3layer()), (600,),
                          0.0005),
    "ycsb-zipf/tso": (lambda: build(_zipf(), _tso()), (600, 1200), 0.0005),
    "smallbank/3layer net-faults": (_smallbank_3layer(lanes=[NetFaultLane(
        MessageFaultPlan.from_seed(7, faults=4, require=("drop", "partition")))]), (300, 1200),
        0.002),
    "ycsb-zipf/batch": (lambda: build(_zipf(), TREES["ycsb"]["batch"]()), (300, 1200), 0.0005),
    "smallbank/3layer folding": (_smallbank_3layer(options=EngineOptions(durability=FOLDING)),
                                 (1200, 4800)),
}


def reference(name):
    """A reference cell's looks: at its targets with their figures, and
    after every step (the old bounds were peaks over the run)."""
    factory, targets, *step = REFERENCE[name]
    figures = partial(_figures, tracked=name == "tpcc/3layer")
    return sample_run(factory(), CLIENTS, targets, *step, figures=figures, every=True)


def _at(target, name, index=None):
    return lambda l: l[target][name] if index is None else l[target][name][index]


def _peaks(row, *targets):
    return lambda l: tuple(l[target]["peak"][row] for target in targets)


def _per_commit(name, target, first=None, digits=2):
    def figure(looks):
        c0, v0 = (looks[first]["commits"], looks[first][name]) if first else (0, 0)
        return round((looks[target][name] - v0) / (looks[target]["commits"] - c0), digits)
    return figure


_GROWTHS = ("tpcc/3layer", "ycsb-zipf/batch", "smallbank/3layer checked", "micro/ssi-2layer")
_BOUNDED = ("micro/2layer", "smallbank/3layer checked", "micro/ssi-2layer", "ycsb-zipf/batch")
_READ_ONLY = ("tpcc/3layer", "ycsb-scan/2layer", "smallbank/3layer checked")

#: (reference cell, figure, its value read off the cell's looks ``l``, its
#: old bound over the value ``v``): the figures ``scripts/check.sh`` printed
#: and the bounds the tests held them to, at their cells and commit counts.
CENSUS = [
    ("tpcc/3layer", "GC-tracked objects per commit, 600 -> 2,400",
     _per_commit("tracked", 2400, 600, 1), "v < 14"),
    ("tpcc/3layer", "versions per key", lambda l: round(l[2400]["versions per key"], 2),
     "v < 1.6"),
    ("tpcc/3layer", "hottest chain", _at(2400, "store chain (longest)", 0), "v < 4 * C"),
    ("tpcc/3layer", "scan indexes held", _at(2400, "scan indexes"), "v == ()"),
    ("ycsb-scan/2layer", "scan indexes held", _at(1200, "scan indexes"), "v == ('usertable',)"),
    ("tpcc/3layer", "read records per commit", _per_commit("read records", 2400), "v == 0"),
    ("smallbank/3layer checked", "read records per commit, 2,100 commits",
     _per_commit("read records", 2100), "v > 1"),
    *((cell, "SSI root entries at 300 and 1,200, read-only optimised", lambda l: tuple(
        sum(l[t]["ssi"]) for t in (300, 1200)), "v == (0, 0)") for cell in _READ_ONLY),
    ("micro/ssi-2layer", "batching SSI root entries per index at 1,200 and 4,800",
     lambda l: (l[1200]["ssi"], l[4800]["ssi"]), "all(b <= a + C for a, b in zip(*v))"),
    ("micro/ssi-2layer", "batching SSI root entries at 300 and 4,800",
     lambda l: (sum(l[300]["ssi"]), sum(l[4800]["ssi"])), "v[0] > 0 and v[1] == 18"),
    ("micro/ssi-2layer", "what an SSI node keeps", _at(300, "containers"),
     "v == ('_readers', '_scans', '_write_intents')"),
    ("ycsb-zipf/tso", "what a TSO leaf keeps", _at(1200, "containers"),
     "v == ('_active', '_moved', '_reads', '_scans')"),
    *((cell, "store chain peak to 300 and to 1,200", _peaks("store chain (longest)", 300, 1200),
       "2 < v[1] < 4 * C and v[1] <= v[0] + C") for cell in _GROWTHS),
    *((cell, "finished and run-queue peaks", lambda l: (
        l[1200]["peak"]["engine.finished"], l[1200]["peak"]["env._queue"]), "max(v) < 8 * C")
      for cell in _BOUNDED),
    *((cell, "RP handoff peak", _peaks("rp._passed", 1200), "0 < v[0] <= C")
      for cell in ("tpcc/3layer", "micro/2layer")),
    *((cell, "moved-event peak", _peaks("rp/tso/batch._moved", 600), "v[0] > 0")
      for cell in ("tpcc/3layer moved", "ycsb-zipf/tso")),
    ("ycsb-zipf/batch", "executing and writer index peaks", lambda l: (
        l[1200]["peak"]["batch._executing"], l[1200]["peak"]["batch._writers"]), "min(v) > 1"),
    ("smallbank/3layer checked", "cycle-detector nodes at 1,200 and 4,800", lambda l: tuple(
        l[t]["detector._ord"][0] for t in (1200, 4800)), "max(v) < 8 * C"),
    ("smallbank/3layer checked", "version order entries, keys and retained", lambda l: tuple(
        (*l[t]["order"], l[t]["vars"]["R"]) for t in (1200, 4800)),
     "all(o <= 3 * k + 4 * r for o, k, r in v)"),
    ("smallbank/3layer checked", "committed ids and retained", lambda l: tuple(
        (l[t]["oracle._committed"][0], l[t]["vars"]["R"]) for t in (1200, 4800)),
     "all(c <= r <= 8 * C for c, r in v)"),
    ("smallbank/3layer checked", "commits recorded and commit records kept", lambda l: (
        l[4800]["recorded"], l[4800]["recorder._records"][0]), "v[0] >= 4800 and v[1] == 0"),
    ("micro/ssi-2layer", "aborted and committed ids at 1,200 and 4,800", lambda l: tuple(
        (l[t]["oracle._aborted"][0], l[t]["oracle._committed"][0]) for t in (1200, 4800)),
     "max(map(max, v)) <= 8 * C"),
    *((cell, "lookups the audit checked", _at("drained", "misses"), "v > 0")
      for cell in ("smallbank/3layer checked", "micro/ssi-2layer")),
    ("smallbank/3layer durable", "log records per commit", lambda l: round(
        len(l[1200]["records"]) / l[1200]["commits"], 2), "v <= 4"),
    ("smallbank/3layer folding", "log records held (image + tail) and keys owned + one epoch,"
     " per server", lambda l: tuple(zip(*l[4800]["log image + tail (per server)"][:2])),
     "all(held <= bound for held, bound in v)"),
    ("smallbank/3layer folding", "folds to 4,800 commits; longest epoch", lambda l: (
        len(l[4800]["folds"]) - 1, max(b - a for a, b in zip(l[4800]["folds"][1:],
                                                             l[4800]["folds"][2:]))),
     "v[0] >= 6 and v[1] < 1000"),
    ("smallbank/3layer net-faults", "precommit retransmits", _at(1200, "retries"), "v > 0"),
]


def census_figures(looks):
    """``(cell, figure, value, bound, holds)`` for every :data:`CENSUS` entry."""
    for cell, figure, read, bound in CENSUS:
        value = read(looks[cell])
        yield cell, figure, value, bound, eval(bound, {"v": value, "C": CLIENTS, "l": looks[cell]})


def range_managers_held(cell):
    """Ids of the lock nodes of ``cell``'s tree that hold a range-lock
    manager, before any run (a partitioned leaf: one instance, built as its
    route builds each)."""
    workload, tree = cell.split("/")
    engine = build_engine(Environment(), build_workload(workload), TREES[workload][tree]())
    return [node.node_id for node in engine.nodes if getattr(
        node.cc or create_cc(node.spec.cc, engine, node, node.spec.params), "ranges", None)]


def scan_registries(engine):
    """Every scan registry in the tree: a node's ``ScanSet`` (a lock node's
    range locks, SSI's and TSO's range reads) and write-intent map (a lock
    node's by table, SSI's by key)."""
    found = []
    for _node, cc in mechanisms(engine):
        if getattr(cc, "ranges", None) is not None:
            found += [cc.ranges.scans, cc.ranges._intents]
        found += [vars(cc)[name] for name in ("_scans", "_write_intents") if name in vars(cc)]
    return found


def census():
    """Print every census figure beside its old bound, then each row's
    value and bound at every reference cell's last target (the bounds are
    held by ``tests/test_retention.py``)."""
    looks = {name: reference(name) for name in REFERENCE}
    for cell, figure, value, bound, holds in census_figures(looks):
        print(f"{cell}: {figure}: {value} ({bound}{'' if holds else ': BROKEN'})")
    drained = [not registry for tree in SCAN_DRAIN_TREES
               for registry in scan_registries(run_conformance_tree(tree))]
    print(f"range managers held: tpcc/3layer {range_managers_held('tpcc/tebaldi-3layer')}, "
          f"queue/3layer {range_managers_held('queue/3layer')}; scan registries drained: "
          f"{sum(drained)} of {len(drained)}\n")
    for index, name in enumerate(REFERENCE, 1):
        print(f"[{index}] {name}: {CLIENTS} clients, seed 7, "
              f"at {REFERENCE[name][1][-1]:,} commits")
    print(f"{f'row: value<=bound at [1] .. [{len(REFERENCE)}]':36}"
          + "".join(f"{f'[{i}]':>18}" for i in range(1, len(REFERENCE) + 1)))
    for row in ROWS:
        cells = [looks[name][REFERENCE[name][1][-1]][row.structure][:2] for name in REFERENCE]
        print(f"{row.structure:36.36}" + "".join(f"{_shown(*cell):>18}" for cell in cells))


def _shown(value, bound):
    if isinstance(value, tuple):  # per server or mechanism
        return "/".join(map(str, value)) + (f"<={max(bound)}" if bound else "")
    return f"{value}<={bound}"


if __name__ == "__main__":
    census()
