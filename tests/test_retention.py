"""Retention: what the engine and the kernel let go of, and that it is safe.

The engine keeps a finished transaction only while something that began
before it finished is still active (or a CC holds that span open, for
timestamp batches); the kernel forgets a deadline its owner cancelled; and
what must outlive its transaction by function — the write-ahead log, the
recorder's ring — is kept as flat data the cyclic collector stops tracking.
These things are pinned here:

* **bound** — ``len(engine.finished)`` and ``len(env._queue)`` stay below a
  constant multiple of the client count however long the run is;
* **release ≡ never release** — a test-only engine that keeps everything
  (the release step is a no-op) commits, aborts and writes exactly what the
  real one does, one fixed-seed cell per mechanism family;
* **snapshots only** — an SSI root under the read-only optimisation (at most one
  update child group) keeps no read set, rw flag, write intent, commit
  timestamp or retained SIREAD entry, however long the run is;
* **no early release** — an engine that audits every ``find_transaction``
  miss with its own clock never finds one for an overlapped transaction;
* **versions** — the same rule applied to the store: a superseded version is
  dropped, by the next commit on its key, once the writer of its successor
  is no longer in ``engine.finished``.  The longest chain does not grow with
  the run, *prune ≡ never prune* (a test-only store that keeps every version
  returns the same version to every read), an active straggler and a
  timestamp batch's hold (SSI's) keep what they can still read, and
  ``Database`` — no services — prunes like everything else, over a
  batching root too: a batch closes when its last member finishes;
* **flat and released** — log records and retained history records are
  untracked tuples, tracked objects grow by a few per commit however long a
  durable checked run is, the precommit dedup table holds only exchanges in
  flight, and a flat record still resolves a pipelined read late;
* **the log folds** — every persistent GCP advance folds each log into a
  per-key image, so a log holds at most the keys its server owns plus one
  epoch, and *release ≡ never release*: at every crash site recovery from
  image plus tail equals recovery from a test-only log that never folds;
* **batch leaf** — a sealed batch and its members form no reference cycle,
  and the leaf's two indexes of members in flight, and its two sets of
  pending wakes, name nobody who finished, died before the seal, was
  force-aborted or had the node spliced out;
* **moved events** — RP, TSO and the batch leaf keep a transaction's moved
  event only while it is a member in flight, and none after a drain;
* **lock tables and chains** — a lock record exists only while its key has a
  holder or a waiter (and *drop ≡ never drop*), a key written once costs the
  store its list and its ``Version`` (which holds no container of its own),
  population keeps no catalog and a key's versions share its chain's key
  object, only a scanned table holds a scan index, tracked objects per
  commit on ``tpcc/3layer`` stay under a bound, snapshot reads land at or
  next to the tail of their chain, and the profiler's owner census books a
  lock table to its CC node;
* **records for a reader** — a transaction carries read and scan records
  only on a route through OCC or under a history recorder, one per read and
  per scan, and a recorder cannot be attached once a transaction has begun;
* **partition routes** — a partition-by-instance leaf holds one instance per
  partition value a run touched and a route per (type, value) bound to that
  instance's own hooks, its type's route builds none, and a splice beside
  the leaf keeps its instances and rebuilds the routes on demand;
* **the oracle forgets** — the cycle detector prunes a committed
  transaction once the engine released it and every in-neighbour is
  pruned: *prune ≡ never prune* on every conformance tree and open family,
  a release that comes too early is a named violation, a commit reaches the
  oracle before its release, and the detector stays flat on a checked run;
* **the oracle keeps what a later commit can ask** — without commit records
  the checker trims each key's version order behind the released writers
  and keeps only the committed ids the engine retains and the aborted ids
  an active reader could still present: each stays flat on a checked run,
  *release ≡ never release* holds on every conformance tree and open family
  and on an engine that commits readers of aborted writers, and a lane's
  recorder keeps the whole orders its checks read.
"""

import gc
import hashlib
import random
import weakref
from collections import Counter, defaultdict, deque
from dataclasses import fields

import pytest

from benchmarks.bench_speed import census_by_owner
from repro.cc import two_phase_locking
from repro.cc.base import create_cc
from repro.cc.locks import LockTable
from repro.cc.timestamps import BatchManager, TimestampOracle
from repro.core.config import Configuration, leaf, monolithic, node
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.core.transaction import ReadRecord, Transaction
from repro.core.waits import MovedEvents
from repro.database import Database
from repro.errors import ConfigurationError
from repro.harness import configs
from repro.harness import runner as runner_module
from repro.harness.degraded import NetFaultLane
from repro.harness.runner import BenchmarkRunner, Lane
from repro.isolation.checker import check_recorder
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.harness.crash import CrashLane
from repro.sim.faults import SITES, CrashPoint, FaultPlan, MessageFaultPlan
from repro.storage import durability as durability_module
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.mvstore import MultiVersionStore
from repro.storage.ranges import ScanSet
from repro.storage.versions import Version
from repro.storage.wal import KIND, TXN_ID, WriteAheadLog, record_body
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.seats import SEATSWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.schema import TPCCScale
from repro.workloads.ycsb import YCSBWorkload
from tests.conftest import (
    OverlapAuditEngine,
    RecordingRecorder,
    build_engine,
    read_row,
    run_transactions,
)
from tests.reference_checker import check_history
from tests.snapshot_read_census import census_of_run
from tests import test_cc_conformance as conformance
from tests.test_cc_conformance import (
    CONFORMANCE_TREES,
    TXN_TYPES,
    ConformanceWorkload,
    TwoStepWorkload,
    random_requests,
    replay_conformance,
    run_conformance,
    run_micro_schedule,
)

TREES = configs.WORKLOAD_CONFIGURATIONS


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


class ReadLogEngine(TebaldiEngine):
    """Test-only: keeps what every read of every finished transaction,
    committed or aborted, returned — ``(key, writer, commit_seq)``.  It
    reads every read set, so every transaction records one."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_log = {}

    def begin(self, *args, **kwargs):
        txn = super().begin(*args, **kwargs)
        if txn.reads is None:
            txn.reads = []
        return txn

    def _retire(self, txn):
        self.read_log[txn.txn_id] = [
            (read.key, read.version and (read.version.writer, read.version.commit_seq))
            for read in txn.reads
        ]
        super()._retire(txn)


def _micro():
    return CrossGroupConflictWorkload(shared_rows=20, cold_rows=1000, operations=5)


def _tiny_tpcc():
    return TPCCWorkload(
        scale=TPCCScale(
            warehouses=1,
            districts_per_warehouse=4,
            customers_per_district=30,
            items=100,
            initial_orders_per_district=10,
        )
    )


def _zipf():
    return YCSBWorkload(
        records=100, profile="a", distribution="zipfian", zipf_theta=0.99
    )


def _smallbank():
    return SmallBankWorkload(customers=200, hot_accounts=10)


#: name -> (workload factory, configuration factory, clients, sim seconds):
#: one closed-loop cell per mechanism family the registry composes.
RUNNER_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer, 12, 0.3),
    "smallbank/3layer": (_smallbank, configs.smallbank_3layer, 12, 0.15),
    "ycsb-scan/2layer": (
        lambda: YCSBWorkload(records=300, profile="e"), configs.ycsb_2layer, 10, 0.2,
    ),
    "ycsb-zipf/batch": (_zipf, TREES["ycsb"]["batch"], 16, 0.08),
    # SSI over two update groups: timestamp batches, the one place where a
    # snapshot predates its transaction's begin (engine.hold_finished).
    "micro/ssi-2layer": (_micro, configs.micro_ssi_2layer, 8, 0.4),
}


def _digest(store):
    state = store.latest_state()
    canonical = repr(sorted((repr(key), repr(value)) for key, value in state.items()))
    return hashlib.sha256(canonical.encode()).hexdigest()


def _run_cell(name, engine_class, monkeypatch, store_class=MultiVersionStore):
    workload_factory, config_factory, clients, duration = RUNNER_CELLS[name]
    monkeypatch.setattr(runner_module, "TebaldiEngine", engine_class)
    monkeypatch.setattr(runner_module, "MultiVersionStore", store_class)
    runner = BenchmarkRunner(workload_factory(), config_factory(), seed=11)
    try:
        runner.run(clients, duration=duration, warmup=0.0)
    finally:
        runner.stop()
    return runner


def _drain(runner):
    """Stop the clients and run until the last transaction has finished."""
    runner.stop()
    runner.env.run()
    assert runner.engine.active == {}


def _outcome(runner):
    stats = runner.engine.stats
    return stats.commits, stats.aborts, dict(stats.abort_reasons), _digest(runner.store)


def _versions(store):
    return sum(map(len, store._committed.values()))


def _longest_chain(store):
    return max(map(len, store._committed.values()))


def _run_conformance_tree(tree, engine_class=TebaldiEngine, store_class=MultiVersionStore):
    """Sixty fixed scripted requests in six lanes under ``tree``; the engine."""
    workload = ConformanceWorkload()
    rng = random.Random(99)
    requests = [workload.next_transaction(rng) for _ in range(60)]
    env = Environment()
    engine = build_engine(
        env,
        workload,
        CONFORMANCE_TREES[tree](),
        options=EngineOptions(
            charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
        ),
        engine_class=engine_class,
        store_class=store_class,
    )
    run_transactions(env, engine, requests, lanes=6)
    return engine


class TestReleaseEqualsNeverRelease:
    @pytest.mark.parametrize("cell", sorted(RUNNER_CELLS))
    def test_closed_loop_cell(self, cell, monkeypatch):
        released = _run_cell(cell, TebaldiEngine, monkeypatch)
        kept = _run_cell(cell, KeepEverythingEngine, monkeypatch)
        assert _outcome(released) == _outcome(kept)
        commits = released.engine.stats.commits
        assert commits > 100
        # The pin compares two different engines: one let go, one did not.
        finished = commits + released.engine.stats.aborts
        assert len(kept.engine.finished) == finished
        assert len(released.engine.finished) < finished // 2

    @pytest.mark.parametrize("tree", ["rp/(rp,rp)", "mono-tso", "mono-occ"])
    def test_conformance_tree(self, tree):
        outcomes = []
        for engine_class in (TebaldiEngine, KeepEverythingEngine):
            engine = _run_conformance_tree(tree, engine_class)
            stats = engine.stats
            assert stats.commits > 0
            outcomes.append(
                (stats.commits, stats.aborts, _digest(engine.store), len(engine.finished))
            )
        (*released, released_held), (*kept, kept_held) = outcomes
        assert released == kept
        assert released_held < kept_held == 60


class TestPruneEqualsNeverPrune:
    """The store's half of the pin above: with every version kept, every
    read of every transaction returns the same version and the runs end in
    the same state — a dropped version is one nothing would have read."""

    @pytest.mark.parametrize("cell", sorted(RUNNER_CELLS))
    def test_closed_loop_cell(self, cell, monkeypatch):
        pruned = _run_cell(cell, ReadLogEngine, monkeypatch)
        kept = _run_cell(cell, ReadLogEngine, monkeypatch, KeepEveryVersionStore)
        assert _outcome(pruned) == _outcome(kept)
        assert pruned.engine.read_log == kept.engine.read_log
        assert pruned.engine.stats.commits > 100
        assert sum(map(len, pruned.engine.read_log.values())) > 900
        # The pin compares two different stores: one let go, one did not
        # (the scan cell only inserts: nothing there is ever superseded).
        superseded = _versions(kept.store) - len(kept.store._committed)
        dropped = _versions(kept.store) - _versions(pruned.store)
        assert dropped > superseded // 4 if superseded else cell == "ycsb-scan/2layer"

    @pytest.mark.parametrize(
        "tree", ["rp/(rp,rp)", "mono-tso", "mono-occ", "mono-ssi", "ssi/(none,2pl)"]
    )
    def test_conformance_tree(self, tree):
        outcomes = []
        for store_class in (MultiVersionStore, KeepEveryVersionStore):
            engine = _run_conformance_tree(tree, ReadLogEngine, store_class)
            stats = engine.stats
            assert stats.commits > 0
            outcomes.append((
                stats.commits, stats.aborts, _digest(engine.store), engine.read_log,
                _versions(engine.store),
            ))
        (*pruned, pruned_versions), (*kept, kept_versions) = outcomes
        assert pruned == kept
        assert pruned_versions < kept_versions


#: Cells for the bound and the audit: a 2PL tree, an SSI-rooted tree (with
#: and without timestamp batches) and a batch leaf.
BOUND_CELLS = {
    "2pl-over-rp": (_micro, configs.micro_2layer),
    "ssi-root": (_smallbank, configs.smallbank_3layer),
    "ssi-batching": (_micro, configs.micro_ssi_2layer),
    "batch-leaf": (_zipf, TREES["ycsb"]["batch"]),
}
CLIENTS = 16
#: finished transactions / queue entries allowed per client.  Measured peaks
#: are 1-3 per client (SSI batches: about 3, one batch of 16 per group).
PER_CLIENT = 8


class TestRetentionBound:
    @pytest.mark.parametrize("cell", sorted(BOUND_CELLS))
    def test_sizes_do_not_grow_with_the_run(self, cell, monkeypatch):
        workload_factory, config_factory = BOUND_CELLS[cell]
        monkeypatch.setattr(runner_module, "TebaldiEngine", OverlapAuditEngine)
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        try:
            runner.add_clients(CLIENTS)
            for target in (300, 1200):
                peak_finished = peak_queue = 0
                while runner.engine.stats.commits < target:
                    runner.run_additional(0.01)
                    peak_finished = max(peak_finished, len(runner.engine.finished))
                    peak_queue = max(peak_queue, len(runner.env._queue))
                assert peak_finished < PER_CLIENT * CLIENTS, (target, peak_finished)
                assert peak_queue < PER_CLIENT * CLIENTS, (target, peak_queue)
                assert len(runner.engine._finished_order) == len(runner.engine.finished)
        finally:
            runner.stop()
        engine = runner.engine
        assert engine.bad_misses == []
        if cell not in ("batch-leaf", "2pl-over-rp"):
            # The audit is not vacuous: released transactions were looked up.
            # (2pl-over-rp: that cell's only misses were the stale RP slot's
            # ``find_transaction`` calls on long-gone writers.)
            assert engine.misses > 0

    def test_a_group_gone_quiet_stops_holding(self, env):
        """Skewed mix: group B runs once, then only group A.  B's timestamp
        batch never fills; it closes when its one member finishes, or it
        would hold back everything that finishes after it — the engine's
        release and, with it, SSI's SIREAD entries — and both would grow
        with the run.  No service runs."""
        engine = build_engine(env, _micro(), configs.micro_ssi_2layer())
        ssi = engine.root.cc
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}
        peaks = []

        def client():
            yield from engine.execute_transaction("group_b_update", args)
            for target in (300, 1200):
                peak = (0, 0)
                while engine.stats.commits < target:
                    yield from engine.execute_transaction("group_a_update", args)
                    held = set(engine.active) | set(engine.finished)
                    readers = set().union(*ssi._readers.values())
                    assert readers <= held, readers - held
                    peak = tuple(map(max, peak, (len(engine.finished), len(ssi._readers))))
                peaks.append(peak)

        env.run(until=env.process(client()))
        # One transaction at a time: each batch dies with its one member, so
        # the last finish waits only for the next retire (``drop_hold`` runs
        # in the finish hook, after the retire's release), and until then
        # SSI keeps that one reader's read set: its three keys.
        finished, read_keys = map(max, *peaks)
        assert finished <= 1 and read_keys <= 3, peaks
        assert engine._holds == {}

    def test_partial_restart_drops_its_force_abort_deadline(self, env):
        """A drain that ends before ``force_abort_after`` cancels the deadline
        it armed (owner cancels): no live entry stays queued at that time."""
        engine = build_engine(env, _micro(), configs.micro_2layer(), options=EngineOptions())
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}
        env.process(engine.execute_transaction("group_a_update", args))
        restart = env.process(
            engine.reconfigure_partial_restart(
                TREES["micro"]["2pl"](), force_abort_after=5.0
            )
        )
        env.run(until=restart)
        assert engine.stats.commits == 1 and 0.0 < env.now < 5.0
        at_deadline = [
            item for at, _seq, item in env._queue
            if at == 5.0 and getattr(item, "callbacks", ()) is not None
        ]
        assert at_deadline == []

    def test_engine_options_have_no_retention_knob(self):
        names = [option.name for option in fields(EngineOptions)]
        assert "history_limit" not in names and "keep_history" not in names
        assert names == [
            "lock_timeout", "commit_wait_timeout", "charge_costs", "durability",
        ]


#: Cells for the chain bound: the three ledger-like trees that overwrite,
#: and the one whose timestamp batches hold the release back.
CHAIN_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer),
    "ycsb-zipf/batch": (_zipf, TREES["ycsb"]["batch"]),
    "smallbank/3layer": (_smallbank, configs.smallbank_3layer),
    "micro/ssi-2layer": (_micro, configs.micro_ssi_2layer),
}


#: What an SSI node keeps across its transactions for pivot tracking and
#: SIREAD retention.
SSI_TRACKING = (
    "_readers",
    "_scans",
    "_write_intents",
)


def ssi_root_holds(cell, targets=(300, 1200)):
    """The SSI root of ``RUNNER_CELLS[cell]`` (seed 7, 16 clients) and, once
    per commit count in ``targets``, ``{structure: entries}``: the
    structures above, and ``read_keys`` — how many transactions still
    active or held carry a read set in the root's state.  ``scripts/check.sh``
    prints the sum on ``ycsb-scan/2layer`` after 1,200 commits."""
    workload_factory, config_factory, _clients, _duration = RUNNER_CELLS[cell]
    runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
    engine = runner.engine
    ssi = engine.root.cc
    node_id = engine.root.node_id
    holds = []
    try:
        runner.add_clients(CLIENTS)
        for target in targets:
            while engine.stats.commits < target:
                runner.run_additional(0.01)
            held = {name: len(getattr(ssi, name)) for name in SSI_TRACKING}
            live = [*engine.active.values(), *engine.finished.values()]
            held["read_keys"] = sum(
                "read_keys" in txn.cc_state.get(node_id, ()) for txn in live
            )
            holds.append(held)
    finally:
        runner.stop()
    return ssi, holds


class TestReadOnlyOptimisedSSIRoot:
    """With at most one update child group an SSI node only hands out
    snapshots: nothing it keeps grows with the run, because it keeps
    nothing per transaction at all."""

    @pytest.mark.parametrize(
        "cell", ["smallbank/3layer", "tpcc/3layer", "ycsb-scan/2layer"]
    )
    def test_holds_nothing_per_transaction(self, cell):
        ssi, holds = ssi_root_holds(cell)
        assert ssi.name == "ssi" and ssi.read_only_optimization
        for held in holds:
            assert set(held.values()) == {0}, (cell, holds)

    def test_the_census_sees_a_batching_root(self):
        """Not blind: the batching root (two update groups) keeps the read
        sets of its members in flight."""
        ssi, holds = ssi_root_holds("micro/ssi-2layer", (300,))
        assert ssi.batching and not ssi.read_only_optimization
        assert holds[0]["_readers"] > 0 and holds[0]["read_keys"] > 0, holds


class TestPivotFactsLiveWithTheirEntity:
    """A batching SSI node keeps a transaction's or a batch's pivot flags
    and commit timestamp in that entity's own state: what the node itself
    keeps is the indexes of ``SSI_TRACKING``, each with a release rule."""

    def test_no_structure_grows_with_the_run(self):
        ssi, (early, late) = ssi_root_holds("micro/ssi-2layer", (1200, 4800))
        assert ssi.batching
        containers = {
            name for name, value in vars(ssi).items()
            if isinstance(value, (dict, set, list, deque))
        }
        assert containers == set(SSI_TRACKING)
        # Measured 103 and 61 entries in all; a node-wide commit timestamp
        # or flag per entity would add one per commit.
        for name in early:
            assert late[name] <= early[name] + CLIENTS, (name, early, late)
        assert len(ssi.batches._live) <= CLIENTS

    def test_a_batch_shares_its_flags_and_anyone_else_has_their_own(self):
        """Under ``ssi/(2pl,2pl)`` (alpha and the read-only reader in one
        group, beta in the other) a batch's members hold one flag set; a
        reader, in no batch, holds its own."""
        workload = ConformanceWorkload()
        rng = random.Random(99)
        requests = [workload.next_transaction(rng) for _ in range(60)]
        env = Environment()
        engine = build_engine(
            env,
            workload,
            CONFORMANCE_TREES["ssi/(2pl,2pl)"](),
            options=EngineOptions(
                charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
            ),
        )
        outcomes, _ = run_transactions(env, engine, requests, lanes=6)
        assert engine.root.cc.batching
        root = engine.root.node_id
        by_batch = defaultdict(list)
        own = []
        for txn in outcomes:
            if isinstance(txn, Exception):
                continue
            state = txn.cc_state[root]
            if state["batch_id"] is not None:
                by_batch[state["batch_id"]].append(state["pivot"])
            elif "pivot" in state:
                own.append(state["pivot"])
        assert own and max(map(len, by_batch.values())) > 1
        for members in by_batch.values():
            assert all(flags is members[0] for flags in members)
        shared = [members[0] for members in by_batch.values()]
        assert len({id(flags) for flags in shared + own}) == len(shared + own)
        assert any("doomed" in flags for flags in shared)


class TestTimestampOrderingKeepsNoPromiseMap:
    """A TSO leaf keeps its promises in each promisor's state and derives
    who a read waits for from ``_active``: the only per-key map it holds is
    the read index, and that names members in flight."""

    def test_only_the_read_index_is_per_key(self):
        workload_factory, config_factory = MOVED_CELLS["ycsb-zipf/tso"]
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        engine = runner.engine
        tso = engine.root.cc
        try:
            runner.add_clients(CLIENTS)
            for target in (1200, 4800):
                while engine.stats.commits < target:
                    runner.run_additional(0.01)
                maps = {
                    name for name, value in vars(tso).items() if isinstance(value, dict)
                }
                assert maps == {"_reads", "_scans", "_active", "_moved"}
                assert all(isinstance(txn_id, int) for txn_id in tso._active)
                assert all(isinstance(txn_id, int) for txn_id in tso._moved)
                assert tso._reads
                for readers in tso._reads.values():
                    for txn_id, (reader, _version_ts) in readers.items():
                        assert reader.txn_id == txn_id
                        assert txn_id in engine.active or txn_id in engine.finished
        finally:
            runner.stop()

    @pytest.mark.parametrize("tree", ["mono-tso", "2pl/(2pl,tso)"])
    def test_a_drained_leaf_holds_nothing(self, tree):
        engine = _run_conformance_tree(tree)
        leaves = [
            cc for tree_node in engine.nodes for cc in _mechanisms(tree_node)
            if cc.name == "tso"
        ]
        assert leaves and engine.active == {}
        for cc in leaves:
            assert cc._reads == {} and cc._active == {} and cc._moved == {}


class TestVersionRetention:
    """The rule applied to versions: dead once the successor's writer has
    left ``engine.finished``, dropped by the next commit on the key."""

    @pytest.mark.parametrize("cell", sorted(CHAIN_CELLS))
    def test_the_longest_chain_does_not_grow_with_the_run(self, cell):
        workload_factory, config_factory = CHAIN_CELLS[cell]
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        try:
            runner.add_clients(CLIENTS)
            peaks = []
            for target in (300, 1200):
                peak = 0
                while runner.engine.stats.commits < target:
                    runner.run_additional(0.01)
                    peak = max(peak, _longest_chain(runner.store))
                peaks.append(peak)
            # Measured 23 and 29 on tpcc (its long transactions keep that many
            # overwriters of the hottest row retained), 3-8 elsewhere; that
            # row is overwritten by every other commit, so unpruned its chain
            # is hundreds long here.
            assert 2 < peaks[1] < 4 * CLIENTS and peaks[1] <= peaks[0] + CLIENTS, peaks
        finally:
            runner.stop()

    def test_an_active_straggler_keeps_what_it_can_still_read(self, env):
        """What the epoch collector's unfinished-middle-epoch rule was for:
        nothing a live transaction overlapped goes, and it goes — on the next
        write of the key — once the straggler has finished."""
        engine = build_engine(env, _micro(), TREES["micro"]["2pl"]())
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}
        key = ("shared", 0)

        def overwrite(times):
            outcomes, _ = run_transactions(
                env, engine, [("group_a_update", args)] * times, lanes=1
            )
            assert all(txn.committed for txn in outcomes)
            return [version.writer for version in engine.store.committed_versions(key)]

        assert overwrite(2) == [1, 2]
        straggler = engine.begin("group_b_update", args)
        assert straggler.txn_id == 3
        # Whoever finishes while the straggler runs is retained, and so is
        # what each of them superseded; 2 finished before it began, so 1 went.
        assert overwrite(4) == [2, 4, 5, 6, 7]
        assert list(engine.finished) == [4, 5, 6, 7]
        engine._finish_abort(straggler, "done")
        assert engine.finished == {}
        assert len(overwrite(1)) == 2

    def test_database_prunes_without_services(self):
        """``Database`` starts no services, and needs none."""
        db = Database(_micro(), TREES["micro"]["2pl"]())
        for _ in range(20):
            db.execute("group_a_update", shared_id=0, local_id=0, cold_ids=[1])
        chain = db.store.committed_versions(("shared", 0))
        assert read_row(db, "shared", 0) == {"value": 20}
        assert [version.value["value"] for version in chain] == [19, 20]
        assert _longest_chain(db.store) == 2

    @pytest.mark.parametrize("commits", [100, 1000])
    def test_database_over_a_batching_root_keeps_nothing_for_a_quiet_group(
        self, commits
    ):
        """One group B transaction, then only group A, under the batching
        SSI root.  When only an idle tick closed a batch, ``Database`` —
        which runs none — kept B's batch open for good, and its hold kept
        every later finish and every version the shared row ever had."""
        db = Database(_micro(), configs.micro_ssi_2layer())
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}
        db.execute("group_b_update", **args)
        for _ in range(commits):
            db.execute("group_a_update", **args)
        assert db.stats.commits == commits + 1
        assert db.engine._holds == {} and len(db.engine.finished) == 1
        assert len(db.store.committed_versions(("shared", 0))) == 3


class TestPipelineHandoffRetention:
    """RP keeps one record of step-committed accesses, ``_passed`` (release
    rule: an entry leaves when its transaction finishes); the write a reader
    observes is derived from it, so there is no second table to release."""

    CELLS = {
        "tpcc/tebaldi-3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer),
        "micro/2layer": (_micro, configs.micro_2layer),
    }

    @pytest.mark.parametrize("cell", sorted(CELLS))
    def test_passed_names_only_members_in_flight_and_empties_on_drain(self, cell):
        workload_factory, config_factory = self.CELLS[cell]
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        try:
            runner.add_clients(CLIENTS)
            pipelines = [n.cc for n in runner.engine.nodes if n.cc.name == "rp"]
            assert pipelines
            peak = 0
            while runner.engine.stats.commits < 600:
                runner.run_additional(0.01)
                for cc in pipelines:
                    holders = {
                        txn_id for entry in cc._passed.values() for txn_id in entry
                    }
                    assert all(cc._passed.values()) and holders <= set(cc._active)
                    peak = max(peak, len(holders))
            assert 0 < peak <= CLIENTS
            _drain(runner)
            assert [cc._passed for cc in pipelines] == [{}] * len(pipelines)
        finally:
            runner.stop()


class TestHolds:
    """``hold_finished``: a CC keeps the release back (timestamp batches)."""

    def _engine(self, env, configuration=None):
        workload = _micro()
        return build_engine(env, workload, configuration or configs.micro_2layer())

    def _finish_one(self, env, engine):
        outcomes, _ = run_transactions(
            env, engine, [("group_a_update", {"shared_id": 0, "local_id": 0, "cold_ids": [1]})]
        )
        return outcomes[0]

    def test_hold_keeps_what_finishes_after_it(self, env):
        engine = self._engine(env)
        before = self._finish_one(env, engine)
        assert engine.finished == {}          # nothing active: released at once
        engine.hold_finished(("cc", 1))
        during = self._finish_one(env, engine)
        assert list(engine.finished) == [during.txn_id]
        assert engine.find_transaction(before.txn_id) is None
        engine.drop_hold(("cc", 1))
        after = self._finish_one(env, engine)  # the next retire releases
        assert engine.finished == {} and after.committed

    @staticmethod
    def _manager(events, batch_size):
        return BatchManager(
            TimestampOracle(),
            batch_size=batch_size,
            on_open=lambda batch: events.append(("open", batch)),
            on_dead=lambda batch: events.append(("dead", batch)),
        )

    def test_a_batch_closes_at_its_last_discard(self):
        events = []
        manager = self._manager(events, batch_size=4)
        first, ts, _flags = manager.admit("g", 10)
        assert manager.admit("g", 11)[:2] == (first, ts)   # concurrent: joins
        manager.discard(first, 10)
        assert manager.admit("g", 12)[:2] == (first, ts)   # 11 still runs: joins
        manager.discard(first, 11)
        assert events == [("open", first)] and manager._live[first]["timestamp"] == ts
        manager.discard(first, 12)                      # the last member
        assert events == [("open", first), ("dead", first)]
        assert manager._current == {} and manager._live == {}
        second, later, _flags = manager.admit("g", 13)  # nobody left to share ts
        assert second != first and later > ts

    def test_a_full_batch_still_rotates_by_size(self):
        events = []
        manager = self._manager(events, batch_size=2)
        first = manager.admit("g", 10)[0]
        manager.admit("g", 11)
        second = manager.admit("g", 12)[0]    # full: 10 and 11 run on in it
        assert second != first
        assert events == [("open", first), ("open", second)]
        manager.discard(first, 10)
        manager.discard(first, 11)
        assert events[-1] == ("dead", first)
        assert manager.admit("g", 13)[0] == second

    def test_on_open_and_on_dead_bracket_each_batch_exactly_once(self):
        """Random admissions and finishes over two groups."""
        events = []
        manager = self._manager(events, batch_size=3)
        rng = random.Random(5)
        running = {}
        for txn_id in range(400):
            if running and rng.random() < 0.5:
                member = rng.choice(sorted(running))
                manager.discard(running.pop(member), member)
            running[txn_id] = manager.admit(rng.choice("gh"), txn_id)[0]
        for member in sorted(running):
            manager.discard(running.pop(member), member)
        opened = [batch for kind, batch in events if kind == "open"]
        died = [batch for kind, batch in events if kind == "dead"]
        assert len(opened) > 100 and len(set(opened)) == len(opened)
        assert sorted(died) == opened
        assert all(
            events.index(("open", batch)) < events.index(("dead", batch))
            for batch in opened
        )
        assert manager._live == {} and manager._current == {}

    @staticmethod
    def _late_joiner_read(env, held, monkeypatch):
        """Three lanes under SSI over two 2PL leaves, no costs charged:

        1. a ``beta`` member opens its group's batch, alive until t=1.0;
        2. ``alpha`` 2 overwrites hot.0 at once; ``alpha`` 3 begins after
           it and overwrites hot.0 again at t=1.2;
        3. the joiner 4 begins after 2 finished — admitted to lane 1's batch,
           whose member still runs — and reads hot.0 at t=1.5.

        2 finished while 1 ran; from 1's finish on, nothing active began
        before 2 finished.  Returns the engine and the joiner's read,
        ``(key, (writer, commit_seq) or None)``."""
        if not held:
            monkeypatch.setattr(TebaldiEngine, "hold_finished", lambda self, key: None)
        tree = Configuration(
            node("ssi", leaf("2pl", "alpha"), leaf("2pl", "beta")), name="ssi-2pl-2pl"
        )
        engine = build_engine(env, TwoStepWorkload(), tree, engine_class=ReadLogEngine)
        lanes = [
            [("beta", [("think", 1.0)])],
            [("alpha", [("w", "hot", 0, 10)]),
             ("alpha", [("think", 1.2), ("w", "hot", 0, 20)])],
            [("beta", [("think", 1.5), ("r", "hot", 0)])],
        ]

        def lane(requests):
            for txn_type, ops in requests:
                txn = yield from engine.execute_transaction(txn_type, {"ops": ops})
                assert txn.committed

        for requests in lanes:
            env.process(lane(requests))
        env.run()
        assert sorted(engine.read_log) == [1, 2, 3, 4]
        assert engine._holds == {}            # every batch died with its members
        return engine, engine.read_log[4][0]

    @pytest.mark.parametrize("held", [True, False], ids=["held", "hold-dropped"])
    def test_ssi_late_joiner_finds_the_version_its_batch_timestamp_selects(
        self, env, held, monkeypatch
    ):
        """Under SSI the writers are the other group's.  The first finishes
        before the joiner begins, so once the batch's first member is gone
        only the hold keeps it, and with it the loaded version the second
        overwrite would drop — which is what the joiner's snapshot, the
        batch timestamp, selects (mutation: no hold)."""
        engine, read = self._late_joiner_read(env, held, monkeypatch)
        key = ("hot", 0)
        assert read[0] == key
        assert len(engine.store.committed_versions(key)) == (3 if held else 2)
        # Without the hold, nothing at or below the snapshot is left to read.
        assert read[1] == ((0, 1) if held else None)

    def test_batching_ssi_holds_and_reconfiguration_drops(self, env):
        """A live member keeps its batch's hold; replacing the SSI node takes
        the hold with it, though the member, force-aborted, is still in flight."""
        tree = Configuration(
            node("ssi", leaf("2pl", "alpha"), leaf("2pl", "beta")), name="ssi-2pl-2pl"
        )
        engine = build_engine(env, TwoStepWorkload(), tree)
        env.process(engine.execute_transaction("beta", {"ops": [("think", 1.0)]}))
        env.run(until=0.5)
        assert [key[0] for key in engine._holds] == [engine.root.cc]
        two_pl = Configuration(
            node("2pl", leaf("rp", "alpha"), leaf("rp", "beta")), name="after"
        )
        env.run(until=env.process(
            engine.reconfigure_partial_restart(two_pl, force_abort_after=0.1)
        ))
        assert len(engine.active) == 1 and engine._holds == {}


def _tracked_per_commit(runner, first, last):
    """GC-tracked objects the run adds per commit between two commit counts."""
    stats = runner.engine.stats
    census = []
    for target in (first, last):
        while stats.commits < target:
            runner.run_additional(0.01)
        for _ in range(4):
            gc.collect()
        census.append((stats.commits, len(gc.get_objects())))
    (commits_0, tracked_0), (commits_1, tracked_1) = census
    return (tracked_1 - tracked_0) / (commits_1 - commits_0)


def tpcc_retention_census():
    """The figures ``scripts/check.sh`` prints: ``tpcc/3layer``, seed 7, 16
    clients — tracked objects added per commit between 600 and 2,400, then
    versions per key and the longest chain in the store at the end."""
    runner = BenchmarkRunner(_tiny_tpcc(), configs.tpcc_tebaldi_3layer(), seed=7)
    try:
        runner.add_clients(CLIENTS)
        tracked = _tracked_per_commit(runner, 600, 2400)
        store = runner.store
        return tracked, _versions(store) / len(store._committed), _longest_chain(store)
    finally:
        runner.stop()


class TestFlatRetention:
    """The log and the history ring are data the cyclic collector cannot see."""

    def test_durable_checked_run_is_flat_and_grows_by_a_few_objects_per_commit(self):
        # A no-op lane: the recorder keeps the commit records pinned below,
        # as a fault lane's does.
        runner = BenchmarkRunner(
            _smallbank(),
            configs.smallbank_3layer(),
            options=EngineOptions(durability=DurabilityConfig(enabled=True)),
            seed=7,
            check_isolation=True,
            lanes=(Lane(),),
        )
        try:
            runner.add_clients(CLIENTS)
            # Below 1,200 commits the per-key structures are still filling.
            # What is left grows with distinct keys, not commits: 0.05
            # measured, 2.05 while the cycle detector kept two sets per
            # committed transaction, 17.5 before records were flat.
            assert _tracked_per_commit(runner, 1200, 4800) < 1

            # A GCP flush folds the log into its image (one checkpoint record
            # per key and one record of folded ids per server), then some
            # more commits: the image and a tail above it.
            runner.manager.advance_gcp_epoch()
            runner.run_additional(0.02)
            for _ in range(4):
                gc.collect()
            buffered = [r for log in runner.manager.logs for r in log._buffer]
            persisted = [r for log in runner.manager.logs for r in log.persisted_records()]
            kinds = Counter(record[KIND] for record in persisted)
            assert len(buffered) > 100 and kinds["checkpoint"] > 300
            assert kinds == {"checkpoint": kinds["checkpoint"], "folded": len(runner.manager.logs)}
            assert not any(map(gc.is_tracked, buffered + persisted))

            # The named exceptions: a record carrying a scan predicate or a
            # pipelined read whose Version is still awaiting its sequence.
            retained = list(runner.recorder._records.values())
            flat = [
                record for record in retained
                if not record[1] and not any(isinstance(item, Version) for item in record)
            ]
            assert len(retained) > 4800 and len(flat) > 0.9 * len(retained)
            assert not any(map(gc.is_tracked, flat))
        finally:
            runner.stop()


class NeverPruneRecorder(HistoryRecorder):
    """Test-only: the recorder as it was before the oracle forgot anything
    (the engine's releases are not passed on: no pruned node, no trimmed
    version order, every committed and aborted id held)."""

    def on_release(self, txn_id):
        pass


def _verdict(report):
    return (
        report.ok, report.cycles, report.num_edges, report.aborted_reads,
        report.intermediate_reads, report.edges_into_pruned,
        report.reads_below_trimmed,
    )


def _oracle_held(checker):
    """``{structure: entries}`` of a streaming checker's run-long state."""
    return {
        "version_order": sum(map(len, checker._writers.values())),
        "keys": len(checker._writers),
        "committed_ids": len(checker._committed),
        "aborted_ids": len(checker._aborted),
        "scan_watches": sum(map(len, checker._scan_watch.values())),
    }


def oracle_entries_held(cell="smallbank/3layer", targets=(1200, 4800),
                        recorder_class=HistoryRecorder):
    """What the streaming checker of a checked ``RUNNER_CELLS[cell]`` run
    (seed 7, 16 clients, no lane) holds after each of ``targets`` commits,
    as :func:`_oracle_held` counts it, plus the engine's retained commits
    (``"retained"``), and the run's verdict.  ``scripts/check.sh`` prints
    the last count of the default cell."""
    workload_factory, config_factory, _clients, _duration = RUNNER_CELLS[cell]
    runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7, check_isolation=True)
    # Swapped in before the first begin, as the engine requires.
    runner.recorder = runner.engine.history_recorder = recorder_class()
    try:
        runner.add_clients(CLIENTS)
        held = []
        for target in targets:
            while runner.engine.stats.commits < target:
                runner.run_additional(0.01)
            counts = _oracle_held(runner.recorder.streaming_checker)
            counts["retained"] = len(runner.engine.finished)
            held.append(counts)
        report = runner.check_isolation()
        return held, (_verdict(report), list(runner.recorder.duplicate_commits))
    finally:
        runner.stop()


def detector_nodes_held(targets=(1200, 4800)):
    """Nodes the oracle's cycle detector holds after each of ``targets``
    commits of a checked ``smallbank/3layer`` run (seed 7, 16 clients).
    Each is a transaction the engine still retains or a released one that
    such a transaction precedes.  ``scripts/check.sh`` prints the last."""
    runner = BenchmarkRunner(
        _smallbank(), configs.smallbank_3layer(), seed=7, check_isolation=True
    )
    try:
        runner.add_clients(CLIENTS)
        held = []
        for target in targets:
            while runner.engine.stats.commits < target:
                runner.run_additional(0.01)
            detector = runner.recorder.streaming_checker.detector
            assert set(detector._ord) <= set(runner.engine.finished) | detector._released
            held.append(len(detector._ord))
        assert runner.check_isolation().ok
        return held
    finally:
        runner.stop()


def commit_records_held(commits=4800):
    """The recorder of a plain checked ``smallbank/3layer`` run (seed 7, 16
    clients) after ``commits`` commits, with the commit records and aborted
    ids it holds.  ``scripts/check.sh`` prints the records."""
    runner = BenchmarkRunner(
        _smallbank(), configs.smallbank_3layer(), seed=7, check_isolation=True
    )
    try:
        runner.add_clients(CLIENTS)
        while runner.engine.stats.commits < commits:
            runner.run_additional(0.01)
        assert runner.check_isolation().ok
        recorder = runner.recorder
        return recorder, len(recorder._records or ()), len(recorder._aborted_ids or ())
    finally:
        runner.stop()


def _report_fields(report):
    return (
        report.ok, report.serializable, report.cycles, report.aborted_reads,
        report.intermediate_reads, report.edges_into_pruned,
        report.num_transactions, report.num_edges,
    )


class TestRecordsOnlyForLanes:
    """The verdict reads no commit record, so only a fault lane's recorder
    keeps them: a plain checked run holds none and refuses ``history()``
    rather than hand out an empty one, and keeping records changes no field
    of a report, on every conformance tree and every open family."""

    SEEDS = range(8)

    def test_a_plain_checked_run_keeps_no_commit_record(self):
        recorder, records, aborted = commit_records_held(4800)
        assert recorder.recorded_commits >= 4800
        assert (records, aborted) == (0, 0)
        # An abort reaches the checker and leaves no id behind.
        recorder.on_abort(Transaction(txn_id=-1, txn_type="w"))
        assert -1 in recorder.streaming_checker._aborted
        assert recorder._aborted_ids is None
        with pytest.raises(ValueError, match="no commit records"):
            recorder.history()

    def test_the_database_facade_keeps_no_commit_record(self):
        db = Database(_smallbank(), configs.smallbank_3layer())
        db.execute("deposit_checking", c_id=3, amount=50.0)
        assert db.check_serializability().num_transactions == 1
        with pytest.raises(ValueError, match="no commit records"):
            db.engine.history_recorder.history()

    def test_a_lane_run_keeps_its_records(self):
        runner = BenchmarkRunner(
            _smallbank(), configs.smallbank_3layer(), seed=7, lanes=(Lane(),)
        )
        try:
            runner.run(CLIENTS, duration=0.05, warmup=0.0)
            recorder = runner.recorder
            assert len(recorder._records) == recorder.recorded_commits > 0
            assert len(recorder.history()) == recorder.recorded_commits
        finally:
            runner.stop()

    @pytest.mark.parametrize("lanes", [None, 2, 3])
    @pytest.mark.parametrize("tree", sorted(CONFORMANCE_TREES))
    def test_records_change_no_report_field(self, tree, lanes):
        for seed in self.SEEDS:
            reports = [
                _report_fields(
                    run_conformance(tree, random_requests(seed, 10), lanes, recorder_class)[0]
                )
                for recorder_class in (HistoryRecorder, RecordingRecorder)
            ]
            assert reports[0] == reports[1], f"seed {seed}: {reports}"

    @pytest.mark.parametrize("schedule", conformance.TestOpenFamilies.CONFORMANCE, ids=str)
    def test_open_conformance_families_read_no_record(self, schedule):
        without, kept = (
            _report_fields(replay_conformance(*schedule, recorder_class=recorder_class)[0])
            for recorder_class in (HistoryRecorder, RecordingRecorder)
        )
        assert without == kept and not without[0]

    @pytest.mark.parametrize("schedule", conformance.TestOpenFamilies.MICRO, ids=str)
    def test_open_micro_families_read_no_record(self, schedule):
        without, kept = (
            _report_fields(run_micro_schedule(*schedule, recorder_class=recorder_class)[1])
            for recorder_class in (HistoryRecorder, RecordingRecorder)
        )
        assert without == kept and not without[0]


class EarlyReleaseEngine(TebaldiEngine):
    """Test-only: hands the oracle the first transaction that commits while
    another one is active — too early, since that one may still read under
    its writes."""

    early = None

    def _commit(self, txn):
        versions = super()._commit(txn)
        if self.early is None and self.active:
            self.early = txn.txn_id
            self.history_recorder.on_release(txn.txn_id)
        return versions


class TestOracleForgetsWhatNoEdgeCanReach:
    """The cycle detector prunes a committed transaction once the engine
    released it and every in-neighbour is pruned.  The verdict is that of a
    recorder that never prunes, on every conformance tree and on every open
    family (which keep failing through their cycle, not through the guard);
    a release that comes too early is a named violation; and the detector
    stays flat on a long checked run."""

    SEEDS = range(8)

    @pytest.mark.parametrize("lanes", [None, 2, 3])
    @pytest.mark.parametrize("tree", sorted(CONFORMANCE_TREES))
    def test_prune_equals_never_prune(self, tree, lanes):
        held = {HistoryRecorder: Counter(), NeverPruneRecorder: Counter()}
        for seed in self.SEEDS:
            verdicts = []
            for recorder_class in held:
                report, _committed, recorder = run_conformance(
                    tree, random_requests(seed, 10), lanes, recorder_class
                )
                verdicts.append((_verdict(report), recorder.duplicate_commits))
                checker = recorder.streaming_checker
                held[recorder_class]["detector_nodes"] += len(checker.detector._ord)
                held[recorder_class].update(_oracle_held(checker))
            assert verdicts[0] == verdicts[1], f"seed {seed}: {verdicts}"
            assert verdicts[0][0][0], f"seed {seed}: {verdicts[0]}"
        # The pin compares two different oracles: one forgot, one did not.
        # Ten requests seldom write a key three times, so the orders and the
        # aborted ids may match (the checked cells below trim both).
        forgot, kept = held[HistoryRecorder], held[NeverPruneRecorder]
        for name in ("detector_nodes", "committed_ids"):
            assert forgot[name] < kept[name], (name, forgot, kept)
        for name in ("version_order", "aborted_ids"):
            assert forgot[name] <= kept[name], (name, forgot, kept)

    @pytest.mark.parametrize("schedule", conformance.TestOpenFamilies.CONFORMANCE, ids=str)
    def test_open_conformance_families_fail_through_the_cycle(self, schedule):
        reports = [
            replay_conformance(*schedule, recorder_class=recorder_class)[0]
            for recorder_class in (HistoryRecorder, NeverPruneRecorder)
        ]
        pruned, kept = map(_verdict, reports)
        assert pruned == kept
        assert reports[0].cycles and reports[0].edges_into_pruned == []

    @pytest.mark.parametrize("schedule", conformance.TestOpenFamilies.MICRO, ids=str)
    def test_open_micro_families_fail_through_the_cycle(self, schedule):
        reports = [
            run_micro_schedule(*schedule, recorder_class=recorder_class)[1]
            for recorder_class in (HistoryRecorder, NeverPruneRecorder)
        ]
        pruned, kept = map(_verdict, reports)
        assert pruned == kept
        assert reports[0].cycles and reports[0].edges_into_pruned == []

    @pytest.mark.parametrize(
        "schedule, committed, edges",
        [
            # The last commit's _retire releases that transaction itself.
            (("mono-rp", 7057, 8, 3), 7, 9),
            # Transaction 9's _retire releases 7 and 10, and three of the
            # edges its commit derives enter them: fed after _retire, the
            # oracle reports them.
            (("mono-ssi", 2, 10, 3), 8, 13),
        ],
        ids=str,
    )
    def test_the_oracle_hears_of_a_commit_before_its_release(
        self, schedule, committed, edges
    ):
        """``_commit`` feeds the recorder before ``_retire``, which releases
        whatever the committing transaction was the last to overlap — itself
        included when it is the oldest one active."""
        report, commits = replay_conformance(*schedule)
        assert report.ok, report.describe()
        assert (commits, report.num_edges) == (committed, edges)

    def test_an_early_release_is_a_named_violation(self):
        requests = [
            ("reader", {"ops": [("r", 0), ("r", 1), ("r", 2), ("r", 3)]}),
            ("beta", {"ops": [("w", 0, 99)]}),
        ]
        env = Environment()
        engine = build_engine(
            env,
            ConformanceWorkload(),
            CONFORMANCE_TREES["mono-ssi"](),
            options=EngineOptions(
                charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
            ),
            engine_class=EarlyReleaseEngine,
        )
        run_transactions(env, engine, requests)
        assert engine.stats.commits == 2
        report = check_recorder(engine.history_recorder)
        # The reader read key 0 under the writer's version: rw reader -> writer.
        assert report.edges_into_pruned == [(1, engine.early)]
        assert not report.ok and report.serializable and not report.cycles
        assert "1 edges into pruned transactions" in report.describe()

    def test_detector_nodes_stay_flat_on_a_checked_run(self):
        # 15 and 33 measured, the committed transactions the engine still
        # retained; before the oracle pruned, every commit stayed a node
        # (4,821 at the second count).
        assert max(detector_nodes_held()) < PER_CLIENT * CLIENTS


class NoCascadeEngine(TebaldiEngine):
    """Test-only: commits a reader whose writer aborted (the cascading
    abort is skipped), so the oracle sees aborted reads."""

    def _check_cascading_abort(self, txn):
        pass


class TestOracleKeepsWhatALaterCommitCanAsk:
    """Without commit records the checker holds what a later ``on_commit``
    can still ask about: a key's version order from the last entry a
    reader can land on, the committed ids the engine retains above a
    watermark (the highest released id), and the aborted ids a reader still
    active could present.  Each stays flat on a long checked run; *release
    ≡ never release* (``TestOracleForgetsWhatNoEdgeCanReach`` on every
    conformance tree and open family, and here on checked cells); a lane's
    recorder keeps the whole orders; and a read below a trimmed head is a
    named violation (``tests/test_streaming_checker.py``)."""

    def test_the_version_order_and_committed_ids_stay_flat(self):
        (early, late), (verdict, duplicates) = oracle_entries_held()
        assert verdict[0] and duplicates == []
        # Measured 861 entries over 352 keys and 1,181 over 400 (5,481
        # before the trim, one per committed version), and 15 and 33
        # committed ids (4,821, one per commit).  A key holds its floor,
        # its head and its tail, plus the writes of retained commits.
        for held in (early, late):
            assert held["version_order"] <= 3 * held["keys"] + 4 * held["retained"], held
            assert held["committed_ids"] <= held["retained"] <= PER_CLIENT * CLIENTS, held

    def test_aborted_ids_stay_flat(self):
        """A batching SSI root aborts about three transactions in four: the
        checker held every aborted id (896 after 1,206 commits, 3,512 after
        4,800); now it holds those no release has passed yet (1 and 5)."""
        held, (verdict, _duplicates) = oracle_entries_held("micro/ssi-2layer")
        assert verdict[0]
        for counts in held:
            assert counts["aborted_ids"] <= PER_CLIENT * CLIENTS, held
            assert counts["committed_ids"] <= PER_CLIENT * CLIENTS, held

    def test_an_abort_nothing_overlaps_leaves_no_id(self, env):
        """Its own retire releases it: the recorder hears of the abort
        first, or the release would find no id and the abort would stay."""
        engine = build_engine(
            env, TwoStepWorkload(), monolithic("2pl", ("alpha", "beta"), name="lone"),
            options=EngineOptions(charge_costs=False),
        )
        outcomes, _ = run_transactions(
            env, engine, [("alpha", {"ops": [("w", "hot", 0, 1), ("abort",)]})]
        )
        assert outcomes[0].reason == "user-abort" and engine.finished == {}
        assert engine.history_recorder.streaming_checker._aborted == set()

    def test_release_equals_never_release_on_checked_cells(self):
        for cell in ("smallbank/3layer", "micro/ssi-2layer"):
            (forgot,), verdict = oracle_entries_held(cell, (1200,))
            (kept,), kept_verdict = oracle_entries_held(cell, (1200,), NeverPruneRecorder)
            assert verdict == kept_verdict, cell
            assert forgot["committed_ids"] < kept["committed_ids"], (cell, forgot, kept)
            assert forgot["version_order"] < kept["version_order"], (cell, forgot, kept)

    def test_release_equals_never_release_with_aborted_reads(self, monkeypatch):
        """Not vacuous: an engine that commits readers of aborted writers
        (the flagship's RP leaves pipeline reads) gives both oracles the
        same aborted reads, although one released aborted ids as it went."""
        monkeypatch.setattr(runner_module, "TebaldiEngine", NoCascadeEngine)
        verdicts, held = [], []
        for recorder_class in (HistoryRecorder, NeverPruneRecorder):
            runner = BenchmarkRunner(
                _tiny_tpcc(), configs.tpcc_tebaldi_3layer(), seed=7, check_isolation=True
            )
            runner.recorder = runner.engine.history_recorder = recorder_class()
            try:
                runner.add_clients(CLIENTS)
                runner.run_additional(0.2)
                report = runner.check_isolation()
            finally:
                runner.stop()
            verdicts.append((_verdict(report), runner.recorder.duplicate_commits))
            held.append(_oracle_held(runner.recorder.streaming_checker))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][0][3], "no aborted read: the pin would be vacuous"
        assert held[0]["aborted_ids"] < held[1]["aborted_ids"], held

    def test_a_lane_recorder_keeps_the_whole_order(self):
        """A fault lane reads every committed version's place (``history()``,
        the crash stitch's ``seq_of``), so its recorder trims nothing."""
        runner = BenchmarkRunner(
            _smallbank(), configs.smallbank_3layer(), seed=7, lanes=(Lane(),)
        )
        try:
            runner.run(CLIENTS, duration=0.05, warmup=0.0)
            recorder = runner.recorder
            checker = recorder.streaming_checker
            versions = sum(len(txn.writes) for txn in recorder.history().transactions.values())
            assert sum(map(len, checker._writers.values())) == versions > 0
            assert len(checker._committed) == recorder.recorded_commits
            assert not any(writers[0] is None for writers in checker._writers.values())
        finally:
            runner.stop()

    def test_a_second_commit_of_a_released_id_is_flagged(self):
        """The phantom-commit check spans the run: an id at or below the
        highest released one finished already."""
        recorder = HistoryRecorder()
        for txn_id in range(1, 11):
            recorder.on_commit(Transaction(txn_id=txn_id, txn_type="w", reads=[]), [])
            recorder.on_release(txn_id)
        recorder.on_abort(Transaction(txn_id=11, txn_type="w"))
        assert recorder.streaming_checker._committed == set()
        for txn_id in (1, 9, 12):
            recorder.on_commit(Transaction(txn_id=txn_id, txn_type="w", reads=[]), [])
        assert recorder.duplicate_commits == [1, 9]


class TestPrecommitDedupRelease:
    """The dedup table keeps an entry only while its commit exchange runs."""

    @pytest.mark.parametrize("net_faults", [False, True], ids=["plain", "net-faults"])
    def test_table_stays_below_the_client_count(self, net_faults):
        lanes, options = [], EngineOptions(durability=DurabilityConfig(enabled=True))
        if net_faults:
            plan = MessageFaultPlan.from_seed(7, faults=4, require=("drop", "partition"))
            lanes, options = [NetFaultLane(plan)], None
        runner = BenchmarkRunner(
            _smallbank(), configs.smallbank_3layer(), options=options, seed=7, lanes=lanes
        )
        try:
            runner.add_clients(CLIENTS)
            for target in (300, 1200):
                peak = 0
                while runner.engine.stats.commits < target:
                    runner.run_additional(0.002)
                    peak = max(peak, len(runner.manager._precommit_epochs))
                assert peak <= CLIENTS, (target, peak)
            assert sum(len(log.records()) for log in runner.manager.logs) > 1200
            if net_faults:
                assert runner.lanes[0].transport.stats["retries"] > 0
        finally:
            runner.stop()


class TestLogHoldsOnlyWhatRecoveryReads:
    """The precommit record is the log's only redo record: a commit leaves
    one at each participant and nothing else, retransmits included."""

    @pytest.mark.parametrize("net_faults", [False, True], ids=["plain", "net-faults"])
    def test_one_precommit_record_per_participant(self, net_faults):
        commits, records = durable_log(net_faults)
        assert {record[KIND] for record in records} == {"precommit"}
        participants = defaultdict(list)
        for record in records:
            participants[record[TXN_ID]].append(record_body(record)[0])
        # A precommit is written before its commit is counted.
        assert len(participants) >= commits
        for counts in participants.values():
            assert counts == [len(counts)] * len(counts)


class NeverFoldLog(WriteAheadLog):
    """Test-only: the log as it was before its release rule.  An advance's
    fold keeps every record; only the recovery checkpoint, which folds the
    log it has just reset, re-bases it."""

    def fold(self, image=()):
        if self._next_lsn == 1:
            super().fold(image)


#: site -> occurrence: each crash of the folding cell comes after two folds.
FOLDED_CRASHES = {
    "precommit-record": 2500,
    "precommit-done": 2000,
    "gcp-before": 3,
    "gcp-server": 10,
    "gcp-after": 3,
}


class TestLogReleasesWhatRecoveryNoLongerReads:
    """Release rule of the write-ahead log: every persistent GCP advance
    folds each log into its per-key image, so a log holds its image, the
    tail above it and one record of folded ids per fold."""

    def test_records_held_stay_within_keys_owned_and_one_epoch(self):
        runner = _folding_cell()
        manager, stats = runner.manager, runner.engine.stats
        folds = []  # commits at each advance
        advance = manager.advance_gcp_epoch

        def counted_advance():
            folds.append(stats.commits)
            return advance()

        manager.advance_gcp_epoch = counted_advance
        owned = Counter(manager.server_for(key) for key in runner.store.latest_state())
        try:
            while stats.commits < 1200:
                runner.run_additional(0.01)
            samples = 0
            while stats.commits < 4800:
                runner.run_additional(0.01)
                # A commit logs at most one record per server, and up to a
                # client's worth precommitted without being counted yet.
                tail = stats.commits - folds[-1] + CLIENTS
                for server, log in enumerate(manager.logs):
                    held, folded = _log_held(log)
                    assert held <= owned[server] + tail, (stats.commits, server, held)
                    assert folded == len(folds)
                samples += 1
            epochs = [after - before for before, after in zip(folds, folds[1:])]
            assert samples > 20 and len(folds) >= 6 and max(epochs) < 1000
        finally:
            runner.stop()

    @pytest.mark.parametrize("site", SITES)
    def test_recovery_from_image_and_tail_equals_the_full_log(self, site, monkeypatch):
        """At every crash site, recovery from the image plus the tail gives
        the full log's ``RecoveryResult`` (all five fields), crash report
        for crash report."""
        recover, crash = DurabilityManager.recover, DurabilityManager.crash
        runs = {}
        for log_class in (WriteAheadLog, NeverFoldLog):
            recoveries, folded_at_crash = [], []

            def spying_crash(manager):
                folded_at_crash.append(sum(_log_held(log)[1] for log in manager.logs))
                crash(manager)

            def recording_recover(manager):
                recoveries.append(recover(manager))
                return recoveries[-1]

            monkeypatch.setattr(durability_module, "WriteAheadLog", log_class)
            monkeypatch.setattr(DurabilityManager, "recover", recording_recover)
            monkeypatch.setattr(DurabilityManager, "crash", spying_crash)
            plan = FaultPlan((CrashPoint(site, FOLDED_CRASHES[site]),))
            lane = CrashLane(plan, durability=_FOLDING_DURABILITY)
            runner = BenchmarkRunner(
                _smallbank(), configs.smallbank_3layer(), seed=7, lanes=[lane]
            )
            try:
                result = runner.run(CLIENTS, duration=0.25, warmup=0.0)
            finally:
                runner.stop()
            assert result.extra["isolation"].ok
            runs[log_class] = recoveries, result.crashes, result.commits, folded_at_crash
        folding, never = runs[WriteAheadLog], runs[NeverFoldLog]
        assert folding[:3] == never[:3]
        (recovered,), (crash_report,) = folding[0], folding[1]
        assert crash_report.site == site and len(recovered.recovered_transactions) > 1200
        # Not vacuous: the folding run's crash came after folds.
        assert folding[3][0] >= 2 * _FOLDING_DURABILITY.num_servers and never[3] == [0]


def _indexed(cc):
    """Ids of the members the batch leaf's two indexes name, and the entries."""
    executing = {txn.txn_id for txn in cc._executing.values()}
    writers = [txn_id for holders in cc._writers.values() for txn_id in holders]
    assert all(cc._writers.values())          # no key is kept without a holder
    return executing | set(writers), len(cc._executing), len(writers)


def _assert_drained(cc):
    """Nothing of a member outlives it: not its index entries, not its wakes
    (an RP, TSO or batch node)."""
    assert cc._active == {} and cc._moved == {}
    if cc.name == "batch":
        assert cc._executing == {} and cc._writers == {} and cc._turns == []


def _mechanisms(tree_node):
    """The node's mechanism instances: its one, or a partitioned leaf's
    instance per partition value used so far."""
    if tree_node.instances is None:
        return [tree_node.cc]
    return list(tree_node.instances.values())


def _moved_nodes(engine):
    """Every mechanism instance in the tree that keeps moved events."""
    found = []
    for tree_node in engine.nodes:
        for instance in _mechanisms(tree_node):
            if isinstance(vars(instance).get("_moved"), MovedEvents):
                found.append(instance)
    return found


#: name -> (workload, configuration): RP leaves, a TSO leaf (the batch leaf's
#: moved events are checked with its indexes, in ``TestBatchLeafRetention``).
MOVED_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer),
    "ycsb-zipf/tso": (
        _zipf, lambda: monolithic("tso", sorted(_zipf().transaction_types()), name="ycsb-tso"),
    ),
}


class TestMovedEventRetention:
    """Release rule of a moved event: it leaves the map when it fires, at
    its transaction's next move and at the latest when it finishes, so a
    node never keeps more of them than it has members in flight."""

    @pytest.mark.parametrize("cell", sorted(MOVED_CELLS))
    def test_events_name_only_members_in_flight_and_empty_on_drain(self, cell):
        workload_factory, config_factory = MOVED_CELLS[cell]
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        try:
            runner.add_clients(CLIENTS)
            nodes = _moved_nodes(runner.engine)
            assert nodes
            peak = 0
            while runner.engine.stats.commits < 600:
                runner.run_additional(0.0005)
                for cc in nodes:
                    assert set(cc._moved) <= set(cc._active), cell
                    peak = max(peak, len(cc._moved))
            assert peak > 0
            _drain(runner)
            for cc in nodes:
                _assert_drained(cc)
        finally:
            runner.stop()


class TestBatchLeafRetention:
    """The batch leaf keeps its members in flight in two indexes (still
    executing, by sequence; declared writers, by key) and its pending wakes
    in two sets (a member's next move, by id; turns at the commit point, by
    sequence): release rule — a member leaves the indexes when it finishes,
    a wake leaves its set when it fires."""

    def test_a_drained_run_leaves_no_cyclic_garbage(self):
        """A sealed batch used to list the members whose state lists the
        batch, so every member waited for the cyclic collector."""
        runner = BenchmarkRunner(_zipf(), TREES["ycsb"]["batch"](), seed=7)
        gc.disable()                          # after the runner's own collect
        try:
            runner.run(CLIENTS, duration=0.08, warmup=0.0)
            _drain(runner)
            assert runner.engine.stats.commits > 1000
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_indexes_name_only_members_in_flight_and_empty_on_drain(self):
        runner = BenchmarkRunner(_zipf(), TREES["ycsb"]["batch"](), seed=7)
        cc = runner.engine.root.cc
        try:
            runner.add_clients(CLIENTS)
            peak_executing = peak_writers = peak_wakes = 0
            while runner.engine.stats.commits < 1200:
                runner.run_additional(0.0005)
                members, executing, writers = _indexed(cc)
                assert members <= set(cc._active) and len(cc._active) <= CLIENTS
                # YCSB members declare at most one key each.
                assert executing <= len(cc._active) and writers <= len(cc._active)
                assert set(cc._moved) <= set(cc._active)
                wakes = len(cc._moved) + len(cc._turns)
                assert wakes <= len(cc._active)
                peak_executing = max(peak_executing, executing)
                peak_writers = max(peak_writers, writers)
                peak_wakes = max(peak_wakes, wakes)
            assert peak_executing > 1 and peak_writers > 1 and peak_wakes > 1
            _drain(runner)
            _assert_drained(cc)
        finally:
            runner.stop()

    def test_a_member_that_dies_before_the_seal_is_never_indexed(self, env):
        engine = build_engine(env, _zipf(), TREES["ycsb"]["batch"]())
        cc = engine.root.cc
        casualty = engine.begin("update_record", {"key": 1, "value": 0})
        parked = cc.start(casualty)
        next(parked)                          # joined the open batch, awaits its seal
        batch = cc.state(casualty)["batch"]
        survivor = env.process(
            engine.execute_transaction("update_record", {"key": 1, "value": 5})
        )
        env.run(until=0.005)                  # the survivor has joined; window still open
        assert len(cc._active) == 2 and casualty.txn_id in cc._active
        engine._finish_abort(casualty, "died-before-seal")
        assert batch.members is not None and casualty not in batch.members
        env.run(until=survivor)
        assert survivor.value.committed and batch.sealed and batch.members is None
        assert "seq" not in cc.state(casualty) and cc.state(survivor.value)["preds"] == set()
        _assert_drained(cc)
        assert cc._inflight == 0

    def test_forced_restart_and_spliced_node_let_go_of_their_members(self):
        """A reconfiguration replaces the node while its members are pinned
        to it: the old node's indexes drain with them."""
        cases = {
            "partial-restart": (
                TREES["ycsb"]["batch"], lambda engine: engine.root.cc,
                lambda engine: engine.reconfigure_partial_restart(
                    TREES["ycsb"]["2pl"](), force_abort_after=0.0002
                ),
            ),
            "online-splice": (
                TREES["ycsb"]["batch-2layer"], lambda engine: engine.root.children[1].cc,
                lambda engine: engine.reconfigure_online(configs.ycsb_2layer()),
            ),
        }
        for name, (config_factory, batch_cc, reconfigure) in cases.items():
            runner = BenchmarkRunner(_zipf(), config_factory(), seed=7)
            try:
                runner.add_clients(CLIENTS)
                engine = runner.engine
                old = batch_cc(engine)
                # Switch while both indexes name members in flight and
                # some of them wait for a wake.
                while not (all(_indexed(old)) and (old._moved or old._turns)):
                    runner.run_additional(0.0005)
                    assert engine.env.now < 0.1, name
                switch = engine.env.process(reconfigure(engine))
                engine.env.run(until=switch)
                if name == "partial-restart":
                    forced = [txn.abort_reason for txn in old._active.values()]
                    assert forced and set(forced) == {"forced-reconfiguration"}
                commits = engine.stats.commits
                runner.run_additional(0.02)
                assert batch_cc(engine) is not old and batch_cc(engine).name == "2pl"
                assert engine.stats.commits > commits, name
                _assert_drained(old)
            finally:
                runner.stop()


class TestLateResolution:
    """Where a flat record could quietly weaken the oracle: a committed read
    of a *then-uncommitted* version must not freeze the missing sequence."""

    def _pipelined_read(self, oracle, writer_commits):
        """The reader's resolved read and the report of ``oracle``: the
        streaming verdict, or the post-hoc reference over ``history()``."""
        store = MultiVersionStore()
        recorder = HistoryRecorder(records=True)
        writer = Transaction(txn_id=1, txn_type="w", reads=[])
        version = store.install(("x",), {"v": 1}, writer)
        reader = Transaction(txn_id=2, txn_type="r", reads=[])
        reader.reads.append(ReadRecord(("x",), version))
        recorder.on_commit(reader, [])          # the reader commits first
        if writer_commits:
            recorder.on_commit(writer, store.commit_transaction(writer))
        else:
            store.abort_transaction(writer)
            recorder.on_abort(writer)
        history = recorder.history()
        (read,) = history.transactions[2].reads
        if oracle == "post-hoc":
            return read, version, check_history(history)
        return read, version, check_recorder(recorder)

    @pytest.mark.parametrize("oracle", ["post-hoc", "streaming"])
    def test_resolves_to_the_final_sequence_once_the_writer_commits(self, oracle):
        read, version, report = self._pipelined_read(oracle, writer_commits=True)
        assert version.commit_seq is not None
        assert read == (("x",), 1, version.commit_seq)
        assert report.ok and report.num_edges == 1

    @pytest.mark.parametrize("oracle", ["post-hoc", "streaming"])
    def test_stays_unsequenced_and_aborted_when_the_writer_aborts(self, oracle):
        read, _version, report = self._pipelined_read(oracle, writer_commits=False)
        assert read == (("x",), 1, None)
        assert report.aborted_reads == [(2, ("x",), 1)]


def _lock_tables(engine):
    """``(tree node, lock table)`` for every lock table in the CC tree, one
    per instance of a partitioned node."""
    tables = []
    for tree_node in engine.nodes:
        for instance in _mechanisms(tree_node):
            locks = vars(instance).get("locks")
            if isinstance(locks, LockTable):
                tables.append((tree_node, locks))
    return tables


def _lock_records(engine):
    return sum(len(table._locks) for _node, table in _lock_tables(engine))


class _KeptRecords(dict):
    """A lock map that forgets nothing."""

    def __delitem__(self, key):
        pass


class KeepEveryRecordLockTable(LockTable):
    """Test-only: the table as it was before it dropped an idle record."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._locks = _KeptRecords()


LOCK_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer),
    "smallbank/3layer": (_smallbank, configs.smallbank_3layer),
    "micro/2pl": (_micro, TREES["micro"]["2pl"]),
}


class TestLockRecordRetention:
    """Release rule of a lock record: the last holder or waiter to leave
    takes it along, whichever way it leaves."""

    @pytest.mark.parametrize("cell", sorted(LOCK_CELLS))
    def test_every_record_has_a_holder_or_a_waiter(self, cell):
        workload_factory, config_factory = LOCK_CELLS[cell]
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        try:
            runner.add_clients(CLIENTS)
            tables = [table for _node, table in _lock_tables(runner.engine)]
            assert tables
            for target in (300, 1200):
                peak = 0
                while runner.engine.stats.commits < target:
                    runner.run_additional(0.01)
                    for table in tables:
                        in_use = {k for keys in table._held_by_txn.values() for k in keys}
                        in_use.update(k for keys in table._waiting_keys.values() for k in keys)
                        assert set(table._locks) <= in_use, (target, table.name)
                    peak = max(peak, sum(len(table._locks) for table in tables))
                assert peak > 0
            _drain(runner)
            assert [table._locks for table in tables] == [{}] * len(tables)
        finally:
            runner.stop()

    @pytest.mark.parametrize("cell", ["tpcc/3layer", "smallbank/3layer"])
    def test_drop_equals_never_drop(self, cell, monkeypatch):
        dropped = _run_cell(cell, TebaldiEngine, monkeypatch)
        # Runtime pipelining builds its table in 2PL's constructor.
        monkeypatch.setattr(two_phase_locking, "LockTable", KeepEveryRecordLockTable)
        kept = _run_cell(cell, TebaldiEngine, monkeypatch)

        def per_type(runner):
            return runner.engine.stats.summary()["per_type"]

        assert _outcome(dropped) == _outcome(kept)
        assert per_type(dropped) == per_type(kept)
        assert dropped.engine.stats.commits > 100
        # The pin compares two different tables: one let go, one did not.
        assert 0 < 4 * _lock_records(dropped.engine) < _lock_records(kept.engine)

    def test_drop_equals_never_drop_on_a_conformance_tree(self, monkeypatch):
        outcomes = []
        for table_class in (LockTable, KeepEveryRecordLockTable):
            monkeypatch.setattr(two_phase_locking, "LockTable", table_class)
            engine = _run_conformance_tree("2pl/(rp,rp)")
            stats = engine.stats
            assert stats.commits > 0
            outcomes.append((
                stats.summary()["per_type"], stats.aborts, _digest(engine.store),
                _lock_records(engine),
            ))
        (*dropped, dropped_records), (*kept, kept_records) = outcomes
        assert dropped == kept
        assert dropped_records == 0 < kept_records


class TestChainRetention:
    """A key's committed chain is one list; nothing else is kept per key."""

    def test_a_key_written_once_costs_its_list_and_its_version(self):
        store = MultiVersionStore()
        store.load(("t", -1), {"v": 0})
        store.range_keys("t")                   # the table's index exists
        writer = Transaction(txn_id=1, txn_type="w")
        counts = []
        for insert in (
            lambda pk: store.load(("t", pk), {"v": pk}),
            lambda pk: store.install(("t", 1000 + pk), {"v": pk}, writer),
        ):
            gc.collect()
            before = len(gc.get_objects())
            for pk in range(500):
                insert(pk)
            store.commit_transaction(writer)
            gc.collect()
            counts.append(len(gc.get_objects()) - before)
        assert counts == [1000, 1000]

    def test_tpcc_tracked_objects_per_commit_stay_under_the_bound(self):
        # Its new keys' lists and versions, the versions of its updates and
        # what SSI keeps per commit: 8.7 measured, 13.7 while superseded
        # versions stayed; 27.2 with a wrapper, two arrays and a writer map
        # beside every chain and idle lock records kept until a sweep.  The
        # store ends on 1.35 versions per key, the hottest row on 6 (in-run
        # peak 29: what its long transactions retain); unpruned, 2.48 and
        # 1,018.
        tracked, versions_per_key, hottest = tpcc_retention_census()
        assert tracked < 14
        assert versions_per_key < 1.6 and hottest < 4 * CLIENTS


def scan_indexes_held(cell):
    """The tables whose ordered scan index the store of ``RUNNER_CELLS[cell]``
    (seed 7, 16 clients) holds at the end of its run.  ``scripts/check.sh``
    prints the count on ``tpcc/3layer`` and ``ycsb-scan/2layer``."""
    workload_factory, config_factory, _clients, duration = RUNNER_CELLS[cell]
    runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
    try:
        runner.run(CLIENTS, duration=duration, warmup=0.0)
        assert runner.engine.stats.commits > 100
        return sorted(runner.store._table_index)
    finally:
        runner.stop()


#: name -> (workload, configuration): the trees whose lock nodes
#: :func:`range_managers_held` reads.
RANGE_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer),
    "seats/3layer": (
        lambda: SEATSWorkload(flights=2, seats_per_flight=100, customers=50),
        TREES["seats"]["3layer"],
    ),
    "smallbank/3layer": (_smallbank, configs.smallbank_3layer),
    "ycsb-scan/2layer": (lambda: YCSBWorkload(records=300, profile="e"), configs.ycsb_2layer),
    "queue/3layer": (QueueWorkload, TREES["queue"]["3layer"]),
}


def range_managers_held(cell):
    """Ids of the nodes of ``RANGE_CELLS[cell]``'s engine that hold a
    range-lock manager.  ``scripts/check.sh`` prints the count on
    ``tpcc/3layer`` and ``queue/3layer``."""
    workload_factory, config_factory = RANGE_CELLS[cell]
    engine = build_engine(Environment(), workload_factory(), config_factory())
    held = []
    for tree_node in engine.nodes:
        cc = tree_node.cc
        if cc is None:
            # A partitioned leaf before any run: one instance, built as the
            # route builds each.
            cc = create_cc(tree_node.spec.cc, engine, tree_node, tree_node.spec.params)
        if getattr(cc, "ranges", None) is not None:
            held.append(tree_node.node_id)
    return held


class TestLockNodesPayOnlyForReachablePhantoms:
    """A 2PL or RP node builds its range locks only when a type routed
    through it declares a scan; every node used to build them."""

    @pytest.mark.parametrize(
        "cell", ["tpcc/3layer", "seats/3layer", "smallbank/3layer", "ycsb-scan/2layer"]
    )
    def test_no_lock_node_of_a_scanless_route_holds_range_locks(self, cell):
        # ycsb-scan's scans run under the SSI root beside the one 2PL node,
        # which routes only insert_record, update_record and read_modify_write.
        assert range_managers_held(cell) == []

    def test_only_the_nodes_a_scanner_reaches_hold_range_locks(self):
        # dequeue and sweep scan through the cross-group 2PL node and the
        # consumer leaf; the producer leaf routes only enqueue.
        assert range_managers_held("queue/3layer") == ["0.1", "0.1.1"]


def _scan_registries(engine):
    """``(node id, name, registry)`` for every scan registry in the tree:
    each node's ``ScanSet`` (a lock node's range locks, SSI's and TSO's
    range reads) and write-intent map (a lock node's by table, SSI's by
    key).  Every registry maps its first key to ``{txn_id: ...}``."""
    found = []
    for tree_node in engine.nodes:
        for cc in _mechanisms(tree_node):
            ranges = getattr(cc, "ranges", None)
            if ranges is not None:
                found.append((tree_node.node_id, "scans", ranges.scans))
                found.append((tree_node.node_id, "intents", ranges._intents))
            if isinstance(vars(cc).get("_scans"), ScanSet):
                found.append((tree_node.node_id, "scans", cc._scans))
            if "_write_intents" in vars(cc):
                found.append((tree_node.node_id, "intents", cc._write_intents))
    return found


def _registered_ids(registry):
    return {txn_id for per_first in registry.values() for txn_id in per_first}


#: The conformance trees that scan through every registry kind: range locks
#: (2PL, RP, 2PL over RP), SSI's and TSO's range reads.
SCAN_DRAIN_TREES = ("mono-2pl", "mono-rp", "mono-ssi", "mono-tso", "2pl/(rp,rp)")


def scan_registries_drained():
    """``(drained, registries)`` over :data:`SCAN_DRAIN_TREES` once each
    conformance run has drained.  ``scripts/check.sh`` prints both."""
    drained = total = 0
    for tree in SCAN_DRAIN_TREES:
        engine = _run_conformance_tree(tree)
        assert engine.active == {} and engine.stats.commits > 0
        for _node_id, _name, registry in _scan_registries(engine):
            total += 1
            drained += not registry
    return drained, total


#: name -> (workload, configuration): scan registries under load.
SCAN_REGISTRY_CELLS = {
    "queue/3layer": (QueueWorkload, TREES["queue"]["3layer"]),
    "queue/ssi": (QueueWorkload, TREES["queue"]["ssi"]),
}


class TestScanRegistriesDrain:
    """Release rule of a scan predicate or write intent: it leaves with its
    transaction, when the node lets go of it (at finish; a committed SSI
    reader's when the engine releases it)."""

    @pytest.mark.parametrize("tree", SCAN_DRAIN_TREES)
    def test_every_registry_is_empty_after_a_drained_run(self, tree):
        engine = _run_conformance_tree(tree)
        assert engine.active == {} and engine.stats.commits > 0
        registries = _scan_registries(engine)
        assert registries
        assert [entry for entry in registries if entry[2]] == []

    def test_the_census_counts_every_registry(self):
        # 2PL and RP: scans and intents; SSI: scans and intents; TSO: scans;
        # 2PL over two RP leaves: three lock nodes.
        assert scan_registries_drained() == (13, 13)

    @pytest.mark.parametrize("cell", sorted(SCAN_REGISTRY_CELLS))
    def test_entries_name_only_transactions_the_engine_holds(self, cell):
        workload_factory, config_factory = SCAN_REGISTRY_CELLS[cell]
        runner = BenchmarkRunner(workload_factory(), config_factory(), seed=7)
        engine = runner.engine
        try:
            runner.add_clients(CLIENTS)
            registries = _scan_registries(engine)
            assert registries
            while engine.stats.commits < 1200:
                runner.run_additional(0.01)
            peak = 0
            while engine.stats.commits < 4800:
                runner.run_additional(0.01)
                held = set(engine.active) | set(engine.finished)
                for node_id, name, registry in registries:
                    ids = _registered_ids(registry)
                    assert ids <= held, (cell, node_id, name, ids - held)
                    peak = max(peak, len(ids))
            assert peak > 0
        finally:
            runner.stop()


class TestStorePaysOnlyForWhatIsRead:
    """A table's scan index is built by its first scan, and a version is a
    fixed header plus its row."""

    def test_only_a_scanned_table_holds_a_scan_index(self):
        # No tpcc/3layer type scans; ycsb-scan's scans read one table.  The
        # store used to index every table at population.
        assert scan_indexes_held("tpcc/3layer") == []
        assert scan_indexes_held("ycsb-scan/2layer") == ["usertable"]

    def test_an_installed_version_references_no_container_of_its_own(self):
        store = MultiVersionStore()
        version = store.install(("t", 1), {"v": 1}, Transaction(txn_id=1, txn_type="w"))
        own = [
            ref
            for ref in gc.get_referents(version)
            if isinstance(ref, (dict, list, set, tuple))
            and ref is not version.key
            and ref is not version.value
        ]
        assert own == []


class TestTheStoreHoldsEachRowAndKeyOnce:
    """Population hands its rows to the store and keeps no catalog, and
    every version of a key holds the key object its chain is filed under."""

    def test_population_leaves_no_catalog_behind(self, monkeypatch):
        workload = _tiny_tpcc()
        build, built = workload.build_catalog, []

        def build_and_watch():
            catalog = build()
            built.append(weakref.ref(catalog))
            return catalog

        monkeypatch.setattr(workload, "build_catalog", build_and_watch)
        runner = BenchmarkRunner(workload, configs.tpcc_tebaldi_3layer(), seed=11)
        runner.stop()
        assert len(built) == 1 and built[0]() is None

    def test_every_committed_version_holds_its_chains_key(self, monkeypatch):
        runner = _run_cell("tpcc/3layer", TebaldiEngine, monkeypatch)
        assert runner.engine.stats.commits > 0
        copies = [
            key
            for key, chain in runner.store._committed.items()
            if any(version.key is not key for version in chain)
        ]
        assert copies == []


class ReadCountEngine(TebaldiEngine):
    """Test-only: for each committed transaction, its type, the reads and
    scans it performed, and the read and scan records it carried when it
    finished (``None`` where it kept no list)."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.performed = Counter()
        self.committed = []

    def perform_read(self, txn, key, for_update=False):
        value = yield from super().perform_read(txn, key, for_update)
        self.performed[txn.txn_id, "read"] += 1
        return value

    def perform_scan(self, txn, key_range):
        rows = yield from super().perform_scan(txn, key_range)
        self.performed[txn.txn_id, "scan"] += 1
        return rows

    def _retire(self, txn):
        reads = self.performed.pop((txn.txn_id, "read"), 0)
        scans = self.performed.pop((txn.txn_id, "scan"), 0)
        if txn.committed:
            self.committed.append((
                txn.txn_type,
                reads,
                scans,
                None if txn.reads is None else len(txn.reads),
                None if txn.scans is None else len(txn.scans),
            ))
        super()._retire(txn)


def _recording(engine):
    """The transactions ``engine`` still holds that carry a read or scan list."""
    live = (*engine.active.values(), *engine.finished.values())
    return [txn.txn_id for txn in live if txn.reads is not None or txn.scans is not None]


def read_record_census(cell, check_isolation=False):
    """Run ``RUNNER_CELLS[cell]`` (seed 7, 16 clients) on a
    :class:`ReadCountEngine`: its committed rows, and the transactions it
    holds at the end that carry a read or scan list."""
    workload_factory, config_factory, _clients, duration = RUNNER_CELLS[cell]
    original = runner_module.TebaldiEngine
    runner_module.TebaldiEngine = ReadCountEngine
    try:
        runner = BenchmarkRunner(
            workload_factory(), config_factory(), seed=7, check_isolation=check_isolation
        )
    finally:
        runner_module.TebaldiEngine = original
    try:
        runner.run(CLIENTS, duration=duration, warmup=0.0)
        assert runner.engine.stats.commits > 100
        return runner.engine.committed, _recording(runner.engine)
    finally:
        runner.stop()


def read_records_per_commit(cell, check_isolation=False):
    """Read and scan records a committed transaction of ``cell`` carried, per
    commit.  ``scripts/check.sh`` prints it for ``tpcc/3layer`` and a checked
    ``smallbank/3layer``."""
    committed, _live = read_record_census(cell, check_isolation)
    records = sum((row[3] or 0) + (row[4] or 0) for row in committed)
    return records / len(committed)


def durable_log(net_faults=False, target=1200):
    """Run a durable ``smallbank/3layer`` cell (asynchronous GCP flushes,
    seed 7, 16 clients) to ``target`` commits, under a seeded drop and
    partition plan when ``net_faults``: its commits, and every record its
    logs hold, durable or still buffered."""
    lanes, options = [], EngineOptions(durability=DurabilityConfig(enabled=True))
    if net_faults:
        plan = MessageFaultPlan.from_seed(7, faults=4, require=("drop", "partition"))
        lanes, options = [NetFaultLane(plan)], None
    runner = BenchmarkRunner(
        _smallbank(), configs.smallbank_3layer(), options=options, seed=7, lanes=lanes
    )
    try:
        runner.add_clients(CLIENTS)
        while runner.engine.stats.commits < target:
            runner.run_additional(0.002)
        records = [record for log in runner.manager.logs for record in log.records()]
        return runner.engine.stats.commits, records
    finally:
        runner.stop()


_FOLDING_DURABILITY = DurabilityConfig(enabled=True, gcp_epoch_length=0.05)


def _folding_cell():
    """An asynchronous durable ``smallbank/3layer`` cell (seed 7, 16
    clients) whose 0.05 sim-s GCP epochs fold its logs about every 680
    commits: at the default 1.0 sim-s, 4,800 commits would see no fold."""
    options = EngineOptions(durability=_FOLDING_DURABILITY)
    runner = BenchmarkRunner(_smallbank(), configs.smallbank_3layer(), options=options, seed=7)
    runner.add_clients(CLIENTS)
    return runner


def _log_held(log):
    """Image and tail records a log holds, durable or buffered, and its
    records of folded ids."""
    kinds = Counter(record[KIND] for record in log.records())
    return kinds["checkpoint"] + kinds["precommit"], kinds["folded"]


def log_records_held(target=4800):
    """Per server, the image and tail records the folding cell's logs hold
    at ``target`` commits.  ``scripts/check.sh`` prints them."""
    runner = _folding_cell()
    try:
        while runner.engine.stats.commits < target:
            runner.run_additional(0.01)
        return [_log_held(log)[0] for log in runner.manager.logs]
    finally:
        runner.stop()


def log_records_per_commit():
    """Log records per commit of a durable ``smallbank/3layer`` run.
    ``scripts/check.sh`` prints it."""
    commits, records = durable_log()
    return len(records) / commits


class TestReadsAreRecordedOnlyForAReader:
    """A transaction records its reads and scans only for a reader: a route
    through a mechanism that validates them (OCC) or an attached history
    recorder.  Every transaction used to record both."""

    def test_only_a_reader_gets_a_record_per_read(self):
        # No reader: the flagship, and the scan cell.
        for cell in ("tpcc/3layer", "ycsb-scan/2layer"):
            committed, live = read_record_census(cell)
            assert live == []
            assert {row[3:] for row in committed} == {(None, None)}
            assert sum(row[1] for row in committed) > 4 * len(committed)
        # The recorder reads them: one record per read and per scan.
        committed, live = read_record_census("smallbank/3layer", check_isolation=True)
        assert live and sum(row[1] for row in committed) > 900
        assert all(row[1:3] == row[3:] for row in committed)
        # OCC's pre_commit reads them, on its own route only (no recorder).
        workload = ConformanceWorkload()
        rng = random.Random(99)
        requests = [workload.next_transaction(rng) for _ in range(60)]
        engine = build_engine(
            Environment(),
            workload,
            Configuration(node("2pl", leaf("occ", "alpha"), leaf("2pl", "beta", "reader"))),
            options=EngineOptions(
                charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
            ),
            engine_class=ReadCountEngine,
        )
        engine.history_recorder = None
        run_transactions(engine.env, engine, requests, lanes=6)
        by_type = {}
        for txn_type, *row in engine.committed:
            by_type.setdefault(txn_type, []).append(row)
        assert sorted(by_type) == ["alpha", "beta", "reader"]
        assert all(row[:2] == row[2:] and row[0] for row in by_type["alpha"])
        assert all(row[2:] == [None, None] for row in by_type["beta"] + by_type["reader"])

    @pytest.mark.parametrize("cc, records", [("occ", True), ("2pl", False)])
    def test_a_partitioned_leaf_records_as_its_mechanism_does(self, cc, records):
        config = Configuration(leaf(cc, *TXN_TYPES, instance_key=lambda args: 0))
        engine = build_engine(Environment(), ConformanceWorkload(), config)
        assert engine.root.cc is None and engine.root.instances == {}
        assert {route.records_reads for route in engine._routes.values()} == {records}
        run_transactions(engine.env, engine, [("alpha", {"ops": [("r", 1)]})])
        (partition,) = engine._routes["alpha"].partitions.values()
        assert partition.records_reads is records

    def test_a_recorder_attached_after_a_begin_is_refused(self):
        # Without the refusal the begun transaction would commit with no
        # reads and the oracle would pass without having looked.  A crash
        # lane's rebuilt engine starts at a later id, and attaches first.
        workload = ConformanceWorkload()
        store = MultiVersionStore()
        workload.populate(store)
        engine = TebaldiEngine(
            Environment(),
            CONFORMANCE_TREES["mono-2pl"](),
            workload.transaction_types(),
            store=store,
            txn_id_start=50,
        )
        engine.history_recorder = HistoryRecorder()
        engine.history_recorder = None
        engine.begin("alpha")
        with pytest.raises(ConfigurationError, match="before the first begin"):
            engine.history_recorder = HistoryRecorder()
        assert engine.history_recorder is None


#: name -> (workload, configuration, clients, simulated seconds): the
#: flagship, the hottest snapshot-reading cell (64 clients on 100 zipfian
#: keys) and the one cell whose timestamp batches hand out old snapshots.
SNAPSHOT_READ_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer, 12, 1.2),
    "ycsb-zipf/ssi": (_zipf, TREES["ycsb"]["ssi"], 64, 0.2),
    "micro/ssi-2layer": (_micro, configs.micro_ssi_2layer, 8, 3.0),
}


class TestSnapshotReadsLandNearTheTail:
    """``latest_committed_before`` walks back from the newest version: a
    workload that reads deep must fail here, not silently pay the walk."""

    @pytest.mark.parametrize("cell", sorted(SNAPSHOT_READ_CELLS))
    def test_mean_and_longest_walk(self, cell):
        workload_factory, config_factory, clients, duration = SNAPSHOT_READ_CELLS[cell]
        summary, commits = census_of_run(
            workload_factory(), config_factory(), clients, duration, seed=11
        )
        # Measured: tail in 95.1 % of 2,498 / 93.7 % of 3,688 / 91.3 % of
        # 20,960 calls, mean 0.05 / 0.06 / 0.10, at most 2 / 1 / 5 back.
        assert commits > 500 and summary["calls"] > 2000
        assert summary["mean"] < 0.5 and summary["max"] <= 16, summary
        assert summary["unordered"] == 0


class TestOwnerCensus:
    """``bench_speed --profile``'s census: a finished transaction reaches
    every CC node of its route, which must not make their state its own."""

    def test_lock_records_are_booked_to_their_cc_node(self):
        runner = BenchmarkRunner(_tiny_tpcc(), configs.tpcc_tebaldi_3layer(), seed=7)
        try:
            runner.add_clients(CLIENTS)
            while runner.engine.stats.commits < 300:
                runner.run_additional(0.01)
            engine = runner.engine
            assert engine.finished
            total, owners = census_by_owner(runner)
            records = Counter()
            for tree_node, table in _lock_tables(engine):
                records[f"cc node {tree_node.node_id}"] += len(table._locks)
            assert sum(records.values()) > 0
            for owner, count in records.items():
                assert owners[owner] >= count, (owner, owners)
            assert sum(owners.values()) == total
        finally:
            runner.stop()


#: A route's hook tables (``select_version`` is the one single hook).
HOOK_TABLES = (
    "read_hooks", "update_read_hooks", "write_hooks", "scan_hooks", "amend_hooks",
    "after_write_hooks", "start_hooks", "validate_hooks", "pre_commit_hooks", "finish_hooks",
)


def _bound_to(route):
    """The mechanisms whose bound methods ``route`` runs."""
    hooks = [hook for table in HOOK_TABLES for hook in getattr(route, table)]
    hooks.append(route.select_version)
    # The refusals of a read-only or scanless route are plain functions.
    return [hook.__self__ for hook in hooks if hasattr(hook, "__self__")]


class TestPartitionRoutes:
    """A partitioned leaf holds one instance per partition value a run
    touched, and each (type, value) a route bound to that instance's own
    hooks; the type's route builds none.  A forwarding wrapper used to call
    the instance from every hook, and built a sample one to read two cost
    attributes."""

    def _engine(self):
        workload = SEATSWorkload(flights=100, seats_per_flight=20, customers=50)
        engine = build_engine(Environment(), workload, configs.seats_3layer())
        (partitioned,) = [node for node in engine.nodes if node.instances is not None]
        return workload, engine, partitioned

    def _run(self, workload, engine, seed, count=300):
        rng = random.Random(seed)
        requests = [workload.next_transaction(rng) for _ in range(count)]
        outcomes, _ = run_transactions(engine.env, engine, requests, lanes=8)
        return requests, [txn for txn in outcomes if isinstance(txn, Transaction)]

    def test_a_seats_run_builds_what_it_touched_and_binds_it(self):
        workload, engine, partitioned = self._engine()
        types, key = partitioned.spec.transactions, partitioned.spec.instance_key
        assert partitioned.cc is None and partitioned.instances == {}
        requests, committed = self._run(workload, engine, seed=5)
        touched = {key(args) for txn_type, args in requests if txn_type in types}
        assert 1 < len(touched) < 100
        # One instance per flight touched: the type routes built none.
        assert set(partitioned.instances) == touched
        for txn_type in types:
            assert len(engine._routes[txn_type].partitions) <= len(touched)
        ancestors = {id(node.cc) for node in partitioned.path_from_root()[:-1]}
        checked = 0
        for txn in committed:
            if txn.txn_type not in types:
                continue
            # Its instance's own bound methods, and its ancestors': nothing
            # stands between the route and the instance.
            instance = partitioned.instances[key(txn.args)]
            bound = {id(cc) for cc in _bound_to(txn.charges)}
            assert id(instance) in bound and bound <= ancestors | {id(instance)}
            checked += 1
        assert checked > 50

    def test_a_splice_beside_it_keeps_the_instances_and_rebuilds_the_routes(self):
        workload, engine, partitioned = self._engine()
        self._run(workload, engine, seed=6, count=100)
        instances, built = partitioned.instances, dict(partitioned.instances)
        new_config = engine.configuration.clone(name="short-timeout")
        new_config.leaf_for("update_customer").params["lock_timeout"] = 0.125
        engine.env.run(until=engine.env.process(engine.reconfigure_online(new_config)))
        assert partitioned in engine.nodes
        assert engine.configuration.leaf_for("update_customer").params["lock_timeout"] == 0.125
        assert partitioned.instances is instances and instances == built
        types = partitioned.spec.transactions
        assert all(engine._routes[txn_type].partitions == {} for txn_type in types)
        self._run(workload, engine, seed=7, count=100)
        rebuilt = [
            (value, route)
            for txn_type in types
            for value, route in engine._routes[txn_type].partitions.items()
        ]
        assert rebuilt
        for value, route in rebuilt:
            # Bottom-up: the leaf's own validate runs first.
            assert route.validate_hooks[0].__self__ is instances[value]
