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
* **batch leaf** — a sealed batch and its members form no reference cycle,
  and the leaf's two indexes of members in flight name nobody who finished,
  died before the seal, was force-aborted or had the node spliced out;
* **lock tables and chains** — a lock record exists only while its key has
  a holder or a waiter (and *drop ≡ never drop*), a key written once costs
  the store its list and its ``Version``, tracked objects per commit on
  ``tpcc/3layer`` stay under a bound, snapshot reads land at or next to the
  tail of their chain, and the profiler's owner census books a lock table
  to its CC node.
"""

import gc
import hashlib
import random
from collections import Counter
from dataclasses import fields

import pytest

from benchmarks.bench_speed import census_by_owner
from repro.cc import runtime_pipelining, two_phase_locking
from repro.cc.locks import LockTable
from repro.cc.timestamps import BatchManager, TimestampOracle
from repro.core.config import Configuration, leaf, node
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.core.transaction import ReadRecord, Transaction
from repro.core.tree import PartitionedCC
from repro.database import Database
from repro.harness import configs
from repro.harness import runner as runner_module
from repro.harness.degraded import NetFaultLane
from repro.harness.runner import BenchmarkRunner
from repro.isolation.checker import check_recorder
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.sim.faults import MessageFaultPlan
from repro.storage.durability import DurabilityConfig
from repro.storage.mvstore import MultiVersionStore
from repro.storage.versions import Version
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.schema import TPCCScale
from repro.workloads.ycsb import YCSBWorkload
from tests.conftest import OverlapAuditEngine, build_engine, run_transactions
from tests.reference_checker import check_history
from tests.snapshot_read_census import census_of_run
from tests.test_cc_conformance import (
    CONFORMANCE_TREES,
    ConformanceWorkload,
    TwoStepWorkload,
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
    committed or aborted, returned — ``(key, writer, commit_seq)``."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.read_log = {}

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
        release and, by the same floor, SSI's retained SIREAD entries — and
        all three would grow with the run.  No service runs."""
        engine = build_engine(env, _micro(), configs.micro_ssi_2layer())
        ssi = engine.root.cc
        args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}
        peaks = []

        def client():
            yield from engine.execute_transaction("group_b_update", args)
            for target in (300, 1200):
                peak = (0, 0, 0)
                while engine.stats.commits < target:
                    yield from engine.execute_transaction("group_a_update", args)
                    sizes = len(engine.finished), len(ssi._committed_readers), len(ssi._readers)
                    peak = tuple(map(max, peak, sizes))
                peaks.append(peak)

        env.run(until=env.process(client()))
        # One transaction at a time: each batch dies with its one member, so
        # the last finish waits only for the next retire (``drop_hold`` runs
        # in the finish hook, after the retire's release), and no snapshot
        # that could meet a committed reader is left to retain it for.
        finished, retained, read_keys = map(max, *peaks)
        assert finished <= 1 and retained == read_keys == 0, peaks
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
        assert db.read_row("shared", 0) == {"value": 20}
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
        first, ts = manager.admit("g", 10)
        assert manager.admit("g", 11) == (first, ts)   # concurrent: joins
        manager.discard(first, 10)
        assert manager.admit("g", 12) == (first, ts)   # 11 still runs: joins
        manager.discard(first, 11)
        assert events == [("open", first)] and manager.oldest_live() == ts
        manager.discard(first, 12)                      # the last member
        assert events == [("open", first), ("dead", first)]
        assert manager._current == {} and manager.oldest_live() is None
        second, later = manager.admit("g", 13)          # nobody left to share ts
        assert second != first and later > ts

    def test_a_full_batch_still_rotates_by_size(self):
        events = []
        manager = self._manager(events, batch_size=2)
        first, _ = manager.admit("g", 10)
        manager.admit("g", 11)
        second, _ = manager.admit("g", 12)    # full: 10 and 11 run on in it
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
        runner = BenchmarkRunner(
            _smallbank(),
            configs.smallbank_3layer(),
            options=EngineOptions(durability=DurabilityConfig(enabled=True)),
            seed=7,
            check_isolation=True,
        )
        try:
            runner.add_clients(CLIENTS)
            # Below 1,200 commits the per-key structures are still filling.
            # What is left is the detector's two sets and the store's Version
            # per commit: 3.2 measured, 17.5 before records were flat.
            assert _tracked_per_commit(runner, 1200, 4800) < 6

            # A GCP flush, then some more commits: records on both sides of it.
            runner.manager.advance_gcp_epoch()
            runner.run_additional(0.02)
            for _ in range(4):
                gc.collect()
            buffered = [r for log in runner.manager.logs for r in log._buffer]
            persisted = [r for b in runner.manager.backends for _key, r in b.scan()]
            assert len(buffered) > 100 and len(persisted) > 4800
            assert not any(map(gc.is_tracked, buffered + persisted))

            # The named exceptions: a record carrying a scan predicate or a
            # pipelined read whose Version is still awaiting its sequence.
            retained = list(runner.recorder._records.values())
            flat = [
                record for record in retained
                if not record[3] and not any(isinstance(item, Version) for item in record)
            ]
            assert len(retained) > 4800 and len(flat) > 0.9 * len(retained)
            assert not any(map(gc.is_tracked, flat))
        finally:
            runner.stop()


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
            assert runner.manager.records_written > 1200
            if net_faults:
                assert runner.lanes[0].transport.stats["retries"] > 0
        finally:
            runner.stop()


def _indexed(cc):
    """Ids of the members the batch leaf's two indexes name, and the entries."""
    executing = {txn.txn_id for txn in cc._executing.values()}
    writers = [txn_id for holders in cc._writers.values() for txn_id in holders]
    assert all(cc._writers.values())          # no key is kept without a holder
    return executing | set(writers), len(cc._executing), len(writers)


class TestBatchLeafRetention:
    """The batch leaf keeps its members in flight in two indexes (still
    executing, by sequence; declared writers, by key): release rule — a
    member leaves both when it finishes."""

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
            peak_executing = peak_writers = 0
            while runner.engine.stats.commits < 1200:
                runner.run_additional(0.0005)
                members, executing, writers = _indexed(cc)
                assert members <= set(cc._active) and len(cc._active) <= CLIENTS
                # YCSB members declare at most one key each.
                assert executing <= len(cc._active) and writers <= len(cc._active)
                peak_executing = max(peak_executing, executing)
                peak_writers = max(peak_writers, writers)
            assert peak_executing > 1 and peak_writers > 1
            _drain(runner)
            assert cc._active == {} and cc._executing == {} and cc._writers == {}
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
        assert cc._active == {} and cc._executing == {} and cc._writers == {}
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
                runner.run_additional(0.02)
                engine = runner.engine
                old = batch_cc(engine)
                members, executing, writers = _indexed(old)
                assert members and executing and writers, name
                switch = engine.env.process(reconfigure(engine))
                engine.env.run(until=switch)
                if name == "partial-restart":
                    forced = [txn.abort_reason for txn in old._active.values()]
                    assert forced and set(forced) == {"forced-reconfiguration"}
                commits = engine.stats.commits
                runner.run_additional(0.02)
                assert batch_cc(engine) is not old and batch_cc(engine).name == "2pl"
                assert engine.stats.commits > commits, name
                assert old._active == {} and old._executing == {} and old._writers == {}
            finally:
                runner.stop()


class TestLateResolution:
    """Where a flat record could quietly weaken the oracle: a committed read
    of a *then-uncommitted* version must not freeze the missing sequence."""

    def _pipelined_read(self, oracle, writer_commits):
        """The reader's resolved read and the report of ``oracle``: the
        streaming verdict, or the post-hoc reference over ``history()``."""
        store = MultiVersionStore()
        recorder = HistoryRecorder()
        writer = Transaction(txn_id=1, txn_type="w")
        version = store.install(("x",), {"v": 1}, writer)
        reader = Transaction(txn_id=2, txn_type="r")
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
        cc = tree_node.cc
        for instance in cc.instances() if isinstance(cc, PartitionedCC) else [cc]:
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
        for module in (two_phase_locking, runtime_pipelining):
            monkeypatch.setattr(module, "LockTable", KeepEveryRecordLockTable)
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
            for module in (two_phase_locking, runtime_pipelining):
                monkeypatch.setattr(module, "LockTable", table_class)
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
        store.load(("t", -1), {"v": 0})         # the table's index entry exists
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
