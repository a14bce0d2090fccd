"""Crash, recover, and check: seeded fault injection with the oracle
spanning the crash.

Three layers of coverage:

* unit tests for the fault plan/injector and the recovery protocol's
  adversarial cases (torn precommit, epoch-0 rule, checkpointed
  incarnations);
* unit tests for the cross-crash history stitch (vanished transactions
  leave no trace, surviving readers of vanished data are flagged, ghost
  survivors join the graph);
* fixed-seed end-to-end scenarios: queue (flagship — exactly-once dequeue
  across the crash) and smallbank runs crash at seeded adversarial points,
  recover from the WAL, resume, and the stitched history passes the
  isolation oracle; plus byte-identical reproduction and a randomized
  fault-schedule soak behind the ``slow`` marker.
"""

from types import SimpleNamespace

import pytest

from repro.core.engine import EngineOptions
from repro.core.transaction import ReadRecord, Transaction
from repro.errors import ConfigurationError, IsolationViolation
from repro.harness.configs import CRASH_CELLS, WORKLOAD_CONFIGURATIONS
from repro.harness.cli import build_workload, main as harness_main
from repro.harness.runner import BenchmarkRunner, Lane, RunResult
from repro.harness.crash import (
    CrashLane,
    default_crash_durability,
    describe as crash_describe,
    exactly_once_violations,
    run_crash_benchmark,
)
from repro.isolation.checker import check_recorder
from repro.isolation.history import HistoryRecorder
from repro.sim.faults import SITES, CrashPoint, FaultInjector, FaultPlan
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.mvstore import MultiVersionStore
from repro.storage.versions import Version
from repro.workloads.queue import QueueWorkload
from repro.workloads.smallbank import SmallBankWorkload
from tests.reference_checker import check_history, committed_ids, writers_of


def make_txn(txn_id, txn_type="t"):
    return Transaction(txn_id=txn_id, txn_type=txn_type)


def committed_version(key, writer, seq, value=None):
    version = Version(key=key, value=value, writer=writer)
    version.mark_committed(seq)
    return version


def record_commit(recorder, txn_id, versions, reads=(), txn_type="t"):
    txn = make_txn(txn_id, txn_type)
    txn.reads = [ReadRecord(version.key, version) for version in reads]
    recorder.on_commit(txn, versions)


class TestFaultPlan:
    def test_from_seed_is_deterministic(self):
        first = FaultPlan.from_seed(42, crashes=3)
        second = FaultPlan.from_seed(42, crashes=3)
        assert first == second
        assert len(first) == 3
        assert all(point.site in SITES for point in first.points)

    def test_different_seeds_differ(self):
        plans = {FaultPlan.from_seed(seed, crashes=2) for seed in range(20)}
        assert len(plans) > 1

    def test_crash_point_validation(self):
        with pytest.raises(ValueError):
            CrashPoint("no-such-site", 1)
        with pytest.raises(ValueError):
            CrashPoint("precommit-done", 0)
        with pytest.raises(ValueError):
            FaultPlan.from_seed(1, crashes=-1)

    def test_injector_trips_at_planned_occurrence(self):
        injector = FaultInjector(FaultPlan((CrashPoint("precommit-done", 3),)))
        assert not injector.trip("precommit-done")
        assert not injector.trip("precommit-record")
        assert not injector.trip("precommit-done")
        assert injector.trip("precommit-done")
        assert injector.crashed
        assert injector.crash_info["occurrence"] == 3
        # Once crashed, nothing else trips until re-armed.
        assert not injector.trip("precommit-done")

    def test_arm_resets_counters_and_advances_plan(self, env):
        plan = FaultPlan(
            (CrashPoint("precommit-done", 2), CrashPoint("gcp-before", 1))
        )
        injector = FaultInjector(plan)
        event = injector.arm(env)
        injector.trip("precommit-done")
        assert injector.trip("precommit-done")
        assert event.triggered
        second = injector.arm(env)
        assert not injector.crashed
        assert injector.trip("gcp-before")
        assert len(injector.crash_log) == len(plan.points)  # none pending
        assert second.triggered


class TestRecoveryProtocol:
    def _sync_manager(self, faults=None, num_servers=4):
        return DurabilityManager(
            DurabilityConfig(
                enabled=True, asynchronous=False, num_servers=num_servers
            ),
            faults=faults,
        )

    def test_torn_precommit_is_discarded(self):
        """Regression: a partial precommit set must never survive recovery,
        even though every surviving record carries a participants field."""
        injector = FaultInjector(FaultPlan((CrashPoint("precommit-record", 1),)))
        manager = self._sync_manager(faults=injector)
        writes = [((table, 1), {"v": table}) for table in ("a", "b", "c", "d")]
        servers = {manager.server_for(key) for key, _v in writes}
        assert len(servers) > 1  # the set really spans servers
        manager.precommit(make_txn(9), writes)
        assert injector.crashed and manager.halted
        manager.crash()
        result = manager.recover()
        assert 9 in result.discarded_transactions
        assert 9 not in result.recovered_transactions
        assert result.state == {}

    def test_precommit_record_missing_participants_is_discarded(self):
        """A record set that cannot prove its completeness is discarded —
        recovery never falls back to trusting len(records)."""
        manager = self._sync_manager()
        # None in the participant count's slot: the count is missing.
        manager.logs[0].append(
            "precommit", 5, gcp_epoch=0, body=(None, 1, ((("a", 1), {"v": 5}),))
        )
        manager.logs[0].flush()
        result = manager.recover()
        assert 5 in result.discarded_transactions
        assert result.state == {}

    def test_epoch0_rule_async_records_need_a_gcp_advance(self):
        """Pin the epoch-0 semantics: before the first GCP advance nothing
        asynchronous is durable, even if its records reached the backend
        (a torn first epoch flush).  The old truthiness guard skipped the
        filter entirely when the persistent epoch was still 0."""
        manager = DurabilityManager(
            DurabilityConfig(enabled=True, asynchronous=True, num_servers=2)
        )
        manager.precommit(make_txn(3), [(("a", 1), {"v": 3})])
        # Simulate a torn epoch flush: the records land on disk but the
        # persistent-epoch marker never advances.
        for log in manager.logs:
            log.flush()
        assert manager._persistent_gcp_epoch == 0
        result = manager.recover()
        assert 3 in result.discarded_transactions
        # After a real advance the same transaction is durable.
        manager2 = DurabilityManager(
            DurabilityConfig(enabled=True, asynchronous=True, num_servers=2)
        )
        manager2.precommit(make_txn(3), [(("a", 1), {"v": 3})])
        manager2.advance_gcp_epoch()
        assert 3 in manager2.recover().recovered_transactions

    def test_sync_precommit_passes_epoch_filter_at_epoch0(self):
        """Synchronous flushes bump the persistent epoch, so the always-on
        epoch filter keeps admitting them before any GCP advance."""
        manager = self._sync_manager()
        manager.precommit(make_txn(4), [(("a", 1), {"v": 4})])
        assert 4 in manager.recover().recovered_transactions

    def test_recovery_replays_in_commit_ticket_order(self):
        """Tickets (assigned at precommit = commit order) decide last-write-
        wins, not transaction ids: an early-begun late-committing writer
        overwrites a late-begun early-committing one."""
        manager = self._sync_manager()
        manager.precommit(make_txn(9), [(("a", 1), {"v": "first"})])
        manager.precommit(make_txn(2), [(("a", 1), {"v": "second"})])
        result = manager.recover()
        assert result.state[("a", 1)] == {"v": "second"}
        assert result.state_writers[("a", 1)] == 2

    def test_halted_manager_persists_nothing(self):
        injector = FaultInjector(FaultPlan((CrashPoint("precommit-done", 1),)))
        manager = self._sync_manager(faults=injector)
        manager.precommit(make_txn(1), [(("a", 1), {"v": 1})])
        assert manager.halted
        manager.precommit(make_txn(2), [(("a", 2), {"v": 2})])
        manager.advance_gcp_epoch()
        result = manager.recover()
        assert 1 in result.recovered_transactions  # durable before the halt
        assert 2 not in result.recovered_transactions

    def test_crash_drops_volatile_buffers(self):
        manager = DurabilityManager(
            DurabilityConfig(enabled=True, asynchronous=True, num_servers=2)
        )
        manager.precommit(make_txn(1), [(("a", 1), {"v": 1})])
        assert sum(len(log._buffer) for log in manager.logs) > 0
        manager.crash()
        assert sum(len(log._buffer) for log in manager.logs) == 0
        assert not manager.halted

    def test_checkpoint_prevents_epoch_resurrection(self):
        """Multi-crash soundness: records of a *discarded* epoch must not
        pass the epoch filter at the next recovery once later epochs become
        persistent.  The checkpoint wipes them and re-bases the logs."""
        manager = DurabilityManager(
            DurabilityConfig(enabled=True, asynchronous=True, num_servers=2)
        )
        manager.precommit(make_txn(1), [(("a", 1), {"v": "lost"})])
        for log in manager.logs:
            log.flush()  # torn epoch: durable records, marker at 0
        manager.crash()
        first = manager.recover()
        assert 1 in first.discarded_transactions
        manager.checkpoint(first)
        # Next incarnation commits durably, advancing the persistent epoch.
        manager.precommit(make_txn(2), [(("b", 1), {"v": "kept"})])
        manager.advance_gcp_epoch()
        assert manager._persistent_gcp_epoch >= 1
        second = manager.recover()
        assert 2 in second.recovered_transactions
        # Without the checkpoint, txn 1's epoch-1 records would now pass
        # the filter and resurrect a discarded transaction.
        assert 1 not in second.recovered_transactions
        assert ("a", 1) not in second.state
        assert second.state[("b", 1)] == {"v": "kept"}

    def test_checkpoint_preserves_recovered_state_and_writers(self):
        manager = self._sync_manager()
        manager.precommit(make_txn(7), [(("a", 1), {"v": 7})])
        result = manager.recover()
        written = manager.checkpoint(result)
        assert written == 1
        replayed = manager.recover()
        assert replayed.state[("a", 1)] == {"v": 7}
        assert replayed.state_writers[("a", 1)] == 7
        # Checkpoint base state survives even though the precommit records
        # are gone (the writer id set is carried by the checkpoint record).
        assert replayed.recovered_transactions == set()

    def test_server_for_is_salt_free(self):
        import zlib

        manager = self._sync_manager()
        key = ("messages", 17)
        expected = zlib.crc32(repr(key).encode("utf-8")) % 4
        assert manager.server_for(key) == expected

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            DurabilityConfig(num_servers=0)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(gcp_epoch_length=0.0)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(sync_flush_delay=-1e-6)
        with pytest.raises(ConfigurationError):
            DurabilityConfig(async_flush_delay=-1e-6)


class TestHistoryStitch:
    def test_vanished_writer_flags_surviving_reader(self):
        recorder = HistoryRecorder(level="serializable", records=True)
        v1 = committed_version(("t", 1), writer=1, seq=10)
        record_commit(recorder, 1, [v1])
        record_commit(recorder, 2, [], reads=[v1])
        recorder.on_crash({1})
        report = check_recorder(recorder)
        assert (2, ("t", 1), 1) in [tuple(e) for e in report.aborted_reads]
        assert recorder.seq_of(("t", 1), 1) is None

    def test_vanished_writer_flags_a_reader_already_released(self):
        """2 read 1's version and 3 overwrote it before the crash lost 1:
        2 is no longer parked on 1, so the crash stitch itself must flag
        the read — once."""
        recorder = HistoryRecorder(level="serializable", records=True)
        v1 = committed_version(("t", 1), writer=1, seq=10)
        record_commit(recorder, 1, [v1])
        record_commit(recorder, 2, [], reads=[v1])
        record_commit(recorder, 3, [committed_version(("t", 1), writer=3, seq=11)])
        recorder.on_crash({1})
        report = check_recorder(recorder)
        assert report.aborted_reads == [(2, ("t", 1), 1)]
        assert check_history(recorder.history()).aborted_reads == report.aborted_reads

    def test_vanished_transaction_leaves_no_trace(self):
        recorder = HistoryRecorder(level="serializable", records=True)
        v1 = committed_version(("t", 1), writer=1, seq=10)
        record_commit(recorder, 1, [v1])
        v2 = committed_version(("t", 1), writer=2, seq=11)
        record_commit(recorder, 2, [v2], reads=[v1])
        recorder.on_crash({2})  # the reader vanished, not the writer
        report = check_recorder(recorder)
        assert report.ok
        history = recorder.history()
        assert 2 not in history.transactions
        assert writers_of(history, ("t", 1)) == [1]

    def test_ghost_survivor_joins_the_version_order(self):
        recorder = HistoryRecorder(level="serializable", records=True)
        v1 = committed_version(("t", 1), writer=1, seq=10)
        record_commit(recorder, 1, [v1])
        recorder.on_crash(set())
        ghost = committed_version(("t", 1), writer=5, seq=20)
        recorder.on_recovered(5, [ghost])
        # A post-recovery transaction reads the ghost's version: clean.
        record_commit(recorder, 6, [], reads=[ghost])
        report = check_recorder(recorder)
        assert report.ok
        assert recorder.seq_of(("t", 1), 5) == 20
        history = recorder.history()
        assert writers_of(history, ("t", 1)) == [1, 5]
        assert history.transactions[5].txn_type == "recovered"

    def test_streaming_purge_matches_posthoc_verdict(self):
        recorder = HistoryRecorder(level="serializable", records=True)
        v1 = committed_version(("t", 1), writer=1, seq=10)
        v2 = committed_version(("t", 2), writer=2, seq=11)
        record_commit(recorder, 1, [v1])
        record_commit(recorder, 2, [v2], reads=[v1])
        record_commit(recorder, 3, [], reads=[v2])
        recorder.on_crash({2})
        streaming = check_recorder(recorder)
        posthoc = check_history(recorder.history(), level="serializable")
        assert streaming.ok == posthoc.ok is False  # 3 read vanished data
        flagged = {tuple(e) for e in streaming.aborted_reads}
        assert (3, ("t", 2), 2) in flagged

    def test_a_vanished_commit_the_ring_evicted_leaves_the_count(self, monkeypatch):
        """The report's commit count drops by every vanished commit, also by
        one whose record the ring already evicted."""
        monkeypatch.setattr(HistoryRecorder, "RECORD_RING", 4)
        recorder = HistoryRecorder(level="serializable", records=True)
        for txn_id in range(1, 11):
            record_commit(recorder, txn_id, [])
        recorder.on_crash({1, 9, 99})  # 1 evicted, 9 retained, 99 never committed
        assert check_recorder(recorder).num_transactions == 8

    def test_a_recorder_without_records_refuses_the_stitch(self):
        """Only a lane's recorder keeps records; a plain one cannot stitch a
        crash (its records would be an empty history that passes)."""
        recorder = HistoryRecorder(level="serializable")
        record_commit(recorder, 1, [committed_version(("t", 1), writer=1, seq=10)])
        for call in (
            lambda: recorder.on_crash({1}),
            lambda: recorder.on_recovered(5, []),
            recorder.history,
        ):
            with pytest.raises(ValueError, match="no commit records"):
                call()


QUEUE_CRASH_CONFIGS = CRASH_CELLS["queue"]
SMALLBANK_CRASH_CONFIGS = CRASH_CELLS["smallbank"]


def _queue_workload():
    return QueueWorkload(initial_messages=4, window=6)


def _smallbank_workload():
    return SmallBankWorkload(customers=200, hot_accounts=10)


def run_and_stop(runner, clients, duration):
    """Drive a lane-bearing runner the way the lanes' one-shot helpers do
    (no warm-up), then release the GC state frozen at construction."""
    try:
        return runner.run(clients, duration=duration, warmup=0.0)
    finally:
        runner.stop()


def _load_order(store):
    return [
        (key, [version.commit_seq for version in chain])
        for key, chain in store._committed.items()
    ]


class TestRePopulationIsAPureFunction:
    """Recovery re-populates a fresh store from the same workload, which
    caches no catalog: each population rebuilds it, so the build must be a
    pure function of the workload's arguments."""

    @pytest.mark.parametrize("name", sorted(WORKLOAD_CONFIGURATIONS))
    def test_two_populations_of_one_workload_are_equal(self, name):
        workload = build_workload(name)
        first, second = MultiVersionStore(), MultiVersionStore()
        assert workload.populate(first) == workload.populate(second) > 0
        assert first.latest_state() == second.latest_state()
        assert _load_order(first) == _load_order(second)
        # Each store owns its rows: no row dict is shared between the two.
        rows = {id(row) for row in second.latest_state().values()}
        assert not [
            row for row in first.latest_state().values()
            if isinstance(row, dict) and id(row) in rows
        ]


class NodeCensusCrashLane(CrashLane):
    """Notes, at each recovery, which of the dead incarnation's transactions
    are still nodes of the oracle's cycle detector, beside the number of
    finished transactions that incarnation retained."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.census = []

    def _crash_and_recover(self, engine, store, manager):
        new_store = super()._crash_and_recover(engine, store, manager)
        nodes = self.recorder.streaming_checker.detector._ord
        last_id = engine._last_txn_id
        self.census.append(
            ([node for node in nodes if node <= last_id], len(engine.finished))
        )
        return new_store


class TestCrashScenarios:
    """Fixed-seed end-to-end crash/recovery runs under the oracle."""

    #: name -> (workload, tree, seed, fault plan, synchronous precommit).
    RELEASE_CELLS = {
        # Two crashes, 70 and 0 vanished transactions.
        "smallbank/3layer": (
            _smallbank_workload, ("smallbank", "3layer"), 13,
            FaultPlan.from_seed(13, crashes=2), False,
        ),
        # One ghost (test_ghost_survivor_scenario's crash).
        "queue/3layer-ghost": (
            _queue_workload, ("queue", "3layer"), 11,
            FaultPlan((CrashPoint("precommit-done", 25),)), True,
        ),
    }

    @pytest.mark.parametrize("cell", sorted(RELEASE_CELLS))
    def test_recovery_releases_the_dead_incarnation(self, cell):
        """The crash lane releases whatever the dead engine still retained,
        and every ghost: no transaction from before a crash stays a node of
        the cycle detector once its recovery is done."""
        workload, (name, tree), seed, plan, synchronous = self.RELEASE_CELLS[cell]
        lane = NodeCensusCrashLane(
            plan, durability=default_crash_durability(asynchronous=not synchronous)
        )
        runner = BenchmarkRunner(
            workload(), WORKLOAD_CONFIGURATIONS[name][tree](), seed=seed, lanes=[lane]
        )
        result = run_and_stop(runner, 8, duration=0.6)
        assert result.extra["isolation"].ok, result.extra["isolation"].describe()
        assert len(lane.census) == len(result.crashes) >= 1
        for (dead_nodes, retained), crash in zip(lane.census, result.crashes):
            assert retained > 0 and crash.committed_before > retained
            assert dead_nodes == []
        dead = [
            len(crash.vanished) + len(crash.ghosts) for crash in result.crashes
        ]
        assert dead[0] > 0

    @pytest.mark.parametrize("config_name", QUEUE_CRASH_CONFIGS)
    def test_queue_crash_recovery_checked(self, config_name):
        result = run_crash_benchmark(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"][config_name](),
            clients=8,
            duration=0.6,
            seed=7,
        )
        report = result.extra["isolation"]
        assert report.ok, report.describe()
        assert result.violations == {}
        assert len(result.crashes) == 1
        assert result.incarnations == 2
        # The workload really resumed after recovery.
        assert result.commits > result.crashes[0].committed_before

    @pytest.mark.parametrize("config_name", ("2pl", "3layer"))
    def test_smallbank_crash_recovery_checked(self, config_name):
        result = run_crash_benchmark(
            _smallbank_workload(),
            WORKLOAD_CONFIGURATIONS["smallbank"][config_name](),
            clients=8,
            duration=0.6,
            seed=13,
        )
        report = result.extra["isolation"]
        assert report.ok, report.describe()
        assert len(result.crashes) >= 1

    def test_torn_precommit_scenario(self):
        """Mid-commit crash between per-server flushes: the torn transaction
        is discarded, the run resumes, the stitched history stays clean."""
        lane = CrashLane(
            fault_plan=FaultPlan((CrashPoint("precommit-record", 5),)),
            durability=default_crash_durability(asynchronous=False),
        )
        runner = BenchmarkRunner(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
            seed=11,
            lanes=[lane],
        )
        result = run_and_stop(runner, 8, duration=0.5)
        detail = lane.injector.crash_log[0]["detail"]
        assert detail["index"] < detail["total"] - 1  # genuinely torn
        crash = result.crashes[0]
        assert detail["txn_id"] not in crash.recovered
        assert detail["txn_id"] not in crash.ghosts
        assert result.extra["isolation"].ok
        assert result.violations == {}

    def test_ghost_survivor_scenario(self):
        """Crash after a full durable precommit but before acknowledgement:
        recovery resurrects the transaction although it never committed in
        memory, and the stitched graph stays anomaly-free."""
        lane = CrashLane(
            fault_plan=FaultPlan((CrashPoint("precommit-done", 25),)),
            durability=default_crash_durability(asynchronous=False),
        )
        runner = BenchmarkRunner(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
            seed=11,
            lanes=[lane],
        )
        result = run_and_stop(runner, 8, duration=0.5)
        crash = result.crashes[0]
        assert len(crash.ghosts) == 1
        ghost = crash.ghosts[0]
        assert ghost not in crash.vanished
        history = runner.recorder.history()
        assert history.transactions[ghost].txn_type == "recovered"
        assert result.extra["isolation"].ok

    def test_crash_report_does_not_depend_on_the_record_ring(self, monkeypatch):
        """The crash is classified from the durable log and the engine, not
        from the recorder's ring: a ring far below the incarnation's
        commits (peeks among them) reports the same commits, vanished
        transactions and single ghost as the default one."""

        def crash_with(ring):
            monkeypatch.setattr(HistoryRecorder, "RECORD_RING", ring)
            lane = CrashLane(
                fault_plan=FaultPlan((CrashPoint("precommit-done", 25),)),
                durability=default_crash_durability(asynchronous=False),
            )
            runner = BenchmarkRunner(
                _queue_workload(),
                WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
                seed=11,
                lanes=[lane],
            )
            result = run_and_stop(runner, 8, duration=0.5)
            assert result.extra["isolation"].ok
            return result.crashes[0]

        default = crash_with(HistoryRecorder.RECORD_RING)
        small = crash_with(5)
        assert small.committed_before > 5
        assert len(small.ghosts) == 1
        assert small == default

    def test_vanished_transactions_on_async_crash(self):
        """A crash before any GCP flush wipes every commit since the start:
        all of them vanish, the oracle still accepts the stitched run."""
        runner = BenchmarkRunner(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["2layer"](),
            seed=11,
            lanes=[CrashLane(fault_plan=FaultPlan((CrashPoint("gcp-server", 3),)))],
        )
        result = run_and_stop(runner, 8, duration=0.5)
        crash = result.crashes[0]
        assert crash.committed_before > 0
        assert len(crash.vanished) == crash.committed_before
        history = runner.recorder.history()
        for txn_id in crash.vanished:
            assert txn_id not in history.transactions
            assert txn_id in history.aborted_ids
        assert result.extra["isolation"].ok

    def test_multi_crash_run(self):
        result = run_crash_benchmark(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["2layer"](),
            clients=8,
            duration=0.6,
            seed=21,
            crashes=2,
        )
        assert len(result.crashes) == 2
        assert result.incarnations == 3
        assert result.extra["isolation"].ok
        assert result.violations == {}

    def test_fixed_seed_reproduces_byte_identically(self):
        def one():
            result = run_crash_benchmark(
                _queue_workload(),
                WORKLOAD_CONFIGURATIONS["queue"]["2layer"](),
                clients=8,
                duration=0.5,
                seed=21,
                crashes=2,
            )
            return (
                result.commits,
                result.aborts,
                [
                    (c.time, c.site, c.occurrence, c.vanished, c.recovered, c.ghosts)
                    for c in result.crashes
                ],
                result.extra["isolation"].ok,
                result.extra["isolation"].num_edges,
            )

        assert one() == one()

    def test_streaming_verdict_matches_posthoc_across_crash(self):
        runner = BenchmarkRunner(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
            seed=7,
            lanes=[CrashLane()],
        )
        result = run_and_stop(runner, 8, duration=0.5)
        assert len(result.crashes) >= 1
        streaming = result.extra["isolation"]
        posthoc = check_history(runner.recorder.history(), level="serializable")
        assert streaming.ok and posthoc.ok

    def test_violation_raises_by_default(self):
        """raise_on_violation routes through IsolationViolation, same as the
        plain checked runner (sanity: wire a fake anomaly in)."""
        runner = BenchmarkRunner(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["2pl"](),
            seed=7,
            lanes=[CrashLane(fault_plan=FaultPlan(()))],
        )
        recorder = runner.recorder
        v1 = committed_version(("messages", 999), writer=7777, seq=999_999)
        record_commit(recorder, 8888, [], reads=[v1])
        recorder.on_crash({7777})
        with pytest.raises(IsolationViolation):
            run_and_stop(runner, 2, duration=0.05)


class SeedTagOnly(Lane):
    """No fault model at all: only the crash lane's client RNG streams, so
    a lane-less run draws the same transactions as one with the lane."""

    client_seed_tag = CrashLane.client_seed_tag


class TestEmptyPlanIsByteIdentical:
    """Mirror of the message-fault pin: an armed injector with an empty
    plan (trip counting at every durability site, crash event in the run's
    stop condition) must not move the schedule."""

    def run_pinned(self, lane):
        runner = BenchmarkRunner(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
            seed=13,
            options=EngineOptions(durability=default_crash_durability()),
            check_isolation=True,
            lanes=[lane],
        )
        result = run_and_stop(runner, 8, duration=0.3)
        return (
            result.commits,
            result.aborts,
            result.incarnations,
            sorted(committed_ids(runner.recorder.history())),
            sorted((repr(k), repr(v)) for k, v in runner.store.latest_state().items()),
            runner.env.now,
        )

    def test_empty_fault_plan_matches_no_injector(self):
        plain = self.run_pinned(SeedTagOnly())
        empty = self.run_pinned(CrashLane(fault_plan=FaultPlan(())))
        assert plain == empty
        assert plain[0] > 0 and plain[2] == 1


class TestHarnessCLIFaults:
    def test_faults_cell_runs_green(self, capsys):
        code = harness_main(
            [
                "--workload", "queue",
                "--config", "2layer",
                "--faults", "1",
                "--quick",
                "--workers", "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "crash@" in out
        assert "cross-crash oracle" in out

    def test_faults_must_be_non_negative(self):
        with pytest.raises(SystemExit):
            harness_main(["--workload", "queue", "--faults", "-1", "--quick"])

    def test_faults_requires_the_oracle(self):
        with pytest.raises(SystemExit):
            harness_main(
                ["--workload", "queue", "--faults", "1", "--no-check", "--quick"]
            )

    def test_faults_rejects_unregistered_workload(self):
        with pytest.raises(SystemExit):
            harness_main(["--workload", "tpcc", "--faults", "1", "--quick"])


@pytest.mark.slow
class TestCrashSoak:
    """Randomized fault schedules: every seed derives a different crash
    plan; the stitched run must stay clean for all of them."""

    @pytest.mark.parametrize("seed", range(5))
    def test_queue_soak(self, seed):
        result = run_crash_benchmark(
            _queue_workload(),
            WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
            clients=8,
            duration=0.8,
            seed=100 + seed,
            crashes=2,
        )
        assert result.extra["isolation"].ok
        assert result.violations == {}

    @pytest.mark.parametrize("seed", range(5))
    def test_smallbank_soak_sync_and_async(self, seed):
        result = run_crash_benchmark(
            _smallbank_workload(),
            WORKLOAD_CONFIGURATIONS["smallbank"]["2layer"](),
            clients=8,
            duration=0.8,
            seed=200 + seed,
            crashes=2,
            durability=default_crash_durability(asynchronous=seed % 2 == 0),
        )
        assert result.extra["isolation"].ok

    @staticmethod
    def _double_dequeue():
        """A records recorder whose history dequeues one message twice."""
        recorder = HistoryRecorder(level="serializable", records=True)
        key = ("messages", 1)
        v0 = committed_version(key, writer=1, seq=5)
        record_commit(recorder, 1, [v0], txn_type="enqueue")
        record_commit(
            recorder, 2, [committed_version(key, writer=2, seq=6)],
            txn_type="dequeue",
        )
        record_commit(
            recorder, 3, [committed_version(key, writer=3, seq=7)],
            txn_type="dequeue",
        )
        return recorder

    def test_exactly_once_helper_flags_double_consume(self):
        """The helper itself must be able to fail: two committed dequeues
        of one message key are reported."""
        violations = exactly_once_violations(self._double_dequeue().history())
        assert violations == {("messages", 1): [2, 3]}

    def test_the_crash_lane_files_a_double_dequeue_as_a_violation(self):
        """Under ``result.violations``, as the net lane does, so a run that
        raises on violations raises on it."""
        recorder = self._double_dequeue()
        runner = SimpleNamespace(workload=SimpleNamespace(name="queue"), recorder=recorder)
        result = RunResult("queue", 1, 1.0, 0.0, 0.0, 0.0, 3, 0)
        result.extra["isolation"] = check_recorder(recorder)
        CrashLane().finish(runner, result)
        assert result.violations == {"double_dequeues": {("messages", 1): [2, 3]}}
        problem, _headline, _detail = crash_describe(result)
        assert problem.endswith("; 1 message(s) dequeued twice")
