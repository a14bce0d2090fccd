"""Tests for the isolation oracle, the workloads, the harness and autoconf."""

import pytest
from hypothesis import assume, given, note, settings, strategies as st

from repro.analysis.rp_analysis import analyze_pipeline
from repro.autoconf import ContentionProfiler, LatencyProfiler
from repro.autoconf.optimizer import ConfigurationOptimizer
from repro.autoconf.preprocess import apply_preprocessing
from repro.cc.base import CC_REGISTRY
from repro.core.config import Configuration, initial_configuration, leaf, monolithic, node
from repro.core.transaction import ReadRecord, Transaction
from repro.database import Database
from repro.harness import configs
from repro.harness.cli import build_workload
from repro.harness.report import format_run_results, format_table
from repro.harness.runner import BenchmarkRunner, Lane, run_benchmark
from repro.isolation.history import History, HistoryRecorder, HistoryTransaction
from repro.storage.versions import Version
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.seats import SEATSWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.schema import TPCCScale
from repro.workloads.ycsb import YCSBWorkload
from tests.conftest import read_row
from tests.reference_checker import check_history, iter_dsg_edges
from tests.test_cc_conformance import run_micro_schedule
from tests.test_composition import verdicts

TREES = configs.WORKLOAD_CONFIGURATIONS


def history_from(transactions, version_orders, aborted=()):
    history = History(aborted_ids=set(aborted))
    for txn in transactions:
        history.add_transaction(txn)
    history.version_orders = version_orders
    return history


class TestIsolationOracle:
    def test_serial_history_is_serializable(self):
        t1 = HistoryTransaction(1, "w", reads=[], writes=[("x", 1)])
        t2 = HistoryTransaction(2, "r", reads=[("x", 1, 1)], writes=[])
        history = history_from([t1, t2], {"x": [(1, 1)]})
        report = check_history(history)
        assert report.ok and report.serializable

    def test_ww_cycle_detected(self):
        t1 = HistoryTransaction(1, "w", writes=[("x", 1), ("y", 4)])
        t2 = HistoryTransaction(2, "w", writes=[("x", 2), ("y", 3)])
        history = history_from([t1, t2], {"x": [(1, 1), (2, 2)], "y": [(3, 2), (4, 1)]})
        report = check_history(history)
        assert not report.serializable

    def test_write_skew_detected_as_rw_cycle(self):
        # T1 reads y (initial) and writes x; T2 reads x (initial) and writes y.
        t1 = HistoryTransaction(1, "t", reads=[("y", 0, 1)], writes=[("x", 3)])
        t2 = HistoryTransaction(2, "t", reads=[("x", 0, 2)], writes=[("y", 4)])
        history = history_from(
            [t1, t2],
            {"x": [(2, 0), (3, 1)], "y": [(1, 0), (4, 2)]},
        )
        report = check_history(history)
        assert not report.serializable

    def test_aborted_read_detected(self):
        t1 = HistoryTransaction(1, "r", reads=[("x", 99, None)])
        history = history_from([t1], {"x": []}, aborted={99})
        report = check_history(history)
        assert report.aborted_reads
        assert not report.ok

    def test_dsg_edge_kinds(self):
        t1 = HistoryTransaction(1, "w", writes=[("x", 1)])
        t2 = HistoryTransaction(2, "rw", reads=[("x", 1, 1)], writes=[("x", 2)])
        history = history_from([t1, t2], {"x": [(1, 1), (2, 2)]})
        kinds = {kind for _s, _t, kind in iter_dsg_edges(history)}
        assert kinds == {"ww", "wr"}

    def test_report_raise_on_violation(self):
        from repro.errors import IsolationViolation

        t1 = HistoryTransaction(1, "r", reads=[("x", 99, None)])
        history = history_from([t1], {"x": []}, aborted={99})
        with pytest.raises(IsolationViolation):
            check_history(history).raise_on_violation()

    # -- adversarial hand-built histories (the oracle must flag each) --------

    def test_intermediate_read_detected(self):
        # T1 installed two versions of x; seq 1 was intermediate (its final
        # committed version is seq 2), yet T2 read seq 1.
        t1 = HistoryTransaction(1, "w", writes=[("x", 2)])
        t2 = HistoryTransaction(2, "r", reads=[("x", 1, 1)])
        history = history_from([t1, t2], {"x": [(1, 1), (2, 1)]})
        report = check_history(history)
        assert report.intermediate_reads == [(2, "x", 1)]
        assert not report.ok

    def test_g1c_wr_ww_cycle_detected(self):
        # G1c: circular information flow mixing wr and ww edges.
        # T1 writes x (seq 1); T2 reads it (wr T1->T2) and writes y over T1's
        # version (ww T1->T2)... build the reverse: T2's y is overwritten by
        # T1 (ww T2->T1) closing the cycle T1 -wr-> T2 -ww-> T1.
        t1 = HistoryTransaction(1, "w", writes=[("x", 1), ("y", 4)])
        t2 = HistoryTransaction(2, "rw", reads=[("x", 1, 1)], writes=[("y", 3)])
        history = history_from(
            [t1, t2], {"x": [(1, 1)], "y": [(3, 2), (4, 1)]}
        )
        report = check_history(history)
        assert not report.serializable

    def test_g2_pure_antidependency_cycle_detected(self):
        # G2: cycle with only rw anti-dependencies (classic write skew).
        t1 = HistoryTransaction(1, "t", reads=[("y", 0, 1)], writes=[("x", 3)])
        t2 = HistoryTransaction(2, "t", reads=[("x", 0, 2)], writes=[("y", 4)])
        history = history_from(
            [t1, t2], {"x": [(2, 0), (3, 1)], "y": [(1, 0), (4, 2)]}
        )
        report = check_history(history)
        assert not report.serializable
        cycle_kinds = {
            kind
            for source, target in report.cycles[0]
            for s, t, kind in iter_dsg_edges(history)
            if (s, t) == (source, target)
        }
        assert cycle_kinds == {"rw"}

    def test_three_transaction_read_only_anomaly_detected(self):
        # The SmallBank read-only anomaly shape: pivot T2 with an outgoing
        # rw to T1 and an incoming rw from read-only T3.
        t1 = HistoryTransaction(1, "upd", reads=[("s", 0, 1)], writes=[("s", 3)])
        t2 = HistoryTransaction(2, "pivot", reads=[("s", 0, 1), ("c", 0, 2)], writes=[("c", 4)])
        t3 = HistoryTransaction(3, "ro", reads=[("s", 1, 3), ("c", 0, 2)])
        history = history_from(
            [t1, t2, t3], {"s": [(1, 0), (3, 1)], "c": [(2, 0), (4, 2)]}
        )
        assert not check_history(history).serializable

    def test_extra_committed_ids_are_not_aborted_reads(self):
        # A reader of an evicted-but-committed writer must not be flagged.
        t2 = HistoryTransaction(2, "r", reads=[("x", 1, 5)])
        history = history_from([t2], {"x": [(5, 1)]})
        history.extra_committed = {1}
        report = check_history(history)
        assert report.ok, report.describe()


class TestHistoryRecorder:
    def _checked_runner(self):
        # The no-op lane keeps the commit records history() reads.
        workload = CrossGroupConflictWorkload(shared_rows=5, cold_rows=50)
        return BenchmarkRunner(
            workload,
            monolithic("2pl", sorted(workload.transaction_types())),
            seed=11,
            check_isolation=True,
            lanes=(Lane(),),
        )

    def test_recorder_streams_full_version_order(self):
        runner = self._checked_runner()
        try:
            result = runner.run(6, duration=0.2, warmup=0.05)
        finally:
            runner.stop()
        report = result.extra["isolation"]
        assert report.ok, report.describe()
        history = runner.recorder.history()
        assert len(history) == runner.recorder.recorded_commits
        # Version orders are in commit-sequence order per key.
        for order in history.version_orders.values():
            seqs = [seq for seq, _writer in order]
            assert seqs == sorted(seqs)

    def test_recorder_survives_version_pruning(self):
        # The store drops superseded versions on the commit path; the
        # streamed history must still hold every key's whole version order
        # and check out (a post-hoc extractor would see holes in it).
        runner = self._checked_runner()
        try:
            result = runner.run(6, duration=0.3, warmup=0.05)
        finally:
            runner.stop()
        orders = runner.recorder.history().version_orders
        hot_key, order = max(orders.items(), key=lambda item: len(item[1]))
        chain = runner.engine.store.committed_versions(hot_key)
        assert len(chain) < len(order) and len(order) > 10
        assert result.extra["isolation"].ok

    def test_recorder_ring_eviction_keeps_checks_sound(self, monkeypatch):
        monkeypatch.setattr(HistoryRecorder, "RECORD_RING", 25)
        runner = self._checked_runner()
        try:
            result = runner.run(6, duration=0.3, warmup=0.05)
        finally:
            runner.stop()
        history = runner.recorder.history()
        assert len(history) <= 25
        assert history.extra_committed  # something was evicted
        assert result.extra["isolation"].ok

    def test_checked_run_raises_without_recorder(self):
        workload = CrossGroupConflictWorkload(shared_rows=5, cold_rows=50)
        runner = BenchmarkRunner(workload, monolithic("2pl", sorted(workload.transaction_types())))
        try:
            with pytest.raises(ValueError):
                runner.check_isolation()
        finally:
            runner.stop()

    def test_database_check_covers_every_commit_and_can_fail(self):
        """Database.check_serializability() is the streaming verdict over
        every commit, not a vacuous pass, and it flags an aborted read."""
        db = Database(SmallBankWorkload(customers=10), TREES["smallbank"]["2pl"]())
        db.execute("deposit_checking", c_id=3, amount=50.0)
        db.execute("send_payment", from_c_id=1, to_c_id=2, amount=75.0)
        db.execute("balance", c_id=3)
        report = db.check_serializability()
        assert report.ok, report.describe()
        assert report.num_transactions == db.stats.commits > 0
        assert report.num_edges > 0
        # A committed read of a version whose writer aborted.
        recorder = db.engine.history_recorder
        recorder.on_abort(Transaction(txn_id=9001, txn_type="w"))
        reader = Transaction(txn_id=9002, txn_type="r", reads=[])
        key = ("checking", 3)
        reader.reads.append(ReadRecord(key, Version(key=key, value=None, writer=9001)))
        recorder.on_commit(reader, [])
        report = db.check_serializability()
        assert report.aborted_reads == [(9002, key, 9001)]
        assert not report.ok

    def test_recorder_read_of_later_committed_writer_resolves(self):
        # A read of a then-uncommitted version must pick up the writer's
        # final commit_seq when the history is materialised.
        from repro.storage.mvstore import MultiVersionStore

        store = MultiVersionStore()
        recorder = HistoryRecorder(records=True)
        writer = Transaction(txn_id=1, txn_type="w", reads=[])
        version = store.install(("x",), {"v": 1}, writer)
        reader = Transaction(txn_id=2, txn_type="r", reads=[])
        reader.reads.append(ReadRecord(("x",), version))
        recorder.on_commit(reader, [])          # reader commits first
        versions = store.commit_transaction(writer)
        recorder.on_commit(writer, versions)    # writer commits later
        history = recorder.history()
        (key, writer_id, commit_seq), = history.transactions[2].reads
        assert (key, writer_id) == (("x",), 1)
        assert commit_seq == version.commit_seq is not None


class TestWorkloads:
    def test_tpcc_population_counts(self):
        scale = TPCCScale(warehouses=1, districts_per_warehouse=2,
                          customers_per_district=5, items=10,
                          initial_orders_per_district=3)
        workload = TPCCWorkload(scale=scale)
        from repro.storage.mvstore import MultiVersionStore

        store = MultiVersionStore()
        workload.populate(store)
        assert store.latest_committed(("warehouse", 1)) is not None
        assert store.latest_committed(("district", (1, 2))) is not None
        assert store.latest_committed(("customer", (1, 2, 5))) is not None
        assert store.latest_committed(("item", 10)) is not None

    def test_tpcc_argument_generation_in_range(self):
        workload = TPCCWorkload(warehouses=2)
        rng = workload.make_rng(1)
        for _ in range(50):
            name, args = workload.next_transaction(rng)
            assert name in workload.transaction_types()
            if "w_id" in args:
                assert 1 <= args["w_id"] <= 2

    def test_tpcc_disjoint_warehouses_option(self):
        workload = TPCCWorkload(warehouses=4, disjoint_warehouses=True)
        rng = workload.make_rng(2)
        stock_w = {workload.generate_args(rng, "stock_level")["w_id"] for _ in range(30)}
        order_w = {workload.generate_args(rng, "new_order")["w_id"] for _ in range(30)}
        assert stock_w.isdisjoint(order_w)

    def test_tpcc_new_order_semantics(self):
        workload = TPCCWorkload(
            scale=TPCCScale(warehouses=1, districts_per_warehouse=1,
                            customers_per_district=5, items=20,
                            initial_orders_per_district=2)
        )
        db = Database(workload, TREES["tpcc"]["2pl"]())
        before = read_row(db, "district", 1, 1)["d_next_o_id"]
        result = db.execute("new_order", w_id=1, d_id=1, c_id=1, items=[(1, 1, 3)])
        after = read_row(db, "district", 1, 1)["d_next_o_id"]
        assert after == before + 1
        assert result["o_id"] == before
        assert read_row(db, "stock", 1, 1)["s_quantity"] == 97

    def test_tpcc_payment_updates_balances(self):
        workload = TPCCWorkload(
            scale=TPCCScale(warehouses=1, districts_per_warehouse=1,
                            customers_per_district=5, items=10,
                            initial_orders_per_district=2)
        )
        db = Database(workload, TREES["tpcc"]["2pl"]())
        db.execute("payment", w_id=1, d_id=1, c_w_id=1, c_d_id=1, c_id=2, h_amount=25.0)
        assert read_row(db, "warehouse", 1)["w_ytd"] == pytest.approx(25.0)
        assert read_row(db, "customer", 1, 1, 2)["c_balance"] == pytest.approx(-25.0)

    def test_tpcc_delivery_advances_pointer(self):
        workload = TPCCWorkload(
            scale=TPCCScale(warehouses=1, districts_per_warehouse=2,
                            customers_per_district=5, items=10,
                            initial_orders_per_district=2)
        )
        db = Database(workload, TREES["tpcc"]["2pl"]())
        result = db.execute("delivery", w_id=1, carrier_id=3, districts=[1, 2])
        assert len(result["delivered"]) == 2
        assert read_row(db, "new_order_ptr", 1, 1)["first_undelivered"] == 2

    def test_seats_reservation_lifecycle(self):
        workload = SEATSWorkload(flights=3, seats_per_flight=50, customers=20)
        db = Database(workload, TREES["seats"]["2pl"]())
        outcome = db.execute("new_reservation", f_id=1, c_id=1, seat=7, price=100.0)
        assert outcome["reserved"]
        assert read_row(db, "flight", 1)["seats_left"] == 49
        taken = db.execute("new_reservation", f_id=1, c_id=2, seat=7, price=100.0)
        assert not taken["reserved"]
        deleted = db.execute("delete_reservation", f_id=1, c_id=1)
        assert deleted["deleted"]
        assert read_row(db, "flight", 1)["seats_left"] == 50

    def test_seats_find_open_seats_excludes_taken(self):
        workload = SEATSWorkload(flights=2, seats_per_flight=20, customers=10)
        db = Database(workload, TREES["seats"]["2pl"]())
        db.execute("new_reservation", f_id=1, c_id=1, seat=5, price=10.0)
        result = db.execute("find_open_seats", f_id=1, seats=[4, 5, 6])
        assert 5 not in result["open_seats"]
        assert 4 in result["open_seats"]

    def test_micro_workload_mix_and_args(self):
        workload = CrossGroupConflictWorkload(shared_rows=4, cold_rows=10)
        rng = workload.make_rng(0)
        name, args = workload.next_transaction(rng)
        assert name in workload.transaction_types()
        assert 0 <= args["shared_id"] < 4
        assert len(args["cold_ids"]) == len(workload.cold_tables)

    def test_smallbank_balance_and_deposit(self):
        workload = SmallBankWorkload(customers=10, hot_accounts=2)
        db = Database(workload, TREES["smallbank"]["2pl"]())
        before = db.execute("balance", c_id=3)["balance"]
        db.execute("deposit_checking", c_id=3, amount=50.0)
        after = db.execute("balance", c_id=3)["balance"]
        assert after == pytest.approx(before + 50.0)

    def test_smallbank_send_payment_conserves_money(self):
        workload = SmallBankWorkload(customers=10)
        db = Database(workload, TREES["smallbank"]["2pl"]())
        total_before = sum(
            db.execute("balance", c_id=c)["balance"] for c in (1, 2)
        )
        outcome = db.execute("send_payment", from_c_id=1, to_c_id=2, amount=75.0)
        assert outcome["ok"]
        total_after = sum(
            db.execute("balance", c_id=c)["balance"] for c in (1, 2)
        )
        assert total_after == pytest.approx(total_before)

    def test_smallbank_amalgamate_zeroes_source(self):
        workload = SmallBankWorkload(customers=10)
        db = Database(workload, TREES["smallbank"]["2pl"]())
        moved = db.execute("amalgamate", from_c_id=4, to_c_id=5)["moved"]
        assert moved == pytest.approx(20_000.0)
        assert db.execute("balance", c_id=4)["balance"] == pytest.approx(0.0)

    def test_smallbank_transact_savings_rejects_overdraft(self):
        workload = SmallBankWorkload(customers=5, initial_balance=10.0)
        db = Database(workload, TREES["smallbank"]["2pl"]())
        outcome = db.execute("transact_savings", c_id=1, amount=-100.0)
        assert not outcome["ok"]
        assert read_row(db, "savings", 1)["balance"] == pytest.approx(10.0)

    def test_smallbank_hot_account_knob_skews_args(self):
        workload = SmallBankWorkload(customers=1000, hot_accounts=5, hot_probability=1.0)
        rng = workload.make_rng(3)
        customers = {workload.generate_args(rng, "balance")["c_id"] for _ in range(50)}
        assert customers <= set(range(1, 6))

    def test_smallbank_degenerate_hot_set_terminates(self):
        # Regression: a single-account hot set at probability 1.0 must still
        # produce distinct payment endpoints (used to loop forever).
        workload = SmallBankWorkload(customers=100, hot_accounts=1, hot_probability=1.0)
        rng = workload.make_rng(0)
        args = workload.generate_args(rng, "send_payment")
        assert args["from_c_id"] != args["to_c_id"]
        solo = SmallBankWorkload(customers=1)
        args = solo.generate_args(solo.make_rng(0), "amalgamate")
        assert args["from_c_id"] == args["to_c_id"] == 1

    def test_ycsb_profiles_select_mix(self):
        for profile, expected in (("a", {"read_record", "update_record"}),
                                  ("e", {"scan_records", "insert_record"})):
            workload = YCSBWorkload(records=50, profile=profile)
            assert set(workload.mix()) == expected
        with pytest.raises(ValueError):
            YCSBWorkload(profile="z")

    def test_ycsb_operations(self):
        workload = YCSBWorkload(records=50, profile="a")
        db = Database(workload, TREES["ycsb"]["2pl"]())
        assert db.execute("read_record", key=7)["row"]["field0"] == 49
        db.execute("update_record", key=7, value=123)
        assert db.execute("read_record", key=7)["row"]["field0"] == 123
        rows = db.execute("scan_records", start=5, count=4)["rows"]
        assert len(rows) == 4
        db.execute("insert_record", key=1000, value=9)
        assert db.execute("read_record", key=1000)["row"]["field0"] == 9
        result = db.execute("read_modify_write", key=7, delta=2)
        assert result["field0"] == 125

    def test_ycsb_scan_stays_in_range(self):
        workload = YCSBWorkload(records=30, max_scan_length=10)
        rng = workload.make_rng(5)
        for _ in range(40):
            args = workload.generate_args(rng, "scan_records")
            assert 0 <= args["start"] <= 30 - 1
            assert args["start"] + args["count"] <= 30 + workload.max_scan_length


class TestHarness:
    def test_run_benchmark_returns_result(self):
        workload = CrossGroupConflictWorkload(shared_rows=10, cold_rows=100)
        result = run_benchmark(
            workload,
            monolithic("2pl", sorted(workload.transaction_types())),
            clients=10,
            duration=0.2,
            warmup=0.05,
        )
        assert result.commits > 0
        assert result.throughput > 0
        assert result.clients == 10

    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xx"}], headers=["a", "b"])
        assert "a" in text and "xx" in text

    def test_named_configurations_are_valid(self):
        for configurations in configs.WORKLOAD_CONFIGURATIONS.values():
            for factory in configurations.values():
                assert factory().transaction_types

    def test_registry_covers_all_workloads(self):
        assert set(configs.WORKLOAD_CONFIGURATIONS) == {
            "tpcc", "tpcc-scan", "seats", "micro", "smallbank",
            "ycsb", "ycsb-zipf", "ycsb-scan", "queue",
        }
        for configurations in configs.WORKLOAD_CONFIGURATIONS.values():
            assert len(configurations) >= 3
        # The zipfian preset shares the YCSB trees (same transaction types).
        assert (
            configs.WORKLOAD_CONFIGURATIONS["ycsb-zipf"]
            is configs.WORKLOAD_CONFIGURATIONS["ycsb"]
        )

    # -- empty-input edge cases (report.py) ----------------------------------

    def test_format_run_results_empty(self):
        text = format_run_results([])
        assert "configuration" in text and "(no data)" in text
        assert "(no data)" in format_run_results(None)

    def test_format_table_accepts_generator(self):
        text = format_table((row for row in [(1, 2)]), headers=["a", "b"])
        assert "1" in text and "2" in text


@pytest.mark.slow
class TestCheckedWorkloadRuns:
    """Fixed-seed checked runs: the isolation oracle gates every workload.

    Each registered workload runs under at least three hierarchical CC
    configurations with a deterministic seed; the run fails if the recorded
    history has an aborted read, an intermediate read or a DSG cycle.  The
    scan-bearing workloads (tpcc-scan, queue, scan-heavy ycsb) hold range
    access to the same standard: the oracle derives phantom
    anti-dependencies from the recorded scan predicates.
    """

    SCENARIOS = {
        "tpcc": (
            lambda: TPCCWorkload(
                scale=TPCCScale(warehouses=1, districts_per_warehouse=4,
                                customers_per_district=30, items=100,
                                initial_orders_per_district=10)
            ),
            ("2pl", "tebaldi-2layer", "tebaldi-3layer"),
        ),
        "tpcc-scan": (
            lambda: TPCCWorkload(
                scale=TPCCScale(warehouses=1, districts_per_warehouse=4,
                                customers_per_district=30, items=100,
                                initial_orders_per_district=10),
                include_payment_by_name=True,
            ),
            ("2pl", "ssi", "2layer", "3layer"),
        ),
        "seats": (
            lambda: SEATSWorkload(flights=4, seats_per_flight=100, customers=50),
            ("2pl", "2layer", "3layer"),
        ),
        "micro": (
            lambda: CrossGroupConflictWorkload(shared_rows=5, cold_rows=100),
            ("ssi", "2layer", "ssi-2layer"),
        ),
        "smallbank": (
            lambda: SmallBankWorkload(customers=50, hot_accounts=5),
            ("ssi", "2layer", "3layer"),
        ),
        "ycsb": (
            lambda: YCSBWorkload(records=200, profile="a"),
            ("ssi", "2layer", "3layer"),
        ),
        "ycsb-zipf": (
            lambda: YCSBWorkload(records=400, profile="a",
                                 distribution="zipfian", zipf_theta=0.9),
            ("ssi", "2layer", "3layer", "batch", "batch-2layer", "batch-3layer"),
        ),
        "ycsb-scan": (
            # Scan-heavy profile E: the deterministic batch cells must hold
            # their declared-range phantom story against 95% range scans.
            lambda: YCSBWorkload(records=200, profile="e"),
            ("ssi", "batch", "batch-2layer"),
        ),
        "queue": (
            lambda: QueueWorkload(initial_messages=4, window=6),
            ("2pl", "ssi", "2layer", "3layer"),
        ),
    }

    @pytest.mark.parametrize(
        "workload_name,config_name",
        [
            (workload, config)
            for workload, (_factory, names) in sorted(SCENARIOS.items())
            for config in names
        ],
    )
    def test_checked_run_is_serializable(self, workload_name, config_name):
        factory, _names = self.SCENARIOS[workload_name]
        result = run_benchmark(
            factory(),
            configs.WORKLOAD_CONFIGURATIONS[workload_name][config_name](),
            clients=8,
            duration=0.25,
            warmup=0.05,
            seed=7,
            check_isolation=True,
        )
        report = result.extra["isolation"]
        assert report.ok, report.describe()
        assert result.commits > 0

    def test_rp_step_commit_antidependency_regression(self):
        """Regression: passed RP step locks must keep ordering later writers.

        TPC-C under the 2-layer tree (all updates in one RP group) used to
        lose the rw anti-dependency of a step-committed *reader*, closing
        new_order/payment ordering cycles undetected.
        """
        result = run_benchmark(
            TPCCWorkload(warehouses=2),
            TREES["tpcc"]["tebaldi-2layer"](),
            clients=8,
            duration=0.3,
            warmup=0.1,
            seed=7,
            check_isolation=True,
        )
        assert result.extra["isolation"].ok

    def test_ssi_committed_pivot_regression(self):
        """Regression: the SmallBank read-only anomaly under monolithic SSI.

        A read-only transaction discovering an rw edge into an already
        committed pivot must abort (committed-pivot rule); it used to slip
        through and publish a non-serializable read.
        """
        result = run_benchmark(
            SmallBankWorkload(customers=100, hot_accounts=5),
            TREES["smallbank"]["ssi"](),
            clients=16,
            duration=0.3,
            warmup=0.05,
            seed=7,
            check_isolation=True,
        )
        assert result.extra["isolation"].ok


class TestHarnessCLI:
    def test_list_registry(self, capsys):
        from repro.harness.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "smallbank" in out and "ycsb" in out

    def test_checked_cli_run(self, capsys):
        from repro.harness.cli import main

        code = main([
            "--workload", "micro", "--config", "2pl",
            "--clients", "4", "--duration", "0.1", "--warmup", "0.0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "isolation OK" in out

    def test_cli_rejects_unknown_config(self):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["--workload", "micro", "--config", "nope"])

    # -- argument edge cases: clean parser errors, never tracebacks ----------

    def test_cli_rejects_unknown_workload(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "no-such-workload"])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    def test_cli_rejects_non_positive_workers(self, capsys):
        from repro.harness.cli import main

        for workers in ("0", "-3"):
            with pytest.raises(SystemExit) as excinfo:
                main(["--workload", "micro", "--workers", workers])
            assert excinfo.value.code == 2
            assert "--workers" in capsys.readouterr().err

    def test_cli_rejects_non_positive_clients(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "micro", "--clients", "0", "8"])
        assert excinfo.value.code == 2
        assert "--clients" in capsys.readouterr().err

    def test_cli_rejects_clients_with_quick(self, capsys):
        """--quick runs 8 clients per cell: a client count beside it is an
        error, not silently dropped."""
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "micro", "--clients", "20", "--quick"])
        assert excinfo.value.code == 2
        assert "--clients" in capsys.readouterr().err

    def test_cli_rejects_bad_durations(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "micro", "--duration", "0"])
        assert excinfo.value.code == 2
        assert "--duration" in capsys.readouterr().err
        with pytest.raises(SystemExit) as excinfo:
            main(["--workload", "micro", "--warmup", "-1"])
        assert excinfo.value.code == 2
        assert "--warmup" in capsys.readouterr().err

    def test_cli_all_rejects_workload_filter(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit) as excinfo:
            main(["--all", "--workload", "micro"])
        assert excinfo.value.code == 2
        assert "--all" in capsys.readouterr().err

    def test_cli_registry_lists_new_workloads(self, capsys):
        from repro.harness.cli import main

        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        for name in ("tpcc-scan", "queue", "ycsb-zipf"):
            assert name in out


class TestProfilerAnalysis:
    def _txn(self, txn_id, txn_type):
        return Transaction(txn_id=txn_id, txn_type=txn_type)

    def test_edge_scores_accumulate(self):
        profiler = ContentionProfiler()
        a, b = self._txn(1, "A"), self._txn(2, "B")
        profiler.record_wait(a, b, 0.0, 1.0)
        profiler.record_wait(b, a, 2.0, 2.5)
        edges = profiler.edge_scores()
        assert edges[("A", "B")] == pytest.approx(1.5)

    def test_nested_wait_attribution(self):
        """Figure 5.6: time the blocker itself spent blocked is re-attributed."""
        profiler = ContentionProfiler()
        t1, t2, t3 = self._txn(1, "T1"), self._txn(2, "T2"), self._txn(3, "T3")
        # t1 waits for t2 during [0, 8]; t2 itself waits for t3 during [2, 8].
        profiler.record_wait(t1, t2, 0.0, 8.0)
        profiler.record_wait(t2, t3, 2.0, 8.0)
        scores = profiler.scores()
        assert scores[("T2", "T1")] == pytest.approx(2.0)
        assert scores[("T3", "T2")] == pytest.approx(6.0)

    def test_bottleneck_edge_selection(self):
        profiler = ContentionProfiler()
        a, b, c = self._txn(1, "A"), self._txn(2, "B"), self._txn(3, "C")
        profiler.record_wait(a, b, 0, 1)
        profiler.record_wait(c, b, 0, 5)
        edge, score = profiler.bottleneck_edge()
        assert edge == ("B", "C")
        assert score == pytest.approx(5.0)

    def test_latency_profiler_inflation(self):
        profiler = LatencyProfiler()
        profiler.record("low", {"per_type": {"pay": {"mean_latency": 0.01, "commits": 5}}})
        profiler.record("high", {"per_type": {"pay": {"mean_latency": 0.05, "commits": 5}}})
        assert profiler.latency_inflation("low", "high")["pay"] == pytest.approx(5.0)
        assert profiler.suspected_bottlenecks("low", "high", threshold=2.0) == ["pay"]

    def test_reset_clears_events(self):
        profiler = ContentionProfiler()
        profiler.record_wait(self._txn(1, "A"), self._txn(2, "B"), 0, 1)
        profiler.reset()
        assert not profiler.events and not profiler.aborts


def _rp_groups(types, configuration):
    """``(types, group types in document order)`` per RP node of a tree."""
    return [
        (types, spec.all_transactions())
        for spec in configuration.root.iter_nodes()
        if spec.cc == "rp"
    ]


class TestOptimizer:
    def _optimizer(self):
        workload = TPCCWorkload(warehouses=1)
        return ConfigurationOptimizer(workload.transaction_types()), workload

    def test_single_type_candidates_split_leaf(self):
        optimizer, workload = self._optimizer()
        config = initial_configuration(
            set(workload.transaction_types()), {"order_status", "stock_level"}
        )
        candidates = optimizer.propose(config, ("new_order", "new_order"))
        assert candidates
        for candidate in candidates:
            new_leaf = candidate.configuration.leaf_for("new_order")
            assert new_leaf.transactions == ("new_order",)
            # Every other type is still assigned somewhere.
            assert candidate.configuration.transaction_types == config.transaction_types

    def test_same_group_candidates_add_cross_cc(self):
        optimizer, workload = self._optimizer()
        config = initial_configuration(
            set(workload.transaction_types()), {"order_status", "stock_level"}
        )
        candidates = optimizer.propose(config, ("new_order", "payment"))
        assert candidates
        depths = {candidate.configuration.depth() for candidate in candidates}
        assert max(depths) >= 3

    def test_cross_group_candidates(self):
        optimizer, workload = self._optimizer()
        config = configs.tpcc_callas_1()
        candidates = optimizer.propose(config, ("new_order", "stock_level"))
        assert candidates
        for candidate in candidates:
            assert candidate.configuration.transaction_types == config.transaction_types

    def test_candidates_are_deduplicated(self):
        optimizer, workload = self._optimizer()
        config = initial_configuration(
            set(workload.transaction_types()), {"order_status", "stock_level"}
        )
        candidates = optimizer.propose(config, ("payment", "payment"))
        signatures = [c.configuration.signature() for c in candidates]
        assert len(signatures) == len(set(signatures))

    #: The tree ``examples/automatic_configuration.py`` picks for TPC-C.
    AUTO_1_3 = staticmethod(lambda: Configuration(
        node(
            "ssi",
            leaf("none", "order_status", "stock_level"),
            node(
                "2pl",
                leaf("2pl", "delivery"),
                node("rp", leaf("tso", "new_order"), leaf("tso", "payment")),
            ),
        ),
        name="auto-1-3",
    ))

    def test_an_illegal_tree_is_never_proposed(self):
        """Moving payment to SSI would put SSI below RP: only RP is left."""
        optimizer, _workload = self._optimizer()
        candidates = optimizer.propose(self.AUTO_1_3(), ("payment", "payment"))
        assert [c.rationale for c in candidates] == [
            "optimize self-conflicts of payment with rp"
        ]

    @pytest.mark.parametrize("name", ["tpcc", "seats"])
    def test_every_candidate_passes_the_literal_table(self, name):
        if name == "tpcc":
            workload = TPCCWorkload(warehouses=1)
            known = self.AUTO_1_3()
        else:
            workload = SEATSWorkload(flights=2, seats_per_flight=10, customers=10)
            known = configs.seats_3layer()
        transaction_types = workload.transaction_types()
        read_only = {t for t, ttype in transaction_types.items() if ttype.read_only}
        optimizer = ConfigurationOptimizer(transaction_types)
        types = sorted(transaction_types)
        proposed = 0
        for start in (initial_configuration(set(types), read_only), known):
            for type_a in types:
                for type_b in types:
                    for candidate in optimizer.propose(start, (type_a, type_b)):
                        proposed += 1
                        assert not verdicts(candidate.configuration.root), (
                            candidate.rationale
                        )
        assert proposed > 50

    def test_an_rp_groups_steps_do_not_depend_on_its_type_order(self):
        """Why preprocessing records no pipeline: for every RP group the
        registry and the autoconf example build, the analysis gives the same
        steps over the group's types in document order (what preprocessing
        used to record) and in name order (what RP derives where it is
        built)."""
        groups = []
        for name, trees in configs.WORKLOAD_CONFIGURATIONS.items():
            types = build_workload(name).transaction_types()
            for factory in trees.values():
                groups.extend(_rp_groups(types, factory()))
        # The example's two iterations on TPC-C: the candidates for the
        # new_order/payment edge, then for payment/payment from its pick.
        optimizer, workload = self._optimizer()
        types = workload.transaction_types()
        start = initial_configuration(set(types), {"order_status", "stock_level"})
        proposed = optimizer.propose(start, ("new_order", "payment")) + optimizer.propose(
            self.AUTO_1_3(), ("payment", "payment")
        )
        for configuration in [self.AUTO_1_3()] + [c.configuration for c in proposed]:
            groups.extend(_rp_groups(types, configuration))
        assert len(groups) > 20
        for types, order in groups:
            in_document_order = analyze_pipeline(types[t].profile for t in order)
            by_name = analyze_pipeline(types[t].profile for t in sorted(order))
            assert in_document_order.steps == by_name.steps, order

    def test_preprocessing_partition_by_instance(self):
        config = Configuration(
            node(
                "ssi",
                leaf("none", "find_flights", "find_open_seats"),
                node(
                    "2pl",
                    leaf("tso", "new_reservation", "delete_reservation", "update_reservation"),
                    leaf("2pl", "update_customer"),
                ),
            ),
            name="seats",
        )
        keys = {
            name: (lambda args: args.get("f_id"))
            for name in ("new_reservation", "delete_reservation", "update_reservation")
        }
        apply_preprocessing(config, instance_keys=keys)
        assert config.leaf_for("new_reservation").instance_key is not None


class TestHypothesisProperties:
    @given(
        st.lists(
            st.tuples(st.sampled_from(["A", "B", "C"]), st.integers(0, 4)),
            min_size=2,
            max_size=25,
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_profiler_scores_are_non_negative_and_bounded(self, waits):
        profiler = ContentionProfiler()
        txns = {}
        for index, (txn_type, duration) in enumerate(waits):
            blocked = txns.setdefault(index, Transaction(txn_id=index + 1, txn_type=txn_type))
            blocker = Transaction(txn_id=1000 + index, txn_type="X")
            profiler.record_wait(blocked, blocker, float(index), float(index + duration))
        total_wait = sum(duration for _t, duration in waits)
        scores = profiler.edge_scores()
        assert all(score >= 0 for score in scores.values())
        assert sum(scores.values()) <= total_wait + 1e-6

    @given(st.data())
    @settings(max_examples=15, deadline=None)
    def test_random_micro_schedules_are_serializable(self, data):
        """Random concurrent schedules under random legal CC trees stay
        serializable (the leaves a cross node forbids do not build)."""
        cross = data.draw(st.sampled_from(["2pl", "ssi", "rp"]))
        cc_choices = [
            cc
            for cc in ("2pl", "ssi", "rp", "tso")
            if cross not in CC_REGISTRY[cc].forbidden_ancestors
        ]
        leaf_a = data.draw(st.sampled_from(cc_choices))
        leaf_b = data.draw(st.sampled_from(cc_choices))
        count = data.draw(st.integers(min_value=4, max_value=20))
        seed = data.draw(st.integers(0, 1000))
        note(f"(cross, leaf_a, leaf_b, seed, count) = {(cross, leaf_a, leaf_b, seed, count)!r}")
        engine, report = run_micro_schedule(cross, leaf_a, leaf_b, seed, count)
        assert report.ok, report.describe()
        # Not vacuous: the oracle saw every commit.  A schedule in which
        # every one-shot attempt aborts is legal (SSI over 2PL, seed 279:
        # eleven ssi-ww-conflict / ssi-pivot aborts) and checks nothing.
        assert report.num_transactions == engine.stats.commits
        assume(report.num_transactions > 0)
