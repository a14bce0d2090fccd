"""Scan/predicate access: storage index, workloads, phantoms, retention.

Four layers of coverage:

* the ordered key index and :class:`KeyRange` semantics in the storage
  module (bounds, prefixes, in-flight inserts, aborted-insert cleanup);
* the scan-bearing workloads end-to-end (queue/outbox lifecycle, TPC-C
  payment-by-name, YCSB zipfian distribution);
* adversarial phantom (scan-skew) scenarios: the oracle must flag the G2
  anomaly when an unprotected tree lets it commit, and every serializable
  CC mechanism must prevent or abort it;
* the recorder-retention bound that keeps long streaming-checked runs from
  accumulating per-transaction records.
"""

import dataclasses

import pytest

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.cc.base import CC_REGISTRY
from repro.core.config import monolithic
from repro.core.engine import EngineOptions
from repro.core.transaction import Transaction
from repro.database import Database
from repro.errors import ConfigurationError, TransactionAborted
from repro.harness.configs import WORKLOAD_CONFIGURATIONS as TREES
from repro.isolation.checker import check_recorder
from repro.isolation.history import History, HistoryRecorder, HistoryTransaction
from repro.sim.environment import Environment
from repro.storage.mvstore import MultiVersionStore
from repro.storage.ranges import TOP, KeyRange, ScanSet, prefix_range
from repro.storage.tables import Catalog, Table, TableSchema
from repro.storage.versions import Version
from repro.workloads.base import Workload
from repro.workloads.queue import QueueWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.schema import TPCCScale, customer_last_name
from repro.workloads.ycsb import YCSBWorkload
from repro.workloads.ycsb.workload import ZipfianGenerator
from tests.conftest import build_engine, read_row, run_transactions, think
from tests.reference_checker import check_history


class TestKeyRange:
    def test_bounded_containment(self):
        key_range = KeyRange("t", 3, 7)
        assert key_range.contains_pk(3) and key_range.contains_pk(7)
        assert not key_range.contains_pk(2) and not key_range.contains_pk(8)
        assert key_range.covers(("t", 5))
        assert not key_range.covers(("other", 5)) and not key_range.covers(("t", 8))

    def test_unbounded_sides(self):
        assert KeyRange("t", None, 4).contains_pk(-100)
        assert KeyRange("t", 4, None).contains_pk(10**9)

    def test_prefix_range_matches_extensions_only(self):
        key_range = prefix_range("t", 1, 2, "BAR")
        assert key_range.contains_pk((1, 2, "BAR", 1))
        assert key_range.contains_pk((1, 2, "BAR", 999))
        assert not key_range.contains_pk((1, 2, "BAZ", 1))
        assert not key_range.contains_pk((1, 3, "BAR", 1))

    def test_top_sentinel_ordering(self):
        assert 5 < TOP and "zzz" < TOP and (9, 9) < TOP
        assert not TOP < 5
        assert TOP == TOP and hash(TOP) == hash(TOP)


class TestScanSet:
    def test_covering_in_registration_order_and_drop(self):
        a, b, c = (Transaction(txn_id, "t") for txn_id in (1, 2, 3))
        scans = ScanSet()
        scans.add(b, KeyRange("t", 5, 9))
        scans.add(a, KeyRange("t", 0, 3))
        scans.add(a, KeyRange("t", 6, 6))
        scans.add(c, KeyRange("u"))
        assert scans.covering(("t", 6)) == [b, a]
        assert scans.covering(("t", 4)) == [] and scans.covering(("v", 4)) == []
        assert scans.covering(("u", 4)) == [c]
        scans.drop(a.txn_id)
        assert scans.covering(("t", 6)) == [b] and scans.covering(("t", 1)) == []
        scans.drop(b.txn_id)
        scans.drop(c.txn_id)
        assert scans == {}


class TestStoreRangeIndex:
    def test_range_keys_ordered_and_bounded(self, store):
        for pk in (5, 1, 9, 3):
            store.load(("t", pk), {"v": pk})
        assert store.range_keys("t") == [("t", 1), ("t", 3), ("t", 5), ("t", 9)]
        assert store.range_keys("t", 3, 5) == [("t", 3), ("t", 5)]
        assert store.range_keys("t", hi=3) == [("t", 1), ("t", 3)]
        assert store.range_keys("missing") == []

    def test_composite_prefix_slice(self, store):
        for pk in ((1, "A", 1), (1, "A", 2), (1, "B", 1), (2, "A", 1)):
            store.load(("idx", pk), {})
        key_range = prefix_range("idx", 1, "A")
        keys = store.range_keys("idx", key_range.lo, key_range.hi)
        assert keys == [("idx", (1, "A", 1)), ("idx", (1, "A", 2))]

    def test_uncommitted_insert_is_enumerated(self, store):
        store.load(("t", 1), {"v": 1})
        writer = Transaction(txn_id=9, txn_type="w")
        store.install(("t", 2), {"v": 2}, writer)
        assert store.range_keys("t") == [("t", 1), ("t", 2)]

    def test_aborted_insert_leaves_no_index_entry(self, store):
        writer = Transaction(txn_id=9, txn_type="w")
        store.install(("t", 2), {"v": 2}, writer)
        store.abort_transaction(writer)
        assert store.range_keys("t") == []

    def test_aborted_overwrite_keeps_committed_key(self, store):
        store.load(("t", 1), {"v": 1})
        writer = Transaction(txn_id=9, txn_type="w")
        store.install(("t", 1), {"v": 99}, writer)
        store.abort_transaction(writer)
        assert store.range_keys("t") == [("t", 1)]


class TestQueueWorkload:
    def _db(self, config=None):
        workload = QueueWorkload(initial_messages=3, window=5)
        return Database(workload, config or TREES["queue"]["2pl"]())

    def test_enqueue_assigns_tail_ids(self):
        db = self._db()
        assert db.execute("enqueue", payload=7)["m_id"] == 4
        assert db.execute("enqueue", payload=8)["m_id"] == 5
        assert read_row(db, "queue_ptr", "tail")["value"] == 6

    def test_dequeue_consumes_oldest_and_advances_head(self):
        db = self._db()
        first = db.execute("dequeue")
        assert first["m_id"] == 1
        assert read_row(db, "queue_ptr", "head")["value"] == 2
        assert read_row(db, "messages", 1)["state"] == "consumed"
        assert db.execute("dequeue")["m_id"] == 2

    def test_dequeue_empty_queue(self):
        db = self._db()
        for _ in range(3):
            db.execute("dequeue")
        assert db.execute("dequeue")["empty"]

    def test_peek_reports_backlog(self):
        db = self._db()
        assert db.execute("peek")["backlog"] == 3
        db.execute("dequeue")
        peeked = db.execute("peek")
        assert peeked["backlog"] == 2 and peeked["next"] == 2

    def test_sweep_deletes_consumed_prefix(self):
        db = self._db()
        db.execute("dequeue")
        db.execute("dequeue")
        swept = db.execute("sweep")["swept"]
        assert swept == 2
        assert read_row(db, "messages", 1) is None

    def test_lifecycle_under_hierarchical_tree(self):
        db = self._db(TREES["queue"]["3layer"]())
        assert db.execute("enqueue", payload=1)["m_id"] == 4
        assert db.execute("dequeue")["m_id"] == 1
        assert db.execute("peek")["backlog"] == 3


class TestPaymentByName:
    def _db(self):
        workload = TPCCWorkload(
            scale=TPCCScale(warehouses=1, districts_per_warehouse=1,
                            customers_per_district=5, items=10,
                            initial_orders_per_district=2),
            include_payment_by_name=True,
        )
        return Database(workload, TREES["tpcc-scan"]["2pl"]())

    def test_scan_locates_midpoint_customer(self):
        db = self._db()
        # With 5 customers, names are unique; customer 3's name matches only
        # customer 3.
        c_last = customer_last_name(3)
        result = db.execute(
            "payment_by_name", w_id=1, d_id=1, c_w_id=1, c_d_id=1,
            c_last=c_last, h_amount=40.0,
        )
        assert result["matched"] == 1 and result["c_id"] == 3
        assert read_row(db, "customer", 1, 1, 3)["c_balance"] == pytest.approx(-40.0)
        assert read_row(db, "warehouse", 1)["w_ytd"] == pytest.approx(40.0)

    def test_unknown_name_is_a_noop(self):
        db = self._db()
        result = db.execute(
            "payment_by_name", w_id=1, d_id=1, c_w_id=1, c_d_id=1,
            c_last="NOSUCHNAME", h_amount=40.0,
        )
        assert result["matched"] == 0 and result["customer"] is None
        assert read_row(db, "warehouse", 1)["w_ytd"] == pytest.approx(0.0)

    def test_midpoint_of_larger_candidate_set(self):
        # 205 customers -> ids {3, 103, 203} share customer 3's name; the
        # TPC-C midpoint (ceil(3/2) = 2nd) is customer 103.
        workload = TPCCWorkload(
            scale=TPCCScale(warehouses=1, districts_per_warehouse=1,
                            customers_per_district=205, items=10,
                            initial_orders_per_district=2),
            include_payment_by_name=True,
        )
        db = Database(workload, TREES["tpcc-scan"]["2pl"]())
        result = db.execute(
            "payment_by_name", w_id=1, d_id=1, c_w_id=1, c_d_id=1,
            c_last=customer_last_name(3), h_amount=10.0,
        )
        assert result["matched"] == 3 and result["c_id"] == 103

    def test_mix_includes_both_payment_variants(self):
        workload = TPCCWorkload(warehouses=1, include_payment_by_name=True)
        mix = workload.mix()
        assert mix["payment"] + mix["payment_by_name"] == pytest.approx(0.43)
        args = workload.generate_args(workload.make_rng(4), "payment_by_name")
        assert set(args) == {"w_id", "d_id", "c_w_id", "c_d_id", "c_last", "h_amount"}


class TestZipfianYCSB:
    def test_distribution_is_skewed_and_in_range(self):
        workload = YCSBWorkload(records=500, distribution="zipfian", zipf_theta=0.9)
        rng = workload.make_rng(11)
        draws = [workload._key(rng) for _ in range(2000)]
        assert all(0 <= key < 500 for key in draws)
        # Heavy head: the top-10 ranks should dominate a uniform share.
        head = sum(1 for key in draws if key < 10)
        assert head > len(draws) * 0.25

    def test_draws_are_deterministic_per_seed(self):
        generator = ZipfianGenerator(100, 0.9)
        workload = YCSBWorkload(records=100)
        first = [generator.draw(workload.make_rng(3)) for _ in range(1)]
        second = [generator.draw(workload.make_rng(3)) for _ in range(1)]
        assert first == second

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            ZipfianGenerator(100, 1.5)
        with pytest.raises(ValueError):
            YCSBWorkload(distribution="pareto")


# ---------------------------------------------------------------------------
# Adversarial phantom (scan-skew) scenarios
# ---------------------------------------------------------------------------


class PhantomScenarioWorkload(Workload):
    """Two transactions engineered into a G2 scan-skew race.

    The *scanner* scans ``items[1..10]``, thinks, then publishes the count;
    the *inserter* reads the published count, then inserts a new ``items``
    row inside the scanned range.  With the think-time stagger below, an
    unprotected interleaving commits both: scanner missed the insert
    (rw scanner->inserter via the predicate) and inserter missed the count
    (rw inserter->scanner) — a pure anti-dependency cycle.
    """

    name = "phantom-scenario"

    def build_catalog(self):
        items = Table(TableSchema("items", ("id",)))
        for pk in (1, 2, 3):
            items.insert((pk,), {"value": pk})
        result = Table(TableSchema("result", ("name",)))
        result.insert(("scan_count",), {"count": -1})
        return Catalog([items, result])

    def _scanner(self, ctx, delay):
        matches = yield from ctx.scan("items", lo=1, hi=10)
        yield from think(delay)
        yield from ctx.write("result", "scan_count", row={"count": len(matches)})
        return {"count": len(matches)}

    def _inserter(self, ctx, key, delay):
        yield from think(delay)
        row = yield from ctx.read("result", "scan_count")
        yield from ctx.write("items", key, row={"value": key})
        return {"observed": (row or {}).get("count")}

    def build_transaction_types(self):
        return {
            "scanner": TransactionType(
                name="scanner",
                procedure=self._scanner,
                profile=TransactionProfile(
                    name="scanner",
                    accesses=(("items", "r"), ("result", "w")),
                    scans=("items",),
                ),
            ),
            "inserter": TransactionType(
                name="inserter",
                procedure=self._inserter,
                profile=TransactionProfile(
                    name="inserter", accesses=(("result", "r"), ("items", "w"))
                ),
            ),
        }

    def generate_args(self, rng, txn_type):
        if txn_type == "scanner":
            return {"delay": 0.05}
        return {"key": 5, "delay": 0.01}


class UndeclaredScanWorkload(PhantomScenarioWorkload):
    """The scan-skew race with a scanner whose profile declares no scan."""

    def build_transaction_types(self):
        types = super().build_transaction_types()
        scanner = types["scanner"]
        scanner.profile = dataclasses.replace(scanner.profile, scans=())
        return types


def run_phantom_scenario(cc_name):
    """Run the staged race under a monolithic tree of ``cc_name``."""
    workload = PhantomScenarioWorkload()
    env = Environment()
    engine = build_engine(
        env,
        workload,
        monolithic(cc_name, ("scanner", "inserter")),
        options=EngineOptions(
            charge_costs=False, lock_timeout=0.3, commit_wait_timeout=0.5
        ),
    )
    recorder = HistoryRecorder(records=True)
    engine.history_recorder = recorder
    outcomes, _processes = run_transactions(
        env,
        engine,
        [("scanner", {"delay": 0.05}), ("inserter", {"key": 5, "delay": 0.01})],
    )
    report = check_recorder(recorder)
    aborted = [o for o in outcomes if isinstance(o, TransactionAborted)]
    return report, aborted, recorder


class TestPhantomScenarios:
    def test_oracle_catches_scan_skew_under_no_cc(self):
        """An unprotected tree commits the anomaly; the oracle must flag it."""
        report, aborted, recorder = run_phantom_scenario("none")
        assert not aborted, "no-op CC must not abort anything"
        assert not report.serializable, report.describe()
        # The post-hoc reference over the same recorded history agrees.
        posthoc = check_history(recorder.history())
        assert not posthoc.serializable

    @pytest.mark.parametrize("cc_name", ["2pl", "ssi", "occ", "tso"])
    def test_serializable_mechanisms_prevent_scan_skew(self, cc_name):
        """Every serializable mechanism blocks or aborts the phantom race."""
        report, aborted, _recorder = run_phantom_scenario(cc_name)
        assert report.ok, f"{cc_name}: {report.describe()}"

    def test_hierarchical_trees_prevent_queue_phantoms(self):
        """Cross-group scan-vs-insert under the 3-layer queue tree stays clean."""
        workload = QueueWorkload(initial_messages=3, window=6)
        env = Environment()
        engine = build_engine(
            env,
            workload,
            TREES["queue"]["3layer"](),
            options=EngineOptions(
                charge_costs=True, lock_timeout=0.3, commit_wait_timeout=0.5
            ),
        )
        recorder = HistoryRecorder()
        engine.history_recorder = recorder
        rng = workload.make_rng(5)
        requests = [workload.next_transaction(rng) for _ in range(30)]
        run_transactions(env, engine, requests)
        report = check_recorder(recorder)
        assert report.ok, report.describe()

    # -- a scan is declared: the lock nodes it can reach hold range locks ----

    @pytest.mark.parametrize("cc_name", ["2pl", "rp", "ssi"])
    def test_an_undeclared_scan_fails_before_any_cc_hook(self, cc_name, monkeypatch):
        """No range lock was built for a scan nobody declared, so its route
        refuses it before a mechanism can see (or miss) the predicate."""
        seen = []
        monkeypatch.setattr(
            CC_REGISTRY[cc_name], "before_scan", lambda cc, txn, key_range: seen.append(txn)
        )
        workload = UndeclaredScanWorkload()
        env = Environment()
        engine = build_engine(
            env, workload, monolithic(cc_name, ("scanner", "inserter"))
        )
        assert getattr(engine.root.cc, "ranges", None) is None
        scanner = env.process(engine.execute_transaction("scanner", {"delay": 0.05}))
        with pytest.raises(ConfigurationError, match="'scanner' declares no scan"):
            env.run(until=scanner)
        assert seen == []
        assert engine.store.uncommitted_versions(("result", "scan_count")) == []

    def test_an_online_splice_keeps_the_guard_on_every_node_dequeue_reaches(self):
        workload = QueueWorkload(initial_messages=3, window=6)
        env = Environment()
        config = TREES["queue"]["3layer"]()
        engine = build_engine(
            env,
            workload,
            config,
            options=EngineOptions(
                charge_costs=True, lock_timeout=0.3, commit_wait_timeout=0.5
            ),
        )
        recorder = HistoryRecorder()
        engine.history_recorder = recorder

        def guarded():
            return {
                tree_node.node_id: tree_node.cc.ranges
                for tree_node in engine.nodes
                if getattr(tree_node.cc, "ranges", None) is not None
            }

        def reaches_dequeue():
            return {
                tree_node.node_id
                for tree_node in engine.nodes
                if "dequeue" in tree_node.subtree_types and tree_node.spec.cc in ("2pl", "rp")
            }

        def routes_as_built(configuration):
            fresh = build_engine(Environment(), QueueWorkload(), configuration)
            return {n.node_id: n.subtree_types for n in engine.nodes} == {
                n.node_id: n.subtree_types for n in fresh.nodes
            }

        before = guarded()
        assert set(before) == reaches_dequeue() == {"0.1", "0.1.1"}
        # Splice the consumer leaf alone: it decides again, and its ancestor
        # keeps its instance and the manager it built (the splice moves no
        # type across its root, so the ancestor's types are unchanged).
        consumer = config.clone(name="consumer-rp")
        consumer.root.children[1].children[1].cc = "rp"
        env.run(until=env.process(engine.reconfigure_online(consumer)))
        after = guarded()
        assert set(after) == reaches_dequeue() == {"0.1", "0.1.1"}
        assert after["0.1"] is before["0.1"] and after["0.1.1"] is not before["0.1.1"]
        assert routes_as_built(consumer)
        # Splice the cross-group node (it takes no knob, so its mechanism
        # changes): it and both leaves are rebuilt.
        cross = consumer.clone(name="cross-rp")
        cross.root.children[1].cc = "rp"
        env.run(until=env.process(engine.reconfigure_online(cross)))
        assert engine.root.children[1].cc.name == "rp"
        assert set(guarded()) == reaches_dequeue() == {"0.1", "0.1.1"}
        assert guarded()["0.1"] is not after["0.1"]
        assert routes_as_built(cross)
        # The spliced tree still keeps dequeue's window free of phantoms.
        rng = workload.make_rng(5)
        run_transactions(env, engine, [workload.next_transaction(rng) for _ in range(30)])
        report = check_recorder(recorder)
        assert report.ok, report.describe()

    # -- oracle unit level: hand-built scan histories ------------------------

    def _scan_skew_history(self):
        scanner = HistoryTransaction(
            1, "scanner",
            writes=[(("result", "a"), 3)],
            scans=[KeyRange("items", 1, 10)],
        )
        inserter = HistoryTransaction(
            2, "inserter",
            reads=[(("result", "a"), 0, 1)],
            writes=[(("items", 5), 2)],
        )
        history = History()
        history.add_transaction(scanner)
        history.add_transaction(inserter)
        history.version_orders = {
            ("result", "a"): [(1, 0), (3, 1)],
            ("items", 5): [(2, 2)],
        }
        return history

    def test_hand_built_scan_skew_flagged(self):
        history = self._scan_skew_history()
        report = check_history(history)
        assert not report.serializable

    def test_scan_outside_range_is_clean(self):
        history = self._scan_skew_history()
        # Narrow the predicate so the insert falls outside it: no phantom
        # edge, no cycle.
        history.transactions[1].scans = [KeyRange("items", 1, 4)]
        assert check_history(history).serializable

    def test_observed_key_produces_no_phantom_edge(self):
        history = self._scan_skew_history()
        # The scanner read the inserted key: item-level derivation owns the
        # edge, and with the read ordered first there is no cycle left...
        history.transactions[1].reads = [(("items", 5), 2, 2)]
        history.transactions[2].reads = []
        assert check_history(history).serializable


class TestRecorderRetention:
    def test_streaming_recorder_bounds_retained_records(self):
        """A lane run's recorder must not retain one record per commit.

        Records exist only for the fault lanes, and even there they are a
        ring of :attr:`HistoryRecorder.RECORD_RING` commits, so a long lane
        run's recorder memory is O(ring), not O(commits).
        """
        recorder = HistoryRecorder(records=True)
        window = HistoryRecorder.RECORD_RING
        total = window + 64
        txn = Transaction(txn_id=0, txn_type="w", reads=[])
        for index in range(1, total + 1):
            version = Version(key=("t", index), value=index, writer=index)
            version.mark_committed(index)
            txn.txn_id = index
            recorder.on_commit(txn, [version])
            recorder.on_abort(Transaction(txn_id=-index, txn_type="w"))
        assert recorder.recorded_commits == total
        assert len(recorder._records) <= window
        assert len(recorder._aborted_ids) <= window
        report = check_recorder(recorder)
        assert report.ok, report.describe()
        assert report.num_transactions == total

    @pytest.mark.parametrize("records", [True, False])
    def test_a_second_commit_of_an_evicted_id_is_flagged(self, monkeypatch, records):
        """The phantom-commit check covers the whole run, not the ring: a
        second commit of an id the ring already evicted is flagged too."""
        monkeypatch.setattr(HistoryRecorder, "RECORD_RING", 4)
        recorder = HistoryRecorder(records=records)
        for txn_id in (*range(1, 11), 1, 9):
            recorder.on_commit(Transaction(txn_id=txn_id, txn_type="w", reads=[]), [])
        assert recorder.duplicate_commits == [1, 9]
