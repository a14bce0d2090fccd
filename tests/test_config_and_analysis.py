"""Tests for CC-tree configurations, static analysis and transaction profiles."""

import itertools

import pytest

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.analysis.rp_analysis import analyze_pipeline
from repro.core.config import CCSpec, Configuration, leaf, monolithic, node
from repro.errors import AnalysisError, ConfigurationError
from repro.workloads.micro import (
    CrossGroupConflictWorkload,
    HierarchyMicroWorkload,
    NoConflictWorkload,
)
from repro.workloads.queue import QueueWorkload
from repro.workloads.seats import SEATSWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload
from repro.workloads.tpcc.transactions import PROFILES


class TestConfiguration:
    def test_monolithic_has_single_leaf(self):
        config = monolithic("2pl", ("a", "b"))
        assert config.depth() == 1
        assert config.root.is_leaf
        assert set(config.transaction_types) == {"a", "b"}

    def test_leaf_lookup(self):
        config = Configuration(node("2pl", leaf("rp", "a"), leaf("none", "b")))
        assert config.leaf_for("a").cc == "rp"
        assert config.leaf_for("b").cc == "none"

    def test_unknown_type_raises(self):
        config = monolithic("2pl", ("a",))
        with pytest.raises(ConfigurationError):
            config.leaf_for("missing")

    def test_duplicate_assignment_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration(node("2pl", leaf("rp", "a"), leaf("rp", "a")))

    def test_internal_node_with_transactions_rejected(self):
        bad = CCSpec(cc="2pl", transactions=("a",), children=[leaf("rp", "b")])
        with pytest.raises(ConfigurationError):
            Configuration(bad)

    def test_empty_configuration_rejected(self):
        with pytest.raises(ConfigurationError):
            Configuration(node("2pl", node("ssi")))

    def test_depth_of_three_layer_tree(self):
        config = Configuration(
            node("ssi", leaf("none", "r"), node("2pl", leaf("rp", "a"), leaf("rp", "b")))
        )
        assert config.depth() == 3

    def test_clone_is_independent(self):
        config = Configuration(node("2pl", leaf("rp", "a"), leaf("none", "b")))
        clone = config.clone(name="copy")
        clone.root.children[0].cc = "tso"
        assert config.leaf_for("a").cc == "rp"
        assert clone.leaf_for("a").cc == "tso"

    def test_signature_detects_structural_equality(self):
        one = Configuration(node("2pl", leaf("rp", "a"), leaf("none", "b")))
        two = Configuration(node("2pl", leaf("rp", "a"), leaf("none", "b")))
        three = Configuration(node("ssi", leaf("rp", "a"), leaf("none", "b")))
        assert one.signature() == two.signature()
        assert one.signature() != three.signature()

    def test_describe_mentions_all_transactions(self):
        config = Configuration(node("2pl", leaf("rp", "a", "b"), leaf("none", "c")))
        text = config.describe()
        for name in ("a", "b", "c"):
            assert name in text

    def test_all_transactions_document_order(self):
        spec = node("2pl", leaf("rp", "a", "b"), leaf("none", "c"))
        assert spec.all_transactions() == ["a", "b", "c"]


def tables_by_mode(profile, mode):
    """Tables ``profile`` accesses in ``mode`` (``"r"`` or ``"w"``), in access order."""
    return [table for table, access in profile.accesses if access == mode]


def step_of(analysis, table):
    """Pipeline step index of ``table`` (unknown tables map to the last step)."""
    if table in analysis.table_to_step:
        return analysis.table_to_step[table]
    return max(analysis.num_steps - 1, 0)


class TestProfiles:
    def test_tables_deduplicated_in_order(self):
        profile = TransactionProfile("t", accesses=(("a", "r"), ("b", "w"), ("a", "w")))
        assert profile.tables() == ["a", "b"]

    def test_write_and_read_tables(self):
        profile = TransactionProfile("t", accesses=(("a", "r"), ("b", "w")))
        assert tables_by_mode(profile, "r") == ["a"]
        assert tables_by_mode(profile, "w") == ["b"]

    def test_access_pairs_include_loop_back_edge(self):
        profile = TransactionProfile(
            "t", accesses=(("a", "r"), ("b", "w"), ("a", "r"))
        )
        assert ("b", "a") in profile.access_pairs()

    def test_table_positions_normalised(self):
        profile = TransactionProfile("t", accesses=(("a", "r"), ("b", "w"), ("c", "w")))
        positions = profile.table_positions()
        assert positions["a"] == 0.0
        assert positions["c"] == 1.0

    def test_transaction_type_name_mismatch_rejected(self):
        profile = TransactionProfile("x")
        with pytest.raises(ValueError):
            TransactionType(name="y", procedure=lambda ctx: None, profile=profile)


class TestRPAnalysis:
    def test_disjoint_tables_get_own_steps(self):
        profiles = [
            TransactionProfile("t1", accesses=(("a", "w"), ("b", "w"), ("c", "w"))),
        ]
        analysis = analyze_pipeline(profiles)
        assert analysis.num_steps == 3
        assert step_of(analysis, "a") < step_of(analysis, "b") < step_of(analysis, "c")

    def test_cycle_merges_tables_into_one_step(self):
        profiles = [
            TransactionProfile("t1", accesses=(("a", "w"), ("b", "w"))),
            TransactionProfile("t2", accesses=(("b", "w"), ("a", "w"))),
        ]
        analysis = analyze_pipeline(profiles)
        assert step_of(analysis, "a") == step_of(analysis, "b")
        assert any(len(step) > 1 for step in analysis.steps)

    def test_unknown_table_maps_to_last_step(self):
        analysis = analyze_pipeline(
            [TransactionProfile("t", accesses=(("a", "w"), ("b", "w")))]
        )
        assert step_of(analysis, "zzz") == analysis.num_steps - 1

    def test_empty_profiles_rejected(self):
        with pytest.raises(AnalysisError):
            analyze_pipeline([])

    def test_tpcc_no_pay_group_is_fine_grained(self):
        analysis = analyze_pipeline([PROFILES["new_order"], PROFILES["payment"]])
        # No cycles: every table gets its own pipeline step.
        assert analysis.num_steps / len(analysis.table_to_step) == pytest.approx(1.0)
        assert step_of(analysis, "warehouse") < step_of(analysis, "district")

    def test_tpcc_stock_level_creates_cycle(self):
        analysis = analyze_pipeline(
            [PROFILES["new_order"], PROFILES["payment"], PROFILES["stock_level"]]
        )
        # stock_level reads order_line before stock while new_order writes
        # stock before order_line: the two tables must share a step.
        assert step_of(analysis, "stock") == step_of(analysis, "order_line")
        assert analysis.num_steps / len(analysis.table_to_step) < 1.0

    def test_history_ordered_late_for_payment(self):
        analysis = analyze_pipeline([PROFILES["new_order"], PROFILES["payment"]])
        assert step_of(analysis, "history") > step_of(analysis, "orders")

    def test_explicit_steps_param(self):
        from repro.analysis.rp_analysis import RPAnalysis

        analysis = RPAnalysis(
            steps=[frozenset({"a"}), frozenset({"b"})], table_to_step={"a": 0, "b": 1}
        )
        assert step_of(analysis, "a") == 0
        assert "2 steps" in analysis.describe()


def _workload_profiles(*workloads):
    profiles = {}
    for workload in workloads:
        for name, txn_type in workload.transaction_types().items():
            assert name not in profiles, name
            profiles[name] = txn_type.profile
    return profiles


#: ``analyze_pipeline(...).steps`` — steps in order, the tables of a merged
#: step joined by ``+`` — recorded on the networkx implementation for every RP
#: group the registry, the conformance and open trees, the micro shapes and
#: the benchmarks build.  The key is the argument order — RP passes profiles
#: sorted by name; ``payment,new_order`` is here because ties break by it
#: (``history`` / ``customer_last_order``).
PINNED_STEPS = {
    "new_order,payment": (
        "warehouse district orders new_order item stock order_line customer "
        "customer_last_order history"
    ),
    "payment,new_order": (
        "warehouse district orders new_order item stock order_line customer "
        "history customer_last_order"
    ),
    "new_order": (
        "warehouse district orders new_order item stock order_line customer "
        "customer_last_order"
    ),
    "delivery": "customer+new_order+new_order_ptr+order_line+orders",
    "delivery,new_order,payment": (
        "warehouse district "
        "customer+item+new_order+new_order_ptr+order_line+orders+stock "
        "customer_last_order history"
    ),
    "new_order,payment,stock_level": (
        "warehouse district orders new_order item order_line+stock customer "
        "customer_last_order history"
    ),
    "hot_item,new_order,payment": (
        "warehouse district orders new_order item stock order_line customer "
        "item_stats customer_last_order history"
    ),
    "new_order,stock_level": (
        "warehouse district orders new_order item order_line+stock customer "
        "customer_last_order"
    ),
    "deposit_checking,transact_savings,write_check": "savings checking",
    "read_modify_write,update_record": "usertable",
    "group_a_update": "shared local_a cold_0 cold_1 cold_2 cold_3 cold_4",
    "group_b_update": "shared local_b cold_0 cold_1 cold_2 cold_3 cold_4",
    "group_a_update,group_b_update": (
        "shared local_a local_b cold_0 cold_1 cold_2 cold_3 cold_4"
    ),
    "t2_update": "table_a table_b table_c table_d table_e",
    "t2_update,t3_update": "table_a table_b+table_c+table_d+table_e",
    "t1_read,t2_update": "table_a table_b table_c table_d table_e",
    "write_only": "payload",
    "alpha": "rows",
    "beta,reader": "rows",
    "alpha,reader": "rows",
    "alpha,beta": "rows",
    "alpha,beta,reader": "rows",
}


@pytest.fixture(scope="module")
def pinned_profiles():
    from tests.test_cc_conformance import ConformanceWorkload

    return _workload_profiles(
        TPCCWorkload(include_hot_item=True, include_payment_by_name=True),
        SmallBankWorkload(),
        YCSBWorkload(),
        CrossGroupConflictWorkload(),
        HierarchyMicroWorkload(),
        NoConflictWorkload(),
        ConformanceWorkload(),
    )


@pytest.mark.parametrize("group", sorted(PINNED_STEPS))
def test_rp_steps_are_the_recorded_ones(group, pinned_profiles):
    """Which tables share a step, and in which order, is behaviour: pin it."""
    analysis = analyze_pipeline([pinned_profiles[name] for name in group.split(",")])
    assert " ".join("+".join(sorted(step)) for step in analysis.steps) == PINNED_STEPS[group]
    assert analysis.table_to_step == {
        table: index for index, step in enumerate(analysis.steps) for table in step
    }


def _orderings(names):
    """Every permutation of up to four names, every larger subset once."""
    for size in range(1, len(names) + 1):
        if size <= 4:
            yield from itertools.permutations(names, size)
        else:
            yield from itertools.combinations(names, size)


def test_rp_analysis_matches_the_networkx_reference_on_every_ordering():
    """The native analysis against the networkx one it replaced, kept in tests/."""
    pytest.importorskip("networkx")
    from tests.reference_rp_analysis import analyze_pipeline as reference

    workloads = (
        TPCCWorkload(include_hot_item=True, include_payment_by_name=True),
        SEATSWorkload(),
        SmallBankWorkload(),
        QueueWorkload(),
        YCSBWorkload(),
        CrossGroupConflictWorkload(),
        HierarchyMicroWorkload(),
        NoConflictWorkload(),
    )
    cases = 0
    different = []
    for workload in workloads:
        profiles = _workload_profiles(workload)
        for ordering in _orderings(sorted(profiles)):
            group = [profiles[name] for name in ordering]
            cases += 1
            if analyze_pipeline(group) != reference(group):
                different.append(ordering)
    assert cases == 2464
    assert different == []


class TestTPCCProfilesMatchProcedures:
    """The declared profiles must reflect what the procedures actually touch."""

    @pytest.mark.parametrize("name", sorted(PROFILES))
    def test_profile_tables_exist_in_schema(self, name):
        from repro.workloads.tpcc.schema import TABLES

        for table in PROFILES[name].tables():
            assert table in TABLES

    def test_read_only_flags(self):
        assert PROFILES["order_status"].read_only
        assert PROFILES["stock_level"].read_only
        assert not PROFILES["new_order"].read_only
        assert not PROFILES["hot_item"].read_only

    def test_workload_registers_expected_types(self):
        workload = TPCCWorkload(warehouses=1)
        assert set(workload.transaction_types()) == {
            "new_order",
            "payment",
            "delivery",
            "order_status",
            "stock_level",
        }
        with_hot = TPCCWorkload(warehouses=1, include_hot_item=True)
        assert "hot_item" in with_hot.transaction_types()

    def test_mix_sums_to_one(self):
        workload = TPCCWorkload(warehouses=1)
        assert sum(workload.mix().values()) == pytest.approx(1.0, abs=0.01)
