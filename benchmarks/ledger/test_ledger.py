"""Unit tests of the ledger's pure helpers (no simulation; well under 3 s)."""

import json
from pathlib import Path

import pytest

import ledger_lib as lib

REPO = Path(__file__).resolve().parent.parent.parent


T = lib.TICKS_PER_SLICE
AT_REFERENCE = lib.CALIBRATION_US * 1e-6


def _pass(slice_wall, commits, slowness=1.0, **extra):
    """A child result whose ticks split each slice's wall time evenly."""
    wall = [w / T for w in slice_wall for _ in range(T)]
    base = {
        "wall": wall,
        "cpu": [w * 0.9 for w in wall],
        "calibration": [AT_REFERENCE * slowness] * len(wall),
        "commits": commits,
        "aborts": [0] * len(commits),
        "state_sha": "abc",
        "setup_s": 0.5,
        "peak_rss_mb": 100.0,
        "failed": 0,
        "final_check_ms": 0.0,
        "model": {"sim_tps": 1.0, "abort_rate": 0.0, "mean_latency_ms": 1.0},
        "gc": {"pause_s": 0.1, "gen2_count": 2, "gen2_pause_max_ms": 5.0},
    }
    base.update(extra)
    return base


def test_merge_min_is_per_slice_not_per_pass():
    assert lib.merge_min([[3, 1, 5], [2, 4, 5], [9, 9, 1]]) == [2, 1, 1]
    assert lib.merge_min([[1.5, 2.5]]) == [1.5, 2.5]
    with pytest.raises(ValueError):
        lib.merge_min([[1, 2], [1]])
    with pytest.raises(ValueError):
        lib.merge_min([])


def test_rolling_median_smooths_single_outliers():
    assert lib.rolling_median([1, 1, 9, 1, 1], 3) == [1, 1, 1, 1, 1]
    assert lib.rolling_median([1, 2, 3, 4, 5], 3) == [1.5, 2, 3, 4, 4.5]
    assert lib.rolling_median([], 7) == []


def test_costs_are_restated_at_reference_speed():
    # The same work on a box running 1.5x slow costs the same after rescaling.
    fast = _pass([0.2, 0.4], [10, 20])
    slow = _pass([0.3, 0.6], [10, 20], slowness=1.5)
    for one in (fast, slow):
        wall, cpu = lib.merged_slices([one])
        assert wall == pytest.approx([0.2, 0.4])
        assert cpu == pytest.approx([0.18, 0.36])
    assert lib.setup_at_reference_speed(slow) == pytest.approx(0.5 / 1.5)


def test_tail_cost_is_the_mean_over_the_costliest_slices():
    wall = [1.0] * 18 + [5.0, 9.0]
    commits = [10] * 20
    assert lib.tail_cost(wall, commits) == pytest.approx(14.0 / 20)
    assert lib.tail_cost([1.0, 3.0], [1, 1]) == 3.0  # never an empty tail
    # Ranked by cost per commit, not by wall time.
    assert lib.tail_cost([4.0] + [1.0] * 9, [100] + [2] * 9) == pytest.approx(0.5)


def test_every_source_file_has_a_layer():
    package = REPO / "src" / "repro"
    files = sorted(package.rglob("*.py"))
    assert files, "src/repro not found"
    for path in files:
        rel = path.relative_to(package).as_posix()
        assert lib.layer_of_module(rel) in lib.LAYERS, rel
        assert lib.layer_of(str(path)) == lib.layer_of_module(rel)


@pytest.mark.parametrize(
    "rel, layer",
    [
        ("sim/environment.py", "sim"),
        ("sim/events.py", "sim"),
        ("sim/resources.py", "sim"),
        ("sim/network.py", "net"),
        ("sim/faults.py", "net"),
        ("core/engine.py", "core"),
        ("errors.py", "core"),
        ("cc/base.py", "cc.base"),
        ("cc/no_op.py", "cc.base"),
        ("cc/timestamps.py", "cc.base"),
        ("cc/locks.py", "cc.locks"),
        ("cc/two_phase_locking.py", "cc.locks"),
        ("cc/runtime_pipelining.py", "cc.rp"),
        ("cc/ssi.py", "cc.ssi"),
        ("cc/occ.py", "cc.occ_tso"),
        ("cc/tso.py", "cc.occ_tso"),
        ("cc/batch.py", "cc.batch"),
        ("storage/mvstore.py", "store"),
        ("storage/gc.py", "store"),
        ("storage/ranges.py", "store"),
        ("storage/durability.py", "durability"),
        ("storage/wal.py", "durability"),
        ("storage/backends.py", "durability"),
        ("isolation/streaming.py", "isolation"),
        ("harness/runner.py", "harness"),
        ("autoconf/profiler.py", "harness"),
        ("workloads/tpcc/transactions.py", "workloads"),
        ("cc/a_mechanism_added_later.py", "cc.base"),
        ("a_package_added_later/x.py", "core"),
    ],
)
def test_module_to_layer_table(rel, layer):
    assert lib.layer_of_module(rel) == layer


def test_profile_entries_outside_the_package():
    assert lib.layer_of("~", "<built-in method builtins.len>") == "python"
    assert lib.layer_of("/usr/lib/python3.11/heapq.py", "heappush") == "python"
    here = "/x/benchmarks/ledger/ledger_child.py"
    assert lib.layer_of(here, "run_pass") == "harness"
    assert lib.layer_of(here, lib.PLANTED_SPIN) == "core"


def test_metric_names_are_legal_and_unique():
    names = [spec[0] for spec in lib.END_TO_END + lib.PER_LAYER]
    names += list(lib.WORKLOADS)
    assert len(names) == len(set(names))
    for name in names:
        assert lib.METRIC_NAME_RE.fullmatch(name), name
    assert len(lib.PER_LAYER) <= 128
    assert all(len(facts["why"]) <= 200 for facts in lib.WORKLOADS.values())
    assert any(spec[:3] == ("setup_s", "s", "lower") for spec in lib.END_TO_END)
    assert all(0 < spec[3] <= 0.25 for spec in lib.END_TO_END)


def test_benchmark_json_lists_exactly_what_the_runner_prints():
    with (REPO / "BENCHMARK.json").open() as handle:
        assert json.load(handle) == lib.benchmark_json()


def test_metric_functions_produce_exactly_the_declared_names():
    passes = [_pass([0.2, 0.4], [10, 20]), _pass([0.3, 0.2], [10, 20])]
    end_to_end = lib.end_to_end_metrics(passes)
    assert list(end_to_end) == [spec[0] for spec in lib.END_TO_END]
    traced = _pass(
        [0.5],
        [10],
        trace={
            "self_share": dict.fromkeys(lib.LAYERS, 0.0),
            "calls_per_commit": dict.fromkeys(lib.LAYERS, 1.0),
        },
    )
    probes = dict.fromkeys(lib.PROBES, 1.0)
    per_layer = lib.per_layer_metrics(passes, traced, probes, None)
    assert sorted(per_layer) == sorted(spec[0] for spec in lib.PER_LAYER)
    assert per_layer["model.fingerprint_match"] == -1
    assert per_layer["harness.trace_overhead_x"] == pytest.approx(0.5 / 0.2)
    assert per_layer["host.pass_spread"] == pytest.approx(0.6 / 0.5)
    assert per_layer["host.speed_index"] == pytest.approx(1.0)
    assert per_layer["host.raw_wall_us_per_commit"] == pytest.approx(0.4 / 30 * 1e6)
    recorded = lib.fingerprint(passes[0])
    assert lib.per_layer_metrics(passes, traced, probes, recorded)[
        "model.fingerprint_match"
    ] == 1


def test_end_to_end_metrics_use_the_per_tick_minimum():
    passes = [
        _pass([0.2, 0.4], [10, 20], setup_s=0.5, peak_rss_mb=100.0),
        _pass([0.3, 0.2], [10, 20], setup_s=0.9, peak_rss_mb=120.0),
        _pass([0.9, 0.9], [10, 20], setup_s=0.6, peak_rss_mb=110.0),
    ]
    # A burst on one tick of the fastest pass: that tick alone falls back to
    # the next pass (0.03 instead of 0.02 s), the slice's other ticks stay.
    passes[0]["wall"][3] *= 50
    metrics = lib.end_to_end_metrics(passes)
    assert metrics["wall_us_per_commit"] == pytest.approx(0.41 / 30 * 1e6)
    assert metrics["cpu_us_per_commit"] == pytest.approx(0.36 / 30 * 1e6)
    assert metrics["wall_us_per_commit_tail10"] == pytest.approx(0.21 / 10 * 1e6)
    assert metrics["peak_rss_mb"] == 120.0
    assert metrics["setup_s"] == pytest.approx(0.6)


def test_check_passes_names_what_differs():
    good = _pass([0.1, 0.1], [5, 6])
    assert lib.check_passes([good, dict(good)]) == []
    shorter_traced = _pass([0.3], [5], state_sha=None)
    assert lib.check_passes([good, shorter_traced]) == []
    assert lib.check_passes([good, _pass([0.1, 0.1], [5, 7])])
    assert lib.check_passes([good, _pass([0.1, 0.1], [5, 6], state_sha="other")])
    assert lib.check_passes([_pass([0.1, 0.1], [5, 0])])
    assert lib.check_passes([dict(good, oracle_ok=False)])
    assert lib.check_passes([dict(good, failed=1)])


def test_seconds_to_slices_is_a_fixed_rule():
    assert lib.slices_for(lib.RUN_SECONDS) == 120
    assert lib.slices_for(0.1) == lib.MIN_SLICES
