"""Pure helpers of the perf ledger: names, bounds, bucketing and arithmetic.

Nothing here imports ``repro`` or touches the clock, so ``test_ledger.py``
can check it in milliseconds.  ``run.py`` (the parent) and
``ledger_child.py`` (one pass in a fresh process) both import this module;
``BENCHMARK.json`` must equal :func:`benchmark_json`.
"""

import re
import statistics

METRIC_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

DEFAULT_SEED = 7
# Untraced passes per run, each a fresh process; per-tick minima are taken
# across them.  Two, not more: the contract's 92 runs must fit in 57 minutes
# even while the box runs at half speed, and with costs restated at reference
# speed a third pass bought no steadiness across seeds (README, "Method").
PASSES = 2
WARMUP_SLICES = 5
# Each slice is timed as this many equal ticks of simulated time.  The box's
# interference comes in bursts of milliseconds, so the minimum over passes is
# taken per tick (a few ms of host time), where a burst is unlikely to hit
# every pass, and summed back into slices.
TICKS_PER_SLICE = 10
# After every tick the child times a fixed calibration loop.  The box drifts
# between 1x and 2x speed for tens of seconds at a time, longer than a run,
# and no minimum over passes can remove that; dividing each tick by how slow
# the calibration loop was just then does.  All per-commit costs are therefore
# stated at the reference speed, the speed at which the loop takes
# CALIBRATION_US (its usual time on the reference box: a pure scale factor).
CALIBRATION_US = 100.0
CALIBRATION_WINDOW = 7  # ticks; the loop's own jitter is smoothed by a median
# ``--seconds`` is turned into work by a fixed rule, never by calibration:
# slice *i* of a workload must be the same simulated interval on every
# commit, or per-slice minima and fingerprints would compare nothing.
RUN_SECONDS = 24
SLICES_PER_SECOND = 5  # 120 measured slices at RUN_SECONDS
MIN_SLICES = 8
TRACE_SLICES = 40  # the cProfile pass covers the first slices of a run
QUICK_SLICES = 8
QUICK_TRACE_SLICES = 4

# name -> static facts.  The objects themselves are built in the child
# (ledger_child.build_runner), which is the only place that imports repro.
WORKLOADS = {
    "tpcc-3layer": {
        "clients": 40,
        "slice_s": 0.06,
        "why": "long transactions through the paper's deep SSI/2PL/RP tree "
        "(Fig. 4.7); locks, RP and engine dispatch dominate, batch/oracle/WAL "
        "are bypassed",
    },
    "ycsb-zipf-batch": {
        "clients": 64,
        "slice_s": 0.005,
        "why": "short hot-key transactions under one deterministic batch "
        "leaf; cc.batch and the sim kernel dominate, locks/RP/SSI do nothing",
    },
    "ycsb-scan-2layer": {
        "clients": 20,
        "slice_s": 0.04,
        "why": "95% range scans beside inserts: store range index and SSI "
        "range read sets instead of point reads; largest heap growth",
    },
    "smallbank-durable-checked": {
        "clients": 20,
        "slice_s": 0.02,
        "why": "the only path through recorder + streaming DSG oracle and "
        "WAL/precommit; a change to either layer must show here and nowhere "
        "else",
    },
}

# (name, unit, better, bound): bound is the share of the parent's median by
# which the metric may worsen before a change counts as a regression.  The
# contract takes the spread over ten *different* seeds, and on tpcc-3layer
# cost and memory per commit differ between seeds by up to 9 % and 6.5 %
# (first to third quartile), so each bound is about three times the widest
# spread seen (README, "Steadiness across seeds") and no tighter.
END_TO_END = (
    ("wall_us_per_commit", "us", "lower", 0.25),
    ("wall_us_per_commit_tail10", "us", "lower", 0.25),
    ("cpu_us_per_commit", "us", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.20),
    ("setup_s", "s", "lower", 0.25),
)

LAYERS = (
    "sim",
    "net",
    "core",
    "cc.base",
    "cc.locks",
    "cc.rp",
    "cc.ssi",
    "cc.occ_tso",
    "cc.batch",
    "store",
    "durability",
    "isolation",
    "harness",
    "workloads",
    "python",
)

PROBES = (
    "probe.sim.events_per_s",
    "probe.cc.locks.ops_per_s",
    "probe.store.install_per_s",
    "probe.store.read_per_s",
    "probe.store.range_keys_per_s",
    "probe.isolation.edges_per_s",
    "probe.durability.precommit_per_s",
)

_OTHER_PER_LAYER = (
    ("host.gc_share", "ratio", "lower"),
    ("host.gc_gen2_count", "count", "lower"),
    ("host.gc_gen2_pause_ms_max", "ms", "lower"),
    ("host.cpu_over_wall", "ratio", "higher"),
    ("host.pass_spread", "ratio", "lower"),
    ("host.speed_index", "ratio", "lower"),
    ("host.raw_wall_us_per_commit", "us", "lower"),
    ("harness.trace_overhead_x", "ratio", "lower"),
    ("harness.slice_us_p50", "us", "lower"),
    ("harness.slices", "count", "higher"),
    ("harness.commits", "count", "higher"),
    ("isolation.final_check_ms", "ms", "lower"),
    ("model.sim_tps", "1/s", "higher"),
    ("model.abort_rate", "ratio", "lower"),
    ("model.mean_latency_ms", "ms", "lower"),
    ("model.fingerprint_match", "count", "higher"),
)

PER_LAYER = (
    tuple((f"{layer}.self_share", "ratio", "lower") for layer in LAYERS)
    + tuple((f"{layer}.calls_per_commit", "1/commit", "lower") for layer in LAYERS)
    + _OTHER_PER_LAYER
    + tuple((name, "1/s", "higher") for name in PROBES)
)


def benchmark_json():
    """The contract file, generated so it cannot drift from what is printed."""
    return {
        "command": ["python3", "benchmarks/ledger/run.py"],
        "paths": ["benchmarks/ledger"],
        "run_seconds": RUN_SECONDS,
        "workloads": [
            {"name": name, "why": facts["why"]} for name, facts in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": name, "unit": unit, "better": better, "bound": bound}
            for name, unit, better, bound in END_TO_END
        ],
        "per_layer": [
            {"name": name, "unit": unit, "better": better}
            for name, unit, better in PER_LAYER
        ],
    }


def slices_for(seconds):
    """Measured slices per pass for a ``--seconds`` value (fixed rule)."""
    return max(MIN_SLICES, round(seconds * SLICES_PER_SECOND))


# -- module -> layer ---------------------------------------------------------

# Files that do not belong to their directory's layer.
_FILE_LAYER = {
    "sim/network.py": "net",
    "sim/faults.py": "net",
    "cc/locks.py": "cc.locks",
    "cc/two_phase_locking.py": "cc.locks",
    "cc/runtime_pipelining.py": "cc.rp",
    "cc/ssi.py": "cc.ssi",
    "cc/occ.py": "cc.occ_tso",
    "cc/tso.py": "cc.occ_tso",
    "cc/batch.py": "cc.batch",
    "storage/durability.py": "durability",
    "storage/wal.py": "durability",
    "storage/backends.py": "durability",
    "database.py": "harness",
}
_DIR_LAYER = {
    "sim": "sim",
    "core": "core",
    "cc": "cc.base",
    "storage": "store",
    "isolation": "isolation",
    "harness": "harness",
    "autoconf": "harness",
    "analysis": "harness",
    "workloads": "workloads",
}
# The --selfcheck slowdown is planted from the benchmark's files but stands
# for engine work, so its span is booked where the wrapped function lives.
PLANTED_SPIN = "planted_spin_record_commit"
_PACKAGE = "/src/repro/"


def layer_of_module(rel_path):
    """Layer of a file given relative to ``src/repro`` (``cc/locks.py``).

    A file a later change adds falls to its directory's layer, and to
    ``core`` outside any known directory, so bucketing never fails.
    """
    rel_path = rel_path.replace("\\", "/")
    layer = _FILE_LAYER.get(rel_path)
    if layer is None:
        layer = _DIR_LAYER.get(rel_path.split("/", 1)[0], "core")
    return layer


def layer_of(filename, funcname=""):
    """Layer of one cProfile entry: repro module, benchmark file or Python."""
    filename = filename.replace("\\", "/")
    index = filename.rfind(_PACKAGE)
    if index >= 0:
        return layer_of_module(filename[index + len(_PACKAGE):])
    if "/benchmarks/ledger/" in filename:
        return "core" if funcname == PLANTED_SPIN else "harness"
    return "python"


# -- arithmetic --------------------------------------------------------------


def merge_min(vectors):
    """Element-wise minimum over passes of equal-length vectors."""
    if not vectors:
        raise ValueError("merge_min needs at least one pass")
    length = len(vectors[0])
    if any(len(vector) != length for vector in vectors):
        raise ValueError("passes measured different numbers of ticks")
    return [min(column) for column in zip(*vectors)]


def rolling_median(values, window):
    """Median of the ``window`` values centred on each position."""
    half = window // 2
    return [
        statistics.median(values[max(0, index - half): index + half + 1])
        for index in range(len(values))
    ]


def at_reference_speed(one_pass):
    """A pass's per-tick ``(wall, cpu)`` seconds, restated at reference speed.

    Both clocks are scaled by the same factor, so a change that blocks,
    sleeps or threads still pulls them apart.
    """
    slowness = rolling_median(one_pass["calibration"], CALIBRATION_WINDOW)
    scale = [CALIBRATION_US * 1e-6 / value for value in slowness]
    wall = [w * f for w, f in zip(one_pass["wall"], scale)]
    cpu = [c * f for c, f in zip(one_pass["cpu"], scale)]
    return wall, cpu


def per_slice(ticks):
    """Sum a per-tick vector into slices."""
    return [
        sum(ticks[start: start + TICKS_PER_SLICE])
        for start in range(0, len(ticks), TICKS_PER_SLICE)
    ]


def merged_slices(passes):
    """Per-slice ``(wall, cpu)`` seconds: reference speed, per-tick minimum.

    Sibling passes do identical simulated work tick for tick, so the
    minimum over passes of a tick's cost is that tick with the least
    interference from the box.
    """
    restated = [at_reference_speed(one) for one in passes]
    wall = per_slice(merge_min([wall for wall, _ in restated]))
    cpu = per_slice(merge_min([cpu for _, cpu in restated]))
    return wall, cpu


def tail_cost(wall, commits, share=0.10):
    """Seconds per commit over the costliest ``share`` of the slices.

    This is where periodic work lands: full cyclic-GC collections, GC-epoch
    pruning, recorder eviction.  A mean over the tail, not a percentile: a
    run has about as many full collections as a tenth of its slices, so the
    90th percentile sits on the cliff between slices with and without one
    and jumps by 25 % from seed to seed.
    """
    ranked = sorted(zip(wall, commits), key=lambda pair: pair[0] / pair[1])
    worst = ranked[-max(1, round(len(ranked) * share)):]
    return sum(w for w, _ in worst) / sum(c for _, c in worst)


def setup_at_reference_speed(one_pass):
    """``setup_s`` rescaled by the calibration laps that directly follow it."""
    first_laps = one_pass["calibration"][: 3 * CALIBRATION_WINDOW]
    return one_pass["setup_s"] * CALIBRATION_US * 1e-6 / statistics.median(first_laps)


def end_to_end_metrics(passes):
    """The five end-to-end metrics from sibling passes of one workload."""
    commits = passes[0]["commits"]
    wall, cpu = merged_slices(passes)
    total = sum(commits)
    return {
        "wall_us_per_commit": sum(wall) / total * 1e6,
        "wall_us_per_commit_tail10": tail_cost(wall, commits) * 1e6,
        "cpu_us_per_commit": sum(cpu) / total * 1e6,
        "peak_rss_mb": max(p["peak_rss_mb"] for p in passes),
        "setup_s": statistics.median(setup_at_reference_speed(p) for p in passes),
    }


def pass_spread(passes):
    """Max over min of the passes' wall totals: how noisy the box was."""
    totals = [sum(p["wall"]) for p in passes]
    return max(totals) / min(totals)


def fingerprint(first_pass):
    """What a pure speed-up must leave bit-identical, as one record."""
    return {
        "commits": first_pass["commits"],
        "aborts": first_pass["aborts"],
        "state_sha": first_pass["state_sha"],
    }


def per_layer_metrics(passes, traced, probes, recorded_fingerprint):
    """Every per-layer metric of one workload.

    ``passes`` are the untraced sibling passes (with their GC probe),
    ``traced`` the cProfile pass over the first slices, ``probes`` the
    layer-probe rates, ``recorded_fingerprint`` the entry of
    ``fingerprints.json`` for this workload, seed and size (or ``None``).
    """
    first = passes[0]
    wall, _cpu = merged_slices(passes)
    raw_wall = sum(merge_min([p["wall"] for p in passes]))
    wall_all = sum(sum(p["wall"]) for p in passes)
    trace = traced["trace"]
    traced_wall, _cpu = merged_slices([traced])
    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.self_share"] = trace["self_share"][layer]
        metrics[f"{layer}.calls_per_commit"] = trace["calls_per_commit"][layer]
    metrics["host.gc_share"] = sum(p["gc"]["pause_s"] for p in passes) / wall_all
    metrics["host.gc_gen2_count"] = first["gc"]["gen2_count"]
    metrics["host.gc_gen2_pause_ms_max"] = min(
        p["gc"]["gen2_pause_max_ms"] for p in passes
    )
    metrics["host.cpu_over_wall"] = sum(sum(p["cpu"]) for p in passes) / wall_all
    metrics["host.pass_spread"] = pass_spread(passes)
    metrics["host.speed_index"] = statistics.median(
        value for p in passes for value in p["calibration"]
    ) / (CALIBRATION_US * 1e-6)
    metrics["host.raw_wall_us_per_commit"] = raw_wall / sum(first["commits"]) * 1e6
    metrics["harness.trace_overhead_x"] = sum(traced_wall) / sum(
        wall[: len(traced_wall)]
    )
    metrics["harness.slice_us_p50"] = statistics.median(wall) * 1e6
    metrics["harness.slices"] = len(wall)
    metrics["harness.commits"] = sum(first["commits"])
    metrics["isolation.final_check_ms"] = min(p["final_check_ms"] for p in passes)
    for name, value in first["model"].items():
        metrics[f"model.{name}"] = value
    if recorded_fingerprint is None:
        metrics["model.fingerprint_match"] = -1  # nothing recorded to match
    else:
        metrics["model.fingerprint_match"] = int(
            recorded_fingerprint == fingerprint(first)
        )
    metrics.update(probes)
    return metrics


def check_passes(passes):
    """Reasons the sibling passes of one workload fail the run (none = ok)."""
    problems = []
    first = passes[0]
    if any(count <= 0 for count in first["commits"]):
        problems.append("a measured slice committed nothing")
    for index, other in enumerate(passes[1:], start=2):
        for field in ("commits", "aborts", "state_sha"):
            # A shorter (traced) pass must reproduce the slices it ran.
            if field != "state_sha":
                same = other[field] == first[field][: len(other[field])]
            else:
                same = other[field] is None or other[field] == first[field]
            if not same:
                problems.append(f"pass {index} differs from pass 1 in {field}")
    for index, one in enumerate(passes, start=1):
        if one.get("oracle_ok") is False:
            problems.append(f"pass {index}: isolation oracle reported an anomaly")
        if one.get("failed", 0):
            problems.append(f"pass {index}: {one['failed']} operations failed")
    return problems
