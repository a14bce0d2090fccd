"""Profiler for the simulator.

Wall-clock numbers are the perf ledger's job (``benchmarks/ledger/run.py``,
contract ``BENCHMARK.json``) and behaviour is pinned by the stdout goldens
(``tests/test_fault_lane_goldens.py``); this script does what neither does:
``--profile [SCENARIO]`` runs one scenario (default ``tpcc-3layer``)
under cProfile and dumps the stats to ``--profile-out`` (default
``bench_speed.prof``), so perf work starts from data instead of guesses
(inspect with ``python -m pstats bench_speed.prof`` or snakeviz); it
ends with a cyclic-GC summary, the one cost the profile table cannot
show (pauses, full collections, and the objects the collector found
unreachable — the number that exposes a reference cycle), a census of
the tracked objects the run left behind, by owner, and a sampled
self-time table from a second, un-instrumented pass (``SIGPROF``): share
by module and the top lines, GC pauses as their own row.  cProfile
charges per call and books time in C (an ``insort``) to a ``python``
row; a sample books it to the line that called it.  Last comes a
young-generation census: the sampled pass's collections by generation,
and the tracked objects young collections visit per commit, by type (a
short tuple by its items' types), from a third pass.  Scenarios:
``tpcc-3layer`` (Figure 4.6d), ``seats-3layer`` (Figure 4.8),
``micro-2layer`` (the cross-group micro workload), and two of the perf
ledger's cells, built object for object: ``smallbank-durable-checked``
(durable, oracle-checked) and ``ycsb-zipf-batch`` (one deterministic
batch leaf, 64 members in flight).

Usage::

    PYTHONPATH=src python benchmarks/bench_speed.py --profile micro-2layer
"""

import argparse
import cProfile
import gc
import pstats
import signal
import time
import types
from collections import Counter
from pathlib import Path

from repro.core.config import Configuration, leaf
from repro.core.engine import EngineOptions
from repro.harness.configs import WORKLOAD_CONFIGURATIONS, YCSB_TRANSACTIONS
from repro.harness.runner import BenchmarkRunner
from repro.storage.durability import DurabilityConfig
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.seats import SEATSWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload

REPO_ROOT = Path(__file__).resolve().parent.parent


def _profile_scenarios():
    """name -> (workload factory, configuration factory, clients, duration,
    warmup); a sixth element holds the runner keywords that replace the
    default ``EngineOptions()``."""
    return {
        "tpcc-3layer": (
            lambda: TPCCWorkload(warehouses=2),
            WORKLOAD_CONFIGURATIONS["tpcc"]["tebaldi-3layer"],
            40,
            1.0,
            0.2,
        ),
        "seats-3layer": (
            lambda: SEATSWorkload(flights=10),
            WORKLOAD_CONFIGURATIONS["seats"]["3layer"],
            40,
            1.0,
            0.2,
        ),
        "micro-2layer": (
            lambda: CrossGroupConflictWorkload(shared_rows=20, cold_rows=1000, operations=5),
            WORKLOAD_CONFIGURATIONS["micro"]["2layer"],
            40,
            1.0,
            0.2,
        ),
        # The ledger's smallbank-durable-checked, object for object: the one
        # path through recorder, streaming oracle, WAL and precommit.  5
        # warm-up and 120 measured slices of 0.02 sim-s, 20 clients.
        "smallbank-durable-checked": (
            lambda: SmallBankWorkload(customers=500, hot_accounts=50),
            WORKLOAD_CONFIGURATIONS["smallbank"]["3layer"],
            20,
            2.4,
            0.1,
            {
                "options": EngineOptions(durability=DurabilityConfig(enabled=True)),
                "check_isolation": True,
            },
        ),
        # The ledger's ycsb-zipf-batch, object for object: short hot-key
        # transactions under one batch leaf whose batches fill by size.  5
        # warm-up and 120 measured slices of 0.005 sim-s, 64 clients.
        "ycsb-zipf-batch": (
            lambda: YCSBWorkload(
                records=100, profile="a", distribution="zipfian", zipf_theta=0.99
            ),
            lambda: Configuration(
                leaf(
                    "batch",
                    *YCSB_TRANSACTIONS,
                    params={"batch_size": 16, "batch_window": 0.002},
                ),
                name="ycsb-batch-tuned",
            ),
            64,
            0.6,
            0.025,
        ),
    }


class GcPauses:
    """Cyclic-GC pauses of a run, through ``gc.callbacks``.

    cProfile cannot see them: a pause is booked to whatever function was
    allocating when the collector ran.
    """

    def __init__(self):
        self.total = 0.0
        self.gen2_count = 0
        self.gen2_max = 0.0
        self.collected = 0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.total += pause
        self.collected += info["collected"]
        if info["generation"] == 2:
            self.gen2_count += 1
            self.gen2_max = max(self.gen2_max, pause)


#: CPU seconds between two samples of the sampled pass.
SAMPLE_INTERVAL = 0.001
GC_ROW = "(cyclic-GC pauses)"


class SelfTimeSampler:
    """CPU self time by source line, sampled on ``SIGPROF``: no per-call cost.

    Each sample weighs the CPU time since the previous one, so a signal held
    back by a long C call or a collection still counts in full.  A signal
    raised during a collection is delivered in the next Python frame to run,
    the sampler's own GC callback: that sample is booked to ``GC_ROW``.
    """

    def __init__(self):
        self.self_time = Counter()
        self.passes = Counter()
        self._last = 0.0

    def _gc_landing(self, phase, info):
        """A Python frame for a signal raised inside a collection to land in;
        it also counts the collections by generation."""
        if phase == "start":
            self.passes[info["generation"]] += 1

    def _sample(self, _signum, frame):
        now = time.process_time()
        if frame is None or frame.f_code is SelfTimeSampler._gc_landing.__code__:
            where = GC_ROW
        else:
            code = frame.f_code
            where = (code.co_filename, frame.f_lineno or code.co_firstlineno, code.co_name)
        self.self_time[where] += now - self._last
        self._last = now

    def run(self, call):
        """``call()`` under the sampler; returns what it returns."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        gc.callbacks.append(self._gc_landing)
        self._last = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL, SAMPLE_INTERVAL)
        try:
            return call()
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            gc.callbacks.remove(self._gc_landing)
            signal.signal(signal.SIGPROF, previous)

    def print_table(self, modules=12, lines=15):
        total = sum(self.self_time.values()) or 1.0

        def module_of(filename):
            index = filename.rfind("/src/repro/")
            if index >= 0:
                return filename[index + len("/src/repro/"):]
            return Path(filename).name

        by_module, by_line = Counter(), Counter()
        for where, spent in self.self_time.items():
            if where == GC_ROW:
                module = line = GC_ROW
            else:
                filename, lineno, function = where
                module = module_of(filename)
                line = f"{module}:{lineno} {function}"
            by_module[module] += spent
            by_line[line] += spent
        print(
            f"\nsampled self time (second pass, no profiler; SIGPROF every "
            f"{SAMPLE_INTERVAL * 1e3:g} ms of CPU, {total:.2f} s CPU):"
        )
        print("  by module:")
        for label, spent in by_module.most_common(modules):
            print(f"    {spent / total:6.1%}  {label}")
        print("  top lines:")
        for label, spent in by_line.most_common(lines):
            print(f"    {spent / total:6.1%}  {label}")


def _young_label(obj):
    """A type name; a short tuple also names its items' types, because keys,
    lock holders and records are all tuples."""
    if type(obj) is tuple and len(obj) <= 3:
        return "(" + ", ".join(type(item).__name__ for item in obj) + ")"
    return type(obj).__name__


class YoungCensus:
    """What the young collections of a run visit, through ``gc.callbacks``:
    every object in generation 0 when a generation-0 collection starts, by
    :func:`_young_label`.  The sampled table shows the collector as one row
    and cannot say who feeds it; this can."""

    def __init__(self):
        self.visited = Counter()

    def __call__(self, phase, info):
        if phase == "start" and info["generation"] == 0:
            self.visited.update(map(_young_label, gc.get_objects(generation=0)))


#: Objects the census counts but does not walk through: a class, module,
#: function or suspended frame reaches the whole process.
_CENSUS_OPAQUE = (
    type,
    types.ModuleType,
    types.FunctionType,
    types.BuiltinFunctionType,
    types.GeneratorType,
    types.FrameType,
    types.CodeType,
)


def census_by_owner(runner):
    """GC-tracked objects outside the frozen heap, by who holds them.

    Walks ``gc.get_referents`` from named roots — through frozen and
    untracked objects, which may still lead to tracked ones — and books
    every unfrozen tracked object to the first root that reaches it; the
    runner, engine and environment are hubs that reach everything and are
    not walked, and a walk stops at another owner's root (a finished
    transaction reaches every CC node of its route, and through them the
    whole tree: their lock records and maps are theirs, not
    ``engine.finished``'s).  A by-type count cannot say that the largest
    owner of plain dicts, lists and tuples is the log; this can.
    """
    unfrozen = {id(obj) for obj in gc.get_objects()}
    total = len(unfrozen)
    engine, recorder = runner.engine, runner.recorder
    roots = []
    if recorder is not None:
        if recorder._records is not None:
            roots.append(("recorder records", recorder._records))
        roots.append(("cycle detector", recorder.streaming_checker.detector))
        roots.append(("streaming checker", recorder.streaming_checker))
        roots.append(("recorder, the rest", recorder))
    roots.append(("durability manager", runner.manager))
    roots.append(("store", runner.store))
    roots.append(("engine.finished", engine.finished))
    roots.extend(
        (f"cc node {node.node_id}", node.cc if node.instances is None else node.instances)
        for node in engine.nodes
    )
    seen = {id(runner), id(engine), id(engine.env)}
    root_ids = {id(root) for _owner, root in roots}
    counts = {}
    for owner, root in roots:
        count = 0
        stack = [root]
        while stack:
            obj = stack.pop()
            if id(obj) in seen or (id(obj) in root_ids and obj is not root):
                continue
            seen.add(id(obj))
            count += id(obj) in unfrozen
            if not isinstance(obj, _CENSUS_OPAQUE):
                stack.extend(gc.get_referents(obj))
        counts[owner] = count
    counts["unattributed"] = total - sum(counts.values())
    return total, counts


def _scenario_runner(spec):
    workload_factory, config_factory, _clients, _duration, _warmup, *runner_kwargs = spec
    return BenchmarkRunner(
        workload_factory(),
        config_factory(),
        seed=7,
        **(runner_kwargs[0] if runner_kwargs else {"options": EngineOptions()}),
    )


def profile_scenario(name, spec, output_path):
    """Run one scenario under cProfile and dump the stats to a file.

    Ends with what cProfile has no row for: the collector's share of the
    run, its full collections, the tracked objects the run left outside
    the heap the runner froze, by owner, the sampled self-time table of
    a second run of the scenario without the profiler, and a young-generation
    census: that run's collections by generation, and from a third run (no
    warm-up split) the tracked objects its young collections visited per
    commit, by type.
    """
    _workload, _config, clients, duration, warmup, *_ = spec
    runner = _scenario_runner(spec)
    profiler = cProfile.Profile()
    pauses = GcPauses()
    gc.callbacks.append(pauses)
    try:
        start = time.perf_counter()
        profiler.enable()
        result = runner.run(clients, duration=duration, warmup=warmup)
        profiler.disable()
        wall = time.perf_counter() - start
        tracked, owners = census_by_owner(runner)
    finally:
        gc.callbacks.remove(pauses)
        runner.stop()
    profiler.dump_stats(output_path)
    print(f"{name}: {result.commits} commits; profile written to {output_path}")
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(15)
    print("not in the table above (cProfile books a GC pause to whoever was allocating):")
    print(f"  cyclic-GC pauses: {pauses.total:.2f}s of {wall:.2f}s wall ({pauses.total / wall:.0%})")
    print(f"  full (gen-2) collections: {pauses.gen2_count}, largest {pauses.gen2_max * 1e3:.0f} ms")
    print(f"  objects the collector found unreachable (reference cycles): {pauses.collected:,}")
    print(f"  GC-tracked objects outside the frozen heap at the end: {tracked:,}")
    for owner, count in sorted(owners.items(), key=lambda item: -item[1]):
        if count:
            print(f"    {count:>9,}  {owner}")
    sampler = SelfTimeSampler()
    runner = _scenario_runner(spec)
    try:
        sampler.run(lambda: runner.run(clients, duration=duration, warmup=warmup))
    finally:
        runner.stop()
    sampler.print_table()
    census = YoungCensus()
    runner = _scenario_runner(spec)
    gc.callbacks.append(census)
    try:
        runner.run(clients, duration=warmup + duration, warmup=0.0)
        commits = runner.engine.stats.commits
    finally:
        gc.callbacks.remove(census)
        runner.stop()
    young, middle, full = (sampler.passes[generation] for generation in range(3))
    print(
        f"\nyoung-generation census: the sampled pass made {young} young, "
        f"{middle} middle and {full} full collections"
    )
    print(f"  tracked objects young collections visited per commit (third pass, {commits} commits):")
    for label, count in census.visited.most_common(8):
        print(f"    {count / commits:7.1f}  {label}")
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--profile",
        nargs="?",
        const="tpcc-3layer",
        choices=sorted(_profile_scenarios()),
        metavar="SCENARIO",
        required=True,
        help="cProfile one scenario (default tpcc-3layer) and dump the stats",
    )
    parser.add_argument(
        "--profile-out",
        default=str(REPO_ROOT / "bench_speed.prof"),
        help="where --profile writes its stats file",
    )
    args = parser.parse_args(argv)

    profile_scenario(args.profile, _profile_scenarios()[args.profile], args.profile_out)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
