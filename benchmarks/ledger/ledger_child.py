"""One pass of one ledger workload (or the layer probes), in this process.

``run.py`` starts this file as ``python3 ledger_child.py '<json spec>'``,
one process at a time, and reads one JSON object from the last line of its
standard output.  A fresh process per pass gives every pass the same heap,
the same warm-up and an honest ``ru_maxrss``; ``setup_s`` counts from the
first statement below, before ``repro`` is imported.
"""

import time

_CHILD_START = time.perf_counter()

import cProfile  # noqa: E402 - the clock above must start first
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
REPO_SRC = HERE.parent.parent / "src"

import ledger_lib as lib  # noqa: E402 - sibling file; HERE is sys.path[0]


def build_runner(name, seed):
    """The registry objects behind a workload name (imports repro)."""
    from repro.core.config import Configuration, leaf
    from repro.core.engine import EngineOptions
    from repro.harness import configs
    from repro.harness.runner import BenchmarkRunner
    from repro.storage.durability import DurabilityConfig
    from repro.workloads.smallbank import SmallBankWorkload
    from repro.workloads.tpcc import TPCCWorkload
    from repro.workloads.ycsb import YCSBWorkload

    options = EngineOptions()
    checked = False
    if name == "tpcc-3layer":
        workload = TPCCWorkload(warehouses=2)
        configuration = configs.tpcc_tebaldi_3layer()
    elif name == "ycsb-zipf-batch":
        workload = YCSBWorkload(
            records=100, profile="a", distribution="zipfian", zipf_theta=0.99
        )
        # The tuned leaf of bench_batch_zipf_contention: batches fill by size.
        configuration = Configuration(
            leaf(
                "batch",
                *configs.YCSB_TRANSACTIONS,
                params={"batch_size": 16, "batch_window": 0.002},
            ),
            name="ycsb-batch-tuned",
        )
    elif name == "ycsb-scan-2layer":
        workload = YCSBWorkload(records=1000, profile="e")
        configuration = configs.ycsb_2layer()
    elif name == "smallbank-durable-checked":
        workload = SmallBankWorkload(customers=500, hot_accounts=50)
        configuration = configs.smallbank_3layer()
        options = EngineOptions(durability=DurabilityConfig(enabled=True))
        checked = True
    else:
        raise SystemExit(f"unknown workload {name!r}")
    return BenchmarkRunner(
        workload, configuration, options=options, seed=seed, check_isolation=checked
    )


class GcProbe:
    """Sums cyclic-GC pause time through ``gc.callbacks``.

    cProfile cannot see these pauses: they land on whatever function was
    allocating when the collector ran.
    """

    def __init__(self):
        self.pause_s = 0.0
        self.gen2_count = 0
        self.gen2_pause_max_s = 0.0
        self._started = 0.0

    def __call__(self, phase, info):
        if phase == "start":
            self._started = time.perf_counter()
            return
        pause = time.perf_counter() - self._started
        self.pause_s += pause
        if info["generation"] == 2:
            self.gen2_count += 1
            if pause > self.gen2_pause_max_s:
                self.gen2_pause_max_s = pause


CALIBRATION_ITERATIONS = 1200


def calibrate(buffer):
    """The calibration loop: fixed interpreter-bound work, about 0.1 ms.

    Timed after every tick, it says how fast this box is running Python at
    that moment (lib.at_reference_speed).  It allocates nothing the cyclic
    collector tracks, so it does not move the simulation's GC schedule.
    """
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc = (acc + buffer[i & 63] * i) & 0xFFFF
        buffer[i & 63] = acc
    return acc


def timed_lap(buffer):
    start = time.perf_counter()
    calibrate(buffer)
    return time.perf_counter() - start


def plant_spin(spin_us):
    """--selfcheck: make every commit cost ``spin_us`` more, in ``core``.

    The spin is the calibration loop's own body, so it is ``spin_us`` at
    reference speed however fast the box happens to run, and it stays
    inline so that cProfile books it to the wrapper itself.
    """
    from repro.core.stats import StatsCollector

    original = StatsCollector.record_commit
    iterations = round(spin_us * CALIBRATION_ITERATIONS / lib.CALIBRATION_US)
    buffer = list(range(64))

    # Named as lib.PLANTED_SPIN; the defaults make the loop's operands fast
    # locals, as they are in calibrate().
    def planted_spin_record_commit(self, txn, buffer=buffer, iterations=iterations):
        acc = 0
        for i in range(iterations):
            acc = (acc + buffer[i & 63] * i) & 0xFFFF
            buffer[i & 63] = acc
        return original(self, txn)

    StatsCollector.record_commit = planted_spin_record_commit


def state_sha(store):
    """Digest of the final committed state (the bench_speed fingerprint)."""
    digest = hashlib.sha256()
    for item in sorted((repr(k), repr(v)) for k, v in store.latest_state().items()):
        digest.update(repr(item).encode())
    return digest.hexdigest()


def trace_summary(profile, commits, trace_out, header):
    """Bucket cProfile entries by layer; write every entry out as a span."""
    profile.create_stats()
    self_s = dict.fromkeys(lib.LAYERS, 0.0)
    calls = dict.fromkeys(lib.LAYERS, 0)
    spans = []

    def label(func):
        filename, line, name = func
        index = filename.replace("\\", "/").rfind("/src/repro/")
        short = filename[index + len("/src/"):] if index >= 0 else Path(filename).name
        return f"{short}:{line}:{name}"

    for func, (prim_calls, n_calls, tottime, cumtime, callers) in profile.stats.items():
        layer = lib.layer_of(func[0], func[2])
        self_s[layer] += tottime
        calls[layer] += n_calls
        spans.append(
            {
                "fn": label(func),
                "layer": layer,
                "calls": n_calls,
                "primitive_calls": prim_calls,
                "self_s": tottime,
                "inclusive_s": cumtime,
                "callers": {
                    label(caller): {"calls": row[0], "self_s": row[2], "inclusive_s": row[3]}
                    for caller, row in callers.items()
                },
            }
        )
    total = sum(self_s.values())
    spans.sort(key=lambda span: span["self_s"], reverse=True)
    trace_out = Path(trace_out)
    trace_out.parent.mkdir(parents=True, exist_ok=True)
    with trace_out.open("w") as handle:
        json.dump(
            dict(header, commits=commits, traced_total_s=total, spans=spans), handle
        )
    return {
        "self_share": {layer: self_s[layer] / total for layer in lib.LAYERS},
        "calls_per_commit": {layer: calls[layer] / commits for layer in lib.LAYERS},
    }


def run_pass(spec):
    """Build, warm up, then time ``slices`` fixed sim-time slices."""
    name = spec["workload"]
    facts = lib.WORKLOADS[name]
    slice_s = facts["slice_s"]
    slices = spec["slices"]
    traced = bool(spec.get("trace_out"))

    runner = build_runner(name, spec["seed"])
    if spec.get("spin_us"):
        plant_spin(spec["spin_us"])
    runner.add_clients(facts["clients"])
    runner.run_additional(lib.WARMUP_SLICES * slice_s)
    stats = runner.engine.stats
    stats.reset()
    probe = GcProbe()
    profile = cProfile.Profile() if traced else None
    wall, cpu, calibration, commits, aborts = [], [], [], [], []
    buffer = list(range(64))
    seen_commits = seen_aborts = 0
    gc.callbacks.append(probe)
    setup_s = time.perf_counter() - _CHILD_START

    tick_s = slice_s / lib.TICKS_PER_SLICE
    for _ in range(slices):
        for _ in range(lib.TICKS_PER_SLICE):
            cpu_0 = time.process_time()
            wall_0 = time.perf_counter()
            if profile is not None:
                profile.enable()
            runner.run_additional(tick_s)
            if profile is not None:
                profile.disable()
            wall.append(time.perf_counter() - wall_0)
            cpu.append(time.process_time() - cpu_0)
            calibration.append(timed_lap(buffer))
        commits.append(stats.commits - seen_commits)
        aborts.append(stats.aborts - seen_aborts)
        seen_commits, seen_aborts = stats.commits, stats.aborts

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    gc.callbacks.remove(probe)
    summary = stats.summary()
    result = {
        "setup_s": setup_s,
        "wall": wall,
        "cpu": cpu,
        "calibration": calibration,
        "commits": commits,
        "aborts": aborts,
        "failed": 0,  # a client that raises anything else crashes this child
        "peak_rss_mb": peak_rss_mb,
        "model": {
            "sim_tps": summary["throughput"],
            "abort_rate": summary["abort_rate"],
            "mean_latency_ms": summary["mean_latency"] * 1e3,
        },
        "gc": {
            "pause_s": probe.pause_s,
            "gen2_count": probe.gen2_count,
            "gen2_pause_max_ms": probe.gen2_pause_max_s * 1e3,
        },
        "state_sha": None,
        "final_check_ms": 0.0,
    }
    if runner.recorder is not None:
        check_0 = time.perf_counter()
        report = runner.check_isolation()
        result["final_check_ms"] = (time.perf_counter() - check_0) * 1e3
        result["oracle_ok"] = report.ok
    if traced:
        header = {"workload": name, "seed": spec["seed"], "slices": slices}
        result["trace"] = trace_summary(
            profile, sum(commits), spec["trace_out"], header
        )
    else:
        result["state_sha"] = state_sha(runner.store)
    runner.stop()
    return result


# -- layer probes: public functions in a loop, no engine -----------------------


def _rate(operations, body, repeats=5):
    """Best ops/s of ``repeats`` runs of ``body``, at reference speed."""
    buffer = list(range(64))
    best = float("inf")
    for _ in range(repeats):
        laps = [timed_lap(buffer) for _ in range(9)]
        start = time.perf_counter()
        body()
        elapsed = time.perf_counter() - start
        laps += [timed_lap(buffer) for _ in range(9)]
        speed = lib.CALIBRATION_US * 1e-6 / statistics.median(laps)
        best = min(best, elapsed * speed)
    return operations / best


def run_probes():
    from types import SimpleNamespace

    from repro.cc.locks import EXCLUSIVE, LockTable
    from repro.core.transaction import Transaction
    from repro.isolation.cycles import IncrementalCycleDetector
    from repro.sim.environment import Environment
    from repro.storage.durability import DurabilityConfig, DurabilityManager
    from repro.storage.mvstore import MultiVersionStore

    rates = {}

    def sim_events():
        env = Environment()

        def ticker():
            for _ in range(300):
                yield env.timeout(0.001)

        for _ in range(64):
            env.process(ticker())
        env.run()

    rates["probe.sim.events_per_s"] = _rate(64 * 300, sim_events)

    def locks():
        table = LockTable(Environment())
        for txn_id in range(1, 3001):
            txn = Transaction(txn_id, "probe")
            for key in range(8):
                table.request(txn, ("t", (txn_id + key) % 512), EXCLUSIVE)
            table.release_all(txn)

    rates["probe.cc.locks.ops_per_s"] = _rate(3000 * 9, locks)

    def install():
        store = MultiVersionStore()
        for txn_id in range(1, 5001):
            txn = Transaction(txn_id, "probe")
            for key in range(4):
                store.install(("t", (txn_id * 4 + key) % 1000), txn_id, txn)
            store.commit_transaction(txn, timestamp=txn_id)

    rates["probe.store.install_per_s"] = _rate(5000 * 4, install)

    store = MultiVersionStore()
    for key in range(1000):
        store.load(("t", key), 0)
    for depth in range(1, 8):
        txn = Transaction(depth, "probe")
        for key in range(1000):
            store.install(("t", key), depth, txn)
        store.commit_transaction(txn, timestamp=depth * 10)

    def read():
        lookup = store.latest_committed_before
        for index in range(60_000):
            lookup(("t", index % 1000), (index % 8) * 10 + 5)

    rates["probe.store.read_per_s"] = _rate(60_000, read)

    def range_keys():
        scan = store.range_keys
        for index in range(30_000):
            lo = index % 990
            scan("t", lo, lo + 9)

    rates["probe.store.range_keys_per_s"] = _rate(30_000, range_keys)

    def edges():
        detector = IncrementalCycleDetector()
        add = detector.add_edge
        for node in range(20_000):
            # Forward edges keep the order; 1 in 66 points backwards over a
            # gap nothing reaches across, so it reorders without a cycle.
            if node % 66 == 65:
                add(node, node - 33)
            else:
                add(node, node + 66)

    rates["probe.isolation.edges_per_s"] = _rate(20_000, edges)

    def precommit():
        manager = DurabilityManager(DurabilityConfig(enabled=True))
        for txn_id in range(1, 8001):
            txn = SimpleNamespace(txn_id=txn_id)
            manager.precommit(txn, [(("t", txn_id % 500), txn_id), (("u", txn_id % 97), 1)])

    rates["probe.durability.precommit_per_s"] = _rate(8000, precommit)
    return {"probes": rates}


def main(argv):
    spec = json.loads(argv[1])
    if not (REPO_SRC / "repro").is_dir():
        # Never fall back to a repro that happens to be installed elsewhere.
        raise SystemExit(f"the program under test is missing: no {REPO_SRC / 'repro'}")
    sys.path.insert(0, str(REPO_SRC))
    result = run_probes() if spec["kind"] == "probes" else run_pass(spec)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv))
