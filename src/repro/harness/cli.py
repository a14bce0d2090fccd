"""Checked-run command line: benchmark any workload × CC tree with the oracle in the loop.

``python -m repro.harness`` builds a closed-loop run for a workload and one
or more named CC-tree configurations, measures throughput, and — unless
``--no-check`` is given — streams the committed history into the Adya
isolation checker and fails (exit code 1) on any aborted read, intermediate
read or DSG cycle.  Every workload × configuration × client-count cell is
checked independently, so a violation pinpoints the offending combination.

Cells are independent fresh-database runs, so they execute in parallel
across ``--workers`` processes (default: every available CPU); each cell's
RNG seed is derived from ``(--seed, workload, configuration, clients)``,
so results are identical whatever the worker count or completion order.

Examples::

    python -m repro.harness --list
    python -m repro.harness --workload smallbank --clients 20 --duration 1
    python -m repro.harness --workload tpcc --config tebaldi-3layer --clients 10 20 40
    python -m repro.harness --workload ycsb --ycsb-profile e --quick
    python -m repro.harness --all --quick --workers 4
    python -m repro.harness --workload queue --faults 1 --quick
    python -m repro.harness --all --faults 2 --quick
    python -m repro.harness --workload queue --net-faults 4 --quick
    python -m repro.harness --all --net-faults 2 --quick
"""

import argparse
import hashlib
import json
import sys
from functools import partial
from types import SimpleNamespace

from repro.harness import crash, degraded
from repro.harness.configs import CHAOS_CELLS, CRASH_CELLS, WORKLOAD_CONFIGURATIONS
from repro.harness.parallel import available_workers, derive_point_seed, run_tasks
from repro.harness.report import format_run_results
from repro.harness.runner import BenchmarkRunner
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.seats import SEATSWorkload
from repro.workloads.smallbank import SmallBankWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.ycsb import YCSBWorkload


def build_workload(name, ycsb_profile="a"):
    """Construct a workload at the CLI's laptop-scale defaults."""
    if name == "tpcc":
        return TPCCWorkload(warehouses=2)
    if name == "tpcc-scan":
        return TPCCWorkload(warehouses=2, include_payment_by_name=True)
    if name == "seats":
        return SEATSWorkload(flights=10)
    if name == "micro":
        return CrossGroupConflictWorkload(shared_rows=20, cold_rows=1000, operations=5)
    if name == "smallbank":
        return SmallBankWorkload(customers=500, hot_accounts=10)
    if name == "ycsb":
        return YCSBWorkload(records=1000, profile=ycsb_profile)
    if name == "ycsb-zipf":
        # The larger-keyspace zipfian preset (YCSB's native distribution).
        return YCSBWorkload(
            records=2000, profile=ycsb_profile,
            distribution="zipfian", zipf_theta=0.9,
        )
    if name == "ycsb-scan":
        # The scan-heavy profile pinned to E: 95% range scans racing 5%
        # inserts, the phantom-bearing cell for the scan-aware CC trees.
        return YCSBWorkload(records=1000, profile="e")
    if name == "queue":
        return QueueWorkload(initial_messages=6, window=8)
    raise ValueError(f"unknown workload {name!r}")


def list_registry(out=print):
    out("workload × configuration registry:")
    for workload, configurations in sorted(WORKLOAD_CONFIGURATIONS.items()):
        out(f"  {workload}: {', '.join(sorted(configurations))}")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="python -m repro.harness",
        description=__doc__.splitlines()[0],
    )
    parser.add_argument(
        "--workload",
        choices=sorted(WORKLOAD_CONFIGURATIONS),
        help="workload to run (see --list for the registry)",
    )
    parser.add_argument(
        "--all", action="store_true",
        help="run every workload × configuration in the registry",
    )
    parser.add_argument(
        "--config",
        action="append",
        default=None,
        help="configuration name(s); repeatable; default: every registered tree",
    )
    # --quick fixes the client count, so it and --clients exclude each other.
    sizing = parser.add_mutually_exclusive_group()
    sizing.add_argument(
        "--clients", type=int, nargs="+", default=[20],
        help="closed-loop client count(s); several values form a sweep",
    )
    parser.add_argument("--duration", type=float, default=1.0, help="measured virtual seconds")
    parser.add_argument("--warmup", type=float, default=0.2, help="warmup virtual seconds")
    parser.add_argument(
        "--seed", type=int, default=7,
        help="base seed; each cell derives its own from (seed, workload, config, clients)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes for independent cells (default: all available CPUs)",
    )
    parser.add_argument(
        "--no-check", action="store_true",
        help="skip the isolation oracle (pure speed run)",
    )
    parser.add_argument(
        "--ycsb-profile", choices=("a", "b", "e"), default="a",
        help="YCSB operation mix (read/update, read-heavy, scan-heavy)",
    )
    parser.add_argument(
        "--faults", type=int, default=0, metavar="N",
        help=(
            "crash-enabled mode: inject N seeded crashes per cell (durability "
            "on, WAL recovery between incarnations, oracle spanning the "
            "crash); restricted to the crash-enabled registry"
        ),
    )
    parser.add_argument(
        "--net-faults", type=int, default=0, metavar="N",
        help=(
            "degraded mode: inject N seeded message faults per cell (drops, "
            "delay spikes, duplicates, reorders, partition-and-heal; "
            "timeout/retry/backoff on every protocol exchange, oracle "
            "spanning the fault window); restricted to the chaos registry"
        ),
    )
    sizing.add_argument(
        "--quick", action="store_true",
        help="tiny smoke run: 8 clients, 0.3s measured, 0.1s warmup "
        "(--faults / --net-faults: 0.5s measured, no warmup)",
    )
    parser.add_argument("--list", action="store_true", help="print the registry and exit")
    return parser


def _run_plain(workload, configuration, clients, duration, warmup, raise_on_violation, **kwargs):
    """One plain cell; ``extra["state"]`` is the SHA-256 of its final committed state."""
    runner = BenchmarkRunner(workload, configuration, **kwargs)
    try:
        result = runner.run(clients, duration, warmup, raise_on_violation=raise_on_violation)
        state = runner.store.latest_state()
        pairs = sorted((repr(key), repr(value)) for key, value in state.items())
        result.extra["state"] = hashlib.sha256(json.dumps(pairs).encode()).hexdigest()
    finally:
        runner.stop()
    return result


def _describe_plain(result):
    """CLI text of one plain cell: ``(problem, headline, detail)``."""
    report = result.extra.get("isolation")
    problem = None
    if report is None:
        status = "unchecked"
    elif report.ok:
        status = f"isolation OK ({report.num_transactions} txns, {report.num_edges} edges)"
    else:
        problem = report.describe()
        status = "ISOLATION VIOLATION: " + problem
    headline = f"{result.throughput:.0f} txn/s, abort={result.abort_rate:.1%} — {status}"
    return problem, f"{headline}; state {result.extra['state'][:12]}", None


def _select_mode(args):
    """What the selected lane changes about a sweep: the cell registry, the
    run helper, the (duration, warmup) sizes and the report texts."""
    level = "at level='serializable'"  # the one level the oracle checks
    lane_sizes = (0.5 if args.quick else args.duration, 0.0)
    if args.faults:
        return SimpleNamespace(
            flag="--faults",
            cells=CRASH_CELLS,
            run=partial(crash.run_crash_benchmark, crashes=args.faults),
            sizes=lane_sizes,
            describe=crash.describe,
            failure="crash-cell violation(s)",
            verdict="crash-enabled checked runs passed the cross-crash oracle " + level,
        )
    if args.net_faults:
        # With room for two or more fault points, pin the two acceptance
        # scenarios — at least one drop-with-retry and one
        # partition-and-heal window — into every cell's plan.
        require = ("drop", "partition") if args.net_faults >= 2 else ("drop",)
        return SimpleNamespace(
            flag="--net-faults",
            cells=CHAOS_CELLS,
            run=partial(
                degraded.run_degraded_benchmark, faults=args.net_faults, require=require
            ),
            sizes=lane_sizes,
            describe=degraded.describe,
            failure="degraded-cell violation(s)",
            verdict="degraded-mode checked runs passed the oracle and the "
            "exactly-once/durability checks " + level,
        )
    return SimpleNamespace(
        flag=None,
        cells={name: sorted(trees) for name, trees in WORKLOAD_CONFIGURATIONS.items()},
        run=partial(_run_plain, check_isolation=not args.no_check),
        sizes=(0.3, 0.1) if args.quick else (args.duration, args.warmup),
        describe=_describe_plain,
        failure="isolation violation(s)",
        verdict="checked runs passed the isolation oracle " + level,
    )


def _make_cell_task(args, mode, workload_name, config_name, clients):
    def cell():
        workload = build_workload(workload_name, ycsb_profile=args.ycsb_profile)
        configuration = WORKLOAD_CONFIGURATIONS[workload_name][config_name]()
        seed = derive_point_seed(args.seed, workload_name, config_name, clients)
        duration, warmup = mode.sizes
        return mode.run(
            workload,
            configuration,
            clients=clients,
            duration=duration,
            warmup=warmup,
            seed=seed,
            raise_on_violation=False,
        )
    return cell


def _run_cells(args, parser, mode):
    """Sweep the mode's registry slice and report every cell."""
    workload_names = sorted(mode.cells) if args.all else [args.workload]
    cells = []
    for workload_name in workload_names:
        configurations = WORKLOAD_CONFIGURATIONS[workload_name]
        config_names = (args.config if not args.all else None) or list(
            mode.cells[workload_name]
        )
        unknown = [name for name in config_names if name not in configurations]
        if unknown:
            parser.error(
                f"unknown configuration(s) {unknown} for {workload_name}; "
                f"available: {sorted(configurations)}"
            )
        for config_name in config_names:
            for clients in args.clients if not args.quick else [8]:
                cells.append((workload_name, config_name, clients))

    workers = args.workers if args.workers is not None else available_workers()
    tasks = [_make_cell_task(args, mode, *cell) for cell in cells]
    results = run_tasks(tasks, workers=workers)

    failures = []
    for (workload_name, config_name, clients), result in zip(cells, results):
        problem, headline, detail = mode.describe(result)
        print(f"{workload_name}/{config_name} clients={clients}: {headline}")
        if detail:
            print(f"    {detail}")
        if problem:
            failures.append((workload_name, config_name, clients, problem))

    if mode.flag is None:
        print()
        print(format_run_results(results))
    if failures:
        print(f"\n{len(failures)} {mode.failure}:", file=sys.stderr)
        for workload_name, config_name, clients, problem in failures:
            print(
                f"  {workload_name}/{config_name} clients={clients}: {problem}",
                file=sys.stderr,
            )
        return 1
    if not args.no_check:
        print(f"\nall {len(results)} {mode.verdict}")
    return 0


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list:
        list_registry()
        return 0
    if args.workload is None and not args.all:
        parser.error("--workload is required (or use --all / --list)")
    if args.all and args.workload:
        parser.error("--all sweeps every workload; drop --workload (or drop --all)")
    if args.all and args.config:
        parser.error("--config only applies to a single --workload; drop it with --all")
    if args.workers is not None and args.workers < 1:
        parser.error(f"--workers must be a positive integer, got {args.workers}")
    bad_clients = [clients for clients in args.clients if clients < 1]
    if bad_clients:
        parser.error(f"--clients must be positive integers, got {bad_clients}")
    if args.duration <= 0:
        parser.error(f"--duration must be positive, got {args.duration}")
    if args.warmup < 0:
        parser.error(f"--warmup must be non-negative, got {args.warmup}")
    for flag, count in (("--faults", args.faults), ("--net-faults", args.net_faults)):
        if count < 0:
            parser.error(f"{flag} must be a non-negative integer, got {count}")
    if args.faults and args.net_faults:
        parser.error(
            "--faults (crashes) and --net-faults (message faults) are "
            "separate modes; pick one per invocation"
        )
    mode = _select_mode(args)
    if mode.flag:
        if args.no_check:
            parser.error(f"{mode.flag} needs the oracle in the loop; drop --no-check")
        if args.workload is not None and args.workload not in mode.cells:
            parser.error(
                f"{mode.flag} is registered for {sorted(mode.cells)}; "
                f"got --workload {args.workload}"
            )
    return _run_cells(args, parser, mode)


if __name__ == "__main__":
    raise SystemExit(main())
