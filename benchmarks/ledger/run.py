#!/usr/bin/env python3
"""The perf ledger: host cost per simulated commit, end to end and by layer.

One command measures four fixed closed-loop workloads of the simulator and
prints every metric of ``BENCHMARK.json`` by name with its unit; README.md
beside this file explains the method and how to read the numbers.

    python3 benchmarks/ledger/run.py                   # all four, everything
    python3 benchmarks/ledger/run.py --quick           # < 20 s smoke
    python3 benchmarks/ledger/run.py --workload tpcc-3layer --seed 3 \\
        --seconds 20 --trace 0                         # one contract run
    python3 benchmarks/ledger/run.py --repeat-check    # two sets agree?
    python3 benchmarks/ledger/run.py --selfcheck       # sees a planted 25 %?
    python3 benchmarks/ledger/run.py --record          # append history.jsonl

Every pass runs in a fresh child process (``ledger_child.py``), one at a
time; this file only schedules passes, merges them and checks them.  Exit
code 0 = measured and correct, 1 = a check failed, 2 = a child crashed or
timed out (its stderr is shown) or the arguments were wrong.
"""

import argparse
import datetime
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import ledger_lib as lib  # sibling file: the script's directory is sys.path[0]

HERE = Path(__file__).resolve().parent
CHILD = HERE / "ledger_child.py"
OUT = HERE / "out"
FINGERPRINTS = HERE / "fingerprints.json"
HISTORY = HERE / "history.jsonl"
CHILD_TIMEOUT_S = 120
SELFCHECK_SHARE = 0.25
SELFCHECK_TOLERANCE = 0.10


class ChildFailed(Exception):
    """A pass produced no result; the message carries the child's stderr."""


def run_child(spec):
    """Run one child to completion and return the JSON object it printed."""
    what = spec.get("workload", spec["kind"])
    # A fixed hash seed keeps set/dict-of-str iteration, and so the exact
    # call counts of the traced pass, the same in every child.
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        done = subprocess.run(
            [sys.executable, str(CHILD), json.dumps(spec)],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            env=env,
        )
    except subprocess.TimeoutExpired as exc:
        stderr = exc.stderr.decode() if isinstance(exc.stderr, bytes) else exc.stderr
        raise ChildFailed(
            f"{what}: no result within {CHILD_TIMEOUT_S} s\n{stderr or ''}"
        ) from None
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise ChildFailed(f"{what}: child exited with {done.returncode}\n{done.stderr}")
    return json.loads(lines[-1])


def measure(workloads, seed, slices, passes, trace_slices=0, spin_us=None, tag=""):
    """One set of runs: ``{workload: {"passes": [...], "traced": ...}}``, probes.

    Passes are interleaved round-robin over the workloads (W1..W4, W1..W4,
    ...): the box has slow phases lasting seconds, and sibling passes of one
    workload that are a whole round apart rarely meet the same phase at the
    same slice.  The cProfile passes and the probes follow, when asked for.
    """
    spin_us = spin_us or {}
    specs = {
        name: {
            "kind": "pass",
            "workload": name,
            "seed": seed,
            "slices": slices,
            "spin_us": spin_us.get(name, 0.0),
        }
        for name in workloads
    }
    runs = {name: {"passes": [], "traced": None} for name in workloads}
    for index in range(passes):
        for name in workloads:
            print(f"  pass {index + 1}/{passes} {name}{tag}", file=sys.stderr)
            runs[name]["passes"].append(run_child(specs[name]))
    probes = None
    if trace_slices:
        for name in workloads:
            print(f"  traced pass {name}{tag}", file=sys.stderr)
            spec = dict(
                specs[name],
                slices=min(trace_slices, slices),
                trace_out=str(OUT / f"trace-{name}{tag}.json"),
            )
            runs[name]["traced"] = run_child(spec)
        probes = run_child({"kind": "probes"})["probes"]
    return runs, probes


def load_fingerprint(name, seed, slices):
    """The recorded fingerprint of a workload, if one fits this seed and size."""
    if not FINGERPRINTS.exists():
        return None
    with FINGERPRINTS.open() as handle:
        recorded = json.load(handle)
    if recorded["seed"] != seed or recorded["slices"] != slices:
        return None
    return recorded["workloads"].get(name)


def evaluate(name, run, probes, seed, slices):
    """Check one workload's passes; returns (problems, end-to-end, per-layer)."""
    passes, traced = run["passes"], run["traced"]
    siblings = passes + ([traced] if traced else [])
    problems = lib.check_passes(siblings)
    end_to_end = lib.end_to_end_metrics(passes)
    per_layer = None
    if traced:
        per_layer = lib.per_layer_metrics(
            passes, traced, probes, load_fingerprint(name, seed, slices)
        )
    return problems, end_to_end, per_layer


def print_metrics(title, metrics, specs):
    print(f"== {title} ==")
    for spec in specs:
        name, unit = spec[0], spec[1]
        bound = f"   (bound {spec[3]:.0%})" if len(spec) > 3 else ""
        print(f"  {name:<36}{metrics[name]:>16.6g} {unit}{bound}")


def result_line(runs, problems, metrics):
    """The contract's last line for one workload."""
    first = runs["passes"][0]
    failed = sum(one["failed"] for one in runs["passes"])
    units = {spec[0]: spec[1] for spec in lib.END_TO_END + lib.PER_LAYER}
    return json.dumps(
        {
            "correct": not problems,
            "attempted": sum(first["commits"]) + failed,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": units[name]}
                for name, value in metrics.items()
            },
        }
    )


def git_commit():
    """``git describe`` of the repository, or "unknown" outside one."""
    try:
        done = subprocess.run(
            ["git", "-C", str(HERE), "describe", "--always", "--dirty"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def record_history(seed, slices, passes, results):
    """Append (never rewrite) one trajectory line."""
    entry = {
        "commit": git_commit(),
        "date": datetime.datetime.now(datetime.timezone.utc).isoformat(
            timespec="seconds"
        ),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seed": seed,
        "slices": slices,
        "passes": passes,
        "workloads": {
            name: dict(
                end_to_end,
                **{k: v for k, v in per_layer.items() if k.startswith("host.")},
            )
            for name, (end_to_end, per_layer) in results.items()
        },
    }
    with HISTORY.open("a") as handle:
        handle.write(json.dumps(entry) + "\n")
    print(f"appended one entry to {HISTORY}")


def record_fingerprints(seed, slices, runs):
    with FINGERPRINTS.open("w") as handle:
        json.dump(
            {
                "seed": seed,
                "slices": slices,
                "workloads": {
                    name: lib.fingerprint(run["passes"][0]) for name, run in runs.items()
                },
            },
            handle,
            indent=1,
        )
        handle.write("\n")
    print(f"wrote {FINGERPRINTS}")


def repeat_check(workloads, seed, slices, passes):
    """Two sets of the same code must agree within every metric's bound."""
    sets = []
    for index in (1, 2):
        runs, _ = measure(workloads, seed, slices, passes, tag=f" (set {index})")
        sets.append(runs)
    ok = True
    print(f"{'workload':<28}{'metric':<26}{'set 1':>12}{'set 2':>12}{'diff':>9}{'bound':>8}")
    for name in workloads:
        problems = []
        values = []
        for runs in sets:
            found, end_to_end, _ = evaluate(name, runs[name], None, seed, slices)
            problems += found
            values.append(end_to_end)
        # The same code must also repeat exactly across sets in the model.
        problems += lib.check_passes([sets[0][name]["passes"][0], sets[1][name]["passes"][0]])
        for metric, _unit, _better, bound in lib.END_TO_END:
            first, second = values[0][metric], values[1][metric]
            diff = abs(second - first) / first
            verdict = "" if diff <= bound else "  EXCEEDS"
            ok = ok and diff <= bound
            print(
                f"{name:<28}{metric:<26}{first:>12.5g}{second:>12.5g}"
                f"{diff:>9.2%}{bound:>8.0%}{verdict}"
            )
        spreads = " / ".join(f"{lib.pass_spread(r[name]['passes']):.3f}" for r in sets)
        print(f"{name:<28}host.pass_spread (set 1 / set 2): {spreads}")
        for problem in problems:
            ok = False
            print(f"{name}: FAIL {problem}")
    print("repeat-check:", "sets agree within bounds" if ok else "FAILED")
    return 0 if ok else 1


def selfcheck(workloads, seed, slices, passes, trace_slices):
    """Plant a known per-commit slowdown; the ledger must see it, in ``core``."""
    base_runs, probes = measure(workloads, seed, slices, passes, trace_slices)
    base = {n: evaluate(n, base_runs[n], probes, seed, slices) for n in workloads}
    spin_us = {n: SELFCHECK_SHARE * base[n][1]["wall_us_per_commit"] for n in workloads}
    planted_runs, probes = measure(
        workloads, seed, slices, passes, trace_slices, spin_us=spin_us, tag="-planted"
    )
    ok = True
    for name in workloads:
        problems, end_to_end, per_layer = evaluate(
            name, planted_runs[name], probes, seed, slices
        )
        base_problems, base_e2e, base_layers = base[name]
        problems = base_problems + problems
        for metric in ("wall_us_per_commit", "cpu_us_per_commit"):
            rise = end_to_end[metric] / base_e2e[metric] - 1.0
            seen = abs(rise - SELFCHECK_SHARE) <= SELFCHECK_TOLERANCE
            print(
                f"{name:<28}{metric:<22}{base_e2e[metric]:>10.2f} ->"
                f"{end_to_end[metric]:>10.2f} us  rise {rise:+.3f} "
                f"(planted {SELFCHECK_SHARE:+.2f}) {'ok' if seen else 'MISSED'}"
            )
            if not seen:
                problems.append(f"{metric} rose by {rise:.3f}")
        before, after = base_layers["core.self_share"], per_layer["core.self_share"]
        print(f"{name:<28}core.self_share       {before:>10.4f} ->{after:>10.4f}")
        if after <= before:
            problems.append("core.self_share did not rise")
        for metric, value in per_layer.items():
            exact = metric.startswith("model.") or (
                metric.endswith(".calls_per_commit")
                and metric.split(".calls")[0] not in ("core", "python")
            )
            if exact and value != base_layers[metric]:
                problems.append(f"{metric} changed: {base_layers[metric]} -> {value}")
        for problem in problems:
            ok = False
            print(f"{name}: FAIL {problem}")
    print("selfcheck:", "the planted slowdown was seen" if ok else "FAILED")
    return 0 if ok else 1


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(lib.WORKLOADS), help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=lib.DEFAULT_SEED, help="seeds the clients' RNG streams")
    parser.add_argument(
        "--seconds",
        type=float,
        default=lib.RUN_SECONDS,
        help=f"run length; fixes the slice count at {lib.SLICES_PER_SECOND} per second",
    )
    parser.add_argument(
        "--trace",
        type=int,
        choices=(0, 1),
        help="0: end-to-end metrics only; 1: per-layer metrics only (default: both)",
    )
    parser.add_argument("--quick", action="store_true", help="smoke-sized run, numbers not comparable")
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--repeat-check", action="store_true", help="run the set twice, compare against the bounds")
    mode.add_argument("--selfcheck", action="store_true", help="plant a 25 %% per-commit slowdown and look for it")
    parser.add_argument("--record", action="store_true", help="append this run to history.jsonl")
    parser.add_argument("--record-fingerprints", action="store_true", help="rewrite fingerprints.json from this run")
    args = parser.parse_args(argv)
    recording = args.record or args.record_fingerprints
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if recording and (args.quick or args.repeat_check or args.selfcheck):
        parser.error("only a plain full-size run is recorded")
    if (args.record or args.selfcheck) and args.trace is not None:
        parser.error("--record and --selfcheck need both kinds of metrics; drop --trace")
    return args


def main(argv=None):
    args = parse_args(argv)
    workloads = [args.workload] if args.workload else list(lib.WORKLOADS)
    if args.quick:
        slices, passes, trace_slices = lib.QUICK_SLICES, 1, lib.QUICK_TRACE_SLICES
        print("QUICK: smoke-sized run; these numbers are not comparable")
    else:
        slices = lib.slices_for(args.seconds)
        # A per-layer-only run has its cProfile pass and the probes to pay
        # for, and no end-to-end number to steady: one untraced pass.
        passes = 1 if args.trace == 1 else lib.PASSES
        trace_slices = lib.TRACE_SLICES
    if args.trace == 0:
        trace_slices = 0

    if args.repeat_check:
        return repeat_check(workloads, args.seed, slices, passes)
    if args.selfcheck:
        return selfcheck(workloads, args.seed, slices, passes, trace_slices)

    runs, probes = measure(workloads, args.seed, slices, passes, trace_slices)
    status = 0
    results = {}
    for name in workloads:
        problems, end_to_end, per_layer = evaluate(
            name, runs[name], probes, args.seed, slices
        )
        results[name] = (end_to_end, per_layer)
        title = f"{name} (seed {args.seed}, {slices} slices x {passes} passes)"
        metrics = {}
        if args.trace != 1:
            print_metrics(title, end_to_end, lib.END_TO_END)
            metrics.update(end_to_end)
        if per_layer is not None:
            print_metrics(f"{title}, per layer", per_layer, lib.PER_LAYER)
            metrics.update(per_layer)
            print(f"  spans: {OUT / f'trace-{name}.json'}")
        for problem in problems:
            status = 1
            print(f"{name}: FAIL {problem}")
        last_line = result_line(runs[name], problems, metrics)
    if args.record:
        record_history(args.seed, slices, passes, results)
    if args.record_fingerprints:
        record_fingerprints(args.seed, slices, runs)
    if args.workload:
        print(last_line)
    return status


if __name__ == "__main__":
    try:
        raise SystemExit(main())
    except ChildFailed as failure:
        print(f"FAILED RUN: {failure}", file=sys.stderr)
        raise SystemExit(2)
