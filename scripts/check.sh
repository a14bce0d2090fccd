#!/usr/bin/env bash
# Tier-1 gate: unit/property tests, the perf-ledger smoke, the stdout
# goldens (every registry sweep, oracle in the loop, under two hash salts),
# an import of every figure script and example and, last, the src/ line
# total, the retention census (python -m tests.retention_catalogue: every
# census figure beside its old bound and every structure kept across
# transactions beside its bound, one run per reference cell), the blocked
# wait passes per commit of the batch leaf and of TSO's promise waits, the
# run-queue entries per tpcc/3layer commit, the import time, the state
# census's allow-lists and what can be set (cc constructor knobs,
# EngineOptions and DurabilityConfig fields, options only tests set).
#
# Usage: scripts/check.sh [--quick]
#
#   --quick   skip the examples run smoke (import-only) and the figure
#             scripts run (collect-only) for the fastest useful gate;
#             everything else always runs.  The full lane also compares the
#             quickstart and autoconf examples' stdout with their goldens
#             and runs every paper-figure script (~3.5 min on 2 vCPUs).
#
# The ledger smoke (benchmarks/ledger/run.py --quick, ~18 s) drives the four
# BENCHMARK.json workloads end to end: its numbers are not comparable, its
# checks are.  The golden step runs every CLI golden's command — the plain,
# crash-lane and message-fault-lane sweeps over the whole registry, the
# 2.0 sim-s unchecked micro cells and the queue crash cells — at --workers
# (WORKERS env var overrides) under PYTHONHASHSEED=1 and =2 and compares its
# stdout with tests/golden/ byte for byte; a failing run exits non-zero
# there too.  The commands and the one re-record rule are in
# tests/test_fault_lane_goldens.py.

set -euo pipefail
cd "$(dirname "$0")/.."

QUICK=0
if [[ "${1:-}" == "--quick" ]]; then
  QUICK=1
fi

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

# PYTEST_MARKERS lets CI lanes filter the suite by marker expression
# (fast lane: "not slow"); the default runs everything.
echo "== tier-1 tests =="
PYTEST_FILTER=()
if [[ -n "${PYTEST_MARKERS:-}" ]]; then
  PYTEST_FILTER=(-m "${PYTEST_MARKERS}")
fi
python -m pytest -x -q "${PYTEST_FILTER[@]}"

echo
echo "== perf-ledger smoke (quick) =="
python3 benchmarks/ledger/run.py --quick

echo
echo "== stdout goldens (PYTHONHASHSEED=1 and =2) =="
WORKERS="${WORKERS:-$(python -c 'import os; print(os.cpu_count() or 1)')}"
python -c 'from tests.test_fault_lane_goldens import CLI_GOLDENS
for golden, args in CLI_GOLDENS.items(): print(golden, *args)' |
while read -r golden args; do
  for salt in 1 2; do
    # $args is left unquoted: it splits into the CLI's arguments.
    PYTHONHASHSEED=$salt python -m repro.harness $args --workers "$WORKERS" </dev/null |
      diff -u "tests/golden/$golden" -
  done
  echo "$golden: identical under both salts"
done

echo
echo "== figure scripts and examples smoke =="
# Nothing in tier-1 imports these, and they bind registry names at import:
# collecting the figure scripts (16 tests, ~1 s) and importing each example
# runs none of them and fails on a name that is gone.
python -m pytest --collect-only -q benchmarks/bench_*.py
python -m compileall -q examples
python - <<'PY'
import importlib.util
import pathlib

for path in sorted(pathlib.Path("examples").glob("*.py")):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    spec.loader.exec_module(importlib.util.module_from_spec(spec))
    print(f"{path} imports")
PY
if [[ "$QUICK" == "0" ]]; then
  # The quickstart ends on Database.check_serializability()'s verdict line.
  python examples/quickstart.py | cmp - tests/golden/quickstart.txt
  echo "examples/quickstart.py matches tests/golden/quickstart.txt"
  # Autoconf is deterministic: the bottlenecks it finds, the throughputs it
  # measures and the tree it picks are pinned byte for byte (~15 s).
  python examples/automatic_configuration.py | cmp - tests/golden/autoconf_tpcc.txt
  echo "examples/automatic_configuration.py matches tests/golden/autoconf_tpcc.txt"
  # The paper's figures, tables and the batch contention study, run with
  # their asserts (bench_speed.py, the profiler, holds no test).
  python -m pytest -q --benchmark-disable benchmarks/bench_*.py
else
  echo "(import-only: --quick)"
fi

echo
echo "== src/ size =="
# Every PR's size claim is reproducible from this line of the CI log.
find src -name '*.py' | xargs wc -l | tail -1
# Everything the engine, kernel, store, CC nodes, durability layer, recorder
# and oracle keep across transactions, one row each with its bound, and the
# census figures with the bounds they were held to (GC-tracked objects per
# tpcc/3layer commit 9.0, SSI root entries 0 and 18, log records held per
# server 177, 130, 139 and 132, 33 cycle-detector nodes, ...): one run per
# reference cell (tests/retention_catalogue.py; tests/test_retention.py
# holds every row on all 44 registry cells).
python -m tests.retention_catalogue
# Waits are woken only by whom they wait for: the batch leaf's (0.56; one
# broadcast waking every waiter on every install, commit point and finish
# made 1.71) and TSO's promise waits (0.04; its broadcast on every write
# and finish made 0.07).
python -c 'from tests.test_profiler_stream import wait_passes_per_commit as passes
print("blocked wait passes per commit: batch {:.2f} (ycsb-zipf/batch), tso-promise {:.2f} (ycsb-zipf/tso)".format(
    passes("ycsb-zipf/batch", "batch-"), passes("ycsb-zipf/tso", "tso-promise")))'
# A charge is a timed wake, not an Event: run-queue entries pushed per
# tpcc/3layer commit (37.6 sleeps and 15.4 events; with every sleep a
# Timeout, 0 and 53.0).  tests/test_sim_kernel.py bounds both.
python -c 'from tests.test_sim_kernel import kernel_entries_per_commit as entries
print("kernel entries per tpcc/3layer commit: sleeps {:.1f}, events {:.1f}".format(*entries()))'
# What every engine start pays before it runs anything: wall time of a
# fresh interpreter importing the CLI, best of three.
echo -n "import repro.harness.cli: "
python -m timeit -n 1 -r 3 -s 'import subprocess, sys' \
  'subprocess.run([sys.executable, "-c", "import repro.harness.cli"], check=True)'
# Nothing under src/ lives for the tests alone: what the state census lets
# through — definitions only tests use, fields only tests read, fields kept
# unread for a stated reason (tests/test_state_census.py).
python -c 'from tests.test_state_census import allow_lists; print(allow_lists())'
# What a caller can set: the knobs a spec may hand a CC constructor (2, the
# batch leaf's; 6 before the option census, 12 while autoconf wrote derived
# steps and promises into spec params), the EngineOptions and
# DurabilityConfig fields, and the options only tests set
# (tests/test_state_census.py holds each; a value nothing else sets is a
# named constant).
python -c 'from tests.test_state_census import option_counts; print(option_counts())'

echo
echo "check.sh: all good"
