#!/usr/bin/env bash
# Tier-1 gate: unit/property tests, the behaviour-fingerprint and perf-ledger
# smokes, quick checked-run / crash / chaos smokes (isolation oracle in the
# loop), an import of every figure script and example and, last, the src/
# line total, the GC-tracked objects a tpcc/3layer commit leaves behind with
# the versions its store ends on, and the import time.
#
# Usage: scripts/check.sh [--quick]
#
#   --quick   skip the examples run smoke (import-only) for the fastest
#             useful gate; everything else always runs.  The full lane also
#             compares the quickstart and autoconf examples' stdout with
#             their goldens.
#
# The fingerprint smoke (benchmarks/bench_speed.py --quick) verifies the
# fixed-seed behavior fingerprint of two micro runs against the one recorded
# in BENCH_speed.json, so a change of schedules fails loudly.  The ledger
# smoke (benchmarks/ledger/run.py --quick, ~18 s) drives the four
# BENCHMARK.json workloads end to end: its numbers are not comparable, its
# checks are.
# The checked-run smoke gates micro runs under three CC trees (one with a
# timestamp-batching SSI root) and SmallBank runs under two — plus the
# deterministic-batch YCSB cells (zipfian + scan-heavy) — on the Adya
# isolation oracle (python -m repro.harness --quick); its independent
# cells fan out across --workers processes (WORKERS env var overrides;
# results are identical whatever the worker count).  The crash-recovery
# smoke additionally crashes the queue cells at a seeded fault point and
# checks the stitched pre-crash + post-recovery history as one, then runs
# one smallbank crash cell under two PYTHONHASHSEED salts and requires
# identical output (fixed-seed runs must not depend on the hash salt).  The
# network-chaos smoke runs the queue cells through a seeded drop and a
# partition-and-heal window (timeouts, retries, commit-ticket dedup, the
# admission valve) and checks the whole degraded run as a single history.

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
echo "== behaviour-fingerprint smoke (quick) =="
python benchmarks/bench_speed.py --quick

echo
echo "== perf-ledger smoke (quick) =="
python3 benchmarks/ledger/run.py --quick

echo
echo "== checked-run smoke (isolation oracle) =="
WORKERS="${WORKERS:-$(python -c 'import os; print(os.cpu_count() or 1)')}"
# micro/ssi-2layer: the one registry cell whose SSI root batches timestamps.
python -m repro.harness --workload micro --config 2pl --config 2layer --config ssi-2layer --quick --workers "$WORKERS"
python -m repro.harness --workload smallbank --config ssi --config 3layer --quick --workers "$WORKERS"
# Deterministic batch cells: monolithic on the zipfian mix, 2-layer on the
# scan-heavy profile (declared ranges carry the phantom story).
python -m repro.harness --workload ycsb-zipf --config batch --config batch-2layer --quick --workers "$WORKERS"
python -m repro.harness --workload ycsb-scan --config batch --config batch-2layer --quick --workers "$WORKERS"

echo
echo "== crash-recovery smoke (cross-crash oracle) =="
python -m repro.harness --workload queue --config 2layer --config 3layer --faults 1 --quick --workers "$WORKERS"
SALT_DIR="$(mktemp -d)"
for salt in 1 2; do
  PYTHONHASHSEED=$salt python -m repro.harness --workload smallbank --config 2pl \
    --faults 2 --quick --workers 1 > "$SALT_DIR/salt-$salt.txt"
done
cmp "$SALT_DIR/salt-1.txt" "$SALT_DIR/salt-2.txt"
rm -r "$SALT_DIR"
echo "smallbank/2pl --faults 2: identical under PYTHONHASHSEED=1 and =2"

echo
echo "== network-chaos smoke (degraded-mode oracle) =="
python -m repro.harness --workload queue --config 2layer --config 3layer --net-faults 2 --quick --workers "$WORKERS"

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
else
  echo "(import-only: --quick)"
fi

echo
echo "== src/ size =="
# Every PR's size claim is reproducible from this line of the CI log.
find src -name '*.py' | xargs wc -l | tail -1
# What the cyclic collector re-walks grows with the first figure (tiny
# tpcc/3layer, seed 7, between 600 and 2,400 commits); the other two are what
# the store still holds at the end of that run.  tests/test_retention.py
# bounds all three.
python -c 'from tests.test_retention import tpcc_retention_census as census
print("GC-tracked objects per tpcc/3layer commit: {:.1f}; versions per key: {:.2f}, hottest chain: {}".format(*census()))'
# What every engine start pays before it runs anything: wall time of a
# fresh interpreter importing the CLI, best of three.
echo -n "import repro.harness.cli: "
python -m timeit -n 1 -r 3 -s 'import subprocess, sys' \
  'subprocess.run([sys.executable, "-c", "import repro.harness.cli"], check=True)'

echo
echo "check.sh: all good"
