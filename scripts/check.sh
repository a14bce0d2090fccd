#!/usr/bin/env bash
# Tier-1 gate: unit/property tests, the perf-ledger smoke, the stdout
# goldens (every registry sweep, oracle in the loop, under two hash salts),
# an import of every figure script and example and, last, the src/
# line total, the GC-tracked objects a tpcc/3layer commit leaves behind with
# the versions its store ends on, the blocked wait passes per commit of the
# batch leaf and of TSO's promise waits, the run-queue entries per
# tpcc/3layer commit, the entries a read-only-optimised and a batching SSI
# root hold, the
# scan indexes a tpcc/3layer and a ycsb-scan/2layer store hold, the lock
# nodes holding range locks on tpcc/3layer and queue/3layer with the scan
# registries a drained run leaves empty, the read
# records per commit of tpcc/3layer and of a checked smallbank/3layer, the
# log records per durable smallbank/3layer commit and the records a folding
# one's logs hold per server, the import time, the
# cycle-detector nodes and the commit records a checked smallbank/3layer
# holds and the state census's allow-lists.
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
# What the cyclic collector re-walks grows with the first figure (tiny
# tpcc/3layer, seed 7, between 600 and 2,400 commits); the other two are what
# the store still holds at the end of that run.  tests/test_retention.py
# bounds all three.
python -c 'from tests.test_retention import tpcc_retention_census as census
print("GC-tracked objects per tpcc/3layer commit: {:.1f}; versions per key: {:.2f}, hottest chain: {}".format(*census()))'
# Under the read-only optimisation an SSI node only hands out snapshots: it
# keeps no read set, rw flag, intent or commit timestamp per transaction
# (0; with that tracking the root held one commit timestamp per commit).
# A batching root keeps rw flags and commit timestamps in the state of the
# transaction or batch they describe, and itself only indexes whose entries
# leave when the engine releases their transaction (61 entries after 4,800
# micro/ssi-2layer commits; 65 while it kept its own drain floor, 6,674
# while the flags and timestamps were node-wide).  tests/test_retention.py
# pins the first on three cells and bounds the second.
python -c 'from tests.test_retention import SSI_TRACKING, ssi_root_holds
def held(cell, commits):
    _ssi, (counts,) = ssi_root_holds(cell, (commits,))
    return sum(counts[name] for name in SSI_TRACKING)
print("entries an SSI root holds: ROO {} (1,200 ycsb-scan/2layer commits), batching {} (4,800 micro/ssi-2layer commits)".format(
    held("ycsb-scan/2layer", 1200), held("micro/ssi-2layer", 4800)))'
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
# A table's ordered scan index is built by its first scan: no tpcc/3layer
# type scans (0; every table was indexed at population), ycsb-scan's scans
# read one table.  tests/test_retention.py pins both.
python -c 'from tests.test_retention import scan_indexes_held as held
print("scan indexes held after a tpcc/3layer run: {} tables (ycsb-scan/2layer: {})".format(
    len(held("tpcc/3layer")), len(held("ycsb-scan/2layer"))))'
# A 2PL or RP node builds its range locks only when a type routed through
# it declares a scan: no tpcc/3layer type scans (0); on queue/3layer the
# cross-group 2PL node and the consumer leaf do (2; every lock node used to).
# tests/test_retention.py pins five cells.  Beside it, the scan registries
# (each node's ScanSet and write-intent map) left empty once the five
# scanning conformance trees drain (13 of 13; tests/test_retention.py
# TestScanRegistriesDrain).
python -c 'from tests.test_retention import range_managers_held as held, scan_registries_drained as drained
print("range managers held: tpcc/3layer {}, queue/3layer {}; scan registries drained: {} of {}".format(
    len(held("tpcc/3layer")), len(held("queue/3layer")), *drained()))'
# A transaction records its reads and scans only for a reader: no
# tpcc/3layer route runs OCC (0; every read used to leave one, 11.5), while
# a checked run's recorder gets one per read and per scan (1.86).
# tests/test_retention.py pins both.
python -c 'from tests.test_retention import read_records_per_commit as records
print("read records per commit: tpcc/3layer {:.0f}, smallbank/3layer checked {:.2f}".format(
    records("tpcc/3layer"), records("smallbank/3layer", check_isolation=True)))'
# The precommit record is the log's only redo record: a durable
# smallbank/3layer commit leaves one per participant server (1.37; 2.61 with
# the per-write operation records nothing read).  tests/test_retention.py
# pins that nothing else is logged.
python -c 'from tests.test_retention import log_records_per_commit as records
print("log records per durable smallbank/3layer commit: {:.2f}".format(records()))'
# A persistent GCP advance folds each log into its per-key image: with
# 0.05 sim-s epochs, what a server's log holds after 4,800 commits is its
# image plus the tail above it (177, 130, 139 and 132; 2,757, 1,233, 1,313
# and 1,159 precommit records with no fold).  tests/test_retention.py bounds
# it by the keys a server owns plus one epoch.
python -c 'from tests.test_retention import log_records_held as held
print("log records held per server after 4,800 folding smallbank/3layer commits (image + tail): {}".format(held()))'
# What every engine start pays before it runs anything: wall time of a
# fresh interpreter importing the CLI, best of three.
echo -n "import repro.harness.cli: "
python -m timeit -n 1 -r 3 -s 'import subprocess, sys' \
  'subprocess.run([sys.executable, "-c", "import repro.harness.cli"], check=True)'
# The oracle's cycle detector forgets a committed transaction once the engine
# released it and nothing it depends on is left: what it holds is what the
# engine retains (33; every commit stayed a node, 4,821, before it pruned).
# tests/test_retention.py bounds it.
python -c 'from tests.test_retention import detector_nodes_held as held
print("cycle-detector nodes after 4,800 checked smallbank/3layer commits: {}".format(held((4800,))[0]))'
# Beside it, the rest of what the oracle keeps: each key's version order
# from the last entry a reader can land on (about three per key; one per
# committed version, 5,481, before the trim), the committed ids the engine
# retains (4,821, one per commit, before), and the scan predicates (one per
# committed scan: an edge out of a pruned scanner still counts in
# num_edges; smallbank has none).  tests/test_retention.py bounds the first two.
python -c 'from tests.test_retention import oracle_entries_held as held
print("oracle entries after 4,800 checked smallbank/3layer commits: version order {version_order} over {keys} keys, committed ids {committed_ids}, scan watches {scan_watches}".format(**held(targets=(4800,))[0][0]))'
# The verdict reads no commit record, so only a fault lane's recorder keeps
# them: a plain checked run holds none (0; one per commit, in a ring of up to
# 50,000, while every checked run kept them).  tests/test_retention.py pins it.
python -c 'from tests.test_retention import commit_records_held as held
print("commit records after 4,800 checked smallbank/3layer commits: {}".format(held(4800)[1]))'
# Nothing under src/ lives for the tests alone: what the state census lets
# through — definitions only tests use, fields only tests read, fields kept
# unread for a stated reason (tests/test_state_census.py).
python -c 'from tests.test_state_census import allow_lists; print(allow_lists())'
# A node's mechanism derives what it needs from the profiles; what a spec
# may still set are the knobs its constructor takes (6; 12 while autoconf
# wrote derived steps and promises into spec params).
# tests/test_composition.py pins each mechanism's set.
python -c 'from tests.test_composition import constructor_parameters as params
print("cc constructor parameters: {}".format(sum(map(len, params().values()))))'

echo
echo "check.sh: all good"
