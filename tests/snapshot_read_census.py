"""Where snapshot reads land: how far behind a chain's tail
``latest_committed_before`` finds its answer, cell by cell.

A key's committed chain is one list and a snapshot read walks it from the
newest version back, so what a read costs is the number of versions
committed on its key since its snapshot.  :class:`SnapshotReadCensus` counts
exactly that, from outside (a test-only subclass of the store); run as a
script it prints the table PERFORMANCE.md carries (*Where snapshot reads
land*) for the 44 registry cells at the CLI's ``--quick`` size plus two
conformance trees that read by timestamp, alone and beside a 2PL group::

    PYTHONPATH=src python -m tests.snapshot_read_census

``tests/test_retention.py`` pins the distance on three cells, so a workload
that starts to read deep fails a test instead of silently paying the walk.
"""

from collections import Counter
from contextlib import contextmanager

from repro.core.engine import EngineOptions
from repro.harness import runner as runner_module
from repro.harness.cli import build_workload
from repro.harness.configs import WORKLOAD_CONFIGURATIONS
from repro.harness.parallel import derive_point_seed
from repro.harness.runner import BenchmarkRunner
from repro.sim.environment import Environment
from repro.storage.mvstore import MultiVersionStore
from tests import conftest
from tests.test_cc_conformance import ALL_TREES, ConformanceWorkload, random_requests

#: The CLI's ``--quick`` cell: clients, measured and warm-up simulated seconds.
QUICK = (8, 0.3, 0.1)
CONFORMANCE = ("mono-tso", "2pl/(2pl,tso)")


class SnapshotReadCensus(MultiVersionStore):
    """Test-only store that counts, per snapshot read, the versions newer
    than the one returned (the whole chain when nothing is visible)."""

    def __init__(self):
        super().__init__()
        self.distances = Counter()

    def latest_committed_before(self, key, timestamp, strict=True):
        found = super().latest_committed_before(key, timestamp, strict=strict)
        distance = 0
        for version in reversed(self.committed_versions(key)):
            if version is found:
                break
            distance += 1
        self.distances[distance] += 1
        return found

    def unordered_chains(self):
        """Chains whose timestamps are not in commit order."""
        unordered = 0
        for chain in self._committed.values():
            stamps = [version.timestamp or 0.0 for version in chain]
            unordered += any(a > b for a, b in zip(stamps, stamps[1:]))
        return unordered

    def summary(self):
        calls = sum(self.distances.values())
        walked = sum(distance * count for distance, count in self.distances.items())
        return {
            "calls": calls,
            "at_tail": self.distances[0] / calls if calls else 1.0,
            "mean": walked / calls if calls else 0.0,
            "max": max(self.distances, default=0),
            "histogram": dict(sorted(self.distances.items())),
            "unordered": self.unordered_chains(),
            "chains": len(self._committed),
        }


@contextmanager
def counting_stores(module):
    """Every store ``module`` builds inside the block is a census."""
    original = module.MultiVersionStore
    module.MultiVersionStore = SnapshotReadCensus
    try:
        yield
    finally:
        module.MultiVersionStore = original


def census_of_run(workload, configuration, clients, duration, warmup=0.0, seed=7):
    """Closed-loop run of one cell; the store's summary and the commits."""
    with counting_stores(runner_module):
        runner = BenchmarkRunner(workload, configuration, seed=seed)
    try:
        result = runner.run(clients, duration=duration, warmup=warmup)
    finally:
        runner.stop()
    return runner.store.summary(), result.commits


def census_of_registry_cell(workload_name, config_name):
    clients, duration, warmup = QUICK
    return census_of_run(
        build_workload(workload_name),
        WORKLOAD_CONFIGURATIONS[workload_name][config_name](),
        clients, duration, warmup,
        seed=derive_point_seed(7, workload_name, config_name, clients),
    )


def census_of_conformance_tree(tree_name, seed=99, count=600, lanes=6):
    engine = conftest.build_engine(
        Environment(),
        ConformanceWorkload(),
        ALL_TREES[tree_name](),
        options=EngineOptions(
            charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
        ),
        store_class=SnapshotReadCensus,
    )
    conftest.run_transactions(
        engine.env, engine, random_requests(seed, count), lanes=lanes
    )
    return engine.store.summary(), engine.stats.commits


def main():
    print("| cell | commits | snapshot reads | at the tail | mean back | max back "
          "| histogram (versions back: calls) | chains out of timestamp order |")
    print("|---|---|---|---|---|---|---|---|")
    rows = [
        (f"{workload}/{config}", census_of_registry_cell, (workload, config))
        for workload, trees in sorted(WORKLOAD_CONFIGURATIONS.items())
        for config in sorted(trees)
    ] + [(f"conformance {tree}", census_of_conformance_tree, (tree,)) for tree in CONFORMANCE]
    for label, census, args in rows:
        summary, commits = census(*args)
        histogram = ", ".join(f"{k}: {v:,}" for k, v in summary["histogram"].items())
        print(
            f"| `{label}` | {commits:,} | {summary['calls']:,} | "
            f"{summary['at_tail']:.2%} | {summary['mean']:.3f} | {summary['max']} | "
            f"{histogram or '—'} | {summary['unordered']} of {summary['chains']:,} |"
        )


if __name__ == "__main__":
    main()
