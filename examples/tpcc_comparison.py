"""Compare CC configurations on TPC-C (a miniature version of Figure 4.7).

Run with::

    python examples/tpcc_comparison.py [clients]

For every configuration of the paper's TPC-C evaluation (monolithic 2PL and
SSI, the two Callas groupings and Tebaldi's two- and three-layer trees) the
script measures closed-loop throughput on the simulated cluster and prints a
comparison table.
"""

import sys

from repro.harness import configs
from repro.harness.report import format_run_results
from repro.harness.runner import run_benchmark
from repro.workloads.tpcc import TPCCWorkload


def main(clients=80, duration=1.0, warmup=0.3):
    results = []
    for name, factory in configs.WORKLOAD_CONFIGURATIONS["tpcc"].items():
        workload = TPCCWorkload(warehouses=2)
        result = run_benchmark(
            workload, factory(), clients=clients, duration=duration, warmup=warmup
        )
        print(f"measured {name}: {result.throughput:.0f} txn/s")
        results.append(result)
    print()
    print(format_run_results(results))
    best = max(results, key=lambda r: r.throughput)
    print(f"\nbest configuration: {best.configuration}")


if __name__ == "__main__":
    main(clients=int(sys.argv[1]) if len(sys.argv) > 1 else 80)
