"""Figure 4.7 — TPC-C throughput for every CC configuration.

Paper (10 warehouses, up to 10k clients): 2PL is the weakest baseline, SSI
peaks ~7x higher but degrades under write-write contention, Callas-1 <
Callas-2 < Tebaldi 2-layer < Tebaldi 3-layer, with the 3-layer tree the best
overall.
"""

from common import (
    RESULT_HEADERS,
    deferred_measure,
    measure_keyed,
    print_rows,
    result_row,
    tpcc_workload,
)
from repro.harness import configs

CLIENT_COUNTS = (40, 100)


def run_figure():
    results = measure_keyed(
        ((name, clients), deferred_measure(tpcc_workload, factory, clients))
        for clients in CLIENT_COUNTS
        for name, factory in configs.WORKLOAD_CONFIGURATIONS["tpcc"].items()
    )
    rows = [
        result_row(f"{name} @ {clients} clients", result)
        for (name, clients), result in results.items()
    ]
    print_rows("Figure 4.7: TPC-C throughput by configuration", rows, RESULT_HEADERS)
    return results


def test_fig_4_7(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    high = CLIENT_COUNTS[-1]
    best_mcc = max(
        results[(name, high)].throughput
        for name in ("callas-1", "callas-2", "tebaldi-2layer", "tebaldi-3layer")
    )
    # Shape: hierarchical MCC beats the monolithic 2PL baseline at high
    # contention, and the 3-layer tree beats 2PL by a clear margin.
    assert best_mcc > results[("2pl", high)].throughput
    assert results[("tebaldi-3layer", high)].throughput > results[("2pl", high)].throughput
