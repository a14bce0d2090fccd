"""Figure 4.8 — SEATS throughput: monolithic 2PL vs 2-layer vs 3-layer.

Paper: the 2-layer (SSI + 2PL) tree peaks ~2.6x above monolithic 2PL; adding
per-flight TSO instances (3-layer) yields a further ~2x.
"""

from common import (
    RESULT_HEADERS,
    SEATS_CLIENTS,
    deferred_measure,
    measure_keyed,
    print_rows,
    result_row,
    seats_workload,
)
from repro.harness import configs

SETTINGS = [
    ("monolithic 2PL", configs.WORKLOAD_CONFIGURATIONS["seats"]["2pl"]),
    ("2-layer (SSI + 2PL)", configs.WORKLOAD_CONFIGURATIONS["seats"]["2layer"]),
    ("3-layer (SSI + 2PL + per-flight TSO)", configs.seats_3layer),
]


def run_figure():
    results = measure_keyed(
        (label, deferred_measure(seats_workload, factory, SEATS_CLIENTS))
        for label, factory in SETTINGS
    )
    rows = [result_row(label, result) for label, result in results.items()]
    print_rows("Figure 4.8: SEATS throughput by configuration", rows, RESULT_HEADERS)
    return results


def test_fig_4_8(benchmark):
    results = benchmark.pedantic(run_figure, rounds=1, iterations=1)
    assert results["2-layer (SSI + 2PL)"].throughput > results["monolithic 2PL"].throughput
    assert (
        results["3-layer (SSI + 2PL + per-flight TSO)"].throughput
        > results["monolithic 2PL"].throughput
    )
