"""Table 5.2 — MCC against single-machine monolithic databases.

Paper: compared against MySQL-style single-machine engines, a well-configured
MCC federation sustains substantially higher TPC-C throughput under
contention.  The substitute comparators here are monolithic 2PL and SSI
engines built from the same substrate, run on a single "server".
"""

from common import RESULT_HEADERS, TPCC_CLIENTS, measure, print_rows, result_row, tpcc_workload
from repro.harness import configs


def run_table():
    results = {}
    rows = []
    for label, factory in (
        ("single-machine 2PL (MySQL-like)", configs.WORKLOAD_CONFIGURATIONS["tpcc"]["2pl"]),
        ("single-machine SSI (Postgres-like)", configs.WORKLOAD_CONFIGURATIONS["tpcc"]["ssi"]),
        ("Tebaldi 3-layer MCC", configs.tpcc_tebaldi_3layer),
    ):
        result = measure(tpcc_workload(), factory(), clients=TPCC_CLIENTS)
        results[label] = result
        rows.append(result_row(label, result))
    print_rows("Table 5.2: MCC vs single-machine monolithic engines", rows, RESULT_HEADERS)
    return results


def test_table_5_2(benchmark):
    results = benchmark.pedantic(run_table, rounds=1, iterations=1)
    assert (
        results["Tebaldi 3-layer MCC"].throughput
        > results["single-machine 2PL (MySQL-like)"].throughput * 0.8
    )
