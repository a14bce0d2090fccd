"""SEATS with per-flight TSO instances (Section 4.6.2 / Table 5.1).

Run with::

    python examples/seats_per_flight.py

The example compares three CC trees for the SEATS airline workload: monolithic
2PL, the two-layer SSI+2PL tree, and the three-layer tree whose reservation
group runs one timestamp-ordering instance per flight (partition-by-instance).
"""

from repro.harness import configs
from repro.harness.report import format_run_results
from repro.harness.runner import run_benchmark
from repro.workloads.seats import SEATSWorkload


def main(clients=80, duration=1.0, warmup=0.3):
    candidates = {
        "monolithic 2PL": configs.WORKLOAD_CONFIGURATIONS["seats"]["2pl"](),
        "2-layer (SSI + 2PL)": configs.WORKLOAD_CONFIGURATIONS["seats"]["2layer"](),
        "3-layer (SSI + 2PL + per-flight TSO)": configs.seats_3layer(per_flight=True),
    }
    results = []
    for label, configuration in candidates.items():
        workload = SEATSWorkload(flights=10)
        result = run_benchmark(
            workload, configuration, clients=clients, duration=duration, warmup=warmup
        )
        print(f"{label:40s} {result.throughput:8.0f} txn/s")
        results.append(result)
    print()
    print(format_run_results(results))


if __name__ == "__main__":
    main()
