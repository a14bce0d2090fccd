"""Benchmark harness: closed-loop clients, checked runs, parallel sweeps, reporting."""

from repro.harness.runner import BenchmarkRunner, RunResult, run_benchmark
from repro.harness.parallel import available_workers, derive_point_seed, run_tasks
from repro.harness.report import format_table, format_run_results

__all__ = [
    "BenchmarkRunner",
    "RunResult",
    "run_benchmark",
    "available_workers",
    "derive_point_seed",
    "run_tasks",
    "format_table",
    "format_run_results",
]
