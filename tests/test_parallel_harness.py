"""Parallel experiment executor: determinism and serial/parallel equivalence."""

import multiprocessing
import pickle
from functools import partial

import pytest

from repro import errors
from repro.core.config import monolithic
from repro.harness.parallel import available_workers, derive_point_seed, run_tasks
from repro.harness.runner import run_benchmark
from repro.workloads.micro import CrossGroupConflictWorkload

HAS_FORK = "fork" in multiprocessing.get_all_start_methods()


def _square(value):
    return value * value


class TestRunTasks:
    def test_results_in_task_order(self):
        tasks = [lambda v=v: _square(v) for v in range(8)]
        assert run_tasks(tasks, workers=1) == [v * v for v in range(8)]
        if HAS_FORK:
            assert run_tasks(tasks, workers=4) == [v * v for v in range(8)]

    def test_empty_and_single(self):
        assert run_tasks([], workers=4) == []
        assert run_tasks([lambda: 42], workers=4) == [42]

    def test_worker_count_is_clamped(self):
        assert run_tasks([lambda: 1, lambda: 2], workers=999) == [1, 2]

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_nested_calls_degrade_to_serial(self):
        def outer(v):
            def task():
                return run_tasks([lambda: v, lambda: v + 1], workers=2)
            return task

        assert run_tasks([outer(0), outer(10)], workers=2) == [[0, 1], [10, 11]]

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_task_exceptions_propagate(self):
        def boom():
            raise RuntimeError("task failed")

        with pytest.raises(RuntimeError):
            run_tasks([boom, boom], workers=2)

    def test_available_workers_positive(self):
        assert available_workers() >= 1


class TestErrorsSurviveThePool:
    """A worker's exception reaches the parent through pickle."""

    def test_every_error_class_round_trips(self):
        classes = [
            cls for cls in vars(errors).values()
            if isinstance(cls, type) and issubclass(cls, errors.ReproError)
        ]
        assert len(classes) == 6 and errors.TransactionAborted in classes
        for cls in classes:
            if cls is errors.TransactionAborted:
                # The default ``__reduce__`` replayed the message as ``txn_id``.
                original = cls(3, "reason")
                assert vars(original) == {"txn_id": 3, "reason": "reason"}
            else:
                original = cls("what went wrong")
            copy = pickle.loads(pickle.dumps(original))
            assert type(copy) is cls and str(copy) == str(original)
            assert vars(copy) == vars(original)


class TestSeedDerivation:
    def test_deterministic(self):
        assert derive_point_seed(7, "tpcc", "2pl", 40) == derive_point_seed(
            7, "tpcc", "2pl", 40
        )

    def test_every_component_matters(self):
        base = derive_point_seed(7, "tpcc", "2pl", 40)
        assert derive_point_seed(8, "tpcc", "2pl", 40) != base
        assert derive_point_seed(7, "seats", "2pl", 40) != base
        assert derive_point_seed(7, "tpcc", "ssi", 40) != base
        assert derive_point_seed(7, "tpcc", "2pl", 41) != base

    def test_seed_in_rng_range(self):
        seed = derive_point_seed(123456789, "a-long-workload-name", "config", 10_000)
        assert 0 <= seed < 2**31


def _micro_workload():
    return CrossGroupConflictWorkload(shared_rows=8, cold_rows=60)


def _micro_config():
    return monolithic("2pl", ("group_a_update", "group_b_update"))


def _sweep_point(clients, duration, warmup):
    """One fresh-database point, seeded from what identifies it (as the CLI does)."""
    workload = _micro_workload()
    configuration = _micro_config()
    seed = derive_point_seed(7, type(workload).__name__, configuration.name, clients)
    return run_benchmark(
        workload, configuration, clients=clients, duration=duration, warmup=warmup, seed=seed
    )


def _sweep_signature(client_counts, workers, duration, warmup):
    results = run_tasks(
        [partial(_sweep_point, clients, duration, warmup) for clients in client_counts],
        workers=workers,
    )
    return [
        (clients, result.commits, result.aborts, result.throughput)
        for clients, result in zip(client_counts, results)
    ]


class TestSerialParallelEquivalence:
    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_sweep_points_identical_across_worker_counts(self):
        serial = _sweep_signature((4, 8), workers=1, duration=0.15, warmup=0.05)
        parallel = _sweep_signature((4, 8), workers=2, duration=0.15, warmup=0.05)
        assert serial == parallel

    def test_sweep_points_use_distinct_derived_seeds(self):
        series = _sweep_signature((4, 8), workers=1, duration=0.1, warmup=0.0)
        # Different client counts derive different seeds; with the same
        # seed the 4-client prefix of both runs would coincide — commits
        # differing while both runs stay deterministic is the cheap proxy.
        assert len(series) == 2
        assert all(commits > 0 for _clients, commits, _aborts, _tps in series)

    @pytest.mark.skipif(not HAS_FORK, reason="needs fork start method")
    def test_cli_registry_slice_identical_serial_vs_parallel(self, capsys):
        """Same registry slice, same report, whatever the worker count."""
        from repro.harness.cli import main

        argv = [
            "--workload", "micro",
            "--config", "2pl", "--config", "ssi",
            "--clients", "4",
            "--duration", "0.1", "--warmup", "0.0",
        ]
        assert main(argv + ["--workers", "1"]) == 0
        serial_out = capsys.readouterr().out
        assert main(argv + ["--workers", "2"]) == 0
        parallel_out = capsys.readouterr().out
        assert serial_out == parallel_out
        assert "isolation OK" in serial_out

    def test_cli_all_flag_quick(self, capsys):
        from repro.harness.cli import main

        with pytest.raises(SystemExit):
            main(["--all", "--config", "2pl"])
        capsys.readouterr()


class TestRunnerStillSerialByDefault:
    def test_run_benchmark_unchanged_by_executor(self):
        """Direct run_benchmark calls (fixed-seed tests, bench_speed) are
        untouched by the executor: same seed plumbing as before."""
        workload = _micro_workload()
        result = run_benchmark(
            workload,
            _micro_config(),
            clients=4,
            duration=0.1,
            warmup=0.0,
            seed=7,
        )
        repeat = run_benchmark(
            _micro_workload(),
            _micro_config(),
            clients=4,
            duration=0.1,
            warmup=0.0,
            seed=7,
        )
        assert (result.commits, result.aborts) == (repeat.commits, repeat.aborts)


class TestHashSaltIndependence:
    def test_fixed_seed_cell_identical_under_two_hash_salts(self):
        """A fixed-seed run must not depend on ``PYTHONHASHSEED``.

        Regression: ``LockTable`` kept held keys in a ``set`` of
        ``(table, pk)`` tuples and granted queued waiters while iterating
        it, so wake order followed the per-process string-hash salt (4557
        vs 4567 commits on this cell).  Each salt needs its own interpreter.
        """
        import os
        import subprocess
        import sys
        from pathlib import Path

        src = str(Path(__file__).resolve().parent.parent / "src")
        argv = [
            sys.executable, "-m", "repro.harness",
            "--workload", "smallbank", "--config", "2pl",
            "--faults", "2", "--quick", "--workers", "1",
        ]
        outputs = []
        for salt in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=salt, PYTHONPATH=src)
            done = subprocess.run(
                argv, env=env, capture_output=True, text=True, check=True
            )
            outputs.append(done.stdout)
        assert outputs[0] == outputs[1]
        assert "isolation OK across 2 crash(es)" in outputs[0]
