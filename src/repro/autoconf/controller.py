"""The iterative automatic-configuration algorithm (Figure 5.1).

Each iteration:

1. **Analysis** — run the workload under the current configuration with the
   contention profiler enabled and identify the bottleneck conflict edge.
2. **Optimization** — ask the optimizer for localized configuration rewrites
   that target that edge, then run CC-specific preprocessing on each.
3. **Testing** — measure every candidate (fresh database, same workload) and
   keep the best if it beats the current configuration.

The loop stops when no bottleneck is found, when no candidate improves
throughput, or after ``max_iterations``.
"""

from dataclasses import dataclass, field

from repro.autoconf.optimizer import ConfigurationOptimizer
from repro.autoconf.preprocess import apply_preprocessing
from repro.autoconf.profiler import ContentionProfiler
from repro.core.config import initial_configuration as _initial_configuration
from repro.harness.runner import run_benchmark


#: A candidate replaces the current configuration only above this multiple
#: of its throughput.
IMPROVEMENT_THRESHOLD = 1.03


def initial_configuration(workload):
    """The Figure 5.2 starting configuration for a workload."""
    types = workload.transaction_types()
    read_only = {name for name, ttype in types.items() if ttype.read_only}
    return _initial_configuration(set(types), read_only)


@dataclass
class IterationRecord:
    """What happened during one iteration of the algorithm."""

    iteration: int
    bottleneck: tuple
    bottleneck_score: float
    chosen: str
    baseline_throughput: float
    best_throughput: float


@dataclass
class AutoConfigResult:
    """Final outcome of the automatic configuration process."""

    initial_throughput: float
    final_throughput: float
    configuration: object
    iterations: list = field(default_factory=list)

    @property
    def speedup(self):
        if self.initial_throughput <= 0:
            return float("inf")
        return self.final_throughput / self.initial_throughput

    def describe(self):
        lines = [
            f"automatic configuration: {self.initial_throughput:.0f} -> "
            f"{self.final_throughput:.0f} txn/s ({self.speedup:.2f}x) in "
            f"{len(self.iterations)} iterations"
        ]
        for record in self.iterations:
            lines.append(
                f"  iter {record.iteration}: bottleneck {record.bottleneck} "
                f"(score {record.bottleneck_score:.3f}) -> {record.chosen} "
                f"({record.baseline_throughput:.0f} -> {record.best_throughput:.0f} txn/s)"
            )
        lines.append(self.configuration.describe())
        return "\n".join(lines)


class AutoConfigurator:
    """Runs the iterative configuration algorithm against a workload."""

    def __init__(
        self,
        workload,
        clients=60,
        duration=1.0,
        warmup=0.3,
        max_iterations=4,
        options=None,
        instance_keys=None,
        mix=None,
        seed=11,
    ):
        self.workload = workload
        self.clients = clients
        self.duration = duration
        self.warmup = warmup
        self.max_iterations = max_iterations
        self.options = options
        self.instance_keys = instance_keys or {}
        self.mix = mix
        self.seed = seed
        self.optimizer = ConfigurationOptimizer(workload.transaction_types())

    # -- measurement ---------------------------------------------------------------

    def _measure(self, configuration, with_profiler=False):
        profiler = ContentionProfiler() if with_profiler else None
        result = run_benchmark(
            self.workload,
            configuration,
            self.clients,
            duration=self.duration,
            warmup=self.warmup,
            options=self.options,
            profiler=profiler,
            seed=self.seed,
            mix=self.mix,
        )
        return result, profiler

    # -- main loop ---------------------------------------------------------------------

    def run(self, starting_configuration=None):
        """Execute the iterative algorithm; returns an :class:`AutoConfigResult`."""
        current = starting_configuration or initial_configuration(self.workload)
        current = current.clone(name="auto-0")
        apply_preprocessing(current, instance_keys=self.instance_keys)
        baseline, profiler = self._measure(current, with_profiler=True)
        initial_throughput = baseline.throughput
        iterations = []
        for iteration in range(1, self.max_iterations + 1):
            bottleneck = profiler.bottleneck_edge(abort_penalty=0.02) if profiler else None
            if bottleneck is None:
                break
            edge, score = bottleneck
            candidates = self.optimizer.propose(
                current, edge, name_prefix=f"auto-{iteration}"
            )
            if not candidates:
                break
            best_candidate = None
            best_result = None
            for candidate in candidates:
                apply_preprocessing(candidate.configuration, instance_keys=self.instance_keys)
                result, _ = self._measure(candidate.configuration)
                if best_result is None or result.throughput > best_result.throughput:
                    best_candidate, best_result = candidate, result
            improved = (
                best_result is not None
                and best_result.throughput
                > baseline.throughput * IMPROVEMENT_THRESHOLD
            )
            iterations.append(
                IterationRecord(
                    iteration=iteration,
                    bottleneck=edge,
                    bottleneck_score=score,
                    chosen=best_candidate.rationale if improved else "keep current",
                    baseline_throughput=baseline.throughput,
                    best_throughput=best_result.throughput if best_result else 0.0,
                )
            )
            if not improved:
                break
            current = best_candidate.configuration
            baseline, profiler = self._measure(current, with_profiler=True)
        return AutoConfigResult(
            initial_throughput=initial_throughput,
            final_throughput=baseline.throughput,
            configuration=current,
            iterations=iterations,
        )
