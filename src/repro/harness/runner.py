"""Closed-loop benchmark runner over the simulated cluster: the one run driver.

The runner mirrors the paper's experimental setup (Section 4.6): a fixed
number of closed-loop clients issue transactions drawn from the workload mix,
aborted transactions back off and retry, and throughput is measured after a
warm-up period.

This is the only run driver: it alone builds the environment, store and
engine of every incarnation, owns the client loop, runs to the horizon and
checks the recorder.  Fault models (:mod:`repro.harness.crash`,
:mod:`repro.harness.degraded`) plug in as *lanes* (:class:`Lane`).

After populating the store the runner freezes the heap (``gc.freeze``), so
the cyclic garbage collector stops re-scanning the hundreds of thousands of
long-lived row/version objects on every full collection — a large constant
drag on simulation speed.  ``stop()`` unfreezes, so sequential runners in a
sweep do not pin each other's data.
"""

import gc
from dataclasses import dataclass, field

from repro.core.engine import EngineOptions, TebaldiEngine
from repro.errors import TransactionAborted
from repro.harness.parallel import derive_point_seed
from repro.isolation.checker import check_recorder
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.sim.events import any_of
from repro.storage.durability import DurabilityManager
from repro.storage.mvstore import MultiVersionStore

#: First delay before a client retries an aborted transaction (doubling,
#: capped at 0.1 s).
RETRY_BACKOFF = 0.005


@dataclass
class RunResult:
    """Outcome of one benchmark run (plain, crash-enabled or degraded)."""

    configuration: str
    clients: int
    duration: float
    throughput: float
    abort_rate: float
    mean_latency: float
    commits: int
    aborts: int
    per_type: dict = field(default_factory=dict)
    incarnations: int = 1
    # Filled by fault lanes: per-crash reports, the message faults that
    # fired, the message transport's retry counters and every broken
    # post-run invariant.
    crashes: list = field(default_factory=list)
    fault_log: list = field(default_factory=list)
    net_stats: dict = field(default_factory=dict)
    violations: dict = field(default_factory=dict)
    extra: dict = field(default_factory=dict)

    def __repr__(self):
        return (
            f"<RunResult {self.configuration} clients={self.clients} "
            f"tput={self.throughput:.0f} txn/s abort={self.abort_rate:.1%}>"
        )


class Lane:
    """What a fault model adds to the run driver; every member is optional.

    ``client_seed_tag`` names the lane's client RNG streams (seeds derive
    from ``(seed, tag, incarnation, client_id)``), ``durability`` is the
    :class:`DurabilityConfig` its cells run under and ``stop_event`` ends an
    incarnation early (a crash).
    """

    client_seed_tag = None
    durability = None
    stop_event = None

    def attach(self, runner):
        """Wire the lane into a freshly built incarnation."""

    def recover(self, runner):
        """The recovered store if ``stop_event`` ended the incarnation, else None."""

    def finish(self, runner, result):
        """Write the lane's post-run facts and invariants into ``result``."""


class BenchmarkRunner:
    """Builds an engine for a workload/configuration pair and drives clients."""

    def __init__(
        self,
        workload,
        configuration,
        options=None,
        seed=7,
        profiler=None,
        mix=None,
        check_isolation=False,
        lanes=(),
    ):
        self.workload = workload
        self.configuration = configuration
        self.seed = seed
        self.mix = mix
        self.profiler = profiler
        self.lanes = tuple(lanes)
        self.options = options or EngineOptions()
        self._tag = next(
            (lane.client_seed_tag for lane in self.lanes if lane.client_seed_tag), None
        )
        # Checked-run mode: stream the committed history into a recorder and
        # verify the run against the Adya isolation oracle after every
        # measurement (fault lanes always run checked).  The recorder streams
        # dependency edges into the incremental DSG checker as commits
        # happen, so the post-measurement check reads the verdict off; it
        # keeps commit records only for the lanes, whose checks read them.
        # One recorder spans every incarnation of a crash-enabled run.
        self.recorder = None
        if check_isolation or self.lanes:
            self.recorder = HistoryRecorder(records=bool(self.lanes))
        # One durability manager for the whole run: its persistent backends
        # survive the engine rebuilds of a crash-enabled run.
        self.manager = DurabilityManager(
            next(
                (lane.durability for lane in self.lanes if lane.durability is not None),
                self.options.durability,
            )
        )
        self.env = Environment()
        self.store = MultiVersionStore()
        self.workload.populate(self.store)
        self.incarnation = 0
        self._client_mixes = []
        self._build_engine()
        # The populated store and engine live for the runner's lifetime:
        # exclude them from cyclic-GC scans (unfrozen again in stop()).
        gc.collect()
        gc.freeze()
        self._frozen = True

    def _build_engine(self, txn_id_start=1):
        self.engine = TebaldiEngine(
            self.env,
            self.configuration,
            self.workload.transaction_types(),
            store=self.store,
            options=self.options,
            profiler=self.profiler,
            durability=self.manager,
            txn_id_start=txn_id_start,
        )
        self.engine.history_recorder = self.recorder
        self._stop_event = self.env.event(name="stop")
        self.engine.start_services(self._stop_event)
        for lane in self.lanes:
            lane.attach(self)

    # -- client processes ----------------------------------------------------------

    def _client(self, client_id, rng, mix):
        """The closed loop: draw a transaction, retry it until it commits."""
        while not self._stop_event.triggered:
            txn_type, args = self.workload.next_transaction(rng, mix)
            attempts = 0
            while not self._stop_event.triggered:
                attempts += 1
                try:
                    yield from self.engine.execute_transaction(txn_type, args, client_id)
                    break
                except TransactionAborted:
                    # Exponential backoff (capped) calms cascading-abort storms.
                    delay = min(RETRY_BACKOFF * (2 ** min(attempts - 1, 5)), 0.1)
                    yield delay

    def add_clients(self, count, mix=None):
        """Spawn ``count`` closed-loop client processes."""
        mix = self.workload.validate_mix(mix or self.mix or self.workload.mix())
        for _ in range(count):
            self._client_mixes.append(mix)
            self._spawn_client(len(self._client_mixes) - 1, mix)

    def _spawn_client(self, client_id, mix):
        seed = self.seed + client_id * 7919
        if self._tag is not None:
            seed = derive_point_seed(self.seed, self._tag, self.incarnation, client_id)
        rng = self.workload.make_rng(seed)
        self.env.process(self._client(client_id, rng, mix), name=f"client-{client_id}")

    # -- measurement -------------------------------------------------------------------

    def _advance(self, until):
        """Run to virtual time ``until``, through every crash a lane injects."""
        lane = next((lane for lane in self.lanes if lane.stop_event is not None), None)
        if lane is None:
            self.env.run(until=until)
            return
        while self.env.now < until:
            horizon = self.env.timeout(until - self.env.now)
            self.env.run(until=any_of(self.env, [lane.stop_event, horizon]))
            store = lane.recover(self)
            if store is None:
                return
            self._next_incarnation(store)

    def _next_incarnation(self, store):
        """Resume over the recovered ``store``: fresh environment and engine,
        continued transaction ids, the same clients on fresh RNG streams,
        and the run's stats collector carried over."""
        previous = self.engine
        self.store = store
        self.env = Environment(initial_time=previous.env.now)
        self.incarnation += 1
        self._build_engine(txn_id_start=previous._last_txn_id + 1)
        self.engine.stats = previous.stats
        previous.stats.env = self.env
        for client_id, mix in enumerate(self._client_mixes):
            self._spawn_client(client_id, mix)

    def run(self, clients, duration=5.0, warmup=1.0, mix=None, raise_on_violation=True):
        """Run ``clients`` closed-loop clients and measure steady-state throughput.

        In checked-run mode (``check_isolation=True`` at construction, or
        any fault lane) the recorded history — warmup included — is fed to
        the isolation checker after the measurement and the
        :class:`~repro.isolation.checker.IsolationReport` is attached to the
        result as ``extra["isolation"]``; the lanes then add their own
        invariants to ``result.violations``.  An oracle violation raises
        :class:`~repro.errors.IsolationViolation` and a broken lane
        invariant ``AssertionError`` unless ``raise_on_violation`` is false.
        """
        self.add_clients(clients, mix=mix)
        if warmup > 0:
            self._advance(self.env.now + warmup)
        self.engine.stats.reset()
        if self.profiler is not None and hasattr(self.profiler, "reset"):
            self.profiler.reset()
        self._advance(self.env.now + duration)
        result = self.result(clients, duration)
        if self.recorder is not None:
            report = self.check_isolation()
            result.extra["isolation"] = report
            for lane in self.lanes:
                lane.finish(self, result)
            if raise_on_violation:
                report.raise_on_violation()
                if result.violations:
                    raise AssertionError(
                        f"fault-lane violations in {self.configuration.name}: "
                        f"{result.violations}"
                    )
        return result

    def check_isolation(self):
        """Check the history recorded so far; returns the report."""
        if self.recorder is None:
            raise ValueError(
                "runner was not built with check_isolation=True; no history recorded"
            )
        return check_recorder(self.recorder)

    def run_additional(self, duration):
        """Continue the measurement for ``duration`` more virtual seconds."""
        self._advance(self.env.now + duration)
        return self.result(len(self._client_mixes), self.engine.stats.elapsed)

    def result(self, clients, duration):
        summary = self.engine.stats.summary()
        return RunResult(
            configuration=self.configuration.name,
            clients=clients,
            duration=duration,
            throughput=summary["throughput"],
            abort_rate=summary["abort_rate"],
            mean_latency=summary["mean_latency"],
            commits=summary["commits"],
            aborts=summary["aborts"],
            per_type=summary["per_type"],
            incarnations=self.incarnation + 1,
        )

    def stop(self):
        if not self._stop_event.triggered:
            self._stop_event.succeed(None)
        if self._frozen:
            gc.unfreeze()
            self._frozen = False


def run_benchmark(
    workload,
    configuration,
    clients,
    duration=5.0,
    warmup=1.0,
    raise_on_violation=True,
    **kwargs,
):
    """One-shot helper: build a runner, run it, return the :class:`RunResult`.

    Pass ``check_isolation=True`` to gate the run on the isolation oracle;
    the report lands in ``result.extra["isolation"]`` and a violation raises
    unless ``raise_on_violation`` is false.
    """
    runner = BenchmarkRunner(workload, configuration, **kwargs)
    try:
        result = runner.run(
            clients, duration=duration, warmup=warmup, raise_on_violation=raise_on_violation
        )
    finally:
        # Always stop: it also unfreezes the GC state frozen at construction.
        runner.stop()
    return result
