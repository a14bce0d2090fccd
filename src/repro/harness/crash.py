"""Crash/recovery harness: run a workload, crash it, recover it, and check
the *stitched* pre-crash + post-recovery history as one.

A *lane* of the run driver (:class:`~repro.harness.runner.BenchmarkRunner`):
the driver runs the workload in incarnations, each a fresh environment and
engine over the shared :class:`DurabilityManager` (whose persistent backends
survive crashes), until either the measurement horizon or the crash event
this lane arms fires.  On a crash the lane:

1. snapshots what the dying incarnation believed (its commits — the
   transactions its logs hold a precommit of, bar those still in flight —,
   commit sequences and in-flight count), then drops the volatile
   durability state (:meth:`DurabilityManager.crash`) and replays the
   persistent logs (:meth:`DurabilityManager.recover`);
2. classifies every transaction: *survivors* were durable, *vanished* ones
   committed in memory but were not durable (recovery discarded them),
   *ghosts* were durable but never acknowledged (crash between precommit
   and commit);
3. rebuilds the store — initial population re-loaded, then every surviving
   write restored with its **original** commit sequence (the recorder's
   never-evicted version orders are the authority), ghosts with fresh
   sequences — and fast-forwards the sequence counter past everything
   pre-crash, so every cross-crash dependency edge points forward;
4. stitches the history: the recorder purges vanished transactions
   (:meth:`HistoryRecorder.on_crash` — they must leave *no trace*) and
   registers ghost survivors (:meth:`HistoryRecorder.on_recovered`);
5. checkpoints the recovery into the durable logs (so discarded epochs can
   never resurrect at a later crash) and hands the rebuilt store back to
   the driver, which resumes the workload in a new incarnation with
   continued transaction ids.

One recorder spans every incarnation, so the final
:func:`~repro.isolation.checker.check_recorder` verdict covers the whole
run — the combined DSG must stay anomaly-free, committed-and-durable
transactions' writes must survive, vanished ones must leave no trace.

Everything is derived from the run seed (fault schedule, per-incarnation
client RNGs, server partitioning), so a failing run reproduces
byte-identically.
"""

from dataclasses import dataclass

from repro.harness.runner import Lane, run_benchmark
from repro.sim.faults import FaultInjector, FaultPlan
from repro.storage.durability import DurabilityConfig
from repro.storage.mvstore import MultiVersionStore


def default_crash_durability(asynchronous=True):
    """Durability settings used by crash-enabled cells: short GCP epochs so
    epoch-boundary crash sites are reachable in sub-second runs."""
    return DurabilityConfig(
        enabled=True,
        asynchronous=asynchronous,
        gcp_epoch_length=0.01,
        num_servers=4,
    )


@dataclass
class CrashReport:
    """What one simulated crash did to the run."""

    time: float
    site: str
    occurrence: int
    committed_before: int
    in_flight: int
    vanished: tuple
    recovered: tuple
    ghosts: tuple

    def describe(self):
        return (
            f"crash@{self.time:.4f}s at {self.site}#{self.occurrence}: "
            f"{len(self.recovered)} recovered, {len(self.vanished)} vanished, "
            f"{len(self.ghosts)} ghost(s), {self.in_flight} in flight"
        )


def exactly_once_violations(history, txn_type="dequeue", table="messages"):
    """Keys of ``table`` consumed by more than one committed ``txn_type``.

    The queue workload's flagship invariant: across crashes, every message
    is dequeued at most once by transactions that *survived* (a vanished
    consumer's dequeue does not count — its effects were never durable and
    the stitched history erases it).  Returns ``{key: [txn ids]}`` for
    every violating key.
    """
    consumers = {}
    for txn in history.transactions.values():
        if txn.txn_type != txn_type:
            continue
        for key, _seq in txn.writes:
            if isinstance(key, tuple) and key[0] == table:
                consumers.setdefault(key, []).append(txn.txn_id)
    return {key: ids for key, ids in consumers.items() if len(ids) > 1}


class CrashLane(Lane):
    """Seeded crashes: arms the injector per incarnation, recovers and
    stitches on a crash, reports the crashes and the exactly-once check.

    ``fault_plan=None`` derives the plan from the run seed.
    """

    client_seed_tag = "crash-client"

    def __init__(self, fault_plan=None, durability=None):
        self.plan = fault_plan
        self.durability = durability or default_crash_durability()
        self.injector = None
        self.crashes = []

    def attach(self, runner):
        if self.injector is None:
            if self.plan is None:
                self.plan = FaultPlan.from_seed(runner.seed)
            self.injector = FaultInjector(self.plan)
            # What _crash_and_recover needs of the run besides its arguments.
            self.workload = runner.workload
            self.recorder = runner.recorder
        runner.manager.faults = self.injector
        self.stop_event = self.injector.arm(runner.env)

    def recover(self, runner):
        if self.injector.crashed:
            return self._crash_and_recover(runner.engine, runner.store, runner.manager)

    def _crash_and_recover(self, engine, store, manager):
        """Recover the durable state and stitch the history across the crash.

        Returns the rebuilt store for the next incarnation.
        """
        recorder = self.recorder
        info = self.injector.crash_info or {}
        crash_time = engine.env.now
        # A logged precommit is followed by the commit unless the crash
        # fired inside it, and the logs hold this incarnation alone (each
        # recovery checkpoints them).
        committed_here = manager.precommitted_transactions() - set(engine.active)
        last_seq = store.last_commit_seq()
        manager.crash()
        recovery = manager.recover()
        recovered = set(recovery.recovered_transactions)
        vanished = committed_here - recovered
        ghosts = recovered - committed_here
        recorder.on_crash(vanished)

        # Rebuild committed state: re-population (a fresh catalog build, a
        # pure function of the workload's arguments, so the initial versions
        # reproduce exactly), then the surviving writes with their sequences.
        new_store = MultiVersionStore()
        self.workload.populate(new_store)
        next_fresh_seq = last_seq
        restored = []
        for key in sorted(recovery.state, key=repr):
            writer = recovery.state_writers.get(key, 0)
            if writer == 0:
                continue
            seq = recorder.seq_of(key, writer)
            if seq is None:
                # A ghost's write: it never committed in memory, so the
                # recorder has no sequence for it — append it after every
                # pre-crash version.
                next_fresh_seq += 1
                seq = next_fresh_seq
            restored.append((seq, key, recovery.state[key], writer))
        restored.sort(key=lambda entry: (entry[0], repr(entry[1])))
        ghost_versions = {}
        for seq, key, value, writer in restored:
            version = new_store.restore_version(key, value, writer, commit_seq=seq)
            if writer in ghosts:
                ghost_versions.setdefault(writer, []).append(version)
        new_store.advance_commit_seq(max(last_seq, next_fresh_seq))
        for ghost in sorted(ghosts):
            recorder.on_recovered(ghost, ghost_versions.get(ghost, []))
        # Every reader from here on sees restored versions only: nothing the
        # dead incarnation held, nor a ghost, can gain an incoming edge (the
        # oracle checks), so release them all; an aborted one is no node.
        for txn_id in [*engine.finished, *sorted(ghosts)]:
            recorder.on_release(txn_id)

        # Checkpoint: wipe the logs and persist the recovered state as the
        # next incarnation's base, so a discarded epoch's records cannot
        # resurrect at the next recovery.
        manager.checkpoint(recovery)
        self.crashes.append(
            CrashReport(
                time=crash_time,
                site=info.get("site", "?"),
                occurrence=info.get("occurrence", 0),
                committed_before=len(committed_here),
                in_flight=len(engine.active),
                vanished=tuple(sorted(vanished)),
                recovered=tuple(sorted(recovered)),
                ghosts=tuple(sorted(ghosts)),
            )
        )
        return new_store

    def finish(self, runner, result):
        result.crashes = list(self.crashes)
        if runner.workload.name == "queue":
            found = exactly_once_violations(runner.recorder.history())
            if found:
                result.violations["double_dequeues"] = found


def describe(result):
    """CLI text of one crash cell: ``(problem, headline, detail)``."""
    report = result.extra["isolation"]
    duplicate_dequeues = result.violations.get("double_dequeues", {})
    problem = None
    status = f"isolation OK across {len(result.crashes)} crash(es)"
    if not report.ok or duplicate_dequeues:
        status = "ISOLATION VIOLATION: " + report.describe()
        if duplicate_dequeues:
            status += f"; {len(duplicate_dequeues)} message(s) dequeued twice"
        problem = status
    headline = f"{result.commits} commits over {result.incarnations} incarnation(s)"
    detail = "; ".join(crash.describe() for crash in result.crashes)
    return problem, f"{headline} — {status}", detail


def run_crash_benchmark(
    workload,
    configuration,
    clients,
    duration=1.0,
    seed=7,
    crashes=1,
    fault_plan=None,
    durability=None,
    **kwargs,
):
    """One-shot helper: seeded crash-enabled checked run.

    ``fault_plan`` overrides the seed-derived plan; ``crashes`` sets how
    many seeded crash points the derived plan contains.
    """
    if fault_plan is None:
        fault_plan = FaultPlan.from_seed(seed, crashes=crashes)
    kwargs.setdefault("warmup", 0.0)
    return run_benchmark(
        workload,
        configuration,
        clients,
        duration=duration,
        seed=seed,
        lanes=[CrashLane(fault_plan, durability=durability)],
        **kwargs,
    )
