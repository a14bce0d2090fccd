"""Degraded-mode harness: run a workload through seeded *message* faults —
drops, delay spikes, duplicates, reorders, partition-and-heal — with the
isolation oracle attached, and prove the TC/DS protocol stays correct.

A *lane* of the run driver (:class:`~repro.harness.runner.BenchmarkRunner`)
and sibling of :mod:`repro.harness.crash` (which kills the whole machine):
here the machine stays up but the network misbehaves, so the properties at
stake are different:

* **committed means durable and visible** — every committed transaction
  with writes has a complete durable precommit set, and replaying the
  durable log reproduces exactly the store's latest committed state;
* **exactly-once application** — a duplicated delivery or a retransmit
  after a lost reply re-enters the durability layer, whose commit-ticket
  dedup must absorb it: one ticket per transaction, ever
  (:func:`retransmit_violations` scans the persistent log for txns that
  minted more than one);
* **no phantom commits** — a retransmitted commit must not commit twice
  (``HistoryRecorder.duplicate_commits`` stays empty) and the queue
  workload's exactly-once dequeue invariant holds across the fault window;
* **graceful degradation** — when retry queues back up past the admission
  valve's threshold the engine parks new transactions and recovers once
  the partition heals; the whole run (pre-, intra- and post-degradation)
  is recorded as **one** history and checked as a single DSG.

The lane owns the run's :class:`~repro.sim.network.MessageTransport` — the
timeouts, retries, backoff, valve and counters — and installs it on each
engine it attaches to, so that state outlives an engine rebuild.  Everything
derives from the run seed (fault plan, backoff jitter, client RNGs), so a
failing run reproduces byte-identically.
"""

from repro.harness.crash import exactly_once_violations
from repro.harness.runner import Lane, run_benchmark
from repro.sim.faults import MessageFaultInjector, MessageFaultPlan
from repro.sim.network import MessageTransport
from repro.storage.durability import DurabilityConfig
from repro.storage.wal import KIND, TXN_ID, record_body


def default_degraded_durability():
    """Durability settings for degraded-mode cells: synchronous flushing,
    so a committed transaction is durable the moment its precommit returns
    and the committed-means-durable check needs no epoch race reasoning."""
    return DurabilityConfig(
        enabled=True,
        asynchronous=False,
        num_servers=4,
    )


def retransmit_violations(manager):
    """Transactions that minted more than one precommit ticket.

    The durable log is the ground truth for exactly-once application: the
    coordinator may retransmit a precommit any number of times (duplicated
    delivery, lost reply), but the durability layer's commit-ticket dedup
    must absorb every repeat — one ticket, one record set, ever.  A broken
    dedup shows up here as a second ticket over the same transaction (the
    chaos suite's mutation tests break the dedup and expect this to light
    up).  Returns ``{txn_id: sorted ticket list}``.
    """
    tickets = {}
    for log in manager.logs:
        for record in log.persisted_records():
            if record[KIND] == "precommit":
                _participants, ticket, _writes = record_body(record)
                tickets.setdefault(record[TXN_ID], set()).add(ticket)
    return {
        txn_id: sorted(seen)
        for txn_id, seen in tickets.items()
        if len(seen) > 1
    }


class NetFaultLane(Lane):
    """Seeded message faults: builds the run's message transport over the
    injector and installs it on every incarnation's engine, then checks
    exactly-once application and committed-means-durable after the run.

    ``fault_plan=None`` derives the plan from the run seed.
    """

    client_seed_tag = "net-client"

    def __init__(self, fault_plan=None, durability=None):
        self.plan = fault_plan
        self.durability = durability or default_degraded_durability()
        self.injector = None
        self.transport = None

    def attach(self, runner):
        if self.transport is None:
            if self.plan is None:
                self.plan = MessageFaultPlan.from_seed(runner.seed)
            self.injector = MessageFaultInjector(self.plan)
            self.transport = MessageTransport(self.injector, seed=runner.seed)
        # An empty plan keeps the constant-delay transport, event for event
        # (pinned by the chaos suite).
        if self.injector.enabled:
            self.transport.install(runner.engine)

    def finish(self, runner, result):
        manager, recorder = runner.manager, runner.recorder
        result.fault_log = list(self.injector.fault_log)
        result.net_stats = dict(self.transport.stats)
        history = recorder.history()
        is_queue = runner.workload.name == "queue"
        # Committed means durable and visible: replaying the persistent log
        # must recover exactly the committed writers, and the recovered
        # values must match the store's latest committed state.  Writers,
        # because the recorder's version orders name every one of them
        # however small its ring, while a read-only commit may have left it.
        recovery = manager.recover()
        recovered = recovery.recovered_transactions
        committed_writers = {
            writer for order in history.version_orders.values() for _seq, writer in order
        }
        latest = runner.store.latest_state()
        stale = {
            key: (value, latest.get(key))
            for key, value in recovery.state.items()
            if recovery.state_writers.get(key, 0) != 0
            and latest.get(key) != value
        }
        checks = {
            "duplicate_tickets": retransmit_violations(manager),
            "duplicate_commits": list(recorder.duplicate_commits),
            "double_dequeues": exactly_once_violations(history) if is_queue else {},
            "committed_not_durable": sorted(committed_writers - recovered),
            "durable_not_committed": sorted(
                recovery.recovered_writers - committed_writers
            ),
            "recovered_state_mismatch": stale,
        }
        result.violations.update(
            {name: found for name, found in checks.items() if found}
        )


def describe(result):
    """CLI text of one degraded cell: ``(problem, headline, detail)``."""
    report, net = result.extra["isolation"], result.net_stats
    problem = None
    status = f"isolation OK across {len(result.fault_log)} fault(s)"
    if not report.ok or result.violations:
        problem = status = "VIOLATION: " + (
            report.describe() if not report.ok else str(result.violations)
        )
    fired = ", ".join(
        f"{fault['kind']}@{fault['time']:.4f}s" for fault in result.fault_log
    )
    return (
        problem,
        f"{result.commits} commits, {result.aborts} aborts — {status}",
        f"faults: {fired or 'none fired'}; retries={net['retries']} "
        f"retransmits={net['retransmit_applies']} parked={net['parked']} "
        f"degraded-windows={net['degraded_windows']}",
    )


def run_degraded_benchmark(
    workload,
    configuration,
    clients,
    duration=0.5,
    seed=7,
    faults=4,
    require=("drop", "partition"),
    fault_plan=None,
    durability=None,
    **kwargs,
):
    """One-shot helper: seeded message-fault checked run.

    ``fault_plan`` overrides the seed-derived plan; ``faults`` sets how many
    seeded fault points the derived plan contains and ``require`` pins fault
    kinds that must appear (by default at least one drop-with-retry and one
    partition-and-heal window, the two acceptance scenarios).
    """
    if fault_plan is None:
        fault_plan = MessageFaultPlan.from_seed(
            seed, faults=faults, require=require
        )
    kwargs.setdefault("warmup", 0.0)
    lane = NetFaultLane(fault_plan, durability=durability)
    return run_benchmark(
        workload,
        configuration,
        clients,
        duration=duration,
        seed=seed,
        lanes=[lane],
        **kwargs,
    )
