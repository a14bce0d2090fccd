"""Network chaos for the TC/DS protocol: message faults, timeout/retry/
backoff, and graceful degradation under the oracle.

Four layers of coverage:

* unit tests for the message fault plan/injector (determinism, validation,
  gap scheduling, phase targeting, partition windows) and for the message
  transport's sends, one per fault kind;
* unit tests for retry idempotency at the receivers: commit-ticket dedup in
  the durability layer, and the transport's exchange semantics
  (drop-then-retry commits once, lost replies apply exactly once,
  unreachable servers abort cleanly);
* the admission valve: a long partition backs the retry queues up past the
  threshold, new transactions park, and the engine recovers when the
  partition heals — all in one checked history; and the transport, with
  its counters, outlives an engine rebuild;
* fixed-seed end-to-end scenarios: every chaos cell (queue, smallbank,
  ycsb-zipf x monolithic/2-layer/3-layer trees) runs through at least one
  drop-with-retry and one partition-and-heal window and passes the oracle
  plus the exactly-once/durability checks; an adversarial duplication+
  reorder storm aimed at the commit exchange cannot double-dequeue; a
  deliberately broken dedup is caught; an attached-but-empty fault plan is
  byte-identical to no injector at all; plus a randomized soak behind the
  ``slow`` marker.
"""

import pytest

from repro.core.engine import EngineOptions, TebaldiEngine
from repro.errors import TransactionAborted
from repro.harness.cli import build_workload, main as harness_main
from repro.harness.configs import CHAOS_CELLS, WORKLOAD_CONFIGURATIONS
from repro.harness.runner import BenchmarkRunner, Lane
from repro.harness.degraded import (
    NetFaultLane,
    default_degraded_durability,
    retransmit_violations,
    run_degraded_benchmark,
)
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.sim.faults import (
    MESSAGE_FAULT_KINDS,
    MessageFault,
    MessageFaultInjector,
    MessageFaultPlan,
)
from repro.sim.network import (
    PARK_THRESHOLD,
    PHASE_TIMEOUT,
    RTT,
    TIMESTAMP_SERVER,
    MessageTransport,
)
from repro.storage.durability import DurabilityManager
from repro.storage.mvstore import MultiVersionStore
from repro.workloads.queue import QueueWorkload
from tests.reference_checker import committed_ids


class _ForgetfulTable(dict):
    """A precommit dedup table that keeps nothing: every retransmitted
    precommit misses it and mints a fresh ticket."""

    def __setitem__(self, txn_id, epoch):
        pass


def break_dedup(manager):
    """The mutant the suite must catch: ``manager`` applies every
    retransmitted precommit again."""
    manager._precommit_epochs = _ForgetfulTable()


class BrokenDedupLane(NetFaultLane):
    """A message-fault lane whose durability manager has its dedup broken."""

    def attach(self, runner):
        super().attach(runner)
        break_dedup(runner.manager)


# ---------------------------------------------------------------------------
# Fault plans and the injector
# ---------------------------------------------------------------------------


class TestMessageFaultPlan:
    def test_from_seed_is_deterministic(self):
        first = MessageFaultPlan.from_seed(42, faults=5)
        second = MessageFaultPlan.from_seed(42, faults=5)
        assert first == second
        assert len(first) == 5
        assert all(p.kind in MESSAGE_FAULT_KINDS for p in first.points)

    def test_different_seeds_differ(self):
        plans = {MessageFaultPlan.from_seed(seed, faults=6) for seed in range(8)}
        assert len(plans) > 1

    def test_require_pins_kinds_without_shifting_the_stream(self):
        plain = MessageFaultPlan.from_seed(7, faults=4)
        pinned = MessageFaultPlan.from_seed(7, faults=4, require=("drop", "partition"))
        assert pinned.points[0].kind == "drop"
        assert pinned.points[1].kind == "partition"
        # Every drawn attribute other than the pinned kind is unchanged.
        for before, after in zip(plain.points, pinned.points):
            assert before.occurrence == after.occurrence
            assert before.magnitude == after.magnitude
            assert before.duration == after.duration
            assert before.lost_reply == after.lost_reply
        assert plain.points[2:] == pinned.points[2:]

    def test_require_extends_short_plans(self):
        plan = MessageFaultPlan.from_seed(7, faults=0, require=("drop", "partition"))
        assert [p.kind for p in plan.points] == ["drop", "partition"]

    def test_fault_validation(self):
        with pytest.raises(ValueError):
            MessageFault(kind="gremlin")
        with pytest.raises(ValueError):
            MessageFault(kind="drop", occurrence=0)
        with pytest.raises(ValueError):
            MessageFault(kind="delay", magnitude=0)
        with pytest.raises(ValueError):
            MessageFault(kind="partition", duration=-1.0)
        with pytest.raises(ValueError):
            MessageFaultPlan.from_seed(7, faults=-1)


def _pending(injector):
    """Planned faults not fired yet: each one that fires is logged once."""
    return len(injector.plan.points) - len(injector.fault_log)


class TestMessageFaultInjector:
    def test_empty_plan_is_disabled(self):
        injector = MessageFaultInjector(MessageFaultPlan())
        assert not injector.enabled
        assert not _pending(injector)
        assert injector.disposition(0.0, (0,), "start") is None

    def test_gap_scheduling_counts_sends(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="drop", occurrence=3),
            MessageFault(kind="delay", occurrence=2),
        ))
        injector = MessageFaultInjector(plan)
        assert injector.disposition(0.0, (0,), "start") is None
        assert injector.disposition(0.0, (0,), "start") is None
        third = injector.disposition(0.0, (0,), "start")
        assert third is not None and third.kind == "drop"
        # The gap resets: the next point needs two more counted sends.
        assert injector.disposition(0.0, (0,), "start") is None
        fifth = injector.disposition(0.0, (0,), "start")
        assert fifth is not None and fifth.kind == "delay"
        assert not _pending(injector)

    def test_phase_filter_keeps_the_point_armed(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="duplicate", occurrence=1, phases=("precommit",)),
        ))
        injector = MessageFaultInjector(plan)
        # Gap reached, but the phase does not match: stays armed, no fire.
        assert injector.disposition(0.0, (0,), "start") is None
        assert injector.disposition(0.0, (0,), "validate") is None
        fired = injector.disposition(0.0, (0,), "precommit")
        assert fired is not None and fired.kind == "duplicate"

    def test_partition_window_does_not_consume_points(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=0.5),
            MessageFault(kind="drop", occurrence=1),
        ))
        injector = MessageFaultInjector(plan)
        fired = injector.disposition(0.0, (0, 1), "precommit")
        assert fired.kind == "partition"
        assert injector.fault_log[0]["heals_at"] == pytest.approx(0.5)
        # Inside the window: every touching send fails as a partition but
        # the second planned point is still pending.
        for dst in (0, 1):
            inside = injector.disposition(0.25, (dst,), "start")
            assert inside.kind == "partition"
        assert _pending(injector)
        assert len(injector.fault_log) == 1
        # Healed: the drop point fires on the next counted send.
        after = injector.disposition(0.75, (0,), "start")
        assert after is not None and after.kind == "drop"
        assert not _pending(injector)

    def test_fault_log_records_partition_heal_time(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=0.25),
        ))
        injector = MessageFaultInjector(plan)
        injector.disposition(1.0, (2,), "precommit")
        (entry,) = injector.fault_log
        assert entry["kind"] == "partition"
        assert entry["heals_at"] == pytest.approx(1.25)


# ---------------------------------------------------------------------------
# The message transport's send(), one fault kind at a time
# ---------------------------------------------------------------------------


def run_sends(plan, sends):
    """Drive ``sends`` (kwargs dicts) through one transport; return the
    environment, the injector and the deliveries."""
    env = Environment()
    transport = MessageTransport(MessageFaultInjector(plan))
    deliveries = []

    def driver():
        for kwargs in sends:
            outcome = yield from transport.send(env, phase="start", **kwargs)
            deliveries.append(outcome)

    env.process(driver(), name="driver")
    env.run()
    return env, transport.faults, deliveries


class TestMessageLayer:
    def test_clean_send_delivers_at_base_rtt(self):
        env, injector, (outcome,) = run_sends(None, [{"dsts": (0,)}])
        assert outcome.delivered and outcome.request_reached
        assert env.now == pytest.approx(RTT)
        assert injector.fault_log == []

    def test_round_trips_to_the_timestamp_server_add_up(self):
        env, _injector, (outcome,) = run_sends(
            None, [{"dsts": (TIMESTAMP_SERVER,), "round_trips": 3}]
        )
        assert outcome.delivered
        assert env.now == RTT + RTT + RTT

    def test_drop_times_out_without_reaching(self):
        plan = MessageFaultPlan(points=(MessageFault(kind="drop", occurrence=1),))
        env, injector, (outcome,) = run_sends(plan, [{"dsts": (0,)}])
        assert not outcome.delivered and not outcome.request_reached
        assert env.now == pytest.approx(PHASE_TIMEOUT)
        assert [fault["kind"] for fault in injector.fault_log] == ["drop"]

    def test_lost_reply_reaches_but_does_not_deliver(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="drop", occurrence=1, lost_reply=True),
        ))
        env, injector, (outcome,) = run_sends(plan, [{"dsts": (0,)}])
        assert not outcome.delivered
        assert outcome.request_reached
        assert env.now == pytest.approx(PHASE_TIMEOUT)
        assert injector.fault_log[0]["lost_reply"]

    def test_delay_spike_still_delivers(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="delay", occurrence=1, magnitude=5.0),
        ))
        env, injector, (outcome,) = run_sends(plan, [{"dsts": (0,)}])
        assert outcome.delivered and not outcome.duplicated
        assert env.now == pytest.approx(5 * RTT)
        assert injector.fault_log[0]["kind"] == "delay"

    def test_reorder_delivers_behind_later_traffic(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="reorder", occurrence=1, magnitude=3.0),
        ))
        env, injector, (outcome,) = run_sends(plan, [{"dsts": (0,)}])
        assert outcome.delivered
        assert env.now == pytest.approx(4 * RTT)
        assert injector.fault_log[0]["kind"] == "reorder"

    def test_duplicate_delivers_with_flag(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="duplicate", occurrence=1),
        ))
        env, injector, (outcome,) = run_sends(plan, [{"dsts": (0,)}])
        assert outcome.delivered and outcome.duplicated
        assert env.now == pytest.approx(RTT)
        assert injector.fault_log[0]["kind"] == "duplicate"

    def test_partition_fails_sends_until_heal(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=0.01),
        ))
        env, injector, deliveries = run_sends(plan, [{"dsts": (0,)}] * 3)
        # The first send opens the window; the next two, each one reply
        # timeout later, still fall inside it.
        assert not any(outcome.delivered for outcome in deliveries)
        assert not any(outcome.request_reached for outcome in deliveries)
        assert env.now == pytest.approx(3 * PHASE_TIMEOUT)
        assert injector.fault_log[0]["heals_at"] == pytest.approx(0.01)
        assert [fault["kind"] for fault in injector.fault_log] == ["partition"]

    def test_partition_cuts_only_the_partitioned_destination(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=0.01),
        ))
        sends = [{"dsts": (TIMESTAMP_SERVER,)}, {"dsts": (0,)}, {"dsts": (TIMESTAMP_SERVER,)}]
        _env, injector, deliveries = run_sends(plan, sends)
        assert [outcome.delivered for outcome in deliveries] == [False, True, False]
        assert injector.fault_log[0]["dsts"] == (TIMESTAMP_SERVER,)

    def test_partition_heals_by_time(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=0.003),
        ))
        _env, _injector, deliveries = run_sends(plan, [{"dsts": (0,)}] * 3)
        assert not deliveries[0].delivered and not deliveries[1].delivered
        # The third send starts at two reply timeouts, past the heal time.
        assert deliveries[2].delivered


# ---------------------------------------------------------------------------
# Receiver-side idempotency units
# ---------------------------------------------------------------------------


def make_txn_like(txn_id):
    class _Txn:
        pass

    txn = _Txn()
    txn.txn_id = txn_id
    return txn


class TestCommitTicketDedup:
    def test_duplicate_precommit_returns_same_epoch_and_ticket(self):
        manager = DurabilityManager(default_degraded_durability())
        txn = make_txn_like(11)
        writes = [(("rows", 1), "a"), (("rows", 2), "b")]
        first = manager.precommit(txn, writes)
        records_after_first = [log.records() for log in manager.logs]
        second = manager.precommit(txn, writes)
        assert second == first
        assert [log.records() for log in manager.logs] == records_after_first
        assert manager.duplicate_precommits == 1
        assert retransmit_violations(manager) == {}

    def test_broken_dedup_mints_second_ticket_and_is_caught(self):
        manager = DurabilityManager(default_degraded_durability())
        break_dedup(manager)
        txn = make_txn_like(11)
        writes = [(("rows", 1), "a")]
        manager.precommit(txn, writes)
        manager.precommit(txn, writes)
        violations = retransmit_violations(manager)
        assert 11 in violations
        assert len(violations[11]) == 2

    def test_distinct_transactions_are_not_flagged(self):
        manager = DurabilityManager(default_degraded_durability())
        manager.precommit(make_txn_like(1), [(("rows", 1), "a")])
        manager.precommit(make_txn_like(2), [(("rows", 1), "b")])
        assert retransmit_violations(manager) == {}


# ---------------------------------------------------------------------------
# The transport's exchange semantics, on an engine
# ---------------------------------------------------------------------------


def build_chaos_engine(plan, workload=None, config_name="2layer", durable=True):
    """Engine + env wired for degraded mode over the queue workload; returns
    ``(env, engine, manager, transport)``."""
    workload = workload or QueueWorkload(initial_messages=6, window=8)
    configuration = WORKLOAD_CONFIGURATIONS["queue"][config_name]()
    manager = DurabilityManager(default_degraded_durability()) if durable else None
    store = MultiVersionStore()
    workload.populate(store)
    env = Environment()
    engine = TebaldiEngine(
        env,
        configuration,
        workload.transaction_types(),
        store=store,
        durability=manager,
    )
    transport = MessageTransport(MessageFaultInjector(plan), seed=5)
    transport.install(engine)
    return env, engine, manager, transport


def run_one(env, engine, txn_type, args):
    outcome = {}

    def probe():
        try:
            txn = yield from engine.execute_transaction(txn_type, args)
            outcome["txn"] = txn
        except TransactionAborted as aborted:
            outcome["aborted"] = aborted

    env.process(probe(), name="probe")
    env.run()
    return outcome


class TestRobustExchange:
    def test_dropped_commit_retries_and_commits_once(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="drop", occurrence=1, phases=("precommit",)),
        ))
        env, engine, manager, transport = build_chaos_engine(plan)
        outcome = run_one(env, engine, "enqueue", {"payload": "m"})
        assert "txn" in outcome
        assert transport.stats["retries"] >= 1
        assert engine.stats.commits == 1
        assert retransmit_violations(manager) == {}

    def test_lost_reply_applies_exactly_once(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="drop", occurrence=1, lost_reply=True,
                         phases=("precommit",)),
        ))
        env, engine, manager, transport = build_chaos_engine(plan)
        outcome = run_one(env, engine, "enqueue", {"payload": "m"})
        assert "txn" in outcome
        # The retransmit re-entered the durability layer and was absorbed.
        assert transport.stats["retransmit_applies"] >= 1
        assert manager.duplicate_precommits >= 1
        assert retransmit_violations(manager) == {}
        assert engine.stats.commits == 1

    def test_duplicated_commit_applies_exactly_once(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="duplicate", occurrence=1, phases=("precommit",)),
        ))
        env, engine, manager, transport = build_chaos_engine(plan)
        outcome = run_one(env, engine, "enqueue", {"payload": "m"})
        assert "txn" in outcome
        assert transport.stats["duplicate_deliveries"] == 1
        assert manager.duplicate_precommits >= 1
        assert retransmit_violations(manager) == {}
        assert engine.stats.commits == 1

    def test_unreachable_server_aborts_cleanly(self):
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=5.0,
                         phases=("start",)),
        ))
        env, engine, _manager, transport = build_chaos_engine(plan)
        outcome = run_one(env, engine, "enqueue", {"payload": "m"})
        aborted = outcome["aborted"]
        assert aborted.reason.startswith("net-unreachable")
        assert transport.stats["unreachable_aborts"] == 1
        assert engine.stats.commits == 0

    def test_broken_dedup_double_applies_and_is_caught(self):
        # The mutation test at engine level: same lost-reply plan as the
        # exactly-once test, dedup broken — the durable log must show the
        # double application.
        plan = MessageFaultPlan(points=(
            MessageFault(kind="drop", occurrence=1, lost_reply=True,
                         phases=("precommit",)),
        ))
        env, engine, manager, transport = build_chaos_engine(plan)
        break_dedup(manager)
        outcome = run_one(env, engine, "enqueue", {"payload": "m"})
        assert "txn" in outcome
        violations = retransmit_violations(manager)
        assert violations, "broken commit-ticket dedup must be caught"
        assert outcome["txn"].txn_id in violations


# ---------------------------------------------------------------------------
# Graceful degradation: the admission valve
# ---------------------------------------------------------------------------


class TestAdmissionValve:
    def test_partition_parks_new_transactions_and_heals(self):
        # Partition every durability server for a long window; the retry
        # backlog passes the threshold, new transactions park, and once the
        # window heals the engine drains and keeps committing.  Sixteen
        # clients: with ten, the valve closes but no client reaches a new
        # transaction before it reopens.
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=10, duration=0.05,
                         servers=(0, 1, 2, 3)),
        ))
        runner = BenchmarkRunner(
            build_workload("smallbank"),
            WORKLOAD_CONFIGURATIONS["smallbank"]["2layer"](),
            seed=3,
            lanes=[NetFaultLane(fault_plan=plan)],
        )
        at_heal = []

        def count_commits_at_heal():
            fault_log = runner.lanes[0].injector.fault_log
            while not fault_log:
                yield 0.001
            yield fault_log[0]["heals_at"] - runner.env.now
            at_heal.append(runner.engine.stats.commits)

        runner.env.process(count_commits_at_heal())
        result = run_and_stop(runner, clients=16, duration=0.4)
        assert result.net_stats["degraded_windows"] >= 1
        assert result.net_stats["parked"] >= 1
        assert at_heal and result.commits > at_heal[0], (
            "the engine must recover and commit after the heal"
        )
        assert result.violations == {}


class TestTransportOutlivesTheEngine:
    def test_second_incarnation_keeps_the_message_path_and_its_counters(self):
        # A partition in the first incarnation, a drop in the second: the
        # one transport the lane installs on both engines counts the
        # retries of both.
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=5, duration=0.01),
            MessageFault(kind="drop", occurrence=400),
        ))
        lane = NetFaultLane(fault_plan=plan)
        runner = BenchmarkRunner(
            build_workload("smallbank"),
            WORKLOAD_CONFIGURATIONS["smallbank"]["2pl"](),
            seed=11,
            lanes=[lane],
        )
        try:
            runner.add_clients(8)
            runner.run_additional(0.02)
            assert [fault["kind"] for fault in lane.injector.fault_log] == ["partition"]
            first_retries = lane.transport.stats["retries"]
            first = runner.engine
            runner._next_incarnation(runner.store)
            assert runner.engine is not first
            assert runner.engine.transport == lane.transport.phase
            result = runner.run(0, duration=0.05, warmup=0.0)
        finally:
            runner.stop()
        assert [fault["kind"] for fault in result.fault_log] == ["partition", "drop"]
        assert result.fault_log[1]["time"] > 0.02
        assert result.net_stats["retries"] > first_retries > 0
        assert result.incarnations == 2
        assert result.violations == {}

    def test_a_replaced_engines_exchanges_leave_the_new_backlog_alone(self):
        # Exchanges stuck behind a long partition close the first engine's
        # valve; the transport then moves to a second engine, and the stale
        # exchanges are closed the way the collector closes an abandoned
        # incarnation's.  The second engine's valve must still close at the
        # threshold: the stale exchanges took nothing off its backlog.
        plan = MessageFaultPlan(points=(
            MessageFault(kind="partition", occurrence=1, duration=1.0, servers=(0,)),
        ))

        def stall(env, engine):
            processes = [
                env.process(engine.execute_transaction("enqueue", {"payload": n}))
                for n in range(PARK_THRESHOLD)
            ]
            env.run(until=0.01)
            return processes

        env, engine, _manager, transport = build_chaos_engine(plan)
        stale = stall(env, engine)
        assert engine.throttled == transport._count_park
        env2, engine2, _manager2, _unused = build_chaos_engine(MessageFaultPlan())
        transport.install(engine2)
        for process in stale:
            process.generator.close()
        assert engine2.throttled is None
        stall(env2, engine2)
        assert engine2.throttled == transport._count_park


# ---------------------------------------------------------------------------
# Empty plan == no injector, byte for byte
# ---------------------------------------------------------------------------


def run_and_stop(runner, clients, duration, raise_on_violation=True):
    """Drive a lane-bearing runner the way the lanes' one-shot helpers do
    (no warm-up), then release the GC state frozen at construction."""
    try:
        return runner.run(
            clients, duration=duration, warmup=0.0,
            raise_on_violation=raise_on_violation,
        )
    finally:
        runner.stop()


class SeedTagOnly(Lane):
    """No fault model at all: only the net lane's client RNG streams, so a
    lane-less run draws the same transactions as one with the lane."""

    client_seed_tag = NetFaultLane.client_seed_tag


def run_pinned(lane):
    workload = QueueWorkload(initial_messages=6, window=8)
    runner = BenchmarkRunner(
        workload,
        WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
        seed=13,
        options=EngineOptions(durability=default_degraded_durability()),
        check_isolation=True,
        lanes=[lane],
    )
    run_and_stop(runner, 8, duration=0.3)
    engine = runner.engine
    return (
        engine.stats.commits,
        engine.stats.aborts,
        sorted(committed_ids(runner.recorder.history())),
        sorted((repr(k), repr(v)) for k, v in runner.store.latest_state().items()),
        runner.env.now,
    )


class TestEmptyPlanIsByteIdentical:
    def test_attached_empty_plan_matches_plain_run(self):
        """The driver with the empty-plan lane ≡ the driver without it."""
        plain = run_pinned(SeedTagOnly())
        empty = run_pinned(NetFaultLane(fault_plan=MessageFaultPlan()))
        assert plain == empty

    def test_empty_plan_installs_no_transport(self):
        runner = BenchmarkRunner(
            QueueWorkload(initial_messages=6, window=8),
            WORKLOAD_CONFIGURATIONS["queue"]["3layer"](),
            lanes=[NetFaultLane(fault_plan=MessageFaultPlan())],
        )
        runner.stop()
        assert runner.engine.transport == runner.engine._delay_phase


# ---------------------------------------------------------------------------
# End-to-end chaos cells
# ---------------------------------------------------------------------------


CHAOS_CELL_PARAMS = [
    (workload_name, config_name)
    for workload_name, config_names in sorted(CHAOS_CELLS.items())
    for config_name in config_names
]


class TestChaosCells:
    @pytest.mark.parametrize("workload_name,config_name", CHAOS_CELL_PARAMS)
    def test_cell_survives_drop_and_partition(self, workload_name, config_name):
        workload = build_workload(workload_name)
        configuration = WORKLOAD_CONFIGURATIONS[workload_name][config_name]()
        result = run_degraded_benchmark(
            workload,
            configuration,
            clients=8,
            duration=0.4,
            seed=11,
            faults=4,
            require=("drop", "partition"),
        )
        kinds = [fault["kind"] for fault in result.fault_log]
        assert "drop" in kinds
        assert "partition" in kinds
        assert result.commits > 0
        assert result.violations == {}
        assert result.extra["isolation"].ok

    def test_checks_hold_with_a_record_ring_below_the_commit_count(self, monkeypatch):
        # The recorder's ring evicts read-only commits (balance) long before
        # the run ends; the durability checks must not mistake them for
        # durable transactions that never committed.
        monkeypatch.setattr(HistoryRecorder, "RECORD_RING", 100)
        result = run_degraded_benchmark(
            build_workload("smallbank"),
            WORKLOAD_CONFIGURATIONS["smallbank"]["2pl"](),
            clients=8,
            duration=0.4,
            seed=11,
            raise_on_violation=False,
        )
        assert result.commits > 100
        assert result.violations == {}
        assert result.extra["isolation"].ok

    def test_fixed_seed_reproduces_byte_identically(self):
        def run():
            return run_degraded_benchmark(
                build_workload("queue"),
                WORKLOAD_CONFIGURATIONS["queue"]["2layer"](),
                clients=8,
                duration=0.3,
                seed=23,
            )

        first, second = run(), run()
        assert first.commits == second.commits
        assert first.aborts == second.aborts
        assert first.fault_log == second.fault_log
        assert first.net_stats == second.net_stats

    def test_adversarial_duplication_reorder_storm_keeps_exactly_once(self):
        # Aim every fault at the commit exchange: lost replies, duplicated
        # deliveries and reorders in a row.  Exactly-once dequeue and the
        # single-ticket invariant must survive the storm.
        points = []
        for _ in range(4):
            points.extend([
                MessageFault(kind="drop", occurrence=2, lost_reply=True,
                             phases=("precommit",)),
                MessageFault(kind="duplicate", occurrence=2,
                             phases=("precommit",)),
                MessageFault(kind="reorder", occurrence=2, magnitude=6.0,
                             phases=("precommit",)),
            ])
        runner = BenchmarkRunner(
            build_workload("queue"),
            WORKLOAD_CONFIGURATIONS["queue"]["2layer"](),
            seed=17,
            lanes=[NetFaultLane(fault_plan=MessageFaultPlan(points=tuple(points)))],
        )
        result = run_and_stop(runner, clients=8, duration=0.4)
        assert result.violations == {}
        assert result.net_stats["retransmit_applies"] >= 1
        assert result.net_stats["duplicate_deliveries"] >= 1
        assert result.extra["isolation"].ok

    def test_mutation_broken_dedup_is_caught_end_to_end(self):
        points = tuple(
            MessageFault(kind="drop", occurrence=2, lost_reply=True,
                         phases=("precommit",))
            for _ in range(3)
        )
        lane = BrokenDedupLane(fault_plan=MessageFaultPlan(points=points))
        runner = BenchmarkRunner(
            build_workload("queue"),
            WORKLOAD_CONFIGURATIONS["queue"]["2layer"](),
            seed=17,
            lanes=[lane],
        )
        result = run_and_stop(
            runner, clients=8, duration=0.4, raise_on_violation=False
        )
        assert "duplicate_tickets" in result.violations, (
            "a deliberately broken commit-ticket dedup must be caught"
        )


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


class TestNetFaultsCLI:
    def test_quick_run_passes(self, capsys):
        code = harness_main([
            "--workload", "queue", "--config", "2layer",
            "--net-faults", "2", "--quick", "--workers", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "degraded-mode checked runs passed" in out
        assert "faults:" in out

    def test_negative_net_faults_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["--workload", "queue", "--net-faults", "-1"])

    def test_no_check_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["--workload", "queue", "--net-faults", "1", "--no-check"])

    def test_unregistered_workload_rejected(self):
        with pytest.raises(SystemExit):
            harness_main(["--workload", "micro", "--net-faults", "1"])

    def test_mutually_exclusive_with_crash_faults(self):
        with pytest.raises(SystemExit):
            harness_main([
                "--workload", "queue", "--faults", "1", "--net-faults", "1",
            ])


# ---------------------------------------------------------------------------
# Randomized soak (slow lane)
# ---------------------------------------------------------------------------


@pytest.mark.slow
class TestChaosSoak:
    @pytest.mark.parametrize("seed", range(6))
    def test_randomized_fault_schedules(self, seed):
        for workload_name, config_name in (("queue", "3layer"), ("smallbank", "2layer")):
            result = run_degraded_benchmark(
                build_workload(workload_name),
                WORKLOAD_CONFIGURATIONS[workload_name][config_name](),
                clients=10,
                duration=0.5,
                seed=1000 + seed,
                faults=6,
            )
            assert result.violations == {}
            assert result.extra["isolation"].ok
