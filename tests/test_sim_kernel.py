"""Tests for the discrete-event simulation kernel."""

import gc
import sys
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from repro.core.config import Configuration, leaf, monolithic, node
from repro.errors import SimulationError
from repro.harness import configs
from repro.harness.runner import BenchmarkRunner
from repro.sim import environment, events
from repro.sim.environment import Environment, Process
from repro.sim.events import Event, any_of
from repro.sim.network import CC_LAYER_CPU, OPERATION_CPU, PHASE_CPU, RTT
from repro.sim.events import Condition
from tests.conftest import build_engine, think
from tests.test_retention import CLIENTS, _tiny_tpcc


class TestEvents:
    def test_event_starts_pending(self, env):
        event = env.event("e")
        assert not event.triggered

    def test_succeed_sets_value(self, env):
        event = env.event("e").succeed(42)
        assert event.triggered and event.ok
        assert event.value == 42

    def test_double_trigger_raises(self, env):
        event = env.event("e").succeed(1)
        with pytest.raises(SimulationError):
            event.succeed(2)

    def test_fail_requires_exception(self, env):
        event = env.event("e")
        with pytest.raises(SimulationError):
            event.fail("not an exception")

    def test_fail_marks_error(self, env):
        event = env.event("e").fail(ValueError("boom"))
        assert event.triggered and not event.ok

    def test_value_before_trigger_raises(self, env):
        with pytest.raises(SimulationError):
            _ = env.event("e").value

    def test_negative_timeout_rejected(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)


class TestProcesses:
    def test_process_advances_time(self, env):
        log = []

        def proc():
            yield env.timeout(1.5)
            log.append(env.now)

        env.process(proc())
        env.run()
        assert log == [1.5]

    def test_process_return_value(self, env):
        def proc():
            yield env.timeout(1)
            return "done"

        process = env.process(proc())
        assert env.run(until=process) == "done"

    def test_yield_from_composition(self, env):
        def inner():
            yield env.timeout(1)
            return 10

        def outer():
            value = yield from inner()
            yield env.timeout(1)
            return value + 1

        process = env.process(outer())
        assert env.run(until=process) == 11
        assert env.now == pytest.approx(2.0)

    def test_waiting_on_another_process(self, env):
        def child():
            yield env.timeout(2)
            return "child-result"

        def parent():
            child_process = env.process(child())
            result = yield child_process
            return result

        process = env.process(parent())
        assert env.run(until=process) == "child-result"

    def test_exception_propagates_to_waiter(self, env):
        def child():
            yield env.timeout(1)
            raise ValueError("child failed")

        def parent():
            try:
                yield env.process(child())
            except ValueError:
                return "caught"
            return "not caught"

        process = env.process(parent())
        assert env.run(until=process) == "caught"

    def test_unwaited_exception_surfaces(self, env):
        def proc():
            yield env.timeout(1)
            raise RuntimeError("unobserved")

        env.process(proc())
        with pytest.raises(RuntimeError):
            env.run()

    def test_yielding_non_event_fails_process(self, env):
        def proc():
            yield "not an event"

        def parent():
            try:
                yield env.process(proc())
            except SimulationError:
                return "rejected"

        process = env.process(parent())
        assert env.run(until=process) == "rejected"

    def test_run_until_time_horizon(self, env):
        ticks = []

        def proc():
            while True:
                yield env.timeout(1)
                ticks.append(env.now)

        env.process(proc())
        env.run(until=3.5)
        assert ticks == [1, 2, 3]
        assert env.now == 3.5

    def test_events_fire_in_time_order(self, env):
        order = []

        def make(delay, label):
            def proc():
                yield env.timeout(delay)
                order.append(label)

            return proc

        env.process(make(3, "c")())
        env.process(make(1, "a")())
        env.process(make(2, "b")())
        env.run()
        assert order == ["a", "b", "c"]

    def test_any_of_returns_first(self, env):
        def proc():
            first = env.timeout(5, value="slow")
            second = env.timeout(1, value="fast")
            index, value = yield any_of(env, [first, second])
            return index, value

        process = env.process(proc())
        assert env.run(until=process) == (1, "fast")


class TestSleeps:
    """A process that yields a bare ``float`` sleeps that long: its resume
    goes on the run queue under the key a ``Timeout`` built at the yield
    would have taken, with no Event in between."""

    def test_a_sleep_queues_no_event(self, env):
        def sleeper():
            yield 1.5
            return env.now

        process = env.process(sleeper())
        env.run(until=0)
        ((time, _seq, wake),) = env._queue
        assert time == 1.5 and not isinstance(wake, Event)
        assert env.run(until=process) == 1.5

    @given(
        schedule=st.lists(
            st.tuples(
                st.sampled_from([0.0, 0.5, 1.0]),   # delay of every sleep
                st.integers(min_value=1, max_value=3),  # sleeps
                st.booleans(),                      # sleeps by float
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_float_and_timeout_sleeps_interleave_identically(self, schedule):
        """Each process alternates a sleep with a wait on an event it has
        just triggered, so same-instant Event entries sit between the
        sleeps: turning any subset of the sleeps into floats moves nothing."""

        def run(floats):
            env = Environment()
            log = []

            def proc(label, delay, sleeps, as_float):
                for _ in range(sleeps):
                    yield delay if floats and as_float else env.timeout(delay)
                    log.append((env.now, label, "slept"))
                    yield env.event().succeed()
                    log.append((env.now, label, "woken"))

            for label, (delay, sleeps, as_float) in enumerate(schedule):
                env.process(proc(label, delay, sleeps, as_float))
            env.run()
            return log

        assert run(floats=True) == run(floats=False)

    def test_a_negative_sleep_raises_in_the_yielding_process(self, env):
        with pytest.raises(SimulationError):
            env.timeout(-1)

        def proc():
            try:
                yield -1.0
            except SimulationError:
                yield 0.5
                return "raised"

        process = env.process(proc())
        assert env.run(until=process) == "raised" and env.now == 0.5

    def test_yielding_an_int_fails_the_process(self, env):
        """Only a ``float`` is a sleep: ``yield 1`` is a mistake, not one
        virtual second."""

        def proc():
            yield 1

        def parent():
            try:
                yield env.process(proc())
            except SimulationError:
                return "rejected"

        process = env.process(parent())
        assert env.run(until=process) == "rejected" and env.now == 0

    def test_think_sleeps_on_its_duration_as_a_float(self):
        (delay,) = think(2)
        assert type(delay) is float and delay == 2.0
        assert list(think(0)) == []

    def _leaves_no_cyclic_garbage(self, scenario):
        gc.collect()
        gc.disable()
        try:
            scenario()
            return gc.collect() == 0
        finally:
            gc.enable()

    def test_a_finished_process_leaves_no_cyclic_garbage(self):
        def scenario():
            env = Environment()

            def child():
                yield 1.0
                return "child"

            def parent():
                result = yield env.process(child())
                yield 2.0
                return result

            assert env.run(until=env.process(parent())) == "child"

        assert self._leaves_no_cyclic_garbage(scenario)

    def test_dropping_the_environment_mid_sleep_leaves_no_cyclic_garbage(self):
        """The run queue holds the sleeper; the sleeper holds its
        environment only weakly."""

        def sleeper():
            while True:
                yield 1.0

        def scenario():
            env = Environment()
            env.process(sleeper())
            env.run(until=2.5)

        assert self._leaves_no_cyclic_garbage(scenario)


def kernel_entries_per_commit(first=300, last=1200):
    """Run-queue entries pushed per commit on ``tpcc/3layer`` (seed 7, 16
    clients) between two commit counts: timed wakes (a process yielded a
    float) and Event entries (timeouts, triggered events, finished
    processes).  ``scripts/check.sh`` prints both, so plain sleeps turned
    back into events show."""
    counts = Counter()
    sleep_code = Process._resume.__code__

    def counting(push):
        def heappush(queue, entry):
            if isinstance(entry[2], Event):
                counts["events"] += 1
            elif sys._getframe(1).f_code is sleep_code:
                counts["sleeps"] += 1
            push(queue, entry)

        return heappush

    pushes = environment._heappush, events.heappush
    environment._heappush, events.heappush = map(counting, pushes)
    runner = BenchmarkRunner(_tiny_tpcc(), configs.tpcc_tebaldi_3layer(), seed=7)
    try:
        runner.add_clients(CLIENTS)
        stats = runner.engine.stats
        window = []
        for target in (first, last):
            while stats.commits < target:
                runner.run_additional(0.01)
            window.append((stats.commits, counts["sleeps"], counts["events"]))
    finally:
        environment._heappush, events.heappush = pushes
        runner.stop()
    (commits_0, sleeps_0, events_0), (commits_1, sleeps_1, events_1) = window
    commits = commits_1 - commits_0
    return (sleeps_1 - sleeps_0) / commits, (events_1 - events_0) / commits


def test_plain_sleeps_are_not_events():
    """Every charge of ``tpcc/3layer`` — per operation, per phase, the
    retry backoff — is a timed wake; what is left as Event entries is the
    waits, the finish events and the lock-wait deadlines.  Measured: 37.6
    sleeps and 15.4 events; with every sleep a ``Timeout`` it was 0 and
    53.0, so one charge site turned back into an Event fails this."""
    sleeps, events_ = kernel_entries_per_commit()
    assert sleeps > 37 and events_ < 16


class TestTimeoutCancel:
    """``Timeout.cancel``: the owner withdraws a deadline that lost its race."""

    def test_cancelled_timeout_neither_fires_nor_advances_clock(self, env):
        fired = []
        live = env.timeout(1)
        live.callbacks.append(lambda event: fired.append("live"))
        dead = env.timeout(5)
        dead.callbacks.append(lambda event: fired.append("dead"))
        dead.cancel()
        # One dead entry beside one live one: not compacted, so the run loop
        # itself has to skip it.
        assert len(env._queue) == 2
        env.run()
        assert fired == ["live"]
        # Run-to-exhaustion ends at the last live event, not at t=5.
        assert env.now == 1
        assert env._queue == [] and env._cancelled == 0

    def test_cancelled_head_does_not_move_a_horizon_run(self, env):
        env.timeout(1).cancel()
        env.timeout(2)
        env.run(until=1.5)
        assert env.now == 1.5
        env.run()
        assert env.now == 2

    def test_cancelling_a_fired_or_cancelled_timeout_is_a_noop(self, env):
        fired = env.timeout(1)
        env.timeout(3)
        env.run(until=2)
        fired.cancel()
        assert fired.callbacks == [] and env._cancelled == 0
        pending = env.timeout(1)
        pending.cancel()
        pending.cancel()
        assert env._cancelled == 1
        env.run()
        assert env.now == 3

    def test_compaction_when_cancelled_outnumber_live(self, env):
        keep = [env.timeout(10 + i) for i in range(3)]
        drop = [env.timeout(1 + i) for i in range(4)]
        for timeout in drop[:3]:
            timeout.cancel()
        assert len(env._queue) == 7 and env._cancelled == 3
        drop[3].cancel()  # 4 dead of 7: rebuilt without them
        assert len(env._queue) == 3 and env._cancelled == 0
        assert [entry[2] for entry in sorted(env._queue)] == keep
        env.run()
        assert env.now == 12

    def test_waiter_on_a_cancelled_timeout_never_resumes(self, env):
        """Unsupported by contract, and pinned: cancel drops the subscribers
        (a wait helper's exit may leave a dead ``AnyOf`` attached), so a
        process that still waits on the timeout is never resumed."""
        resumed = []
        deadline = env.timeout(5)

        def waiter():
            yield deadline
            resumed.append(env.now)

        process = env.process(waiter())
        env.timeout(1).callbacks.append(lambda event: deadline.cancel())
        env.run()
        assert resumed == [] and not process.triggered
        assert env.now == 1

    def test_any_of_survives_a_cancelled_source(self, env):
        """An ``AnyOf`` still attached to a cancelled deadline (exception
        exit of a wait helper) resolves through its other source."""
        signal = env.event("signal")
        deadline = env.timeout(5)
        combined = any_of(env, [signal, deadline])
        deadline.cancel()
        signal.succeed("go")
        env.run()
        assert combined.value == (0, "go")

    @given(
        schedule=st.lists(
            st.tuples(
                st.integers(min_value=1, max_value=40),           # fires at
                st.one_of(st.none(), st.integers(0, 39)),         # cancelled at
            ),
            min_size=1,
            max_size=30,
        ),
        purge_at=st.integers(min_value=0, max_value=40),
    )
    def test_cancel_is_equivalent_to_never_waiting(self, schedule, purge_at):
        """Random timeouts with random cancels dispatch the same callbacks
        at the same times and in the same order as the same schedule where
        the cancelled timeouts simply have no waiter — across a compaction
        forced at ``purge_at`` by cancelling a majority of filler entries."""

        def run(cancelling):
            env = Environment()
            log = []
            doomed = []
            for index, (fires_at, cancel_at) in enumerate(schedule):
                timeout = env.timeout(fires_at)
                if cancel_at is not None and cancel_at < fires_at:
                    doomed.append((cancel_at, timeout))
                else:
                    timeout.callbacks.append(
                        lambda event, index=index: log.append((env.now, index))
                    )
            # More fillers than timeouts and cancellers together.
            fillers = [env.timeout(100 + i) for i in range(2 * len(schedule) + 2)]
            if cancelling:
                for cancel_at, timeout in doomed:
                    env.timeout(cancel_at).callbacks.append(
                        lambda event, timeout=timeout: timeout.cancel()
                    )

                def purge(event):
                    before = len(env._queue)
                    for filler in fillers:
                        filler.cancel()
                    # Only a compaction shrinks the queue.
                    assert len(env._queue) < before

                env.timeout(purge_at).callbacks.append(purge)
            env.run()
            return log

        assert run(cancelling=True) == run(cancelling=False)


class TestResources:
    def test_condition_broadcast(self, env):
        condition = Condition(env, "c")
        woken = []

        def waiter(label):
            yield from condition.wait()
            woken.append(label)

        for label in "abc":
            env.process(waiter(label))

        def notifier():
            yield env.timeout(1)
            condition.notify_all()

        env.process(notifier())
        env.run()
        assert sorted(woken) == ["a", "b", "c"]

    def test_notify_without_a_waiter_schedules_nothing(self, env):
        condition = Condition(env, "c")
        env.timeout(1)
        queued = list(env._queue)
        condition.notify_all()
        assert env._queue == queued
        woken = []

        def waiter():
            yield from condition.wait()
            woken.append(env.now)

        def notifier():
            yield env.timeout(2)
            condition.notify_all()

        env.process(waiter())
        env.process(notifier())
        env.run()
        assert woken == [2]


def _route(env, workload, configuration):
    """The compiled route of ``group_a_update`` under ``configuration``."""
    return build_engine(env, workload, configuration)._routes["group_a_update"]


class TestCostConstants:
    def test_route_charges_a_round_trip_plus_cpu(self, env, micro_workload):
        route = _route(env, micro_workload, monolithic("2pl", sorted(micro_workload.transaction_types())))
        assert route.op_delay == pytest.approx(OPERATION_CPU + CC_LAYER_CPU + RTT)
        assert route.phase_delay == pytest.approx(PHASE_CPU + CC_LAYER_CPU + RTT)

    def test_route_charges_scale_with_layers(self, env, micro_workload):
        shallow = _route(env, micro_workload, monolithic("2pl", sorted(micro_workload.transaction_types())))
        deep = _route(env, micro_workload, Configuration(node(
            "2pl", node("2pl", leaf("2pl", "group_a_update")), leaf("rp", "group_b_update")
        )))
        assert len(deep.nodes) == 3
        assert deep.op_delay - shallow.op_delay == pytest.approx(2 * CC_LAYER_CPU)
        assert deep.phase_cost - shallow.phase_cost == pytest.approx(2 * CC_LAYER_CPU)
