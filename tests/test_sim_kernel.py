"""Tests for the discrete-event simulation kernel."""

import pytest
from hypothesis import given, strategies as st

from repro.core.config import Configuration, leaf, monolithic, node
from repro.errors import SimulationError
from repro.sim.environment import Environment
from repro.sim.events import Event, any_of
from repro.sim.network import CC_LAYER_CPU, OPERATION_CPU, PHASE_CPU, RTT
from repro.sim.events import Condition
from tests.conftest import build_engine


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
        assert resumed == [] and process.is_alive
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
        route = _route(env, micro_workload, monolithic("2pl", micro_workload.transaction_names()))
        assert route.op_delay == pytest.approx(OPERATION_CPU + CC_LAYER_CPU + RTT)
        assert route.phase_delay == pytest.approx(PHASE_CPU + CC_LAYER_CPU + RTT)

    def test_route_charges_scale_with_layers(self, env, micro_workload):
        shallow = _route(env, micro_workload, monolithic("2pl", micro_workload.transaction_names()))
        deep = _route(env, micro_workload, Configuration(node(
            "2pl", node("2pl", leaf("2pl", "group_a_update")), leaf("rp", "group_b_update")
        )))
        assert len(deep.nodes) == 3
        assert deep.op_delay - shallow.op_delay == pytest.approx(2 * CC_LAYER_CPU)
        assert deep.phase_cost - shallow.phase_cost == pytest.approx(2 * CC_LAYER_CPU)
