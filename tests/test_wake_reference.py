"""One way to be woken: the no-lost-wakeup reference for ``MovedEvents``.

RP's pipeline waits, the batch leaf's slot, install-order and scan waits and
TSO's promise waits subscribe to their head's *moved* event
(``repro.core.waits.MovedEvents``), not to a broadcast, so a missing fire
leaves a waiter asleep until its deadline.  Inside :func:`checked_wakes`
every mechanism builds a :class:`CheckedMovedEvents` instead, the wait loop
tells it who waits on each of its events with which ``blockers``, and it
asserts after every fire, on every new subscription and at drain that no
waiter whose blockers are gone still sits on events none of which has
fired.  The runs are the pinned ones of ``tests/test_profiler_stream.py``:
the reference watches them without moving them.  The batch trees run under
it in ``tests/test_batch_reference.py``, beside the batch leaf's turns.

An RP scan that enters a new step is a move like a point access's, and a
test pins that it wakes whom it moved past.  TSO's commit-order wait is not
a turn, and the last test says why.
"""

import contextlib
import dataclasses
from collections import Counter
from unittest import mock

import pytest

from repro.autoconf.profiler import ContentionProfiler
from repro.cc import batch, runtime_pipelining, tso
from repro.core.config import monolithic
from repro.core.engine import EngineOptions
from repro.core.waits import MovedEvents, Waits, _finish_event
from repro.sim.environment import Environment
from tests import test_profiler_stream as pinned
from tests.conftest import build_engine
from tests.test_cc_conformance import TwoStepWorkload
from tests.test_retention import _drain

#: Wait kinds that subscribe to a moved event.
MOVED_KINDS = {
    "rp-pipeline", "tso-promise", "batch-slot-wait", "batch-install-order", "batch-scan-wait",
}


class CheckedMovedEvents(MovedEvents):
    """A mechanism's moved events, knowing who waits on them."""

    __slots__ = ("waiting", "counts")

    def __init__(self, env):
        super().__init__(env)
        self.waiting = {}  # txn_id -> (reason, blockers, events subscribed)
        self.counts = Counter()

    def check(self):
        for reason, blockers, subscribed in self.waiting.values():
            if not any(event.triggered for event in subscribed):
                assert blockers(), ("lost wakeup", reason)
                self.counts["still-blocked"] += 1

    def fire(self, txn):
        super().fire(txn)
        self.counts["fired"] += 1
        self.check()


@contextlib.contextmanager
def checked_wakes():
    """Every ``MovedEvents`` built inside is checked; yields them all."""
    helpers = []
    plain_wait = Waits.wait

    def build(env):
        helper = CheckedMovedEvents(env)
        helpers.append(helper)
        return helper

    def forget(txn):
        for helper in helpers:
            helper.waiting.pop(txn.txn_id, None)

    def wait(self, txn, blockers, reason, events=_finish_event, **kwargs):
        def pending():                        # a new pass: the last one woke
            forget(txn)
            return blockers()

        def subscribe(blocker):
            subscribed = events(blocker)
            for helper in helpers:
                if helper.get(blocker.txn_id) in subscribed:
                    helper.waiting[txn.txn_id] = (reason, blockers, subscribed)
                    helper.counts["subscribed"] += 1
                    helper.check()
            return subscribed

        try:
            yield from plain_wait(self, txn, pending, reason, events=subscribe, **kwargs)
        finally:                              # returned, or aborted
            forget(txn)

    with contextlib.ExitStack() as stack:
        for module in (batch, runtime_pipelining, tso):
            stack.enter_context(mock.patch.object(module, "MovedEvents", build))
        stack.enter_context(mock.patch.object(Waits, "wait", wait))
        yield helpers


def assert_drained(helpers):
    """At drain nobody waits and no event is left for a blocker."""
    assert helpers
    for helper in helpers:
        helper.check()
        assert helper.waiting == {} and helper == {}


def moved_counts(helpers):
    counts = Counter()
    for helper in helpers:
        counts.update(helper.counts)
    return counts


def _runner_cell(cell):
    profiler = ContentionProfiler()
    with checked_wakes() as helpers:
        runner = pinned._run(cell, profiler)
        stream = pinned._stream(profiler)
        _drain(runner)
    return stream, pinned.STREAM[cell], helpers


def _conformance_tree(tree):
    profiler = ContentionProfiler()
    with checked_wakes() as helpers:
        pinned._run_conformance(tree, profiler)   # runs until the queue drains
    return pinned._stream(profiler), pinned.CONFORMANCE_STREAM[tree], helpers


#: cell -> how it runs; the batch trees run in tests/test_batch_reference.py.
CELLS = {
    "tpcc/tebaldi-3layer": _runner_cell,
    "ycsb-zipf/tso": _runner_cell,
    "2pl/(rp,rp)": _conformance_tree,
    "mono-tso": _conformance_tree,
    "2pl/(2pl,tso)": _conformance_tree,
}


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_no_waiter_outlives_its_blockers(cell):
    stream, recorded, helpers = CELLS[cell](cell)
    assert stream == recorded                 # the pinned run, not a moved one
    assert_drained(helpers)
    counts = moved_counts(helpers)
    assert counts["fired"] > 0
    if MOVED_KINDS & set(stream[1]):
        assert counts["subscribed"] > 0 and counts["still-blocked"] > 0, counts


class ScanStepWorkload(TwoStepWorkload):
    """Three tables, so three RP steps; every type may scan the last one.
    ``("scan", table)`` scans a whole table, ``("mark", label)`` notes the
    simulated time it is reached in :attr:`marks`, and a transaction returns
    the sum of what it read."""

    name = "scan-step"
    TABLES = ("hot", "tail", "log")

    def __init__(self):
        self.marks = {}

    def _run_ops(self, ctx, ops):
        total = 0
        for op in ops:
            if op[0] == "scan":
                yield from ctx.scan(op[1])
            elif op[0] == "mark":
                self.marks[op[1]] = ctx.now
            else:
                total += yield from super()._run_ops(ctx, [op])
        return total

    def build_transaction_types(self):
        types = super().build_transaction_types()
        for txn_type in types.values():
            txn_type.profile = dataclasses.replace(txn_type.profile, scans=("log",))
        return types


def test_an_rp_scan_that_advances_a_step_wakes_its_pipeline_waiters():
    """t1 writes hot.0 and moves on to ``tail``, passing the key; t2 reads
    it, is ordered after t1, and waits at RP's pipeline to enter ``tail``
    while t1 is still there.  t1 then moves to ``log`` by a scan and thinks
    before it commits: t2 enters ``tail`` at t1's scan, not at its finish."""
    env = Environment()
    workload = ScanStepWorkload()
    engine = build_engine(
        env,
        workload,
        monolithic("rp", ("alpha", "beta"), name="rp-scan-step"),
        options=EngineOptions(charge_costs=False, lock_timeout=4.0, commit_wait_timeout=4.0),
    )
    t1_ops = [
        ("w", "hot", 0, 10), ("r", "tail", 0), ("think", 0.2),
        ("scan", "log"), ("mark", "t1 scanned"), ("think", 1.0), ("mark", "t1 done"),
    ]
    t2_ops = [("think", 0.1), ("r", "hot", 0), ("r", "tail", 1), ("mark", "t2 in tail")]
    processes = [
        env.process(engine.execute_transaction(txn_type, {"ops": ops}))
        for txn_type, ops in (("alpha", t1_ops), ("beta", t2_ops))
    ]
    env.run(until=0.15)
    t1, t2 = sorted(engine.active.values(), key=lambda txn: txn.txn_id)
    assert t1.txn_id in t2.dependencies
    assert t2.current_wait == ("rp-pipeline", t1.txn_id)
    env.run()
    assert all(process.value.committed for process in processes)
    assert workload.marks["t2 in tail"] == workload.marks["t1 scanned"] == 0.2
    assert workload.marks["t1 done"] >= 1.2


class PromiseWorkload(ScanStepWorkload):
    """:class:`ScanStepWorkload` whose transactions promise the keys their
    ``promise`` argument names."""

    name = "promise"

    def _run_ops(self, ctx, ops, promise=()):
        return (yield from super()._run_ops(ctx, ops))

    def build_transaction_types(self):
        types = super().build_transaction_types()
        for txn_type in types.values():
            txn_type.profile = dataclasses.replace(
                txn_type.profile, promise_keys=lambda args: args.get("promise", ())
            )
        return types


def _promise_run(lanes):
    """Run ``(txn_type, ops, promised keys)`` lanes, started in this order
    (so in timestamp order), on a TSO leaf with no costs charged and every
    moved event checked.  Returns the workload's marks, with the time each
    lane's transaction finished (``"t1 finished"``, ...), and the finished
    transactions, in lane order."""
    env = Environment()
    workload = PromiseWorkload()
    with checked_wakes() as helpers:
        engine = build_engine(
            env,
            workload,
            monolithic("tso", ("alpha", "beta"), name="tso-promise"),
            options=EngineOptions(charge_costs=False, commit_wait_timeout=4.0),
        )

        def lane(index, txn_type, ops, promised):
            txn = yield from engine.execute_transaction(
                txn_type, {"ops": ops, "promise": promised}
            )
            workload.marks[f"t{index} finished"] = env.now
            return txn

        processes = [
            env.process(lane(index, *spec)) for index, spec in enumerate(lanes, 1)
        ]
        env.run()
    assert_drained(helpers)
    txns = [process.value for process in processes]
    assert all(txn.committed for txn in txns)
    return workload.marks, txns


class TestPromiseWait:
    """A TSO read waits for the earlier-timestamp members that promised its
    key and have not written it yet, and for nobody else."""

    HOT = ("hot", 0)

    def test_the_reader_resumes_at_the_promised_write(self):
        marks, (t1, t2) = _promise_run([
            ("alpha", [("think", 0.2), ("w", "hot", 0, 10), ("mark", "t1 wrote"),
                       ("think", 1.0)], (self.HOT,)),
            ("beta", [("think", 0.1), ("r", "hot", 0), ("mark", "t2 read")], ()),
        ])
        assert marks["t2 read"] == marks["t1 wrote"] == 0.2
        assert marks["t1 finished"] >= 1.2
        assert t2.result == 10 and t1.txn_id in t2.read_from

    def test_a_later_promisor_does_not_block(self):
        marks, (t1, t2) = _promise_run([
            ("beta", [("think", 0.1), ("r", "hot", 0), ("mark", "t1 read")], ()),
            ("alpha", [("think", 0.2), ("w", "hot", 0, 10)], (self.HOT,)),
        ])
        assert marks["t1 read"] == 0.1
        assert t1.result == 0 and t2.txn_id not in t1.read_from

    def test_a_promisor_that_never_writes_holds_the_reader_until_it_finishes(self):
        marks, (t1, t2) = _promise_run([
            ("alpha", [("w", "tail", 0, 10), ("think", 0.5)], (self.HOT,)),
            ("beta", [("think", 0.1), ("r", "hot", 0), ("mark", "t2 read")], ()),
        ])
        assert marks["t2 read"] == marks["t1 finished"] == 0.5
        assert t2.result == 0


def test_the_commit_order_wait_names_the_live_head():
    """Why TSO's commit-order wait is not a turn.  t1, t2, t3 start in this
    order; t3 reaches ``validate`` first and waits for t1.  When t1
    finishes, t3's next pass publishes its edge to t2, the new head, so the
    deadlock walk sees a cycle through t2.  A turn would sleep through t1's
    finish with the edge still naming t1, and that cycle would surface only
    as a timeout."""
    env = Environment()
    engine = build_engine(
        env,
        TwoStepWorkload(),
        monolithic("tso", ("alpha", "beta"), name="tso-commit-order"),
        options=EngineOptions(charge_costs=False, commit_wait_timeout=4.0),
    )
    processes = [
        env.process(engine.execute_transaction(txn_type, {"ops": [("think", think)]}))
        for txn_type, think in (("alpha", 0.3), ("beta", 0.6), ("alpha", 0.1))
    ]
    env.run(until=0.05)
    t1, t2, t3 = sorted(engine.active.values(), key=lambda txn: txn.cc_timestamp)
    env.run(until=0.2)
    assert t3.current_wait == ("tso-commit-order", t1.txn_id)
    env.run(until=0.45)
    assert not t1.is_active and t2.is_active
    assert t3.current_wait == ("tso-commit-order", t2.txn_id)
    assert engine.waits.would_deadlock(t2, t3.txn_id)
    env.run()
    assert all(process.value.committed for process in processes)
