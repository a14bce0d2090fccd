"""The batch leaf's indexes against the scans they replaced.

The deterministic batch leaf asks three questions about its members in
flight: who, sequenced before me, is still executing (commit-order wait);
whose declared writes meet my declared writes or scan ranges (the
dependency graph, at the seal); who, sequenced before me, still has an
unresolved slot inside my range (scan wait).  It answers them from two
indexes.  :class:`ScanningBatch` is the test-only reference: it keeps the
state those questions used to be answered from — every sealed member by
id, a flag at the commit point — recomputes each answer by walking every
member, and asserts on every call that the leaf gave the same one: the same
head blocker (all a wait reads of its blockers), the same predecessors in
the same set-iteration order (the predecessor wait blocks on the first the
set yields).

:class:`WakeCheckingBatch` adds the second reference, for whom a change
wakes: every check above runs with it, and it asserts that no member is
left waiting for its turn at the commit point once its blockers are gone
and that no turn fires while its member is still blocked.  The other waits'
*moved* events run under ``tests/test_wake_reference.py``'s reference.
"""

import contextlib
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.autoconf.profiler import ContentionProfiler
from repro.cc.base import CC_REGISTRY
from repro.cc.batch import DeterministicBatch
from repro.core.config import monolithic
from repro.harness import configs
from repro.harness.runner import BenchmarkRunner
from repro.storage.ranges import KeyRange
from repro.workloads.ycsb import YCSBWorkload
from tests import test_profiler_stream as pinned
from tests.test_retention import _drain, _zipf
from tests.test_wake_reference import assert_drained, checked_wakes, moved_counts


def unresolved_slots_of(store, txn_id):
    """Declared keys of ``txn_id`` whose pre-assigned slots are still unresolved."""
    slots = store._slots
    return [key for key in store._slots_by_txn.get(txn_id, ()) if txn_id in slots.get(key, ())]


class ScanningBatch(DeterministicBatch):
    """Reference: every answer recomputed by scanning the members in flight."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.ref_seqs = {}            # txn_id -> seq: sealed, not finished
        self.ref_committing = set()   # ids past their commit point
        self.asked = Counter()        # question -> answers compared
        self.answered = Counter()     # question -> of those, non-empty ones

    def _compare_head(self, question, answer, expected):
        assert list(answer[:1]) == expected[:1], (question, answer, expected)
        self.asked[question] += 1
        self.answered[question] += bool(expected)
        return answer

    def _seal(self, batch):
        if batch.sealed:
            return
        members = [txn for txn in batch.members if txn.txn_id in self._active]
        super()._seal(batch)
        seqs = self.ref_seqs
        for txn in members:
            state = self.state(txn)
            seq = seqs[txn.txn_id] = state["seq"]
            my_writes = state["write_keys"]
            profile = self.engine.profile_of(txn.txn_type)
            ranges = []
            if profile.scan_ranges is not None:
                ranges = [KeyRange(*declared) for declared in profile.scan_ranges(txn.args)]
            preds = set()
            for other_id, other_seq in seqs.items():
                if other_seq >= seq:
                    continue
                other = self._active.get(other_id)
                if other is None:
                    continue
                other_writes = self.state(other).get("write_keys", ())
                if not other_writes:
                    continue
                if my_writes and not my_writes.isdisjoint(other_writes):
                    preds.add(other_id)
                    continue
                if ranges and any(
                    key_range.covers(key) for key_range in ranges for key in other_writes
                ):
                    preds.add(other_id)
            # Equal as sets *and* in iteration order.
            assert list(state["preds"]) == list(preds), (txn, state["preds"], preds)
            self.asked["preds"] += 1
            self.answered["preds"] += bool(preds)
            self.answered["preds-of-several"] += len(preds) > 1

    def validate(self, txn):
        self.ref_committing.add(txn.txn_id)
        yield from super().validate(txn)

    def finish(self, txn, committed):
        self.ref_seqs.pop(txn.txn_id, None)
        self.ref_committing.discard(txn.txn_id)
        super().finish(txn, committed)

    def _wait_for_progress(self, txn, pending, reason, events):
        if reason != "batch-commit-order":
            return super()._wait_for_progress(txn, pending, reason, events)
        my_seq = self._seq(txn)

        def compared():
            expected = [
                self._active[txn_id]
                for txn_id, seq in self.ref_seqs.items()
                if seq < my_seq and txn_id not in self.ref_committing
            ]
            return self._compare_head("executing", pending(), expected)

        return super()._wait_for_progress(txn, compared, reason, events)

    def _pending_range_writers(self, my_seq, key_range):
        store = self.engine.store
        expected = []
        for writer_id, seq in self.ref_seqs.items():
            if seq >= my_seq:
                continue
            for key in unresolved_slots_of(store, writer_id):
                if key_range.covers(key):
                    expected.append(self._active[writer_id])
                    break
        answer = super()._pending_range_writers(my_seq, key_range)
        return self._compare_head("range", answer, expected)


class WakeCheckingBatch(ScanningBatch):
    """Reference for the commit-order turns: no lost turn, no early turn.

    The commit-order wait is woken only by its own turn, where a broadcast
    used to wake everyone.  This records every waiter's ``blockers``
    callable and its turn and, wherever a turn can pass (a commit point, an
    abort's finish) and at drain, asserts that no waiter whose blockers are
    gone still waits for a turn that has not fired.  A turn must only fire
    once its member's blockers are gone for good: on waking from one, the
    wait must find none.  The slot, install-order and scan waits' *moved*
    events are held to ``tests/test_wake_reference.py``'s reference, which
    :func:`reference_leaf` enters as well.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.suspended = {}  # txn_id -> (blockers, turn)

    def check_turns(self):
        for blockers, turn in self.suspended.values():
            if not turn.triggered:
                assert blockers(), "lost turn"
                self.asked["still-waiting"] += 1

    def _wait_for_progress(self, txn, pending, reason, events):
        self.check_turns()                    # validate calls this at its commit point
        if reason != "batch-commit-order":
            return super()._wait_for_progress(txn, pending, reason, events)
        suspended = self.suspended

        def subscribe(blocker):
            subscribed = events(blocker)
            suspended[txn.txn_id] = (pending, subscribed[0])
            return subscribed

        def resumed():
            entry = suspended.pop(txn.txn_id, None)
            answer = pending()
            if entry is not None and entry[1].triggered:
                assert not answer, ("turn fired early", txn)
                self.asked["turns"] += 1
            return answer

        wait = super()._wait_for_progress(txn, resumed, reason, subscribe)
        return self._forgetting(txn, wait)

    def _forgetting(self, txn, wait):
        try:
            yield from wait
        finally:                              # returned, or aborted at a deadline
            self.suspended.pop(txn.txn_id, None)

    def finish(self, txn, committed):
        super().finish(txn, committed)
        self.check_turns()


@contextlib.contextmanager
def reference_leaf():
    """Every ``batch`` node built inside is a :class:`WakeCheckingBatch`,
    and every moved event a checked one; yields the moved-event helpers."""
    CC_REGISTRY["batch"] = WakeCheckingBatch
    try:
        with checked_wakes() as helpers:
            yield helpers
    finally:
        CC_REGISTRY["batch"] = DeterministicBatch


def _totals(engine, helpers):
    leaves = [node.cc for node in engine.nodes if node.cc.name == "batch"]
    assert leaves and all(isinstance(cc, WakeCheckingBatch) for cc in leaves)
    assert_drained(helpers)
    asked, answered = moved_counts(helpers), Counter()
    for cc in leaves:
        cc.check_turns()
        asked.update(cc.asked)
        answered.update(cc.answered)
        assert cc.ref_seqs == {} and cc._executing == {} and cc._writers == {}
        assert cc.suspended == {} and cc._moved == {} and cc._turns == []
    return asked, answered


BATCH_TREES = ["mono-batch", "ssi/(none,batch)", "2pl/(batch,2pl)", "ssi/(batch,batch)"]


def test_conformance_trees_answer_as_the_scans_did():
    """The pinned conformance runs (short timeouts: every wait kind, every
    abort path), with the reference comparing each answer on the way."""
    for tree in BATCH_TREES:
        profiler = ContentionProfiler()
        with reference_leaf() as helpers:
            engine = pinned._run_conformance(tree, profiler)
        # It is the pinned run that was compared, not one the reference moved.
        assert pinned._stream(profiler) == pinned.CONFORMANCE_STREAM[tree]
        asked, answered = _totals(engine, helpers)
        for question in ("executing", "preds", "range"):
            assert asked[question] > 0 and answered[question] > 0, (tree, question)
        # Multi-key writers: predecessors gathered over several keys had to
        # be put back in sequence order.
        assert answered["preds-of-several"] > 0, tree
        assert asked["turns"] > 0 and asked["still-blocked"] > 0, tree


#: (workload factory, configuration factory, clients, sim seconds, has scans)
YCSB_CELLS = {
    "ycsb-zipf/batch": (*pinned.CELLS["ycsb-zipf/batch"], False),
    "ycsb-scan/batch": (
        lambda: YCSBWorkload(records=300, profile="e"),
        configs.WORKLOAD_CONFIGURATIONS["ycsb-scan"]["batch"], 16, 0.1, True,
    ),
    # Scans run outside the leaf here: only the inserts are members.
    "ycsb-scan/batch-2layer": (
        lambda: YCSBWorkload(records=300, profile="e"),
        configs.WORKLOAD_CONFIGURATIONS["ycsb-scan"]["batch-2layer"], 16, 0.1, False,
    ),
}


def _run_cell(workload, configuration, clients, duration):
    with reference_leaf() as helpers:
        runner = BenchmarkRunner(workload, configuration, seed=11)
        try:
            runner.run(clients, duration=duration, warmup=0.0)
            _drain(runner)                    # the indexes must empty
        finally:
            runner.stop()
    return runner.engine, helpers


def test_ycsb_cells_answer_as_the_scans_did():
    for name, (workload, configuration, clients, duration, scans) in YCSB_CELLS.items():
        engine, helpers = _run_cell(workload(), configuration(), clients, duration)
        assert engine.stats.commits > 100, name
        asked, answered = _totals(engine, helpers)
        assert asked["preds"] > 0 and asked["executing"] > 0, name
        assert (asked["range"] > 0) == scans, name
        # No deadline fires here: every blocked commit-order wait was woken
        # once, by its turn, and found nothing more in its way.
        assert asked["turns"] == answered["executing"], name
        if name == "ycsb-zipf/batch":
            assert answered["preds"] > 0 and answered["executing"] > 0
            assert asked["still-blocked"] > 0


@given(
    batch_size=st.integers(1, 24),
    inflight=st.integers(1, 6),
    clients=st.integers(1, 48),
)
@settings(max_examples=12, deadline=None)
def test_any_batch_shape_answers_as_the_scans_did(batch_size, inflight, clients):
    configuration = monolithic(
        "batch",
        configs.YCSB_TRANSACTIONS,
        params={"batch_size": batch_size, "max_inflight_batches": inflight},
    )
    engine, helpers = _run_cell(_zipf(), configuration, clients, 0.03)
    asked, _answered = _totals(engine, helpers)
    assert engine.stats.commits > 0 and asked["preds"] >= engine.stats.commits
