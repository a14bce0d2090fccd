"""Streaming DSG checker: native detectors held to the networkx reference.

Three layers of equivalence:

* the incremental (Pearce-Kelly) detector and the reference's batch
  Tarjan against ``networkx`` on random edge streams (Hypothesis);
* the streaming edge derivation against the post-hoc reference
  (``tests/reference_checker.py``) on the adversarial hand-built histories
  (intermediate read, G1c, G2, read-only anomaly) replayed commit-by-commit
  through a streaming recorder;
* end-to-end checked runs, where the streaming verdict must agree with the
  full post-hoc reference pass over the same recorded history.
"""

from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.harness import configs, runner as runner_module
from repro.harness.runner import BenchmarkRunner, Lane
from repro.core.config import monolithic
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.core.transaction import Transaction
from repro.isolation.checker import check_recorder
from repro.isolation.cycles import IncrementalCycleDetector, strongly_connected_components
from repro.isolation.history import History, HistoryRecorder, HistoryTransaction
from repro.isolation.streaming import StreamingDSGChecker
from repro.sim.environment import Environment
from repro.storage.ranges import KeyRange
from repro.workloads.micro import CrossGroupConflictWorkload
from repro.workloads.queue import QueueWorkload
from repro.workloads.smallbank import SmallBankWorkload
from tests.conftest import build_engine, run_transactions
from tests.reference_checker import check_history, find_cycle, iter_dsg_edges
from tests.retention_catalogue import NeverPruneRecorder, _tiny_tpcc, build
from tests.test_cc_conformance import (
    CONFORMANCE_TREES, ConformanceWorkload, TwoStepWorkload, replay_conformance,
)


def build_dsg(history):
    """The networkx reference graph of ``history`` (skips without networkx).

    Called last in tests that also compare the two native detectors, so
    those comparisons have run — and would have failed — before the skip.
    """
    pytest.importorskip("networkx")
    from tests.reference_dsg import build_dsg as reference

    return reference(history)


class TracingChecker(StreamingDSGChecker):
    """A streaming checker that also keeps the deduplicated typed edge set
    it derived, for comparison with the reference's ``iter_dsg_edges``."""

    def __init__(self):
        super().__init__()
        self.edges = set()

    def _add_edge(self, source, target, kind):
        if source != target:
            self.edges.add((source, target, kind))
        super()._add_edge(source, target, kind)


edge_streams = st.lists(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).filter(lambda e: e[0] != e[1]),
    min_size=0,
    max_size=40,
)


class TestIncrementalCycleDetector:
    def test_forward_edges_never_cycle(self):
        detector = IncrementalCycleDetector()
        for source in range(10):
            assert detector.add_edge(source, source + 1) is None
        assert detector.cycle is None

    def test_back_edge_closes_cycle_with_path(self):
        detector = IncrementalCycleDetector()
        detector.add_edge(1, 2)
        detector.add_edge(2, 3)
        cycle = detector.add_edge(3, 1)
        assert cycle
        # The cycle is a closed edge walk containing the closing edge.
        assert (3, 1) in cycle
        for (_, step_to), (step_from, _) in zip(cycle, cycle[1:] + cycle[:1]):
            assert step_to == step_from

    def test_self_loop_is_a_cycle(self):
        detector = IncrementalCycleDetector()
        assert detector.add_edge(4, 4) == [(4, 4)]
        assert detector.cycle == [(4, 4)]

    def test_duplicate_edges_are_ignored(self):
        detector = IncrementalCycleDetector()
        detector.add_edge(1, 2)
        detector.add_edge(1, 2)
        assert detector._out == {1: {2}, 2: set()} and detector._in[2] == {1}

    def test_verdict_latches(self):
        detector = IncrementalCycleDetector()
        detector.add_edge(1, 2)
        detector.add_edge(2, 1)
        first = detector.cycle
        detector.add_edge(5, 6)
        assert detector.cycle is first

    @given(edge_streams)
    @settings(max_examples=60, deadline=None)
    def test_matches_networkx_at_every_prefix(self, edges):
        nx = pytest.importorskip("networkx")
        detector = IncrementalCycleDetector()
        reference = nx.DiGraph()
        cyclic = False
        for source, target in edges:
            detector.add_edge(source, target)
            reference.add_edge(source, target)
            if not cyclic:
                cyclic = not nx.is_directed_acyclic_graph(reference)
            assert (detector.cycle is not None) == cyclic, (edges, source, target)

    @given(edge_streams)
    @settings(max_examples=60, deadline=None)
    def test_batch_tarjan_matches_networkx(self, edges):
        nx = pytest.importorskip("networkx")
        adjacency = {}
        reference = nx.DiGraph()
        for source, target in edges:
            adjacency.setdefault(source, set()).add(target)
            reference.add_edge(source, target)
        cycle = find_cycle(adjacency)
        assert (cycle is not None) == (not nx.is_directed_acyclic_graph(reference))
        if cycle:
            for (_, step_to), (step_from, _) in zip(cycle, cycle[1:] + cycle[:1]):
                assert step_to == step_from
            for source, target in cycle:
                assert target in adjacency[source]
        # The generator under it (and under the RP step analysis) finds the
        # same components, each node exactly once.
        components = list(strongly_connected_components(adjacency))
        assert sorted(map(sorted, components)) == sorted(
            map(sorted, nx.strongly_connected_components(reference))
        )


# ---------------------------------------------------------------------------
# Replaying hand-built histories through the streaming path
# ---------------------------------------------------------------------------


def replay_history(history):
    """Feed a hand-built :class:`History` through a streaming recorder.

    Committed transactions are replayed in commit order (by their last
    installed version; read-only transactions after every writer they could
    have observed), with shared version stubs so reads reference the same
    objects the writers install — exactly what the engine hands the
    recorder at runtime.
    """
    recorder = HistoryRecorder()
    recorder.streaming_checker = TracingChecker()
    stubs = {}
    for key, order in history.version_orders.items():
        for seq, writer in order:
            stubs[(key, seq)] = SimpleNamespace(key=key, writer=writer, commit_seq=seq)

    for txn_id in history.aborted_ids:
        recorder.on_abort(SimpleNamespace(txn_id=txn_id))

    def commit_order(txn):
        seqs = [seq for _key, seq in txn.writes]
        return (max(seqs) if seqs else float("inf"), txn.txn_id)

    for txn in sorted(history.transactions.values(), key=commit_order):
        versions = [stubs[(key, seq)] for key, seq in txn.writes]
        reads = []
        for key, writer, seq in txn.reads:
            if seq is not None and (key, seq) in stubs:
                version = stubs[(key, seq)]
            else:
                version = SimpleNamespace(key=key, writer=writer, commit_seq=seq)
            reads.append(SimpleNamespace(key=key, version=version))
        recorder.on_commit(
            SimpleNamespace(
                txn_id=txn.txn_id,
                txn_type=txn.txn_type,
                reads=reads,
                scans=txn.scans,
            ),
            versions,
        )
    return recorder


def history_from(transactions, version_orders, aborted=()):
    history = History(aborted_ids=set(aborted))
    for txn in transactions:
        history.add_transaction(txn)
    history.version_orders = version_orders
    return history


ADVERSARIAL_HISTORIES = {
    "intermediate-read": (
        [
            HistoryTransaction(1, "w", writes=[("x", 2)]),
            HistoryTransaction(2, "r", reads=[("x", 1, 1)]),
        ],
        {"x": [(1, 1), (2, 1)]},
        (),
    ),
    "g1c-wr-ww-cycle": (
        [
            HistoryTransaction(1, "w", writes=[("x", 1), ("y", 4)]),
            HistoryTransaction(2, "rw", reads=[("x", 1, 1)], writes=[("y", 3)]),
        ],
        {"x": [(1, 1)], "y": [(3, 2), (4, 1)]},
        (),
    ),
    "g2-write-skew": (
        [
            HistoryTransaction(1, "t", reads=[("y", 0, 1)], writes=[("x", 3)]),
            HistoryTransaction(2, "t", reads=[("x", 0, 2)], writes=[("y", 4)]),
        ],
        {"x": [(2, 0), (3, 1)], "y": [(1, 0), (4, 2)]},
        (),
    ),
    "read-only-anomaly": (
        [
            HistoryTransaction(1, "upd", reads=[("s", 0, 1)], writes=[("s", 3)]),
            HistoryTransaction(
                2, "pivot", reads=[("s", 0, 1), ("c", 0, 2)], writes=[("c", 4)]
            ),
            HistoryTransaction(3, "ro", reads=[("s", 1, 3), ("c", 0, 2)]),
        ],
        {"s": [(1, 0), (3, 1)], "c": [(2, 0), (4, 2)]},
        (),
    ),
    "aborted-read": (
        [HistoryTransaction(1, "r", reads=[("x", 99, None)])],
        {"x": []},
        {99},
    ),
    "phantom-scan-skew": (
        # G2 via a predicate: T1 scanned items[1..10] (saw nothing) and
        # wrote the result row; T2 inserted items.5 and read the result row
        # before T1's write.  T1 -rw-> T2 exists only through the scan.
        [
            HistoryTransaction(
                1, "scanner",
                writes=[(("result", "a"), 3)],
                scans=[KeyRange("items", 1, 10)],
            ),
            HistoryTransaction(
                2, "inserter",
                reads=[(("result", "a"), 0, 1)],
                writes=[(("items", 5), 2)],
            ),
        ],
        {("result", "a"): [(1, 0), (3, 1)], ("items", 5): [(2, 2)]},
        (),
    ),
    "phantom-observed-key-is-clean": (
        # Same shape, but the scan *read* the inserted key (it committed
        # first): the rw edge belongs to item-level derivation and no
        # phantom edge may be added — the history is serializable.
        [
            HistoryTransaction(
                1, "scanner",
                reads=[(("items", 5), 2, 2)],
                writes=[(("result", "a"), 3)],
                scans=[KeyRange("items", 1, 10)],
            ),
            HistoryTransaction(2, "inserter", writes=[(("items", 5), 2)]),
        ],
        {("result", "a"): [(1, 0), (3, 1)], ("items", 5): [(2, 2)]},
        (),
    ),
    "serializable-chain": (
        [
            HistoryTransaction(1, "w", writes=[("x", 1)]),
            HistoryTransaction(2, "r", reads=[("x", 1, 1)], writes=[("y", 2)]),
            HistoryTransaction(3, "r", reads=[("y", 2, 2)]),
        ],
        {"x": [(1, 1)], "y": [(2, 2)]},
        (),
    ),
}


class TestStreamingReplayEquivalence:
    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_HISTORIES))
    def test_adversarial_history_verdicts_match(self, name):
        transactions, version_orders, aborted = ADVERSARIAL_HISTORIES[name]
        history = history_from(transactions, version_orders, aborted)
        reference = check_history(history)
        recorder = replay_history(history)
        streamed = check_recorder(recorder)
        assert streamed.serializable == reference.serializable, name
        assert bool(streamed.aborted_reads) == bool(reference.aborted_reads)
        assert bool(streamed.intermediate_reads) == bool(reference.intermediate_reads)
        assert streamed.ok == reference.ok

    @pytest.mark.parametrize("name", sorted(ADVERSARIAL_HISTORIES))
    def test_streaming_edges_match_reference_dsg(self, name):
        """The streamed edge set equals the post-hoc reference's (deduplicated)."""
        transactions, version_orders, aborted = ADVERSARIAL_HISTORIES[name]
        history = history_from(transactions, version_orders, aborted)
        recorder = replay_history(history)
        reference_edges = {
            (source, target, kind)
            for source, target, kind in iter_dsg_edges(history)
            if source != target
        }
        assert recorder.streaming_checker.edges == reference_edges


class TestStreamingCheckedRuns:
    def _run(self, workload, config, clients=8, duration=0.25, **kwargs):
        # A no-op lane keeps the commit records the reference pass reads,
        # without moving a seed or a schedule.
        runner = BenchmarkRunner(
            workload, config, seed=11, check_isolation=True, lanes=(Lane(),), **kwargs
        )
        try:
            runner.run(clients, duration=duration, warmup=0.05)
        finally:
            runner.stop()
        return runner

    @pytest.mark.parametrize(
        "workload_factory,config_cc",
        [
            (lambda: CrossGroupConflictWorkload(shared_rows=5, cold_rows=50), "2pl"),
            (lambda: CrossGroupConflictWorkload(shared_rows=5, cold_rows=50), "ssi"),
            (lambda: SmallBankWorkload(customers=50, hot_accounts=5), "ssi"),
            # Scan-bearing runs: phantom edge derivation must agree between
            # the streaming checker and the post-hoc builder end-to-end.
            (lambda: QueueWorkload(initial_messages=4, window=6), "2pl"),
            (lambda: QueueWorkload(initial_messages=4, window=6), "ssi"),
        ],
    )
    def test_streaming_verdict_matches_posthoc(self, workload_factory, config_cc):
        workload = workload_factory()
        runner = self._run(
            workload, monolithic(config_cc, sorted(workload.transaction_types()))
        )
        recorder = runner.recorder
        streamed = check_recorder(recorder)
        posthoc = check_history(recorder.history())
        assert streamed.serializable == posthoc.serializable
        assert streamed.ok == posthoc.ok
        assert streamed.ok, streamed.describe()
        # And against the networkx reference graph itself.
        assert not build_dsg(recorder.history()).has_cycle()

    def test_streaming_survives_record_ring_eviction(self, monkeypatch):
        monkeypatch.setattr(HistoryRecorder, "RECORD_RING", 25)
        workload = CrossGroupConflictWorkload(shared_rows=5, cold_rows=50)
        runner = self._run(
            workload,
            monolithic("2pl", sorted(workload.transaction_types())),
            duration=0.3,
        )
        report = check_recorder(runner.recorder)
        assert runner.recorder._evicted
        assert report.ok, report.describe()
        posthoc = check_history(runner.recorder.history())
        assert posthoc.ok, posthoc.describe()

    def test_a_recorder_built_without_arguments_keeps_no_commit_record(self):
        default = HistoryRecorder()
        assert default._records is None and default._aborted_ids is None
        with pytest.raises(ValueError, match="no commit records"):
            default.history()


class TestStreamingCheckerUnit:
    def test_pipelined_read_resolves_wr_at_writer_commit(self):
        # Reader consumes an in-flight version, commits first; the wr edge
        # lands when the writer commits (runtime-pipelining shape).
        checker = TracingChecker()
        version = SimpleNamespace(key="x", writer=1, commit_seq=None)
        checker.on_commit(2, [], [("x", version)])
        version.commit_seq = 5
        checker.on_commit(1, [version], [])
        assert (1, 2, "wr") in checker.edges
        # A later writer then closes the reader's rw anti-dependency.
        version2 = SimpleNamespace(key="x", writer=3, commit_seq=6)
        checker.on_commit(3, [version2], [])
        assert (2, 3, "rw") in checker.edges
        assert checker.cycle is None

    def test_pipelined_intermediate_read_flagged_at_writer_commit(self):
        # Regression: a reader that commits before its writer and observed
        # a sequenced non-final version must be flagged when the writer's
        # final version lands, as the post-hoc reference flags it.
        checker = TracingChecker()
        stale = SimpleNamespace(key="x", writer=1, commit_seq=1)
        final = SimpleNamespace(key="x", writer=1, commit_seq=2)
        checker.on_commit(2, [], [("x", stale)])
        checker.on_commit(1, [final], [])
        assert checker.intermediate_reads == [(2, "x", 1)]
        assert (1, 2, "wr") in checker.edges

    def test_parked_reader_of_never_committed_writer_is_aborted_read(self):
        checker = StreamingDSGChecker()
        in_flight = SimpleNamespace(key="x", writer=9, commit_seq=None)
        checker.on_commit(2, [], [("x", in_flight)])
        assert checker.pending_aborted_reads() == [(2, "x", 9)]
        # ...but not once the writer commits.
        in_flight.commit_seq = 5
        checker.on_commit(9, [in_flight], [])
        assert checker.pending_aborted_reads() == []

    def test_write_skew_cycle_detected_streaming(self):
        checker = StreamingDSGChecker()
        x0 = SimpleNamespace(key="x", writer=0, commit_seq=1)
        y0 = SimpleNamespace(key="y", writer=0, commit_seq=2)
        x1 = SimpleNamespace(key="x", writer=1, commit_seq=3)
        y2 = SimpleNamespace(key="y", writer=2, commit_seq=4)
        checker.on_commit(1, [x1], [("y", y0)])
        checker.on_commit(2, [y2], [("x", x0)])
        cycle_nodes = {node for edge in checker.cycle for node in edge}
        assert cycle_nodes == {1, 2}


class TestPruning:
    """The detector forgets a released node once every in-neighbour is
    forgotten; the checker drops an edge out of a pruned transaction and
    reports an edge into one."""

    @staticmethod
    def _chain(*nodes):
        detector = IncrementalCycleDetector()
        for node in nodes:
            detector.add_node(node)
        for source, target in zip(nodes, nodes[1:]):
            detector.add_edge(source, target)
        return detector

    def test_a_prune_cascades_to_a_successor_released_earlier(self):
        detector = self._chain(1, 2, 3)
        detector.release(3)
        detector.release(2)
        assert 2 in detector and 3 in detector
        detector.release(1)
        assert not any(node in detector for node in (1, 2, 3))
        assert detector._out == detector._in == detector._ord == {}
        assert detector._released == set()

    def test_a_node_with_an_unpruned_in_neighbour_waits(self):
        detector = self._chain(1, 3)
        detector.add_node(2)
        detector.add_edge(2, 3)
        detector.release(3)
        detector.release(1)
        assert 1 not in detector and 3 in detector
        assert detector._in[3] == {2}
        detector.release(2)
        assert 3 not in detector and detector._released == set()

    def test_an_unreleased_successor_stays(self):
        detector = self._chain(1, 2)
        detector.release(1)
        assert 1 not in detector and 2 in detector and detector._in[2] == set()

    def test_releasing_a_transaction_that_is_no_node_keeps_nothing(self):
        detector = self._chain(1)
        detector.release(7)  # an aborted transaction never becomes a node
        assert 7 not in detector and detector._released == set()

    @staticmethod
    def _pruned_writer():
        """Transaction 1 wrote x over the loader's version and was pruned."""
        checker = StreamingDSGChecker()
        x1 = SimpleNamespace(key="x", writer=1, commit_seq=2)
        checker.on_commit(1, [x1], [])
        checker.release(1)
        assert 1 not in checker.detector and checker.phantom_commit(1)
        return checker

    def test_an_edge_out_of_a_pruned_node_is_dropped(self):
        checker = self._pruned_writer()
        x2 = SimpleNamespace(key="x", writer=2, commit_seq=3)
        checker.on_commit(2, [x2], [])  # ww 1 -> 2
        assert checker.num_edges == 1 and not any(checker.detector._out.values())
        assert checker.detector._in[2] == set()
        assert checker.edges_into_pruned == []

    def test_an_edge_into_a_pruned_node_is_reported(self):
        checker = self._pruned_writer()
        x0 = SimpleNamespace(key="x", writer=0, commit_seq=1)
        checker.on_commit(2, [], [("x", x0)])  # rw 2 -> 1: read under 1's write
        assert checker.edges_into_pruned == [(2, 1)]
        assert checker.num_edges == 1 and checker.cycle is None
        recorder = HistoryRecorder()
        recorder.streaming_checker = checker
        report = check_recorder(recorder)
        assert not report.ok and report.serializable
        assert report.edges_into_pruned == [(2, 1)]
        assert "1 edges into pruned transactions" in report.describe()


class TestTrimmedVersionOrder:
    """A released checker trims each key's order at its next commit: the
    entries whose successor's writer is released go, the last of them stays
    as the floor (its writer erased), and a read that lands below the floor
    is reported — the edge it needed is gone — never given a wrong one."""

    @staticmethod
    def _trimmed():
        """Writers 1, 2, 3 and 4 of x; 1, 2 and 3 are released, so 4's
        commit trims x to 2's floor, 3's head and 4's tail."""
        checker = StreamingDSGChecker()
        versions = {
            writer: SimpleNamespace(key="x", writer=writer, commit_seq=writer + 1)
            for writer in range(1, 5)
        }
        for writer in (1, 2, 3):
            checker.on_commit(writer, [versions[writer]], [])
        for writer in (1, 2, 3):
            checker.release(writer)
        checker.on_commit(4, [versions[4]], [])
        assert checker._writers["x"] == [None, 3, 4]
        assert checker._seqs["x"] == [3, 4, 5]
        return checker, versions

    def test_a_read_below_the_floor_is_reported(self):
        checker, versions = self._trimmed()
        x0 = SimpleNamespace(key="x", writer=0, commit_seq=1)
        checker.on_commit(5, [], [("x", x0), ("x", versions[1])])
        assert checker.reads_below_trimmed == [(5, "x", 0), (5, "x", 1)]
        assert checker.num_edges == 4  # three ww, and the wr 1 -> 5
        recorder = HistoryRecorder()
        recorder.streaming_checker = checker
        report = check_recorder(recorder)
        assert not report.ok and report.serializable
        assert "2 reads below a trimmed version order" in report.describe()

    def test_a_read_at_or_above_the_floor_keeps_its_edge(self):
        checker, versions = self._trimmed()
        checker.on_commit(5, [], [("x", versions[2]), ("x", versions[3])])
        assert checker.reads_below_trimmed == []
        # rw 5 -> 3 (into a pruned writer, as without the trim) and 5 -> 4.
        assert checker.edges_into_pruned == [(5, 3)]
        assert 5 in checker.detector._in[4]

    def test_a_scan_below_the_floor_is_reported(self):
        checker = StreamingDSGChecker()
        for writer in (1, 2, 3):
            version = SimpleNamespace(key=("t", 7), writer=writer, commit_seq=writer)
            checker.on_commit(writer, [version], [])
            checker.release(writer)
        assert checker._writers[("t", 7)] == [None, 2, 3]
        checker.on_commit(4, [], [], [KeyRange("t", 0, 9)])
        assert checker.reads_below_trimmed == [(4, ("t", 7), None)]

    def test_an_intermediate_read_is_the_writer_following_itself(self):
        checker = StreamingDSGChecker()
        first = SimpleNamespace(key="x", writer=1, commit_seq=2)
        final = SimpleNamespace(key="x", writer=1, commit_seq=3)
        checker.on_commit(1, [first, final], [])
        checker.on_commit(2, [], [("x", first), ("x", final)])
        assert checker.intermediate_reads == [(2, "x", 1)]

    def test_a_released_writers_pipelined_reader_is_no_aborted_read(self):
        checker = StreamingDSGChecker()
        in_flight = SimpleNamespace(key="x", writer=1, commit_seq=None)
        checker.on_commit(2, [], [("x", in_flight)])
        in_flight.commit_seq = 5
        checker.on_commit(1, [in_flight], [])
        checker.release(1)
        checker.release(2)
        assert 1 not in checker._committed
        assert checker.pending_aborted_reads() == []

    def test_an_abort_goes_at_its_own_release(self):
        """Not at a later commit's: a reader of an aborted writer began
        before the writer finished, so the engine holds the writer while
        that reader can still present it."""
        checker = StreamingDSGChecker()
        checker.on_abort(1)
        checker.on_abort(2)
        checker.on_commit(3, [], [])
        checker.on_abort(4)
        checker.release(3)
        checker.release(2)
        assert checker._aborted == {1, 4}
        # 2 finished (at or below 3): committing it is a phantom; 1 is
        # still a held abort.
        assert [checker.phantom_commit(txn_id) for txn_id in (1, 2, 3, 4)] == [
            False, True, True, False
        ]

    def test_seq_of_reads_the_order_from_the_tail(self):
        recorder = HistoryRecorder(records=True)
        for writer, seq in ((1, 2), (2, 3), (1, 4)):
            recorder.streaming_checker.on_commit(
                writer, [SimpleNamespace(key="x", writer=writer, commit_seq=seq)], []
            )
        assert (recorder.seq_of("x", 1), recorder.seq_of("x", 2)) == (4, 3)
        assert recorder.seq_of("x", 9) is None and recorder.seq_of("y", 1) is None


class TestSubgraphCaching:
    def _history(self):
        transactions = [
            HistoryTransaction(1, "w", writes=[("x", 1)]),
            HistoryTransaction(2, "rw", reads=[("x", 1, 1)], writes=[("x", 2)]),
        ]
        return history_from(transactions, {"x": [(1, 1), (2, 2)]})

    def test_subgraph_is_cached_per_kind_set(self):
        dsg = build_dsg(self._history())
        first = dsg.subgraph({"ww", "wr"})
        assert dsg.subgraph({"ww", "wr"}) is first
        assert dsg.subgraph(frozenset({"wr", "ww"})) is first
        other = dsg.subgraph({"rw"})
        assert other is not first

    def test_add_edge_invalidates_cache(self):
        dsg = build_dsg(self._history())
        stale = dsg.subgraph({"ww"})
        dsg.add_edge(2, 3, "ww")
        fresh = dsg.subgraph({"ww"})
        assert fresh is not stale
        assert fresh.has_edge(2, 3)

    def test_direct_node_addition_self_heals(self):
        dsg = build_dsg(self._history())
        cached = dsg.subgraph({"ww"})
        dsg.graph.add_node(99)
        refreshed = dsg.subgraph({"ww"})
        assert refreshed is not cached
        assert 99 in refreshed

    def test_has_cycle_and_find_cycle_reuse_cache(self):
        dsg = build_dsg(self._history())
        assert not dsg.has_cycle()
        dsg.add_edge(2, 1, "ww")
        assert dsg.has_cycle()
        assert dsg.find_cycle()


class EarlyReleaseEngine(TebaldiEngine):
    """Test-only: hands the oracle the first transaction that commits while
    another one is active — too early, since that one may still read under
    its writes."""

    early = None

    def _commit(self, txn):
        versions = super()._commit(txn)
        if self.early is None and self.active:
            self.early = txn.txn_id
            self.history_recorder.on_release(txn.txn_id)
        return versions


class NoCascadeEngine(TebaldiEngine):
    """Test-only: commits a reader whose writer aborted (the cascading abort
    is skipped), so the oracle sees aborted reads."""

    def _check_cascading_abort(self, txn):
        pass


class TestTheEnginesReleases:
    """The oracle forgets what the engine released: when that comes, and
    what a release may and may not take (the catalogue's rows bound what is
    left, ``tests/retention_catalogue.py``)."""

    def test_an_early_release_is_a_named_violation(self):

        engine = build_engine(
            Environment(), ConformanceWorkload(), CONFORMANCE_TREES["mono-ssi"](),
            options=EngineOptions(charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4),
            engine_class=EarlyReleaseEngine,
        )
        run_transactions(engine.env, engine, [
            ("reader", {"ops": [("r", 0), ("r", 1), ("r", 2), ("r", 3)]}),
            ("beta", {"ops": [("w", 0, 99)]}),
        ])
        assert engine.stats.commits == 2
        report = check_recorder(engine.history_recorder)
        # The reader read key 0 under the writer's version: rw reader -> writer.
        assert report.edges_into_pruned == [(1, engine.early)]
        assert not report.ok and report.serializable and not report.cycles
        assert "1 edges into pruned transactions" in report.describe()

    @pytest.mark.parametrize("schedule, committed, edges", [
        # The last commit's _retire releases that transaction itself.
        (("mono-rp", 7057, 8, 3), 7, 9),
        # Transaction 9's _retire releases 7 and 10, and three of the edges
        # its commit derives enter them: fed after _retire, the oracle
        # reports them.
        (("mono-ssi", 2, 10, 3), 8, 13),
    ], ids=str)
    def test_the_oracle_hears_of_a_commit_before_its_release(self, schedule, committed, edges):

        report, commits = replay_conformance(*schedule)
        assert report.ok, report.describe()
        assert (commits, report.num_edges) == (committed, edges)

    def test_an_abort_nothing_overlaps_leaves_no_id(self, env):
        """Its own retire releases it: the recorder hears of the abort first."""

        engine = build_engine(
            env, TwoStepWorkload(), monolithic("2pl", ("alpha", "beta"), name="lone"),
            options=EngineOptions(charge_costs=False),
        )
        outcomes, _ = run_transactions(
            env, engine, [("alpha", {"ops": [("w", "hot", 0, 1), ("abort",)]})]
        )
        assert outcomes[0].reason == "user-abort" and engine.finished == {}
        assert engine.history_recorder.streaming_checker._aborted == set()

    def test_release_equals_never_release_with_aborted_reads(self, monkeypatch):
        """Not vacuous: with readers of aborted writers committed (the
        flagship's RP leaves pipeline reads), both oracles report the same
        aborted reads, although one released aborted ids as it went."""

        verdicts, aborted = [], []
        for recorder_class in (HistoryRecorder, NeverPruneRecorder):
            monkeypatch.setattr(runner_module, "HistoryRecorder", recorder_class)
            runner = build(_tiny_tpcc(), configs.tpcc_tebaldi_3layer(), NoCascadeEngine,
                           check_isolation=True)
            try:
                runner.add_clients(16)
                runner.run_additional(0.2)
                report = runner.check_isolation()
            finally:
                runner.stop()
            verdicts.append((report.ok, report.cycles, report.num_edges, report.aborted_reads,
                             report.intermediate_reads, report.edges_into_pruned,
                             runner.recorder.duplicate_commits))
            aborted.append(len(runner.recorder.streaming_checker._aborted))
        assert verdicts[0] == verdicts[1]
        assert verdicts[0][3], "no aborted read: the pin would be vacuous"
        assert aborted[0] < aborted[1]

    def test_a_second_commit_of_a_released_id_is_flagged(self):
        """The phantom-commit check spans the run: an id at or below the
        highest released one finished already."""
        recorder = HistoryRecorder()
        for txn_id in range(1, 11):
            recorder.on_commit(Transaction(txn_id=txn_id, txn_type="w", reads=[]), [])
            recorder.on_release(txn_id)
        recorder.on_abort(Transaction(txn_id=11, txn_type="w"))
        assert recorder.streaming_checker._committed == set()
        for txn_id in (1, 9, 12):
            recorder.on_commit(Transaction(txn_id=txn_id, txn_type="w", reads=[]), [])
        assert recorder.duplicate_commits == [1, 9]
