"""Isolation checker: the test oracle used by unit and property-based tests.

Given a committed history the checker verifies the three conditions of the
paper's correctness definition (Definition 4.2.1): no aborted reads, no
intermediate reads, no circularity in the Direct Serialization Graph.

Circularity is answered natively (standard library only): a recorder
built with a streaming level already holds the incremental verdict — its
:class:`~repro.isolation.streaming.StreamingDSGChecker` folded every edge
in at commit time — and :func:`check_history` falls back to one batch
Tarjan pass (:func:`repro.isolation.cycles.find_cycle`) over the natively
derived edges.  The networkx graph both are cross-checked against is
test-only (``tests/reference_dsg.py``); it consumes the same
:func:`~repro.isolation.dsg.iter_dsg_edges`.
"""

from dataclasses import dataclass, field

from repro.errors import IsolationViolation
from repro.isolation.cycles import find_cycle
from repro.isolation.dsg import iter_dsg_edges
from repro.isolation.levels import ISOLATION_LEVELS, LEVEL_EDGE_KINDS, kinds_for

__all__ = [
    "ISOLATION_LEVELS",
    "LEVEL_EDGE_KINDS",
    "IsolationReport",
    "check_engine",
    "check_history",
    "check_recorder",
]


@dataclass
class IsolationReport:
    """Outcome of checking one history."""

    serializable: bool = True
    aborted_reads: list = field(default_factory=list)
    intermediate_reads: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    num_transactions: int = 0
    num_edges: int = 0

    @property
    def ok(self):
        return (
            self.serializable
            and not self.aborted_reads
            and not self.intermediate_reads
        )

    def raise_on_violation(self):
        if not self.ok:
            raise IsolationViolation(self.describe())
        return self

    def describe(self):
        if self.ok:
            return (
                f"serializable history: {self.num_transactions} transactions, "
                f"{self.num_edges} dependency edges"
            )
        problems = []
        if self.aborted_reads:
            problems.append(f"{len(self.aborted_reads)} aborted reads")
        if self.intermediate_reads:
            problems.append(f"{len(self.intermediate_reads)} intermediate reads")
        if self.cycles:
            problems.append(f"cycle {self.cycles[0]}")
        return "isolation violation: " + ", ".join(problems)


def _check_anomalies(history):
    """Aborted- and intermediate-read passes (Definition 4.2.1, items 1-2)."""
    report = IsolationReport(num_transactions=len(history))
    committed = history.committed_ids()

    # Anomaly 1: aborted reads (a committed txn read a version that never committed).
    for txn in history.transactions.values():
        for key, writer, commit_seq in txn.reads:
            if writer in history.aborted_ids or (
                commit_seq is None and writer not in committed and writer != 0
            ):
                report.aborted_reads.append((txn.txn_id, key, writer))

    # Anomaly 2: intermediate reads are prevented structurally (the storage
    # module overwrites a transaction's earlier uncommitted version of the
    # same key), but double-check: a read's version must be the writer's
    # final installed version of that key.  One pass over the version orders
    # builds the final-seq map; a per-read rescan would be quadratic on hot
    # keys.
    final_seqs = history.final_write_seqs()
    for txn in history.transactions.values():
        for key, writer, commit_seq in txn.reads:
            if writer not in committed or commit_seq is None:
                continue
            final_seq = final_seqs.get((key, writer))
            if final_seq is not None and commit_seq != final_seq:
                report.intermediate_reads.append((txn.txn_id, key, writer))
    return report


def check_history(history, level="serializable"):
    """Check a history against an isolation level.

    ``level`` is one of :data:`ISOLATION_LEVELS`; the corresponding DSG
    cycle restrictions follow Adya's definitions (item-level only, so
    repeatable read and serializable coincide, as noted in Section 2.2.3).
    An unknown level raises ``ValueError`` instead of silently checking
    serializability.
    """
    kinds = kinds_for(level)
    report = _check_anomalies(history)

    # Circularity: one native Tarjan pass over the restricted edge set.
    adjacency = {}
    num_edges = 0
    for source, target, kind in iter_dsg_edges(history):
        num_edges += 1
        if kind not in kinds:
            continue
        successors = adjacency.get(source)
        if successors is None:
            successors = adjacency[source] = set()
        successors.add(target)
    report.num_edges = num_edges
    cycle = find_cycle(adjacency)
    if cycle:
        report.cycles.append(cycle)
        report.serializable = False
    return report


def check_engine(engine, level="serializable"):
    """Check the history ``engine`` streamed into its attached recorder."""
    if engine.history_recorder is None:
        raise ValueError("engine has no history_recorder attached; nothing to check")
    return check_recorder(engine.history_recorder, level=level)


def check_recorder(recorder, level="serializable"):
    """Check the history streamed into a :class:`HistoryRecorder`.

    When the recorder streams into an in-line DSG checker at the same
    level, the circularity verdict is already incremental — only the two
    linear anomaly passes run here.  Otherwise this falls back to the full
    post-hoc :func:`check_history` pass.
    """
    kinds = kinds_for(level)
    checker = recorder.streaming_checker
    if checker is not None and checker.kinds == kinds:
        report = IsolationReport(num_transactions=recorder.recorded_commits)
        report.aborted_reads = (
            list(checker.aborted_reads) + checker.pending_aborted_reads()
        )
        report.intermediate_reads = list(checker.intermediate_reads)
        report.num_edges = checker.num_edges
        cycle = checker.cycle
        if cycle:
            report.cycles.append(list(cycle))
            report.serializable = False
        if getattr(recorder, "crossed_crash", False):
            # Cross-crash mode: the streaming checker cannot retroactively
            # flag a surviving transaction whose read of a *vanished*
            # writer was folded in while that writer still looked
            # committed.  The stitched history has the vanished ids marked
            # aborted, so one linear anomaly pass over the retained
            # records recovers exactly those reads; the cycle verdict
            # stays incremental (purging cannot un-detect a real cycle).
            stitched = _check_anomalies(recorder.history())
            report.aborted_reads = list(
                dict.fromkeys(
                    [tuple(e) for e in report.aborted_reads]
                    + [tuple(e) for e in stitched.aborted_reads]
                )
            )
            report.intermediate_reads = list(
                dict.fromkeys(
                    [tuple(e) for e in report.intermediate_reads]
                    + [tuple(e) for e in stitched.intermediate_reads]
                )
            )
        return report
    return check_history(recorder.history(), level=level)
