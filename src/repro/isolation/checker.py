"""The isolation oracle's verdict (Definition 4.2.1 of the paper).

A history is correct when it has no aborted reads, no intermediate reads and
no cycle in its Direct Serialization Graph at the level's edge kinds.  A
:class:`~repro.isolation.history.HistoryRecorder` checks all three while
the run commits — its :class:`~repro.isolation.streaming.StreamingDSGChecker`
derives every dependency edge at commit time and feeds the incremental
cycle detector — so :func:`check_recorder` reads the verdict off, plus one
sweep of the readers still parked on a writer that never committed.  The
post-hoc pass the streaming checker is held to is test-side
(``tests/reference_checker.py``).
"""

from dataclasses import dataclass, field

from repro.errors import IsolationViolation

__all__ = ["IsolationReport", "check_engine", "check_recorder"]


@dataclass
class IsolationReport:
    """Outcome of checking one history."""

    serializable: bool = True
    aborted_reads: list = field(default_factory=list)
    intermediate_reads: list = field(default_factory=list)
    cycles: list = field(default_factory=list)
    edges_into_pruned: list = field(default_factory=list)  # released too early
    num_transactions: int = 0
    num_edges: int = 0

    @property
    def ok(self):
        return (
            self.serializable
            and not self.aborted_reads
            and not self.intermediate_reads
            and not self.edges_into_pruned
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
        if self.edges_into_pruned:
            problems.append(f"{len(self.edges_into_pruned)} edges into pruned transactions")
        if self.cycles:
            problems.append(f"cycle {self.cycles[0]}")
        return "isolation violation: " + ", ".join(problems)


def check_engine(engine):
    """Check the history ``engine`` streamed into its attached recorder."""
    if engine.history_recorder is None:
        raise ValueError("engine has no history_recorder attached; nothing to check")
    return check_recorder(engine.history_recorder)


def check_recorder(recorder):
    """The verdict on the history streamed into a :class:`HistoryRecorder`,
    at the isolation level the recorder was built with."""
    checker = recorder.streaming_checker
    report = IsolationReport(
        aborted_reads=checker.aborted_reads + checker.pending_aborted_reads(),
        intermediate_reads=list(checker.intermediate_reads),
        edges_into_pruned=list(checker.edges_into_pruned),
        num_transactions=recorder.recorded_commits,
        num_edges=checker.num_edges,
    )
    if checker.cycle:
        report.cycles.append(list(checker.cycle))
        report.serializable = False
    return report
