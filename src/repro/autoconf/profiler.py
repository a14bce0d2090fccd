"""Contention profiling (Section 5.3).

Two profilers are provided:

* :class:`ContentionProfiler` — the paper's blocking-time profiler with
  nested-wait attribution (Section 5.3.2).  Every CC mechanism reports each
  blocking interval (who waited for whom, and when); the analysis charges to
  a conflict edge only the time during which the blocker was itself running,
  recursively attributing nested waits to the inner conflict.  The output is
  a score per unordered pair of transaction types; the highest-scoring pair
  is the bottleneck conflict edge.
* :class:`LatencyProfiler` — the elementary latency-based technique proposed
  by Callas, kept as a baseline to reproduce Figure 5.5 (it misattributes the
  payment/stock_level bottleneck to payment alone).
"""

import bisect
from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class BlockingEvent:
    """One blocking interval: ``blocked`` waited for ``blocker``."""

    blocked_id: int
    blocked_type: str
    blocker_id: int
    blocker_type: str
    start: float
    end: float
    kind: str = "lock"

    @property
    def duration(self):
        return max(self.end - self.start, 0.0)


class ContentionProfiler:
    """Collects blocking events and computes conflict-edge scores.

    It has no off switch: an engine without one (``profiler=None``) records
    nothing."""

    def __init__(self):
        self.events = []
        self.aborts = Counter()
        self.abort_edges = Counter()

    # -- recording interface used by the engine and CC mechanisms ---------------

    def record_wait(self, blocked, blocker, start, end, kind="lock"):
        if blocker is None or end <= start:
            return
        self.events.append(
            BlockingEvent(
                blocked_id=blocked.txn_id,
                blocked_type=blocked.txn_type,
                blocker_id=blocker.txn_id,
                blocker_type=blocker.txn_type,
                start=start,
                end=end,
                kind=kind,
            )
        )

    def record_abort(self, txn, reason, conflicting=None):
        self.aborts[reason] += 1
        if conflicting is not None:
            edge = tuple(sorted((txn.txn_type, conflicting.txn_type)))
            self.abort_edges[edge] += 1

    def reset(self):
        self.events = []
        self.aborts = Counter()
        self.abort_edges = Counter()

    # -- analysis -------------------------------------------------------------------

    def _blocked_intervals_by_txn(self):
        intervals = defaultdict(list)
        for event in self.events:
            intervals[event.blocked_id].append((event.start, event.end))
        for txn_id in intervals:
            intervals[txn_id].sort()
        return intervals

    @staticmethod
    def _overlap(interval_list, start, end):
        """Total overlap between [start, end] and a sorted interval list."""
        if not interval_list or end <= start:
            return 0.0
        total = 0.0
        starts = [item[0] for item in interval_list]
        index = max(bisect.bisect_left(starts, start) - 1, 0)
        for s, e in interval_list[index:]:
            if s >= end:
                break
            total += max(0.0, min(e, end) - max(s, start))
        return total

    def scores(self, kinds=None):
        """Directed scores: ``(blocker_type, blocked_type) -> attributed seconds``.

        The time a blocker spent itself blocked is charged (recursively, via
        the other blocking events) to the inner conflict instead.
        """
        blocked_intervals = self._blocked_intervals_by_txn()
        directed = Counter()
        for event in self.events:
            if kinds is not None and event.kind not in kinds:
                continue
            nested = self._overlap(
                blocked_intervals.get(event.blocker_id, []), event.start, event.end
            )
            effective = max(event.duration - nested, 0.0)
            directed[(event.blocker_type, event.blocked_type)] += effective
        return directed

    def edge_scores(self, kinds=None, abort_penalty=0.0):
        """Undirected conflict-edge scores (Section 5.3.2)."""
        edges = Counter()
        for (blocker, blocked), score in self.scores(kinds).items():
            edge = tuple(sorted((blocker, blocked)))
            edges[edge] += score
        if abort_penalty:
            for edge, count in self.abort_edges.items():
                edges[edge] += count * abort_penalty
        return edges

    def bottleneck_edge(self, kinds=None, abort_penalty=0.0, minimum_score=0.0):
        """The highest-scoring conflict edge, or ``None`` if nothing qualifies."""
        edges = self.edge_scores(kinds, abort_penalty)
        if not edges:
            return None
        edge, score = edges.most_common(1)[0]
        if score <= minimum_score:
            return None
        return edge, score


class LatencyProfiler:
    """Callas' latency-based profiling baseline (Section 5.3.1, Figure 5.5).

    It compares per-type mean latencies between a low-load and a high-load
    measurement and reports the transaction types whose latency inflates the
    most — which, as the paper shows, can miss the true bottleneck edge.
    """

    def __init__(self):
        self.samples = {}

    def record(self, label, stats_summary):
        """Record the per-type mean latencies of one measurement."""
        self.samples[label] = {
            name: data["mean_latency"]
            for name, data in stats_summary["per_type"].items()
            if data["commits"]
        }

    def latency_inflation(self, low_label, high_label):
        """Per-type latency ratio between the two measurements."""
        low = self.samples.get(low_label, {})
        high = self.samples.get(high_label, {})
        inflation = {}
        for name, high_latency in high.items():
            low_latency = low.get(name)
            if low_latency:
                inflation[name] = high_latency / low_latency
        return inflation

    def suspected_bottlenecks(self, low_label, high_label, threshold=2.0):
        """Transaction types whose latency inflated beyond ``threshold``."""
        inflation = self.latency_inflation(low_label, high_label)
        return sorted(
            [name for name, ratio in inflation.items() if ratio >= threshold],
            key=lambda name: -inflation[name],
        )
