"""Runtime statistics collected by the engine and reported by the harness."""

from collections import Counter, defaultdict
from dataclasses import dataclass


@dataclass
class TypeStats:
    """Per-transaction-type counters."""

    commits: int = 0
    aborts: int = 0
    total_latency: float = 0.0

    @property
    def mean_latency(self):
        return self.total_latency / self.commits if self.commits else 0.0


class StatsCollector:
    """Counts commits/aborts and latencies, with warm-up reset support."""

    def __init__(self, env):
        self.env = env
        self.reset(at=env.now)

    def reset(self, at=None):
        """Forget everything measured so far (used after warm-up)."""
        self.started_at = self.env.now if at is None else at
        self.commits = 0
        self.aborts = 0
        self.abort_reasons = Counter()
        self.by_type = defaultdict(TypeStats)

    # -- recording ---------------------------------------------------------

    def record_commit(self, txn):
        latency = self.env.now - txn.begin_time
        self.commits += 1
        stats = self.by_type[txn.txn_type]
        stats.commits += 1
        stats.total_latency += latency

    def record_abort(self, txn, reason):
        self.aborts += 1
        self.abort_reasons[reason] += 1
        self.by_type[txn.txn_type].aborts += 1

    # -- reporting ----------------------------------------------------------

    @property
    def elapsed(self):
        return max(self.env.now - self.started_at, 1e-9)

    def throughput(self):
        """Committed transactions per virtual second since the last reset."""
        return self.commits / self.elapsed

    def abort_rate(self):
        attempts = self.commits + self.aborts
        return self.aborts / attempts if attempts else 0.0

    def mean_latency(self, txn_type=None):
        if txn_type is not None:
            return self.by_type[txn_type].mean_latency
        total = sum(s.total_latency for s in self.by_type.values())
        commits = sum(s.commits for s in self.by_type.values())
        return total / commits if commits else 0.0

    def summary(self):
        """Plain-dict summary used by the harness and the benchmarks."""
        return {
            "commits": self.commits,
            "aborts": self.aborts,
            "throughput": self.throughput(),
            "abort_rate": self.abort_rate(),
            "mean_latency": self.mean_latency(),
            "per_type": {
                name: {
                    "commits": stats.commits,
                    "aborts": stats.aborts,
                    "mean_latency": stats.mean_latency,
                }
                for name, stats in sorted(self.by_type.items())
            },
        }
