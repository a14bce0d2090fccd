"""Static analysis for runtime pipelining (Section 4.4.2).

RP builds a directed graph of tables whose edges follow the access order of
the transactions in the group, condenses strongly connected components and
topologically sorts them: each condensed component becomes one pipeline
*step*.  Circular table dependencies (e.g. TPC-C ``new_order`` together with
``stock_level``) merge tables into a single coarse step, which is exactly why
grouping choices matter so much in the paper's evaluation.
"""

import heapq
from dataclasses import dataclass, field

from repro.errors import AnalysisError
from repro.isolation.cycles import strongly_connected_components


@dataclass
class RPAnalysis:
    """Result of the runtime-pipelining static analysis for one group."""

    steps: list = field(default_factory=list)
    table_to_step: dict = field(default_factory=dict)

    @property
    def num_steps(self):
        return len(self.steps)

    def describe(self):
        lines = [f"runtime pipeline with {self.num_steps} steps"]
        for index, tables in enumerate(self.steps):
            lines.append(f"  step {index}: {', '.join(sorted(tables))}")
        return "\n".join(lines)


def analyze_pipeline(profiles):
    """Compute the pipeline steps for a group of transaction profiles.

    Parameters
    ----------
    profiles:
        Iterable of :class:`~repro.analysis.profiles.TransactionProfile`.

    Returns
    -------
    RPAnalysis
    """
    profiles = list(profiles)
    if not profiles:
        raise AnalysisError("runtime pipelining needs at least one profile")
    # table -> {successor: None}: dicts, not sets, so that Tarjan visits
    # tables and successors in first-mention order whatever the hash salt.
    adjacency = {}
    positions = {}
    for profile in profiles:
        for table, position in profile.table_positions().items():
            adjacency.setdefault(table, {})
            positions.setdefault(table, []).append(position)
        for earlier, later in profile.access_pairs():
            if earlier != later:
                adjacency[earlier][later] = None
    components = list(strongly_connected_components(adjacency))
    component_of = {
        table: index for index, tables in enumerate(components) for table in tables
    }
    successors = [set() for _ in components]
    indegree = [0] * len(components)
    for table, later_tables in adjacency.items():
        source = component_of[table]
        for later in later_tables:
            target = component_of[later]
            if target != source and target not in successors[source]:
                successors[source].add(target)
                indegree[target] += 1

    def _mean_position(tables):
        scores = [sum(positions[t]) / len(positions[t]) for t in tables]
        return sum(scores) / len(scores)

    # Kahn's topological order over the condensed components, the ready ones
    # taken smallest key first.  The key is (mean normalised first-access
    # position, index at which Tarjan closed the component):
    #   * position — among unordered tables, prefer the ones transactions
    #     access earlier, so that a table touched only at the tail of some
    #     transaction (e.g. TPC-C history) does not land in the middle of the
    #     pipeline and stall dependents needlessly;
    #   * closing index — position ties are real: every table that is the
    #     last one of the only transaction touching it sits at 1.0 and nothing
    #     orders such tables among themselves (``item_stats``,
    #     ``customer_last_order`` and ``history`` in hot_item + new_order +
    #     payment, which come out in exactly that order), and the steps of a
    #     running pipeline hang on how the tie breaks.  Closing order depends
    #     on the profiles and their argument order alone, never on the hash
    #     salt, and it is what networkx's ``condensation`` +
    #     ``lexicographical_topological_sort`` did implicitly while this
    #     analysis ran on them; breaking ties by table name instead moves
    #     the steps of groups the registry builds
    #     (``tests/test_config_and_analysis.py`` pins them).
    keys = [(_mean_position(tables), index) for index, tables in enumerate(components)]
    ready = [key for key in keys if not indegree[key[1]]]
    heapq.heapify(ready)
    steps = []
    while ready:
        _key, index = heapq.heappop(ready)
        steps.append(frozenset(components[index]))
        for target in successors[index]:
            indegree[target] -= 1
            if not indegree[target]:
                heapq.heappush(ready, keys[target])
    table_to_step = {}
    for index, tables in enumerate(steps):
        for table in tables:
            table_to_step[table] = index
    return RPAnalysis(steps=steps, table_to_step=table_to_step)
