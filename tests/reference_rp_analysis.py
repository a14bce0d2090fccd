"""The networkx runtime-pipelining analysis the native one is held to (test-only).

The body of ``analyze_pipeline`` as ``repro.analysis.rp_analysis`` shipped it
until the runtime stopped importing networkx, verbatim but for the
``merged_components`` list ``RPAnalysis`` no longer carries:
``nx.condensation`` numbers the components in the order networkx's Tarjan
closes them and ``nx.lexicographical_topological_sort`` breaks key ties by
that number — the implicit rule the native version states.  Importing this
module needs networkx; tests that use it start with
``pytest.importorskip("networkx")``.
"""

import networkx as nx

from repro.analysis.rp_analysis import RPAnalysis
from repro.errors import AnalysisError


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
    graph = nx.DiGraph()
    positions = {}
    for profile in profiles:
        for table, position in profile.table_positions().items():
            graph.add_node(table)
            positions.setdefault(table, []).append(position)
        for earlier, later in profile.access_pairs():
            if earlier != later:
                graph.add_edge(earlier, later)
    condensation = nx.condensation(graph)

    def _component_key(component_id):
        members = condensation.nodes[component_id]["members"]
        scores = [sum(positions[t]) / len(positions[t]) for t in members]
        return sum(scores) / len(scores)

    # Topological order with positional tie-breaking: among unordered tables,
    # prefer the ones transactions access earlier, so that a table touched
    # only at the tail of some transaction (e.g. TPC-C history) does not land
    # in the middle of the pipeline and stall dependents needlessly.
    order = list(nx.lexicographical_topological_sort(condensation, key=_component_key))
    steps = [frozenset(condensation.nodes[c]["members"]) for c in order]
    table_to_step = {}
    for index, tables in enumerate(steps):
        for table in tables:
            table_to_step[table] = index
    return RPAnalysis(steps=steps, table_to_step=table_to_step)
