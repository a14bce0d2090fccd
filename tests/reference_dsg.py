"""The networkx reference DSG the native detectors are held to (test-only).

``DirectSerializationGraph`` / ``build_dsg`` are the graph the runtime
shipped until it stopped importing networkx: the edges come from the
post-hoc reference's :func:`~tests.reference_checker.iter_dsg_edges`, so an
equivalence test against it compares detectors, not derivations.
Importing this module needs networkx; tests that use it start with
``pytest.importorskip("networkx")``.
"""

from dataclasses import dataclass, field

import networkx as nx

from tests.reference_checker import ALL_EDGE_KINDS, iter_dsg_edges


@dataclass
class DirectSerializationGraph:
    """A DSG with typed edges, built from a :class:`~repro.isolation.history.History`.

    Kind-restricted views are memoised: repeated ``has_cycle``/``find_cycle``
    queries (one per isolation level, say) reuse one restricted ``DiGraph``
    per edge-kind frozenset instead of rebuilding it per query.  Mutate the
    graph through :meth:`add_edge` (which invalidates the cache); the cache
    also self-heals when nodes are added directly to ``graph``.
    """

    graph: nx.MultiDiGraph = field(default_factory=nx.MultiDiGraph)
    _subgraphs: dict = field(default_factory=dict, repr=False, compare=False)

    def add_edge(self, source, target, kind):
        if source == target:
            return
        self.graph.add_edge(source, target, kind=kind)
        if self._subgraphs:
            self._subgraphs.clear()

    def edges(self, kinds=None):
        for source, target, data in self.graph.edges(data=True):
            if kinds is None or data["kind"] in kinds:
                yield source, target, data["kind"]

    def subgraph(self, kinds):
        """A plain DiGraph restricted to the given edge kinds (cached)."""
        kinds = frozenset(kinds)
        cached = self._subgraphs.get(kinds)
        if cached is not None and cached.number_of_nodes() == self.graph.number_of_nodes():
            return cached
        restricted = nx.DiGraph()
        restricted.add_nodes_from(self.graph.nodes)
        for source, target, kind in self.edges(kinds):
            restricted.add_edge(source, target)
        self._subgraphs[kinds] = restricted
        return restricted

    def has_cycle(self, kinds=None):
        restricted = self.subgraph(kinds or ALL_EDGE_KINDS)
        try:
            nx.find_cycle(restricted)
            return True
        except nx.NetworkXNoCycle:
            return False

    def find_cycle(self, kinds=None):
        restricted = self.subgraph(kinds or ALL_EDGE_KINDS)
        try:
            return nx.find_cycle(restricted)
        except nx.NetworkXNoCycle:
            return []

    @property
    def num_nodes(self):
        return self.graph.number_of_nodes()

    @property
    def num_edges(self):
        return self.graph.number_of_edges()


def build_dsg(history):
    """Construct the (networkx reference) DSG of a committed history."""
    dsg = DirectSerializationGraph()
    for txn_id in history.transactions:
        dsg.graph.add_node(txn_id)
    for source, target, kind in iter_dsg_edges(history):
        dsg.add_edge(source, target, kind)
    return dsg
