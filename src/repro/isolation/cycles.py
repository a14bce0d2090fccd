"""Native cycle detection and SCCs for dependency graphs — standard library only.

* :class:`IncrementalCycleDetector` — ordering-based incremental cycle
  detection (Pearce & Kelly's dynamic topological order).  Each ``add_edge``
  costs O(1) when the edge respects the current order (the overwhelmingly
  common case for edges streamed in commit order) and O(affected region)
  when it does not; the first edge that closes a cycle is reported with the
  full cycle path as an edge list (``[(u, v), (v, w), ..., (x, u)]``, the
  shape networkx's cycle finder returns).  This is what the streaming DSG
  checker feeds at commit time.
* :func:`strongly_connected_components` — one iterative Tarjan pass as a
  generator; the runtime-pipelining analysis condenses its table graph with
  it.
"""


class IncrementalCycleDetector:
    """Maintain a topological order of a growing digraph; report the first cycle.

    Nodes are created implicitly by :meth:`add_edge` and assigned increasing
    order indices, so a stream of edges that mostly points forward (from
    earlier-created to later-created nodes — exactly what commit-ordered
    dependency edges look like) never triggers reordering.  A back edge
    ``u -> v`` with ``ord[u] > ord[v]`` triggers Pearce-Kelly discovery:
    a forward search from ``v`` bounded by ``ord[u]`` either reaches ``u``
    (cycle: reconstructed via parent pointers) or yields the set of nodes
    that must shift after a backward search from ``u``.

    Once a cycle is found the detector latches: ``cycle`` keeps the first
    cycle and later edges are recorded but no longer checked (a broken
    order cannot be repaired, and the checker only needs the first witness).
    """

    __slots__ = ("_out", "_in", "_ord", "_next_index", "cycle", "num_edges")

    def __init__(self):
        self._out = {}
        self._in = {}
        self._ord = {}
        self._next_index = 0
        self.cycle = None
        self.num_edges = 0

    def __contains__(self, node):
        return node in self._ord

    def _add_node(self, node):
        if node not in self._ord:
            self._ord[node] = self._next_index
            self._next_index += 1
            self._out[node] = set()
            self._in[node] = set()

    def add_edge(self, source, target):
        """Insert one edge; returns the cycle (edge list) if it closed one."""
        if source == target:
            if self.cycle is None:
                self.cycle = [(source, source)]
            return self.cycle
        self._add_node(source)
        self._add_node(target)
        out_edges = self._out[source]
        if target in out_edges:
            return None
        out_edges.add(target)
        self._in[target].add(source)
        self.num_edges += 1
        if self.cycle is not None:
            return None
        order = self._ord
        lower, upper = order[target], order[source]
        if lower > upper:
            return None  # edge already respects the topological order
        # Forward discovery from target, bounded by the affected region.
        parents = {target: None}
        stack = [target]
        forward = [target]
        outs = self._out
        while stack:
            node = stack.pop()
            for successor in outs[node]:
                if successor == source:
                    # Cycle: source -> target -> ... -> node -> source.
                    path = [node]
                    while parents[path[-1]] is not None:
                        path.append(parents[path[-1]])
                    path.reverse()  # target ... node
                    edges = [(source, target)]
                    for index in range(len(path) - 1):
                        edges.append((path[index], path[index + 1]))
                    edges.append((path[-1], source))
                    self.cycle = edges
                    return edges
                if successor not in parents and order[successor] <= upper:
                    parents[successor] = node
                    forward.append(successor)
                    stack.append(successor)
        # No cycle: backward discovery from source, then reorder the region.
        backward_seen = {source}
        stack = [source]
        backward = [source]
        ins = self._in
        while stack:
            node = stack.pop()
            for predecessor in ins[node]:
                if predecessor not in backward_seen and order[predecessor] >= lower:
                    backward_seen.add(predecessor)
                    backward.append(predecessor)
                    stack.append(predecessor)
        # Reassign the region's indices: backward block first, forward after.
        backward.sort(key=order.__getitem__)
        forward.sort(key=order.__getitem__)
        slots = sorted(order[node] for node in backward + forward)
        for slot, node in zip(slots, backward + forward):
            order[node] = slot
        return None


def strongly_connected_components(adjacency):
    """Yield the strongly connected components of ``{node: successors}``.

    The one Tarjan under ``src/``: iterative (no recursion limit), O(V + E),
    lazy.  Roots are tried in the mapping's iteration order and successors in
    theirs, so with insertion-ordered containers the result is deterministic.
    Each component is the list of its nodes as they came off Tarjan's stack
    (its root last), and components arrive in the order their roots *close* —
    a reverse topological order of the condensation.  Both orders are part of
    the contract: the runtime-pipelining step order
    (:mod:`repro.analysis.rp_analysis`) and the cycle witness of the tests'
    post-hoc reference pass are derived from them.
    A node that only appears as a successor has no successors of its own.
    """
    index_of = {}
    lowlink = {}
    on_stack = set()
    stack = []
    for root in adjacency:
        if root in index_of:
            continue
        index_of[root] = lowlink[root] = len(index_of)
        stack.append(root)
        on_stack.add(root)
        work = [(root, iter(adjacency.get(root, ())))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in index_of:
                    index_of[successor] = lowlink[successor] = len(index_of)
                    stack.append(successor)
                    on_stack.add(successor)
                    work.append((successor, iter(adjacency.get(successor, ()))))
                    break
                if successor in on_stack and index_of[successor] < lowlink[node]:
                    lowlink[node] = index_of[successor]
            else:
                work.pop()
                if work:
                    parent = work[-1][0]
                    if lowlink[node] < lowlink[parent]:
                        lowlink[parent] = lowlink[node]
                if lowlink[node] == index_of[node]:
                    component = []
                    while True:
                        member = stack.pop()
                        on_stack.discard(member)
                        component.append(member)
                        if member == node:
                            break
                    yield component

