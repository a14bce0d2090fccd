"""Runtime CC tree: compiled form of a :class:`~repro.core.config.Configuration`.

Each :class:`TreeNode` knows the transaction types of its subtree, which is
how membership and child-group tokens are resolved, and holds the mechanism
that regulates its group, built once by :func:`~repro.cc.base.create_cc` from
its spec and the profiles: ``cc``, or for a partition-by-instance leaf one
instance per partition value (``instances``), each built when the first
transaction of its value begins.  A :class:`Route` binds the hooks of
exactly the instances a transaction passes.
"""

from repro.cc.base import CC_REGISTRY, ConcurrencyControl, check_composition, create_cc
from repro.errors import ConfigurationError
from repro.sim.network import CC_LAYER_CPU, OPERATION_CPU, PHASE_CPU, RTT


def _overrides(cc, hook_name):
    """Whether ``cc`` implements ``hook_name`` beyond the no-op base default."""
    return getattr(type(cc), hook_name) is not getattr(ConcurrencyControl, hook_name)


def _refuse_write(txn, key, value):
    """A read-only route's only write hook: no CC sees the write."""
    raise ConfigurationError(
        f"transaction type {txn.txn_type!r} is declared read-only but wrote {key!r}"
    )


def _refuse_scan(txn, key_range):
    """An undeclared scan's only scan hook: no range lock was built for it."""
    raise ConfigurationError(f"type {txn.txn_type!r} declares no scan of {key_range.table!r}")


class TreeNode:
    """One runtime node of the compiled CC tree."""

    def __init__(self, spec, node_id, parent=None):
        self.spec = spec
        self.node_id = node_id
        self.parent = parent
        self.children = []
        self.cc = None
        #: Partition value -> mechanism, for a partition-by-instance leaf
        #: (whose ``cc`` stays ``None``); see :meth:`Route.partition`.
        self.instances = {} if spec.instance_key is not None else None
        self.subtree_types = frozenset(spec.all_transactions())

    @property
    def is_leaf(self):
        return not self.children

    def is_member(self, txn):
        """Whether ``txn`` is assigned to this subtree."""
        return txn.txn_type in self.subtree_types

    def path_from_root(self):
        path = []
        node = self
        while node is not None:
            path.append(node)
            node = node.parent
        path.reverse()
        return path

    def iter_subtree(self):
        yield self
        for child in self.children:
            yield from child.iter_subtree()

    def describe(self):
        label = self.spec.label or self.spec.cc.upper()
        return f"{label}@{self.node_id}"

    def __repr__(self):
        return f"<TreeNode {self.describe()} leaf={self.is_leaf}>"


class Route:
    """Precomputed runtime path of one transaction type, and its cost constants.

    Resolved once at tree-build (or subtree-splice) time so the per-operation
    hot path does not rebuild the CC list or re-sum per-layer cost attributes
    (``extra_operation_rtts`` / ``extra_start_rtts``) on every read, write and
    phase.  ``op_delay``/``phase_delay``/``start_delay`` are the cheap-path
    virtual-time charges of the constant-delay transport (CPU cost plus
    network round-trips at the fixed ``RTT``); the message transport
    charges ``phase_cost`` and sends the round-trips for real.

    Through a partition-by-instance leaf the type's route runs nothing
    itself: it serves admission, ``read_only`` and the ``instance_key``, and
    :meth:`partition` gives the route of one partition value, bound to that
    value's own instance.  Both are built on first use; a partition's route
    lives no longer than its instance, and is built again, over the same
    instance, after a splice elsewhere rebuilds the routes.
    """

    __slots__ = (
        "nodes",
        "txn_type_def",
        "phase_cost",
        "start_rtts",
        "op_delay",
        "phase_delay",
        "start_delay",
        "admission_hooks",
        "read_hooks",
        "update_read_hooks",
        "write_hooks",
        "scan_hooks",
        "select_version",
        "amend_hooks",
        "after_write_hooks",
        "start_hooks",
        "validate_hooks",
        "pre_commit_hooks",
        "finish_hooks",
        "release_hooks",
        "group_tokens",
        "partitions",
        "procedure",
        "read_only",
        "records_reads",
        "instance_key",
        "leaf_node_id",
    )

    def __init__(self, nodes, txn_type_def, partition=None):
        """``partition``: ``(value, instance)`` when this is the route of one
        partition value of a partitioned leaf (see :meth:`partition`)."""
        self.nodes = nodes
        self.txn_type_def = txn_type_def
        leaf = nodes[-1]
        # Per-type lookups resolved once so begin()/_run() skip the dicts.
        self.leaf_node_id = leaf.node_id
        self.procedure = txn_type_def.procedure
        self.read_only = txn_type_def.read_only
        self.records_reads = any(CC_REGISTRY[node.spec.cc].validates_reads for node in nodes)
        self.instance_key = None
        ccs = [node.cc for node in nodes[:-1]]
        if partition is not None:
            value, leaf_cc = partition
        elif leaf.instances is None:
            value, leaf_cc = None, leaf.cc
        else:
            # Admission runs before the partition value is known, so only
            # the ancestors may gate it: the one mechanism that admits in
            # waves (deterministic batch) cannot be partitioned.
            self.instance_key = leaf.spec.instance_key
            self.partitions = {}
            self.admission_hooks = tuple(cc.admit for cc in ccs if _overrides(cc, "admit"))
            return
        ccs.append(leaf_cc)
        layers = len(nodes)
        op_rtts = 1 + sum(getattr(cc, "extra_operation_rtts", 0) for cc in ccs)
        self.phase_cost = PHASE_CPU + CC_LAYER_CPU * layers
        self.start_rtts = sum(getattr(cc, "extra_start_rtts", 0) for cc in ccs)
        self.op_delay = OPERATION_CPU + CC_LAYER_CPU * layers + op_rtts * RTT
        self.phase_delay = self.phase_cost + RTT
        self.start_delay = self.phase_cost + (1 + self.start_rtts) * RTT
        # Specialised hook tables: only CCs that actually implement a hook
        # appear (as pre-bound methods), so the per-operation loops never
        # dispatch into the base-class no-ops.  Hook order is preserved:
        # top-down for the constraining hooks, bottom-up for the rest.
        down = ccs
        up = list(reversed(ccs))
        # Batched-admission gates run in execute_transaction before begin();
        # almost every tree has none, so the engine skips an empty tuple.
        self.admission_hooks = tuple(
            cc.admit for cc in down if _overrides(cc, "admit")
        )
        self.read_hooks = tuple(
            cc.before_read for cc in down if _overrides(cc, "before_read")
        )
        # ``before_update_read`` falls back to ``before_read`` in the base
        # class, so overriding either one makes the hook observable.
        self.update_read_hooks = tuple(
            cc.before_update_read
            for cc in down
            if _overrides(cc, "before_update_read") or _overrides(cc, "before_read")
        )
        self.write_hooks = tuple(
            cc.before_write for cc in down if _overrides(cc, "before_write")
        )
        self.scan_hooks = tuple(
            cc.before_scan for cc in down if _overrides(cc, "before_scan")
        )
        self.select_version = ccs[-1].select_version
        self.amend_hooks = tuple(
            cc.amend_read for cc in up[1:] if _overrides(cc, "amend_read")
        )
        self.after_write_hooks = tuple(
            cc.after_write for cc in up if _overrides(cc, "after_write")
        )
        self.start_hooks = tuple(cc.start for cc in down if _overrides(cc, "start"))
        # The base validate() is a real implementation (consistent-ordering
        # wait), so every CC stays in the validation pass.
        self.validate_hooks = tuple(cc.validate for cc in up)
        self.pre_commit_hooks = tuple(
            cc.pre_commit for cc in up if _overrides(cc, "pre_commit")
        )
        self.finish_hooks = tuple(cc.finish for cc in up if _overrides(cc, "finish"))
        self.release_hooks = tuple(cc.release for cc in up if _overrides(cc, "release"))
        if self.read_only:
            self.write_hooks = (_refuse_write,)
        if not txn_type_def.profile.declares_scan:
            self.scan_hooks = (_refuse_scan,)
        # One immutable token map, shared by every transaction of the route:
        # each node's child group on the path, and the leaf's own group.  A
        # partition value is a group of its own, at the leaf's parent too.
        leaf_token = (leaf.node_id, value)
        tokens = {parent.node_id: child.node_id for parent, child in zip(nodes, nodes[1:])}
        if partition is not None and leaf.parent is not None:
            tokens[leaf.parent.node_id] = leaf_token
        tokens[leaf.node_id] = leaf_token
        self.group_tokens = tokens

    def partition(self, engine, value):
        """The route of this type's transactions of partition ``value``,
        bound to that value's instance; both are built on first use."""
        route = self.partitions.get(value)
        if route is None:
            leaf = self.nodes[-1]
            cc = leaf.instances.get(value)
            if cc is None:
                cc = leaf.instances[value] = create_cc(
                    leaf.spec.cc, engine, leaf, leaf.spec.params
                )
            route = self.partitions[value] = Route(self.nodes, self.txn_type_def, (value, cc))
        return route


def build_routes(nodes, transaction_types):
    """Compile the per-type :class:`Route` table over a runtime tree's nodes:
    one route per type, through the leaf that runs it."""
    return {
        txn_type: Route(node.path_from_root(), transaction_types[txn_type])
        for node in nodes
        if node.is_leaf
        for txn_type in node.spec.transactions
    }


def build_tree(engine, configuration):
    """Compile a configuration into runtime nodes, each with the mechanism
    its spec names (a partitioned leaf's are built per value, on first use)."""
    # Again, with the profiles, and over the specs as they are now (autoconf
    # preprocessing sets instance keys after a Configuration is built).
    check_composition(configuration.root, engine.profile_of)
    nodes = []

    def _build(spec, node_id, parent):
        node = TreeNode(spec, node_id, parent)
        nodes.append(node)
        for index, child_spec in enumerate(spec.children):
            child = _build(child_spec, f"{node_id}.{index}", node)
            node.children.append(child)
        return node

    root = _build(configuration.root, "0", None)
    for node in nodes:
        if node.instances is None:
            node.cc = create_cc(node.spec.cc, engine, node, node.spec.params)
    return root, nodes
