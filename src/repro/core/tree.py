"""Runtime CC tree: compiled form of a :class:`~repro.core.config.Configuration`.

Each :class:`TreeNode` owns one CC mechanism instance (or a
:class:`PartitionedCC` family for partition-by-instance leaves) and knows the
transaction types of its subtree, which is how membership and child-group
tokens are resolved.
"""

from repro.cc.base import CC_REGISTRY, ConcurrencyControl, check_composition, create_cc
from repro.errors import ConfigurationError
from repro.sim.network import CC_LAYER_CPU, OPERATION_CPU, PHASE_CPU, RTT


def _overrides(cc, hook_name):
    """Whether ``cc`` implements ``hook_name`` beyond the no-op base default.

    Non-subclass mechanisms (e.g. :class:`PartitionedCC`) define every hook
    themselves and therefore always count as overriding.
    """
    return getattr(type(cc), hook_name, None) is not getattr(
        ConcurrencyControl, hook_name
    )


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


class PartitionedCC:
    """Partition-by-instance wrapper: one CC instance per partition value.

    The wrapper exposes the full CC interface and routes every call to the
    per-partition instance selected by ``txn.partition_value`` (computed at
    begin time from the leaf spec's ``instance_key``).  Each instance keeps
    its own metadata (lock tables, timestamp ordering, batches), which is the
    whole point of the optimization (Section 5.4.2, Table 5.1).
    """

    def __init__(self, engine, node, factory):
        self.engine = engine
        self.node = node
        self._factory = factory
        self._instances = {}
        self._sample = None

    @property
    def name(self):
        return f"partitioned-{self.node.spec.cc}"

    def instance_for(self, txn):
        value = txn.partition_value
        if value not in self._instances:
            self._instances[value] = self._factory()
        return self._instances[value]

    # The four-phase interface simply dispatches on the partition value.

    # Mechanisms that gate admission do not support partitioning (checked at
    # build time), so the base no-op is shared — and, being identical to the
    # base hook, keeps partitioned leaves out of the admission hook table.
    admit = ConcurrencyControl.admit

    def start(self, txn):
        return self.instance_for(txn).start(txn)

    def before_read(self, txn, key):
        return self.instance_for(txn).before_read(txn, key)

    def before_update_read(self, txn, key):
        return self.instance_for(txn).before_update_read(txn, key)

    def before_write(self, txn, key, value):
        return self.instance_for(txn).before_write(txn, key, value)

    def before_scan(self, txn, key_range):
        return self.instance_for(txn).before_scan(txn, key_range)

    def select_version(self, txn, key):
        return self.instance_for(txn).select_version(txn, key)

    def amend_read(self, txn, key, candidate):
        return self.instance_for(txn).amend_read(txn, key, candidate)

    def after_write(self, txn, key, version):
        return self.instance_for(txn).after_write(txn, key, version)

    def validate(self, txn):
        return self.instance_for(txn).validate(txn)

    def pre_commit(self, txn):
        return self.instance_for(txn).pre_commit(txn)

    def finish(self, txn, committed):
        return self.instance_for(txn).finish(txn, committed)

    def describe(self):
        return f"{self.name}@{self.node.node_id} ({len(self._instances)} instances)"

    def _sample_instance(self):
        """A representative instance used only for static attributes."""
        if self._instances:
            return next(iter(self._instances.values()))
        if self._sample is None:
            self._sample = self._factory()
        return self._sample

    @property
    def extra_operation_rtts(self):
        return getattr(self._sample_instance(), "extra_operation_rtts", 0)

    @property
    def extra_start_rtts(self):
        return getattr(self._sample_instance(), "extra_start_rtts", 0)


class Route:
    """Precomputed per-transaction-type runtime path and cost constants.

    Resolved once at tree-build (or subtree-splice) time so the per-operation
    hot path does not rebuild the CC list or re-sum per-layer cost attributes
    (``extra_operation_rtts`` / ``extra_start_rtts``) on every read, write and
    phase.  ``op_delay``/``phase_delay``/``start_delay`` are the cheap-path
    virtual-time charges of the constant-delay transport (CPU cost plus
    network round-trips at the fixed ``RTT``); the message transport
    charges ``phase_cost`` and sends the round-trips for real.
    """

    __slots__ = (
        "nodes",
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
        "static_group_tokens",
        "partitioned",
        "procedure",
        "read_only",
        "records_reads",
        "instance_key",
        "leaf_node_id",
    )

    def __init__(self, nodes, txn_type_def):
        self.nodes = nodes
        ccs = [node.cc for node in nodes]
        layers = len(nodes)
        op_rtts = 1 + sum(getattr(cc, "extra_operation_rtts", 0) for cc in ccs)
        self.phase_cost = PHASE_CPU + CC_LAYER_CPU * layers
        self.start_rtts = sum(getattr(cc, "extra_start_rtts", 0) for cc in ccs)
        self.op_delay = OPERATION_CPU + CC_LAYER_CPU * layers + op_rtts * RTT
        self.phase_delay = self.phase_cost + RTT
        self.start_delay = self.phase_cost + (1 + self.start_rtts) * RTT
        self.records_reads = any(CC_REGISTRY[node.spec.cc].validates_reads for node in nodes)
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
        # Without partition-by-instance anywhere on the path, every
        # transaction of this type shares one immutable token map; the
        # engine then skips rebuilding it per begin().
        self.partitioned = any(node.spec.instance_key is not None for node in nodes)
        if self.partitioned:
            self.static_group_tokens = None
        else:
            tokens = {}
            for parent, child in zip(nodes, nodes[1:]):
                tokens[parent.node_id] = child.node_id
            tokens[nodes[-1].node_id] = (nodes[-1].node_id, None)
            self.static_group_tokens = tokens
        # Per-type lookups resolved once so begin()/_run() skip the dicts.
        leaf = nodes[-1]
        self.instance_key = leaf.spec.instance_key
        self.leaf_node_id = leaf.node_id
        self.procedure = txn_type_def.procedure
        self.read_only = txn_type_def.read_only
        if self.read_only:
            self.write_hooks = (_refuse_write,)
        if not txn_type_def.profile.declares_scan:
            self.scan_hooks = (_refuse_scan,)


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
    """Compile a configuration into runtime nodes with CC instances."""
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
        if node.spec.instance_key is not None:
            node.cc = PartitionedCC(
                engine,
                node,
                factory=lambda n=node: create_cc(
                    n.spec.cc, engine, n, params=n.spec.params
                ),
            )
        else:
            node.cc = create_cc(node.spec.cc, engine, node, params=node.spec.params)
    return root, nodes
