"""Declarative CC-tree configurations (the paper's Figures 4.2, 4.6, 5.2...).

A configuration is a tree of :class:`CCSpec` nodes.  Leaves list the static
transaction types they regulate; internal nodes regulate conflicts between
their child subtrees.  The engine compiles a configuration into runtime
:class:`~repro.core.engine.TreeNode` objects with actual CC instances.
"""

import copy
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.cc.base import check_composition
from repro.errors import ConfigurationError


@dataclass
class CCSpec:
    """One node of a CC-tree configuration.

    Attributes
    ----------
    cc:
        Registry name of the CC mechanism (``"2pl"``, ``"rp"``, ``"ssi"``,
        ``"tso"``, ``"occ"``, ``"none"``).
    transactions:
        For leaves, the static transaction types assigned to this group.
    children:
        For internal nodes, the child subtrees.
    params:
        The mechanism's knobs, passed to its constructor verbatim (e.g.
        ``{"lock_timeout": 0.25}``); what it derives from the profiles is
        never a param.
    instance_key:
        Optional partition-by-instance function ``args -> hashable`` for
        leaves: the runtime creates one CC instance per distinct value and
        the parent treats the instances as separate groups (Section 5.4.2).
    label:
        Optional human-readable label used in reports.
    """

    cc: str
    transactions: tuple = ()
    children: list = field(default_factory=list)
    params: dict = field(default_factory=dict)
    instance_key: Optional[Callable] = None
    label: str = ""

    @property
    def is_leaf(self):
        return not self.children

    def clone(self):
        """Deep copy of the subtree (instance_key callables are shared)."""
        return CCSpec(
            cc=self.cc,
            transactions=tuple(self.transactions),
            children=[child.clone() for child in self.children],
            params=copy.deepcopy(self.params),
            instance_key=self.instance_key,
            label=self.label,
        )

    def all_transactions(self):
        """Every transaction type assigned in this subtree (document order)."""
        if self.is_leaf:
            return list(self.transactions)
        found = []
        for child in self.children:
            found.extend(child.all_transactions())
        return found

    def iter_nodes(self):
        """Pre-order traversal of the subtree."""
        yield self
        for child in self.children:
            yield from child.iter_nodes()

    def depth(self):
        """Number of levels in the subtree (a single leaf has depth 1)."""
        if self.is_leaf:
            return 1
        return 1 + max(child.depth() for child in self.children)

    def find_leaf_of(self, txn_type):
        """The leaf spec that contains ``txn_type`` or ``None``."""
        if self.is_leaf:
            return self if txn_type in self.transactions else None
        for child in self.children:
            leaf = child.find_leaf_of(txn_type)
            if leaf is not None:
                return leaf
        return None

    def describe(self, indent=0):
        """Readable multi-line description (used in reports and examples)."""
        pad = "  " * indent
        name = self.label or self.cc.upper()
        if self.is_leaf:
            txns = ", ".join(self.transactions) or "(empty)"
            suffix = " [per-instance]" if self.instance_key else ""
            lines = [f"{pad}{name}: {txns}{suffix}"]
        else:
            lines = [f"{pad}{name}"]
            for child in self.children:
                lines.append(child.describe(indent + 1))
        return "\n".join(lines)

    def signature(self):
        """Hashable structural signature (used to deduplicate candidates)."""
        if self.is_leaf:
            return (self.cc, tuple(sorted(self.transactions)), self.instance_key is not None)
        return (self.cc, tuple(child.signature() for child in self.children))


def leaf(cc, *transactions, params=None, instance_key=None, label=""):
    """Convenience constructor for a leaf spec."""
    return CCSpec(
        cc=cc,
        transactions=tuple(transactions),
        params=dict(params or {}),
        instance_key=instance_key,
        label=label,
    )


def node(cc, *children, params=None, label=""):
    """Convenience constructor for an internal spec."""
    return CCSpec(cc=cc, children=list(children), params=dict(params or {}), label=label)


class Configuration:
    """A validated CC-tree configuration for a known set of transaction types."""

    def __init__(self, root, name=""):
        self.root = root
        self.name = name or root.label or "configuration"
        self._validate()

    def _validate(self):
        seen = {}
        for spec in self.root.iter_nodes():
            if spec.is_leaf:
                for txn_type in spec.transactions:
                    if txn_type in seen:
                        raise ConfigurationError(
                            f"transaction type {txn_type!r} assigned to more than "
                            "one leaf group"
                        )
                    seen[txn_type] = spec
            elif spec.transactions:
                raise ConfigurationError(
                    "internal CC nodes must not list transactions directly"
                )
        if not seen:
            raise ConfigurationError("configuration assigns no transactions")
        check_composition(self.root)
        self._leaf_by_type = seen

    @property
    def transaction_types(self):
        return set(self._leaf_by_type)

    def leaf_for(self, txn_type):
        try:
            return self._leaf_by_type[txn_type]
        except KeyError:
            raise ConfigurationError(
                f"no CC group assigned for transaction type {txn_type!r}"
            ) from None

    def depth(self):
        return self.root.depth()

    def clone(self, name=None):
        return Configuration(self.root.clone(), name=name or self.name)

    def describe(self):
        return f"[{self.name}]\n{self.root.describe()}"

    def signature(self):
        return self.root.signature()

    def __repr__(self):
        return f"<Configuration {self.name!r} depth={self.depth()}>"


# -- the shapes the paper's evaluation keeps coming back to ------------------

def monolithic(cc, transaction_types, params=None, name=None):
    """A single-group configuration running one CC over every transaction."""
    root = leaf(cc, *transaction_types, params=params, label=f"monolithic-{cc}")
    return Configuration(root, name=name or f"monolithic-{cc}")


def two_layer(read_only, updates, name, label=""):
    """SSI over {read-only types under no CC, the ``updates`` spec} (Figure 5.2)."""
    root = node("ssi", leaf("none", *read_only, label="ReadOnly"), updates, label=label)
    return Configuration(root, name=name)


def three_layer(read_only, groups, name, label=""):
    """SSI over {read-only types, 2PL over the update ``groups``} (Figure 4.6d)."""
    return two_layer(read_only, node("2pl", *groups, label="Updates"), name, label)


def initial_configuration(transaction_types, read_only_types):
    """The automatic-configuration starting point (Figure 5.2).

    SSI at the root separating a read-only group (no CC) from a single 2PL
    group holding every update transaction — effectively MV2PL.
    """
    read_only = sorted(t for t in transaction_types if t in read_only_types)
    updates = sorted(t for t in transaction_types if t not in read_only_types)
    group = leaf("2pl", *updates, label="2PL updates")
    if not read_only:
        return Configuration(group, name="initial")
    return two_layer(read_only, group, name="initial", label="Initial")
