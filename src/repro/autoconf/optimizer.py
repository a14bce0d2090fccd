"""The optimization stage (Section 5.4): propose new MCC configurations.

Given the bottleneck conflict edge reported by the profiler, the optimizer
produces candidate configurations following the three adjustment strategies
of Section 5.4.1 — all of which keep changes as local as possible:

* **Case 1** (both endpoints are the same transaction type): split the leaf,
  moving the type into a new leaf with a better-suited CC, under a new
  internal node running the original CC.
* **Case 2** (two types in the same leaf group): split the leaf into two
  leaves under a new internal node whose CC is chosen to handle the conflict.
* **Case 3** (types in different groups): move one type beneath a node along
  the path from the lowest common ancestor to the other type, or insert a new
  cross-group CC along that path.

CC-specific filters (Section 5.4.1 "Filtering Candidate Configurations")
remove candidates whose mechanisms are not designed for contention or cannot
enforce consistent ordering efficiently at the position they would occupy.
"""

from dataclasses import dataclass, field

from repro.cc.base import CC_REGISTRY
from repro.core.config import CCSpec, Configuration
from repro.errors import ConfigurationError


@dataclass
class OptimizationCandidate:
    """One proposed configuration plus a human-readable rationale."""

    configuration: Configuration
    rationale: str

    def __repr__(self):
        return f"<Candidate {self.configuration.name}: {self.rationale}>"


class ConfigurationOptimizer:
    """Generates candidate configurations for a bottleneck conflict edge."""

    #: CCs considered when creating a new contention-handling group.
    DEFAULT_LEAF_CANDIDATES = ("rp", "tso", "ssi")
    #: CCs considered for a new cross-group (internal) node.
    DEFAULT_CROSS_CANDIDATES = ("ssi", "rp", "2pl")

    def __init__(self, transaction_types):
        self.transaction_types = dict(transaction_types)

    # -- helpers ----------------------------------------------------------------------

    def _is_read_only(self, txn_type):
        return self.transaction_types[txn_type].read_only

    def _cc_class(self, name):
        return CC_REGISTRY[name]

    def _filter_leaf_cc(self, cc_name, txn_types):
        """CC filter for in-group candidates (must handle contention)."""
        cls = self._cc_class(cc_name)
        if not cls.handles_contention:
            return False
        if cls.requires_profiles:
            # RP needs stored-procedure profiles for every member type.
            for txn_type in txn_types:
                if not self.transaction_types[txn_type].profile.accesses:
                    return False
        return True

    def _filter_cross_cc(self, cc_name, child_type_groups):
        """CC filter for cross-group candidates (consistent-ordering cost)."""
        cls = self._cc_class(cc_name)
        if not cls.efficient_internal:
            # TSO / OCC / NoOp are not efficient internal nodes (batching or
            # missing delegation support).
            return False
        if cc_name == "ssi":
            # SSI is only efficient without batching, i.e. with at most one
            # update child group (Section 4.4.3).
            update_children = sum(
                1
                for group in child_type_groups
                if any(not self._is_read_only(t) for t in group)
            )
            if update_children > 1:
                return False
        if cls.requires_profiles:
            for group in child_type_groups:
                for txn_type in group:
                    if not self.transaction_types[txn_type].profile.accesses:
                        return False
        return True

    @staticmethod
    def _find_parent(root, target):
        for spec in root.iter_nodes():
            if any(child is target for child in spec.children):
                return spec
        return None

    # -- candidate generation ---------------------------------------------------------------

    def propose(self, configuration, edge, name_prefix="candidate"):
        """Generate filtered candidates for the bottleneck ``edge``."""
        type_a, type_b = edge
        leaf_a = configuration.leaf_for(type_a)
        leaf_b = configuration.leaf_for(type_b)
        if type_a == type_b:
            candidates = self._case_single_type(configuration, type_a)
        elif leaf_a is leaf_b:
            candidates = self._case_same_group(configuration, type_a, type_b)
        else:
            candidates = self._case_cross_group(configuration, type_a, type_b)
        # Deduplicate structurally identical candidates and drop no-ops.
        unique = []
        seen = {configuration.signature()}
        for candidate in candidates:
            signature = candidate.configuration.signature()
            if signature in seen:
                continue
            seen.add(signature)
            candidate.configuration.name = f"{name_prefix}-{len(unique)}"
            unique.append(candidate)
        return unique

    # Case 1: conflict among instances of one transaction type.
    def _case_single_type(self, configuration, txn_type):
        candidates = []
        original_leaf = configuration.leaf_for(txn_type)
        original_cc = original_leaf.cc
        for cc_name in self.DEFAULT_LEAF_CANDIDATES:
            if cc_name == original_cc and len(original_leaf.transactions) == 1:
                continue
            if not self._filter_leaf_cc(cc_name, (txn_type,)):
                continue
            new_root = configuration.root.clone()
            try:
                self._split_leaf(new_root.find_leaf_of(txn_type), (txn_type,), cc_name)
                candidates.append(
                    OptimizationCandidate(
                        configuration=Configuration(new_root),
                        rationale=(
                            f"optimize self-conflicts of {txn_type} with {cc_name}"
                        ),
                    )
                )
            except ConfigurationError:
                continue
        return candidates

    # Case 2: two types in the same leaf group.
    def _case_same_group(self, configuration, type_a, type_b):
        candidates = []
        for cross_cc in self.DEFAULT_CROSS_CANDIDATES:
            if not self._filter_cross_cc(cross_cc, [(type_a,), (type_b,)]):
                continue
            for leaf_cc_a in self._leaf_choices(type_a):
                for leaf_cc_b in self._leaf_choices(type_b):
                    new_root = configuration.root.clone()
                    try:
                        self._split_pair(
                            new_root.find_leaf_of(type_a),
                            type_a, type_b, cross_cc, leaf_cc_a, leaf_cc_b,
                        )
                        candidates.append(
                            OptimizationCandidate(
                                configuration=Configuration(new_root),
                                rationale=(
                                    f"separate {type_a} ({leaf_cc_a}) and {type_b} "
                                    f"({leaf_cc_b}) under cross-group {cross_cc}"
                                ),
                            )
                        )
                    except ConfigurationError:
                        continue
        return candidates

    # Case 3: types currently in different groups.
    def _case_cross_group(self, configuration, type_a, type_b):
        candidates = []
        for mover, anchor in ((type_b, type_a), (type_a, type_b)):
            for cross_cc in self.DEFAULT_CROSS_CANDIDATES:
                if not self._filter_cross_cc(cross_cc, [(mover,), (anchor,)]):
                    continue
                new_root = configuration.root.clone()
                try:
                    self._move_next_to(new_root, mover, anchor, cross_cc)
                    candidates.append(
                        OptimizationCandidate(
                            configuration=Configuration(new_root),
                            rationale=(
                                f"regulate {mover}/{anchor} conflicts with a new "
                                f"{cross_cc} node above {anchor}'s group"
                            ),
                        )
                    )
                except ConfigurationError:
                    continue
        return candidates

    def _leaf_choices(self, txn_type):
        if self._is_read_only(txn_type):
            return ("none",)
        choices = [
            cc for cc in self.DEFAULT_LEAF_CANDIDATES if self._filter_leaf_cc(cc, (txn_type,))
        ]
        return tuple(choices[:2]) or ("2pl",)

    # -- tree surgery -------------------------------------------------------------------------

    def _split_leaf(self, target_leaf, moved_types, new_cc):
        """Case 1 surgery: replace ``target_leaf`` with original-CC node over
        {remaining leaf, new leaf(new_cc, moved_types)}."""
        remaining = tuple(t for t in target_leaf.transactions if t not in moved_types)
        new_leaf = CCSpec(cc=new_cc, transactions=tuple(moved_types))
        if not remaining:
            # The whole leaf moves: just change (or wrap) its CC.
            if new_cc == target_leaf.cc:
                raise ConfigurationError("no structural change")
            target_leaf.cc = new_cc
            return
        sibling = CCSpec(cc=target_leaf.cc, transactions=remaining)
        wrapper_children = [sibling, new_leaf]
        target_leaf.transactions = ()
        target_leaf.children = wrapper_children

    def _split_pair(self, target_leaf, type_a, type_b, cross_cc, cc_a, cc_b):
        """Case 2 surgery: pull two types out of a leaf under a new cross CC."""
        remaining = tuple(
            t for t in target_leaf.transactions if t not in (type_a, type_b)
        )
        pair_node = CCSpec(
            cc=cross_cc,
            children=[
                CCSpec(cc=cc_a, transactions=(type_a,)),
                CCSpec(cc=cc_b, transactions=(type_b,)),
            ],
        )
        if not remaining:
            target_leaf.cc = pair_node.cc
            target_leaf.transactions = ()
            target_leaf.children = pair_node.children
            return
        sibling = CCSpec(cc=target_leaf.cc, transactions=remaining)
        target_leaf.transactions = ()
        target_leaf.children = [sibling, pair_node]

    def _move_next_to(self, root, mover, anchor, cross_cc):
        """Case 3 surgery: insert a ``cross_cc`` node above the anchor's group
        regulating {anchor's group, mover}."""
        mover_leaf = root.find_leaf_of(mover)
        anchor_leaf = root.find_leaf_of(anchor)
        if mover_leaf is None or anchor_leaf is None:
            raise ConfigurationError("transaction type not found")
        # Detach the mover from its current leaf.
        if mover_leaf.transactions == (mover,):
            parent = self._find_parent(root, mover_leaf)
            if parent is None:
                raise ConfigurationError("cannot detach the root leaf")
            parent.children = [c for c in parent.children if c is not mover_leaf]
            if len(parent.children) == 1 and parent.children[0].is_leaf:
                # Collapse a now-degenerate internal node.
                only = parent.children[0]
                parent.cc = only.cc
                parent.transactions = only.transactions
                parent.instance_key = only.instance_key
                parent.children = []
            moved_leaf = mover_leaf
        else:
            mover_leaf.transactions = tuple(
                t for t in mover_leaf.transactions if t != mover
            )
            moved_leaf = CCSpec(
                cc="none" if self._is_read_only(mover) else mover_leaf.cc,
                transactions=(mover,),
            )
        # Wrap the anchor's leaf with the new cross-group node.
        anchor_leaf = root.find_leaf_of(anchor)
        original = CCSpec(
            cc=anchor_leaf.cc,
            transactions=tuple(anchor_leaf.transactions),
            children=[c for c in anchor_leaf.children],
            instance_key=anchor_leaf.instance_key,
            params=dict(anchor_leaf.params),
        )
        anchor_leaf.cc = cross_cc
        anchor_leaf.transactions = ()
        anchor_leaf.instance_key = None
        anchor_leaf.params = {}
        anchor_leaf.children = [original, moved_leaf]
