"""Base class and registry for concurrency-control mechanisms.

A CC mechanism participates in the four-phase execution protocol of
Section 4.3.1.  Hooks that may need to block (waiting for locks, pipeline
steps, dependent commits...) return a coroutine (generator) for the engine
to drive; hooks that never block are plain methods returning ``None``.  The
engine drives exactly the non-``None`` results with ``yield from``, so a
hook must return either ``None`` or an iterable — nothing else.
"""

import inspect

from repro.cc.locks import RangeLockManager
from repro.errors import ConfigurationError

CC_REGISTRY = {}


def register_cc(cls):
    """Class decorator registering a CC mechanism under ``cls.name``."""
    if not getattr(cls, "name", None):
        raise ConfigurationError(f"CC class {cls.__name__} has no registry name")
    if inspect.isgeneratorfunction(cls.pre_commit):
        raise ConfigurationError(f"{cls.name!r}: pre_commit must be synchronous")
    CC_REGISTRY[cls.name] = cls
    return cls


def check_composition(root, profile_of=None):
    """Refuse a spec tree that puts a mechanism where its class forbids.

    One row per rule attribute of :class:`ConcurrencyControl`, plus
    partition-by-instance on leaves only.  The declared-writes row reads the
    profiles (``profile_of``: type name -> profile), which only the engine
    has.  A node is named ``cc@node_id``, as the runtime tree numbers it.
    """

    def walk(spec, node_id, ancestors):
        # An unknown name has no rules here; create_cc reports it.
        cls = CC_REGISTRY.get(spec.cc, ConcurrencyControl)
        where = f"{spec.cc}@{node_id}"
        if spec.children and cls.leaf_only:
            raise ConfigurationError(f"leaf-only: {where} cannot regulate child groups")
        for ancestor, ancestor_at in ancestors:
            if ancestor in cls.forbidden_ancestors:
                raise ConfigurationError(
                    f"forbidden ancestor: {where} sits below {ancestor_at}, "
                    f"whose reads would override {spec.cc!r}'s"
                )
        if spec.instance_key is not None and spec.children:
            raise ConfigurationError(f"partition-by-instance: {where} is not a leaf")
        if spec.instance_key is not None and not cls.supports_partitioning:
            raise ConfigurationError(f"partition-by-instance: {where} orders its whole group")
        if cls.needs_declared_writes and profile_of is not None:
            for txn_type in spec.transactions:
                profile = profile_of(txn_type)
                writes = any(mode == "w" for _table, mode in profile.accesses)
                if writes and profile.promise_keys is None:
                    raise ConfigurationError(
                        f"declared writes: {where} needs promise_keys for writer {txn_type!r}"
                    )
        for index, child in enumerate(spec.children):
            walk(child, f"{node_id}.{index}", ancestors + ((spec.cc, where),))

    walk(root, "0", ())


def create_cc(name, engine, node, params=None):
    """Instantiate a registered CC mechanism for a runtime tree node.

    This is the one way a mechanism comes into being.  It derives what it
    needs from ``engine`` and ``node`` (the group's profiles); ``params``,
    the spec's knobs, go to its constructor verbatim, so a misspelt one
    fails fast with a ``TypeError``.
    """
    try:
        cls = CC_REGISTRY[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown concurrency control {name!r}; known: {sorted(CC_REGISTRY)}"
        ) from None
    return cls(engine, node, **(params or {}))


class ConcurrencyControl:
    """Interface every federated CC mechanism implements.

    Class attributes describe the mechanism to the automatic-configuration
    optimizer (Section 5.4.1's CC filters):

    * ``handles_contention`` — designed to improve heavily contended groups.
    * ``efficient_internal`` — can enforce consistent ordering efficiently as
      an internal (cross-group) node without resorting to batching.
    * ``requires_profiles`` — needs static transaction profiles (RP).

    The attributes after them are the composition rules, which
    :func:`check_composition` enforces for every tree (PERFORMANCE.md, *What
    may sit where*, has the evidence for each).
    """

    name = ""
    handles_contention = True
    efficient_internal = True
    requires_profiles = False
    #: Whether partition-by-instance leaves (``instance_key``) may use this
    #: mechanism.  Sequencing mechanisms that impose one total order per
    #: group (deterministic batch) cannot be split into independent
    #: per-partition instances.
    supports_partitioning = True
    #: Whether the mechanism may only regulate its own group, never child groups.
    leaf_only = False
    #: Mechanisms that may not sit anywhere above this one.
    forbidden_ancestors = frozenset()
    #: Whether every writing member type must declare its write keys
    #: (``promise_keys``) in its profile.
    needs_declared_writes = False
    #: Whether ``pre_commit`` validates the read set: a route through it records it.
    validates_reads = False

    def __init__(self, engine, node):
        self.engine = engine
        self.node = node
        # The one way to block (``waits.wait``) and to abort (``waits.abort``).
        self.waits = engine.waits

    # -- helpers shared by mechanisms -----------------------------------------

    @property
    def env(self):
        return self.engine.env

    @property
    def is_leaf(self):
        return self.node.is_leaf

    def same_child_group(self, txn_a, txn_b):
        """True if both transactions fall in the same child subtree.

        At a leaf this is always False: a leaf delegates nothing, so every
        pair of its transactions conflicts normally.
        """
        if self.node.is_leaf:
            return False
        token_a = txn_a.group_token(self.node.node_id)
        token_b = txn_b.group_token(self.node.node_id)
        return token_a is not None and token_a == token_b

    def phantom_guard(self):
        """Range locks for this node, or ``None`` when no type routed through
        it declares a scan (and so none can reach it: see ``Route``)."""
        profile_of = self.engine.profile_of
        if any(profile_of(name).declares_scan for name in self.node.subtree_types):
            return RangeLockManager(self.waits, same_group=self.same_child_group)
        return None

    def is_member(self, txn):
        """True if ``txn`` is regulated by this node (assigned to its subtree)."""
        return self.node.is_member(txn)

    def subtree_dependencies(self, txn):
        """Ids of ``txn``'s direct dependencies that belong to this subtree."""
        dependencies = txn.dependencies
        if not dependencies:
            return dependencies
        if self.node.parent is None:
            # The root regulates every transaction type, so membership never
            # filters anything (dependency ids always name real txns).
            return set(dependencies)
        deps = set()
        subtree_types = self.node.subtree_types
        for dep_id in dependencies:
            other = self.engine.find_transaction(dep_id)
            if other is not None and other.txn_type in subtree_types:
                deps.add(dep_id)
        return deps

    def state(self, txn, factory=dict):
        """Per-transaction scratch space private to this CC node."""
        return txn.state_for(self.node.node_id, factory)

    # -- four-phase protocol hooks ---------------------------------------------
    # Top-down pass hooks may block (return a generator for the engine to
    # drive, or None); bottom-up hooks are synchronous except
    # validate/pre_commit which may also block.

    def admit(self, txn_type, args):
        """Batched-admission gate, driven by the engine *before* ``begin``.

        Mechanisms that admit work in waves (deterministic batch execution)
        override this to park arriving transactions while their backlog of
        sealed-but-unfinished batches is full — the admission valve runs
        before the transaction exists, so parked work never inflates the
        active set, the dependency graph or what the engine retains.  Like
        the other hooks, return ``None`` to admit immediately or a generator
        for the engine to drive.
        """

    def start(self, txn):
        """Start phase, top-down: allocate metadata / timestamps / batches."""

    def before_read(self, txn, key):
        """Execution phase, top-down: constrain (block/abort) a read."""

    def before_update_read(self, txn, key):
        """Top-down hook for reads declared ``for_update``.

        Lock-based mechanisms override this to take the exclusive lock up
        front (avoiding upgrade deadlocks in read-modify-write transactions);
        the default treats it as an ordinary read.
        """
        return self.before_read(txn, key)

    def before_write(self, txn, key, value):
        """Execution phase, top-down: constrain (block/abort) a write."""

    def before_scan(self, txn, key_range):
        """Execution phase, top-down: constrain (block/abort) a range scan.

        Called once per scan with the :class:`~repro.storage.ranges.KeyRange`
        predicate *before* the engine enumerates the matching keys (each of
        which then goes through the ordinary per-key read path).  Mechanisms
        that must see predicates — range locks (2PL/RP), snapshot range read
        sets (SSI), timestamped range reads (TSO) — override this; the
        default leaves phantom handling to ancestors or to commit-time
        validation (OCC).
        """

    def select_version(self, txn, key):
        """Execution phase, bottom-up (leaf): propose the candidate version.

        The default proposal is the transaction's own uncommitted write if it
        wrote the key, otherwise the latest committed version.
        """
        own = self.engine.store.own_uncommitted(key, txn.txn_id)
        if own is not None:
            return own
        return self.engine.store.latest_committed(key)

    def amend_read(self, txn, key, candidate):
        """Execution phase, bottom-up (internal): amend the child's proposal."""
        return candidate

    def after_write(self, txn, key, version):
        """Execution phase, bottom-up: observe the installed version."""

    def validate(self, txn):
        """Validation phase: decide commit/abort and enforce consistent ordering.

        The default behaviour implements the *adoption* strategy: wait until
        every in-subtree dependency of ``txn`` has finished committing, so the
        ordering decided by children is respected (nexus-lock release order).
        """
        deps = self.subtree_dependencies(txn)
        if deps:
            yield from self.engine.wait_for_transactions(txn, deps)

    def pre_commit(self, txn):
        """Commit phase, before the storage module installs the writes.

        Synchronous by contract: the hook runs inside the server-side commit
        apply, which must not interleave with other transactions, so it may
        raise :class:`TransactionAborted` but never yield.  A generator
        override is rejected when the class is registered.
        """

    def finish(self, txn, committed):
        """Called once after commit or abort: release resources, wake waiters."""

    def release(self, txn):
        """Called once when the engine releases committed ``txn``: nothing
        active is concurrent with it any more, so what was kept for its
        concurrent transactions can go."""

    def describe(self):
        return f"{self.name}@{self.node.node_id}"
