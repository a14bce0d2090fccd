"""The transaction object shared by the engine and every CC mechanism."""

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, NamedTuple, Optional


class TransactionStatus(Enum):
    """Lifecycle states of a transaction."""

    ACTIVE = "active"
    VALIDATING = "validating"
    COMMITTED = "committed"
    ABORTED = "aborted"


class ReadRecord(NamedTuple):
    """One read performed by a transaction: the key and the version observed.

    A named tuple (not a dataclass): one record is allocated per recorded
    read, and tuple construction is measurably cheaper on that path.
    """

    key: Any
    version: Any


@dataclass(slots=True)
class Transaction:
    """Runtime state of one transaction instance.

    The transaction carries both generic state (direct dependency set,
    status, and the read and scan sets for whoever reads them) and per-CC
    scratch space (``cc_state``), so that CC mechanisms along the tree path
    can keep their metadata without being aware of each other — mirroring
    the paper's separation between the framework and individual CC
    protocols.  Its write set is the store's ``pending_versions``.
    """

    txn_id: int
    txn_type: str
    args: dict = field(default_factory=dict)
    client_id: int = -1
    status: TransactionStatus = TransactionStatus.ACTIVE
    read_only: bool = False

    # Routing through the CC tree.  ``charges`` (the ``Route`` of the type,
    # or of its partition value: its ``nodes``, hook tables, cost constants
    # and ``group_tokens``) is resolved once in ``engine.begin()`` and pinned
    # here, so in-flight transactions are unaffected by online
    # reconfigurations and the per operation hot path never rebuilds it.
    leaf_node_id: str = ""
    group_tokens: dict = field(default_factory=dict)
    charges: Any = None

    # Data accesses.  A ReadRecord per read and the KeyRange of each
    # ctx.scan call, only for a reader (OCC's validation, the history
    # recorder).  The keys a scan observed are among the reads; the oracle
    # and OCC's phantom validation derive phantoms from the difference.
    reads: Optional[list] = None
    scans: Optional[list] = None

    # Direct dependencies (txn ids this transaction must be ordered after)
    # and the reverse edges (txn ids ordered after this transaction), which
    # the engine maintains for fast transitive-ordering queries.
    dependencies: set = field(default_factory=set)
    dependents: set = field(default_factory=set)
    read_from: set = field(default_factory=set)
    # Invoked with (txn, other_txn_id) whenever a *new* dependency edge is
    # recorded; the engine uses it to maintain the reverse edges that
    # ``depends_transitively`` walks.
    dep_listener: Any = None

    # CC-specific metadata.
    cc_state: dict = field(default_factory=dict)
    cc_timestamp: Optional[int] = None
    commit_timestamp: Optional[int] = None

    # Set by the engine at begin time: a one-shot event triggered when the
    # transaction commits or aborts (used for targeted dependency waits).
    finish_event: Any = None
    # The transaction's edge in the wait-for graph: what it is blocked on,
    # as a (reason, blocking transaction id) pair, or None when running.
    # Written only by ``repro.core.waits.Waits.wait``.
    current_wait: Any = None

    # Timing (virtual seconds) and outcome.
    begin_time: float = 0.0
    abort_reason: str = ""
    result: Any = None

    @property
    def is_active(self):
        return self.status in (TransactionStatus.ACTIVE, TransactionStatus.VALIDATING)

    @property
    def committed(self):
        return self.status is TransactionStatus.COMMITTED

    def state_for(self, node_id, factory=dict):
        """Per-CC-node scratch space (created on first access)."""
        state = self.cc_state.get(node_id)
        if state is None:
            state = self.cc_state[node_id] = factory()
        return state

    def add_dependency(self, other_txn_id, read_from=False):
        """Record that this transaction directly depends on ``other_txn_id``.

        Returns True when a new edge was recorded (and notifies
        ``dep_listener``, which keeps the engine's reverse edges).
        """
        if other_txn_id == self.txn_id or other_txn_id == 0:
            return False
        added = other_txn_id not in self.dependencies
        if added:
            self.dependencies.add(other_txn_id)
            if self.dep_listener is not None:
                self.dep_listener(self, other_txn_id)
        if read_from:
            self.read_from.add(other_txn_id)
        return added

    def group_token(self, node_id):
        """The child-subtree token of this transaction beneath ``node_id``."""
        return self.group_tokens.get(node_id)

    def __hash__(self):
        # txn_id is already a unique small int; avoid re-hashing it.
        return self.txn_id

    def __repr__(self):
        return (
            f"<Txn {self.txn_id} {self.txn_type} {self.status.value}"
            f" leaf={self.leaf_node_id}>"
        )
