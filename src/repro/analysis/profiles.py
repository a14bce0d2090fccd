"""Static transaction profiles.

A mechanism derives what it needs from a static description of each
transaction type, where it is built (runtime pipelining its steps, TSO its
promises): the ordered sequence of table accesses and whether the
transaction is read-only.  Workloads declare one
:class:`TransactionProfile` per stored procedure; this mirrors the paper's
requirement that such transactions be implemented as stored procedures
(Section 5.4.2).
"""

from dataclasses import dataclass
from typing import Callable, Optional


@dataclass(frozen=True)
class TransactionProfile:
    """Static description of one transaction type.

    ``accesses`` is the ordered tuple of ``(table, mode)`` pairs the
    transaction performs, where mode is ``"r"`` or ``"w"``.  Repeated
    accesses to the same table may be collapsed; order is what matters for
    runtime pipelining.  A type that scans must declare it (``scans`` or
    ``scan_ranges``): its route refuses an undeclared scan.
    """

    name: str
    accesses: tuple = ()
    read_only: bool = False
    promise_keys: Optional[Callable] = None
    #: ``args -> iterable of (table, lo, hi)``: the range predicates the
    #: transaction's scans may touch, declarable from the arguments alone.
    #: Used by mechanisms that pre-declare access sets (deterministic batch
    #: execution builds its dependency graph from declared write keys and
    #: declared scan ranges); ``None`` means the type declares no ranges.
    scan_ranges: Optional[Callable] = None
    #: Tables the transaction may scan; declaring ``scan_ranges`` implies one.
    scans: tuple = ()
    description: str = ""

    @property
    def declares_scan(self):
        return bool(self.scans) or self.scan_ranges is not None

    def tables(self):
        """Tables touched, in first-access order."""
        seen = []
        for table, _mode in self.accesses:
            if table not in seen:
                seen.append(table)
        return seen

    def access_pairs(self):
        """Ordered (earlier_table, later_table) pairs implied by the profile.

        Two kinds of edges are produced for the runtime-pipelining analysis:
        the total order given by first-access positions, and adjacency edges
        over the *full* access sequence.  A transaction that loops back to an
        earlier table (delivery, stock_level, hot_item) therefore contributes
        a cycle, which correctly forces those tables into one merged step.
        """
        tables = self.tables()
        pairs = []
        for i, earlier in enumerate(tables):
            for later in tables[i + 1:]:
                pairs.append((earlier, later))
        previous = None
        for table, _mode in self.accesses:
            if previous is not None and table != previous:
                pairs.append((previous, table))
            previous = table
        return pairs

    def table_positions(self):
        """Normalised first-access position of each table (0 = first, 1 = last)."""
        tables = self.tables()
        if len(tables) <= 1:
            return {table: 0.0 for table in tables}
        return {
            table: index / (len(tables) - 1) for index, table in enumerate(tables)
        }


@dataclass
class TransactionType:
    """A registered transaction type: procedure plus static profile."""

    name: str
    procedure: Callable
    profile: TransactionProfile

    @property
    def read_only(self):
        return self.profile.read_only

    def __post_init__(self):
        if self.profile.name != self.name:
            raise ValueError(
                f"profile name {self.profile.name!r} does not match "
                f"transaction type {self.name!r}"
            )
