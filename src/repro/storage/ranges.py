"""Key ranges: the predicate objects behind scan/range access.

A scan names the keys it *may* observe with a :class:`KeyRange` — a table
plus an inclusive ``[lo, hi]`` bound over that table's primary keys.  The
same object travels through every layer: the storage module enumerates the
matching keys, the transaction keeps it in ``txn.scans`` for a reader, CC
mechanisms register it in a :class:`ScanSet` — a predicate lock (2PL/RP), a
snapshot read set (SSI) or a timestamped range read (TSO) — and the
isolation oracle replays it to derive the rw anti-dependencies of keys the
scan *missed* (phantoms).  :meth:`KeyRange.covers` is the one test of a
storage key against a range, and a ``ScanSet`` the one registry of who
scanned what.

Primary keys within one table share a shape (all scalars or all same-arity
tuples), so plain tuple comparison orders them.  Prefix scans over
composite keys use the :data:`TOP` sentinel, which compares greater than
every concrete key component: the range ``[(w, d, name), (w, d, name, TOP)]``
matches exactly the keys whose first three components equal the prefix.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any


class _Top:
    """Sentinel ordering above every concrete key component."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __lt__(self, other):
        return False

    def __le__(self, other):
        return other is self

    def __gt__(self, other):
        return other is not self

    def __ge__(self, other):
        return True

    def __eq__(self, other):
        return other is self

    def __hash__(self):
        return hash("repro.storage.ranges.TOP")

    def __repr__(self):
        return "TOP"

    def __reduce__(self):
        # Pickle round-trips (fork workers) preserve the singleton identity.
        return (_Top, ())


#: Compares greater than any concrete primary-key component.
TOP = _Top()


@dataclass(frozen=True)
class KeyRange:
    """An inclusive primary-key range ``[lo, hi]`` over one table.

    ``None`` bounds are unbounded on that side.  Containment is defined on
    the *primary key* part of a storage key (storage keys are
    ``(table, pk)`` pairs, see :func:`repro.storage.tables.composite_key`).
    """

    table: str
    lo: Any = None
    hi: Any = None

    def contains_pk(self, pk):
        """Whether a primary key of this table falls inside the range."""
        if self.lo is not None and pk < self.lo:
            return False
        if self.hi is not None and self.hi < pk:
            return False
        return True

    def covers(self, key):
        """Whether a storage key ``(table, pk)`` falls inside the range."""
        return key[0] == self.table and self.contains_pk(key[1])

    def describe(self):
        return f"{self.table}[{self.lo!r}..{self.hi!r}]"


class ScanSet(dict):
    """table -> {txn_id: (txn, [KeyRange, ...])}: the scan predicates a CC
    node keeps for the transactions that scanned through it.

    The phantom guard of every mechanism that has one: a write of a key is
    checked against the ranges covering it (:meth:`covering`), and a
    transaction's ranges leave together (:meth:`drop`) when the node lets
    go of it.  A table is kept only while some transaction has a range on it.
    """

    __slots__ = ()

    def add(self, txn, key_range):
        per_table = self.get(key_range.table)
        if per_table is None:
            per_table = self[key_range.table] = {}
        entry = per_table.get(txn.txn_id)
        if entry is None:
            per_table[txn.txn_id] = (txn, [key_range])
        else:
            entry[1].append(key_range)

    def covering(self, key):
        """The transactions with a range covering ``key``, in the order they
        first registered one on its table."""
        table, pk = key
        per_table = self.get(table)
        if not per_table:
            return []
        return [
            scanner
            for scanner, ranges in per_table.values()
            if any(key_range.contains_pk(pk) for key_range in ranges)
        ]

    def drop(self, txn_id):
        """Forget every range of ``txn_id``."""
        emptied = [
            table
            for table, per_table in self.items()
            if per_table.pop(txn_id, None) is not None and not per_table
        ]
        for table in emptied:
            del self[table]


def prefix_range(table, *prefix):
    """The range matching every composite key starting with ``prefix``.

    For a single-column table a one-element prefix is the exact key; for
    composite keys the range spans every extension of the prefix (a shorter
    tuple compares below each of its extensions, and ``prefix + (TOP,)``
    compares above them).
    """
    if not prefix:
        return KeyRange(table, None, None)
    if len(prefix) == 1:
        return KeyRange(table, prefix[0], prefix[0])
    return KeyRange(table, tuple(prefix), tuple(prefix) + (TOP,))


def slice_sorted_pks(pks, lo=None, hi=None):
    """The ``[start, stop)`` index slice of a sorted pk list inside a range."""
    start = 0 if lo is None else bisect_left(pks, lo)
    stop = len(pks) if hi is None else bisect_right(pks, hi)
    return start, stop
