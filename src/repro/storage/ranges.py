"""Key ranges: the predicate objects behind scan/range access.

A scan names the keys it *may* observe with a :class:`KeyRange` — a table
plus an inclusive ``[lo, hi]`` bound over that table's primary keys.  The
same object travels through every layer: the storage module enumerates the
matching keys, CC mechanisms register it as a predicate lock (2PL/RP), a
snapshot read set (SSI) or a timestamped range read (TSO), and the
isolation oracle replays it to derive the rw anti-dependencies of keys the
scan *missed* (phantoms).

Primary keys within one table share a shape (all scalars or all same-arity
tuples), so plain tuple comparison orders them.  Prefix scans over
composite keys use the :data:`TOP` sentinel, which compares greater than
every concrete key component: the range ``[(w, d, name), (w, d, name, TOP)]``
matches exactly the keys whose first three components equal the prefix.
"""

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Any, Optional


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

    def truncated(self, hi):
        """A copy of this range with the upper bound tightened to ``hi``.

        Used by limited scans: a scan that stopped early only depended on
        the key space up to the last key it enumerated.
        """
        return KeyRange(self.table, self.lo, hi)

    def describe(self):
        return f"{self.table}[{self.lo!r}..{self.hi!r}]"


def bounded_range(table, lo=None, hi=None):
    """An inclusive ``[lo, hi]`` range over ``table``."""
    return KeyRange(table, lo, hi)


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
