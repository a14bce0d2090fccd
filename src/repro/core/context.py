"""The transaction context handed to stored procedures.

Stored procedures are generator functions ``def proc(ctx, **args)`` that use
``yield from ctx.read(...)`` / ``yield from ctx.write(...)`` for every data
access, so that the engine can block them (locks, pipeline steps) in virtual
time.  The context also offers small conveniences (read-modify-write,
existence checks) used by the TPC-C and SEATS implementations.
"""

from repro.storage.ranges import KeyRange, prefix_range
from repro.storage.tables import composite_key


class TransactionContext:
    """Data-access API available inside a stored procedure."""

    __slots__ = ("_engine", "_txn")

    def __init__(self, engine, txn):
        self._engine = engine
        self._txn = txn

    @property
    def txn(self):
        return self._txn

    @property
    def txn_id(self):
        return self._txn.txn_id

    @property
    def now(self):
        return self._engine.env.now

    def key(self, table, *parts):
        return composite_key(table, *parts)

    # -- data accesses ------------------------------------------------------

    def read(self, table, *parts, for_update=False):
        """Read a row; returns the row dict or ``None`` if it does not exist.

        ``for_update=True`` declares that the row will be written later in
        the transaction, letting lock-based CCs take the exclusive lock up
        front instead of upgrading (which would invite deadlocks).

        Returns the engine coroutine directly (callers ``yield from`` it), so
        the per-read hot path carries no extra generator frame.
        """
        return self._engine.perform_read(
            self._txn, composite_key(table, *parts), for_update=for_update
        )

    def write(self, table, *parts, row):
        """Write (insert or replace) a row.

        Returns the engine coroutine directly (callers ``yield from`` it), so
        the per-write hot path carries no extra generator frame; the
        coroutine's value is the installed version.
        """
        return self._engine.perform_write(
            self._txn, composite_key(table, *parts), dict(row)
        )

    def scan(self, table, *, lo=None, hi=None, prefix=None):
        """Ordered range scan; returns ``[(pk, row), ...]`` in key order.

        The predicate is either an inclusive ``[lo, hi]`` primary-key range
        or a ``prefix`` tuple over a composite key (all keys starting with
        the prefix).  Missing/deleted rows are skipped.  The scan is a
        first-class access: CC mechanisms see the predicate (range locks,
        snapshot range read sets) and every enumerated key goes through the
        normal per-key read path, so the isolation oracle can hold scans to
        the same standard as point reads.

        Returns the engine coroutine directly (callers ``yield from`` it).
        """
        if prefix is not None:
            if lo is not None or hi is not None:
                raise ValueError("scan() takes either prefix or lo/hi, not both")
            key_range = prefix_range(table, *prefix)
        else:
            key_range = KeyRange(table, lo, hi)
        return self._engine.perform_scan(self._txn, key_range)

    def update(self, table, *parts, updates):
        """Read-modify-write convenience: merge ``updates`` into the row."""
        key = composite_key(table, *parts)
        current = yield from self._engine.perform_read(self._txn, key, for_update=True)
        # perform_read returns a fresh per-read copy, so it is ours to mutate.
        row = current if current is not None else {}
        for column, value in updates.items():
            if callable(value):
                row[column] = value(row.get(column))
            else:
                row[column] = value
        yield from self._engine.perform_write(self._txn, key, row)
        return row

    def delete(self, table, *parts):
        """Delete a row (writes a ``None`` tombstone)."""
        return self._engine.perform_write(
            self._txn, composite_key(table, *parts), None
        )

    def exists(self, table, *parts):
        value = yield from self.read(table, *parts)
        return value is not None

    # -- misc ----------------------------------------------------------------

    def abort(self, reason="user-abort"):
        """Explicitly abort the transaction from application logic."""
        self._engine.user_abort(self._txn, reason)
