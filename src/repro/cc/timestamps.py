"""Centralized timestamp and batch management.

SSI and TSO order transactions with timestamps handed out by a centralized
timestamp server (Section 4.6 runs one extra machine for "timestamp assignment
and batch management").  In the simulation the oracle is a monotonic counter;
contacting it costs one network round-trip, charged by the engine's phase
transport.
"""

from itertools import count


class TimestampOracle:
    """Monotonically increasing logical timestamps."""

    def __init__(self, start=1):
        self._counter = count(start)

    def next(self):
        """Allocate and return the next timestamp."""
        return next(self._counter)


class BatchManager:
    """Groups transactions of the same child group into timestamp batches.

    Batching is the paper's *procrastination* strategy (Section 4.2.2): all
    transactions of a batch share a start timestamp, so their relative order
    is left to the child CC.  That is for members that run *concurrently*: a
    batch closes after ``batch_size`` admissions, or when its last member
    finishes — nobody is left to share its timestamp with, so the group's
    next member opens a fresh batch.

    ``on_open(batch_id)`` / ``on_dead(batch_id)`` bracket a batch's life —
    dead means every member finished — for an owner whose members' snapshot
    (the batch timestamp) can predate their begin.  Each batch also owns one
    set its members share, for the facts the owner keeps per batch (SSI's
    pivot flags); it goes with the batch and the members that hold it.
    """

    def __init__(self, oracle, batch_size=16, on_open=None, on_dead=None):
        self.oracle = oracle
        self.batch_size = batch_size
        self.on_open = on_open
        self.on_dead = on_dead
        self._current = {}
        self._live = {}
        self._batch_ids = count(1)

    def admit(self, group_token, txn_id):
        """Assign (batch_id, shared timestamp, shared set) to a transaction
        of a group."""
        entry = self._current.get(group_token)
        if entry is None or entry["count"] >= self.batch_size:
            # A full batch leaves ``_current`` with members still running;
            # the last of them ends it in :meth:`discard`.
            entry = self._current[group_token] = {
                "batch_id": next(self._batch_ids),
                "timestamp": self.oracle.next(),
                "count": 0,
                "token": group_token,
                "members": set(),
                "flags": set(),
            }
            self._live[entry["batch_id"]] = entry
            if self.on_open is not None:
                self.on_open(entry["batch_id"])
        entry["count"] += 1
        entry["members"].add(txn_id)
        return entry["batch_id"], entry["timestamp"], entry["flags"]

    def discard(self, batch_id, txn_id):
        """``txn_id`` finished; with the batch's last member the batch dies,
        closed to admissions if it was still its group's current one."""
        entry = self._live.get(batch_id)
        if entry is None:
            return
        members = entry["members"]
        members.discard(txn_id)
        if not members:
            del self._live[batch_id]
            if self._current.get(entry["token"]) is entry:
                del self._current[entry["token"]]
            if self.on_dead is not None:
                self.on_dead(batch_id)
