"""Two-phase locking (Section 4.4.1).

As a leaf, this is textbook strict 2PL: shared locks for reads, exclusive
locks for writes, all held until commit, deadlocks broken by timeouts.

As an internal (cross-group) node it becomes the nexus-lock mechanism of
Modular Concurrency Control: locks acquired by transactions of the same child
subtree never conflict (their conflicts are delegated to the child CC), and
consistent ordering is enforced by delaying a transaction's commit until its
in-subtree dependencies have committed (the nexus-lock release order).

Runtime pipelining (:mod:`repro.cc.runtime_pipelining`) is this node with
locks released step by step: it inherits the lock table, the phantom guard,
the committed-read fallback and the release at finish.
"""

from repro.cc.base import ConcurrencyControl, register_cc
from repro.cc.locks import EXCLUSIVE, SHARED, LockTable


@register_cc
class TwoPhaseLocking(ConcurrencyControl):
    """Strict two-phase locking with group-aware (nexus) lock compatibility."""

    name = "2pl"
    handles_contention = False
    efficient_internal = True

    def __init__(self, engine, node):
        super().__init__(engine, node)
        self.locks = LockTable(
            engine.env,
            same_group=self.same_child_group,
            timeout=engine.options.lock_timeout,
            name=f"{self.name}@{node.node_id}",
            order_guard=engine.depends_transitively,
            waits=self.waits,
        )
        # Predicate locks close the phantom window point locks cannot see:
        # a scan's range conflicts with inserts of keys that match it but do
        # not exist yet (and vice versa).  Held until finish, like the locks.
        self.ranges = self.phantom_guard()

    # -- execution phase -------------------------------------------------------

    # Hooks return ``None`` when the lock is granted immediately and a
    # blocking coroutine otherwise (the engine only drives non-None results).

    def before_read(self, txn, key):
        return self.locks.request(txn, key, SHARED)

    def before_update_read(self, txn, key):
        return self.locks.request(txn, key, EXCLUSIVE)

    def before_write(self, txn, key, value):
        if self.ranges is None:
            return self.locks.request(txn, key, EXCLUSIVE)
        # The write intent is registered before any wait so a concurrent
        # scan registering its range afterwards is guaranteed to see it.
        self.ranges.register_intent(txn, key)
        return self.ranges.write_wait(txn, key, self.locks.request(txn, key, EXCLUSIVE))

    def before_scan(self, txn, key_range):
        self.ranges.register_scan(txn, key_range)
        return self.ranges.scan_wait(txn, key_range)

    def amend_read(self, txn, key, candidate):
        """Accept an uncommitted proposal from this subtree, else read committed.

        Because conflicting locks from other subtrees are held until commit,
        the latest committed version is always a safe choice here.
        """
        if candidate is not None and not candidate.committed:
            writer = self.engine.find_transaction(candidate.writer)
            if writer is not None and (
                writer.txn_id == txn.txn_id or self.is_member(writer)
            ):
                return candidate
        return self._committed_read(key, candidate)

    def _committed_read(self, key, candidate):
        latest = self.engine.store.latest_committed(key)
        if candidate is not None and candidate.committed:
            # Keep the child's (possibly older snapshot) choice only if it is
            # newer than what we know to be committed; otherwise prefer ours.
            if latest is None or (candidate.commit_seq or 0) >= (latest.commit_seq or 0):
                return candidate
        return latest

    # -- validation / commit ------------------------------------------------------

    # validate() is inherited: wait for in-subtree dependencies to commit,
    # which is exactly the nexus-lock release order of the paper.

    def finish(self, txn, committed):
        self.locks.cancel_waits(txn)
        self.locks.release_all(txn)
        if self.ranges is not None:
            self.ranges.release(txn)
