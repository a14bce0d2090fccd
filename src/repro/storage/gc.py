"""Epoch-based garbage collection of stale versions (Section 4.5.3).

Tebaldi assigns a GC epoch id to every transaction and periodically advances
the epoch.  Once every transaction of an epoch has finished and every CC node
confirms that it will never order an ongoing or future transaction before a
transaction of that epoch, all superseded versions of the epoch are pruned.
"""

from collections import defaultdict


class GarbageCollector:
    """Tracks GC epochs and prunes superseded committed versions."""

    def __init__(self, store, epoch_length=1.0):
        self.store = store
        self.epoch_length = epoch_length
        self._current_epoch = 1
        self._active = defaultdict(int)
        self._finished_epochs = set()
        # Highest epoch whose versions have been pruned; collection only ever
        # extends the contiguous confirmed prefix above this point.
        self._collected_through = 0
        self._collected_versions = 0
        self._paused = False

    @property
    def current_epoch(self):
        return self._current_epoch

    @property
    def collected_versions(self):
        return self._collected_versions

    def pause(self):
        """Stop collecting (used by the reconfiguration clean-up phase)."""
        self._paused = True

    def resume(self):
        self._paused = False

    def register_transaction(self, txn):
        """Assign the current epoch to a starting transaction."""
        txn.gc_epoch = self._current_epoch
        self._active[txn.gc_epoch] += 1
        return txn.gc_epoch

    def finish_transaction(self, txn):
        """Mark a transaction as finished (committed or aborted).

        Idempotent per transaction: abort-during-commit cleanup paths may
        reach this twice, and a double decrement would drive the epoch's
        active count negative — retiring an epoch that still has live
        transactions.
        """
        if txn.gc_finished:
            return
        txn.gc_finished = True
        epoch = txn.gc_epoch
        remaining = self._active[epoch] - 1
        assert remaining >= 0, (
            f"GC epoch {epoch} active count went negative "
            f"(finish without register for txn {txn.txn_id})"
        )
        self._active[epoch] = remaining
        if remaining <= 0 and epoch < self._current_epoch:
            self._finished_epochs.add(epoch)
            del self._active[epoch]

    def advance_epoch(self):
        """Close the current epoch and open a new one."""
        closing = self._current_epoch
        self._current_epoch += 1
        if self._active.get(closing, 0) <= 0:
            self._finished_epochs.add(closing)
            self._active.pop(closing, None)
        return self._current_epoch

    def collect(self, cc_nodes=()):
        """Prune versions of fully-finished epochs once every CC confirms.

        ``cc_nodes`` is the list of CC mechanisms in the active tree; each is
        asked (via ``can_garbage_collect(epoch)``) to confirm that no ongoing
        or future transaction can be ordered before the epoch's transactions.
        """
        if self._paused or not self._finished_epochs:
            return 0
        # ``prune_epochs(max_epoch)`` drops *every* superseded version up to
        # ``max_epoch``, so only the contiguous confirmed prefix of finished
        # epochs may be collected: skipping over an unfinished or unconfirmed
        # epoch would silently drop versions that transactions of that epoch
        # (or snapshot readers ordered before them) still need.
        prefix = []
        expected = self._collected_through + 1
        for epoch in sorted(self._finished_epochs):
            if epoch != expected:
                break
            if not all(node.can_garbage_collect(epoch) for node in cc_nodes):
                break
            prefix.append(epoch)
            expected += 1
        if not prefix:
            return 0
        max_epoch = prefix[-1]
        removed = self.store.prune_epochs(max_epoch)
        self._finished_epochs.difference_update(prefix)
        self._collected_through = max_epoch
        self._collected_versions += removed
        return removed

    def run(self, env, cc_nodes_provider, stop_event=None):
        """Background GC process: advance the epoch and collect periodically."""
        while stop_event is None or not stop_event.triggered:
            yield env.timeout(self.epoch_length)
            self.advance_epoch()
            cc_nodes = cc_nodes_provider()
            for cc in cc_nodes:
                cc.on_epoch()
            self.collect(cc_nodes)
