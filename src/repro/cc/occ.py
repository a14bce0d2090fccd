"""Backward-validation optimistic concurrency control.

OCC is not part of Tebaldi's headline configurations but is one of the
classic mechanisms the paper's related-work discussion contrasts against
(Kung & Robinson style).  It is included both to exercise the framework's
extensibility claim (Section 4.6.3: adding a CC only requires expressing its
four phases) and to serve as an additional baseline in the microbenchmarks.

The implementation validates at commit time that every version read is still
the latest committed version and that no concurrent transaction committed a
write to any key in the write set after this transaction began.
"""

from repro.cc.base import ConcurrencyControl, register_cc


@register_cc
class OptimisticCC(ConcurrencyControl):
    """Backward-validation OCC (leaf-oriented)."""

    name = "occ"
    handles_contention = False
    efficient_internal = False
    validates_reads = True

    def start(self, txn):
        state = self.state(txn)
        state["snapshot_seq"] = self.engine.store.last_commit_seq()

    def pre_commit(self, txn):
        """Backward validation, run atomically with the commit.

        The checks live in the commit phase (rather than the validation
        phase) because the engine guarantees no interleaving between
        ``pre_commit`` and the installation of the writes, which is what
        makes the validate-then-write sequence of OCC atomic.
        """
        state = self.state(txn)
        snapshot_seq = state.get("snapshot_seq", 0)
        # Read validation: every version read must still be current.
        for record in txn.reads:
            version = record.version
            latest = self.engine.store.latest_committed(record.key)
            if version is None:
                if latest is not None and (latest.commit_seq or 0) > snapshot_seq:
                    self.waits.abort(txn, "occ-read-validation")
                continue
            if latest is not None and version.committed and latest is not version:
                self.waits.abort(txn, "occ-read-validation")
        # Write validation: first-committer-wins on the write set.
        pending = self.engine.store.pending_versions(txn.txn_id)
        for version in pending:
            latest = self.engine.store.latest_committed(version.key)
            if latest is not None and (latest.commit_seq or 0) > snapshot_seq:
                self.waits.abort(txn, "occ-write-validation")
        # Scan (phantom) validation: re-enumerate every scanned range; a key
        # the scan never read that gained a committed version after the
        # snapshot is a phantom the scan missed.
        if txn.scans:
            read_keys = {record.key for record in txn.reads}
            own_writes = {version.key for version in pending}
            store = self.engine.store
            for key_range in txn.scans:
                for key in store.range_keys(key_range.table, key_range.lo, key_range.hi):
                    if key in read_keys or key in own_writes:
                        continue
                    latest = store.latest_committed(key)
                    if latest is not None and (latest.commit_seq or 0) > snapshot_seq:
                        self.waits.abort(txn, "occ-phantom-validation")

