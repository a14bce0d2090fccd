"""Serializable snapshot isolation (Section 4.4.3).

Transactions read from a snapshot defined by their start timestamp and become
visible at their commit timestamp; write-write conflicts abort the later
updater; serializability is protected by aborting *pivots* — transactions (or
batches) with both an incoming and an outgoing read-write anti-dependency.
Those flags, like a member's commit timestamp, live in the state of the
entity they describe (a batch's in its ``BatchManager`` entry, shared by its
members) and go with it; the node keeps only indexes with a release rule.

As an internal node of the CC tree SSI must respect consistent ordering: it
*procrastinates* by batching, i.e. every transaction of the same child group
admitted into the same batch shares one start timestamp, so their relative
order stays with the child CC.  A batch lives while one of its members does:
a group's next transaction after the last one finished starts a new batch
at a fresh timestamp.
"""

from repro.cc.base import ConcurrencyControl, register_cc
from repro.cc.timestamps import BatchManager
from repro.storage.ranges import ScanSet


@register_cc
class SerializableSnapshotIsolation(ConcurrencyControl):
    """Distributed SSI with batching for consistent ordering.

    With at most one update child group (the common "read-only group at the
    root" configuration, Figure 5.2) the node only hands out snapshots, the
    optimisation at the end of Section 4.4.3: that group commits in an order
    consistent with its dependencies, so a snapshot is a prefix of a serial
    order, and a read-only reader's every edge — the phantom rw edges of its
    scans included — comes from an update committed before its snapshot or
    goes to one committed after it.  No cycle passes through it and no
    transaction here has both an incoming and an outgoing rw edge, so there
    is no pivot to look for and no read set or commit timestamp to keep.
    """

    name = "ssi"
    handles_contention = True
    efficient_internal = True
    # A lock-based ancestor prefers the latest committed version to the
    # snapshot this node proposes, even for its own group's writes.
    forbidden_ancestors = frozenset({"2pl", "rp"})
    extra_start_rtts = 1  # centralized timestamp server
    #: Admissions after which a group's batch closes (``BatchManager``).
    BATCH_SIZE = 16

    def __init__(self, engine, node):
        super().__init__(engine, node)
        # A batch member reads at its batch's timestamp: it is concurrent with
        # whatever finished since the batch opened, even before its own begin
        # (a late joiner of a batch whose first members still run), and the
        # ww/rw checks below must still find those transactions — so a live
        # batch holds the engine's release back until its last member
        # finishes, and with it the SIREAD entries of readers that committed
        # meanwhile (``release``).
        self.batches = BatchManager(
            engine.oracle,
            self.BATCH_SIZE,
            on_open=lambda batch_id: engine.hold_finished((self, batch_id)),
            on_dead=lambda batch_id: engine.drop_hold((self, batch_id)),
        )
        # key -> {txn_id: txn}: the item-level read sets.
        self._readers = {}
        # The range read sets of scanners, kept as long as their read sets.
        # A write into a concurrent scanner's range is an rw
        # anti-dependency even when the key did not exist at scan time —
        # the phantom edge item-level reader tracking cannot see.
        self._scans = ScanSet()
        # key -> {txn_id: txn}: writes *announced* via before_write whose
        # versions are not necessarily installed yet (a child CC may block
        # the writer on a lock between the hook and the install).  Readers
        # and scanners must see these intents — the SSI analogue of reads
        # checking the write-lock table — or an rw edge formed in the
        # announce-to-install window is silently missed.
        self._write_intents = {}
        self.batching = self._needs_batching()
        # Snapshots only (see the class docstring).
        self.read_only_optimization = (not node.is_leaf) and not self.batching

    def _needs_batching(self):
        """Batching is needed only with two or more update child groups."""
        if self.node.is_leaf:
            return False
        update_children = 0
        for child in self.node.children:
            child_types = child.subtree_types
            if any(not self.engine.is_read_only_type(t) for t in child_types):
                update_children += 1
        return update_children > 1

    # -- helpers ---------------------------------------------------------------

    def _pivot(self, txn):
        """The pivot flags (``"in"``, ``"out"``, ``"doomed"``) of the unit of
        pivot tracking: a batch member's are its batch's, handed out at
        admission; any other transaction's are its own, made at first use."""
        state = self.state(txn)
        flags = state.get("pivot")
        if flags is None:
            flags = state["pivot"] = set()
        return flags

    def _start_ts(self, txn):
        return self.state(txn).get("start_ts", 0)

    def _delegated(self, txn, other):
        """Whether a conflict between ``txn`` and ``other`` is the child's job."""
        if other is None or other.txn_id == txn.txn_id:
            return True
        if not self.same_child_group(txn, other):
            return False
        return self.state(txn).get("batch_id") == self.state(other).get("batch_id")

    def _mark_antidependency(self, reader, writer):
        """Record the rw edge reader --> writer and doom detected pivots.

        When the rw edge turns ``writer`` into a pivot (both an incoming and
        an outgoing anti-dependency) *after* it already committed, the pivot
        itself can no longer be aborted — the only way to break the dangerous
        structure is to abort the reader that just discovered it (the
        committed-pivot rule of Ports & Grittner's SSI; this is how the
        read-only anomaly is stopped once the pivot has won the race).  The
        mirror case — a *committed reader* becoming a pivot through a
        retained SIREAD entry — aborts the writer that discovered it.
        """
        reader_flags = self._pivot(reader)
        reader_flags.add("out")
        writer_flags = self._pivot(writer)
        writer_flags.add("in")
        if "out" in writer_flags:
            writer_flags.add("doomed")
            if writer.committed:
                self.waits.abort(reader, "ssi-committed-pivot", writer)
        if "in" in reader_flags:
            reader_flags.add("doomed")
            if reader.committed and writer.is_active:
                self.waits.abort(writer, "ssi-committed-pivot", reader)

    # -- start phase ---------------------------------------------------------------

    def start(self, txn):
        state = self.state(txn)
        if self.read_only_optimization:
            state["start_ts"] = self.engine.oracle.next()
            return
        state["read_keys"] = set()
        if self.batching and not txn.read_only:
            token = txn.group_token(self.node.node_id) or txn.txn_id
            batch_id, start_ts, state["pivot"] = self.batches.admit(token, txn.txn_id)
            state["batch_id"] = batch_id
            state["start_ts"] = start_ts
        else:
            state["batch_id"] = None
            state["start_ts"] = self.engine.oracle.next()

    # -- execution phase ---------------------------------------------------------------

    def before_scan(self, txn, key_range):
        """Register the scan's predicate as part of the snapshot read set.

        The per-key snapshot reads of the enumerated keys are handled by the
        ordinary read path; the predicate registration covers the keys that
        do *not* exist yet, so a concurrent insert into the range marks the
        phantom rw anti-dependency (and dooms pivots) exactly like a missed
        item-level write.
        """
        if self.read_only_optimization:  # see the class docstring
            return
        self._scans.add(txn, key_range)
        self.state(txn)["scanned"] = True
        # Announced-but-uninstalled writes inside the range are phantoms
        # this scan's snapshot will miss.
        for key, intents in list(self._write_intents.items()):
            if not key_range.covers(key):
                continue
            for writer_id, writer in list(intents.items()):
                if writer_id == txn.txn_id or not writer.is_active:
                    continue
                if not self._delegated(txn, writer):
                    self._mark_antidependency(txn, writer)

    def before_write(self, txn, key, value):
        if self.read_only_optimization:
            # Update-group writes are the child CC's; read-only ones fail.
            return
        state = self.state(txn)
        intents = self._write_intents.get(key)
        if intents is None:
            intents = self._write_intents[key] = {}
        intents[txn.txn_id] = txn
        write_keys = state.get("write_keys")
        if write_keys is None:
            write_keys = state["write_keys"] = set()
        write_keys.add(key)
        start_ts = self._start_ts(txn)
        latest = self.engine.store.latest_committed(key)
        if latest is not None and (latest.timestamp or 0) > start_ts:
            writer = self.engine.find_transaction(latest.writer)
            if not self._delegated(txn, writer):
                self.waits.abort(txn, "ssi-ww-conflict", writer)
        for pending in self.engine.store.uncommitted_versions(key):
            if pending.writer == txn.txn_id:
                continue
            writer = self.engine.find_transaction(pending.writer)
            if writer is not None and not writer.is_active:
                continue
            if not self._delegated(txn, writer):
                self.waits.abort(txn, "ssi-ww-conflict", writer)
        # Readers that already missed this write form rw anti-dependencies.
        # Committed readers stay relevant while concurrent (their commit
        # falls after this transaction's snapshot) — the SIREAD retention.
        readers = self._readers.get(key)
        if readers:
            for reader_id, reader in list(readers.items()):
                if reader_id == txn.txn_id or not self._concurrent_reader(
                    reader, start_ts
                ):
                    continue
                if self._delegated(txn, reader):
                    continue
                self._mark_antidependency(reader, txn)
        # Scanners whose predicate covers this key missed it too (phantom):
        # this write commits after their snapshot, so the rw edge holds even
        # when the key did not exist when they scanned.
        for reader in self._scans.covering(key):
            if reader.txn_id == txn.txn_id or not self._concurrent_reader(
                reader, start_ts
            ):
                continue
            if not self._delegated(txn, reader):
                self._mark_antidependency(reader, txn)
        if "doomed" in state.get("pivot", ()):
            self.waits.abort(txn, "ssi-pivot")

    def _concurrent_reader(self, reader, writer_start_ts):
        """Whether ``reader``'s read set still constrains a writer's snapshot.

        Active readers always do; committed readers only while concurrent
        (their commit timestamp falls after the writer's snapshot — an
        earlier-committed reader is serialized safely before the writer).
        """
        if reader.is_active:
            return True
        if not reader.committed:
            return False
        return self.state(reader).get("commit_ts", 0) > writer_start_ts

    def _snapshot_read(self, txn, key, candidate):
        """Shared read logic for select_version (leaf) and amend_read (internal)."""
        if self.read_only_optimization and not txn.read_only:
            # Update-group reads keep the child CC's choice (MV2PL behaviour).
            return candidate
        start_ts = self._start_ts(txn)
        chosen = None
        if candidate is not None and not candidate.committed:
            writer = self.engine.find_transaction(candidate.writer)
            if candidate.writer == txn.txn_id or self._delegated(txn, writer):
                chosen = candidate
        if chosen is None:
            chosen = self.engine.store.latest_committed_before(key, start_ts, strict=False)
            if candidate is not None and candidate.committed:
                writer = self.engine.find_transaction(candidate.writer)
                visible = (candidate.timestamp or 0) <= start_ts or self._delegated(
                    txn, writer
                )
                # A committed write from the same batch / delegated scope is
                # visible even beyond the snapshot: its ordering relative to
                # this transaction belongs to the child CC, which proposed it.
                if visible and (
                    chosen is None
                    or (candidate.commit_seq or 0) >= (chosen.commit_seq or 0)
                ):
                    chosen = candidate
        if self.read_only_optimization:
            return chosen
        readers = self._readers.get(key)
        if readers is None:
            readers = self._readers[key] = {}
        readers[txn.txn_id] = txn
        # Filed with the entry: a check below may abort the reader, and
        # ``release`` drops what ``read_keys`` names.
        self.state(txn)["read_keys"].add(key)
        # Anti-dependencies: newer writes this snapshot read is missing.
        latest = self.engine.store.latest_committed(key)
        if latest is not None and (latest.timestamp or 0) > start_ts:
            writer = self.engine.find_transaction(latest.writer)
            if writer is not None and not self._delegated(txn, writer):
                self._mark_antidependency(txn, writer)
        for pending in self.engine.store.uncommitted_versions(key):
            if pending.writer == txn.txn_id:
                continue
            writer = self.engine.find_transaction(pending.writer)
            if writer is None or not writer.is_active:
                continue
            if not self._delegated(txn, writer) and pending is not chosen:
                self._mark_antidependency(txn, writer)
        # Announced writes whose versions are not installed yet (writer
        # blocked inside a child CC between hook and install) — without
        # this, an rw edge formed in that window is invisible to both the
        # reader-side and the writer-side checks.
        intents = self._write_intents.get(key)
        if intents:
            for writer_id, writer in list(intents.items()):
                if writer_id == txn.txn_id or not writer.is_active:
                    continue
                if self._delegated(txn, writer):
                    continue
                if chosen is not None and chosen.writer == writer_id:
                    continue
                self._mark_antidependency(txn, writer)
        return chosen

    def select_version(self, txn, key):
        candidate = self.engine.store.own_uncommitted(key, txn.txn_id)
        return self._snapshot_read(txn, key, candidate)

    def amend_read(self, txn, key, candidate):
        return self._snapshot_read(txn, key, candidate)

    # -- validation & commit -------------------------------------------------------------

    def validate(self, txn):
        if not self.read_only_optimization:
            flags = self.state(txn).get("pivot", ())
            if "doomed" in flags or ("in" in flags and "out" in flags):
                if not txn.read_only:
                    self.waits.abort(txn, "ssi-pivot")
        deps = self.subtree_dependencies(txn)
        if deps:
            yield from self.engine.wait_for_transactions(txn, deps)

    def pre_commit(self, txn):
        commit_ts = self.engine.oracle.next()
        txn.commit_timestamp = commit_ts
        if not self.read_only_optimization:
            self.state(txn)["commit_ts"] = commit_ts

    def finish(self, txn, committed):
        if self.read_only_optimization:
            return
        state = self.state(txn)
        for key in state.get("write_keys", ()):  # prune write intents
            intents = self._write_intents.get(key)
            if intents is not None:
                intents.pop(txn.txn_id, None)
                if not intents:
                    self._write_intents.pop(key, None)
        if not committed:
            # An aborted reader constrains nobody; a committed one keeps its
            # (SIREAD) entries until the engine releases it.
            self.release(txn)
        batch_id = state.get("batch_id")
        if batch_id is not None:
            self.batches.discard(batch_id, txn.txn_id)

    def release(self, txn):
        """Drop ``txn``'s read set: at its abort, or once the engine releases
        it committed.

        SIREAD-style retention (Ports & Grittner): a *committed* reader keeps
        constraining concurrent writers — its rw anti-dependency into a later
        write is exactly the edge that closes write-skew cycles after the
        reader has gone.  A writer whose snapshot predates the reader's
        commit began before the reader finished, or joined a batch whose
        engine hold was placed before then; either way the engine still
        holds the reader while that writer can write.  Keeping an entry
        longer never changes an outcome (``_concurrent_reader`` filters by
        commit timestamp at use).
        """
        state = self.state(txn)
        for key in state.get("read_keys", ()):  # prune reader tracking
            readers = self._readers.get(key)
            if readers is not None:
                readers.pop(txn.txn_id, None)
                if not readers:
                    self._readers.pop(key, None)
        if state.get("scanned"):  # prune range tracking
            self._scans.drop(txn.txn_id)
