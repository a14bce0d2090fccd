"""The multi-version key-value store used by every CC mechanism.

The store keeps, per key, the ordered chain of committed versions plus the
set of uncommitted (in-flight) versions.  CC mechanisms never mutate the
chains directly; they go through the engine, which calls
:meth:`MultiVersionStore.install`, :meth:`commit_transaction` and
:meth:`abort_transaction`.

Per-key state is as flat as the traffic allows:

* uncommitted versions are kept per key in a ``{writer_id: version}`` map,
  so :meth:`own_uncommitted` (one call per read) is O(1);
* a key's committed chain is one plain ``list`` of versions in commit order
  and nothing beside it: a key written once costs its list and its
  :class:`Version`, and all its versions share one key object (a writer's
  equal tuple is not kept).  :meth:`latest_committed_before` walks the list
  from the newest version back and stops at the first visible one.  A reader
  sits as far from the tail as there were commits on that key since its
  snapshot — a property of concurrency, not of chain length — and every
  registry cell answers from the tail or a few versions behind it
  (PERFORMANCE.md, *Where snapshot reads land*; ``tests/test_retention.py``
  pins the distance);
* a superseded version lives only while something may still read it: it is
  dead once the writer of the *next* version on its key is no longer
  ``retained`` (the engine passes ``engine.finished``: every live
  transaction then began after that writer finished, and a CC whose members
  can be older keeps the writer there with ``hold_finished``).  Dead
  versions are dropped by :meth:`commit_transaction` on the key being
  written, oldest first — the one place the chain is already in hand
  (PERFORMANCE.md, *The rule applied to versions*).

A table's ordered key index — what makes a range scan (:meth:`range_keys`)
a bisect plus a slice instead of a full key sweep — is built by that
table's first scan, from the key maps (committed chains, uncommitted
versions, declared slots: its one source), and kept up to date from then
on; a table nothing scans holds no index, and a write to it pays one dict
miss.  The index covers committed *and* uncommitted keys: a scan must
enumerate an in-flight insert so the per-key CC hooks (locks, snapshot
visibility) can decide what the scanning transaction observes.
"""

from bisect import bisect_left, insort
from itertools import count

from repro.storage.ranges import slice_sorted_pks
from repro.storage.versions import Version


class MultiVersionStore:
    """In-memory multi-version storage for a Tebaldi instance."""

    def __init__(self):
        # key -> list of committed versions (commit-sequence order).
        self._committed = {}
        # key -> {writer_id: uncommitted version}, insertion (install) order.
        self._uncommitted = {}
        self._writes_by_txn = {}
        self._commit_seq = count(1)
        self._last_commit_seq = 0
        # table -> (sorted pk list, pk membership set): the ordered key
        # index behind range scans, only for tables scanned so far.  Keys
        # enter on first load/install/declaration and leave only when an
        # aborted insert or a retracted slot leaves nothing behind.
        self._table_index = {}
        # key -> {writer_id: seq}: pre-assigned version slots declared by a
        # sequencing CC (deterministic batch execution) before the writers
        # run.  A slot is *resolved* when the writer installs the version
        # (install pops it) and *retracted* when the writer finishes without
        # writing the key.  Declared keys join the table index immediately
        # so range scans enumerate pending inserts.
        self._slots = {}
        # writer_id -> [declared keys]: for retraction at finish.
        self._slots_by_txn = {}

    # -- ordered key index ---------------------------------------------------

    def _index_key(self, key):
        if not isinstance(key, tuple) or len(key) != 2:
            return
        table, pk = key
        entry = self._table_index.get(table)
        if entry is None:
            return
        pks, members = entry
        if pk not in members:
            members.add(pk)
            insort(pks, pk)

    def _unindex_dead_key(self, key):
        """Drop an index entry whose key has no versions left (aborted insert)."""
        if not isinstance(key, tuple) or len(key) != 2:
            return
        table, pk = key
        entry = self._table_index.get(table)
        if entry is None:
            return
        if key in self._committed or key in self._uncommitted or key in self._slots:
            return
        pks, members = entry
        if pk in members:
            members.discard(pk)
            index = bisect_left(pks, pk)
            if index < len(pks) and pks[index] == pk:
                del pks[index]

    def _build_index(self, table):
        """``(sorted pks, pk set)`` of every key of ``table`` the store holds."""
        members = {
            key[1]
            for keys in (self._committed, self._uncommitted, self._slots)
            for key in keys
            if isinstance(key, tuple) and len(key) == 2 and key[0] == table
        }
        return sorted(members), members

    def range_keys(self, table, lo=None, hi=None):
        """Storage keys of ``table`` with ``lo <= pk <= hi``, in key order.

        Includes keys whose only versions are uncommitted (in-flight
        inserts): scans must surface them so CC hooks can block on or
        snapshot-hide them.  Returns a fresh list — safe to iterate while
        the store mutates underneath (the scan itself may block per key).
        """
        entry = self._table_index.get(table)
        if entry is None:
            entry = self._table_index[table] = self._build_index(table)
        pks, _members = entry
        start, stop = slice_sorted_pks(pks, lo, hi)
        return [(table, pk) for pk in pks[start:stop]]

    def _append_committed(self, key, version):
        chain = self._committed.get(key)
        if chain is None:
            self._committed[key] = [version]
        else:
            chain.append(version)

    # -- loading / reading -------------------------------------------------

    def load(self, key, value, writer=0):
        """Install an initial committed version (database population)."""
        version = Version(key=key, value=value, writer=writer)
        version.mark_committed(next(self._commit_seq), timestamp=0.0)
        self._last_commit_seq = version.commit_seq
        self._append_committed(key, version)
        self._index_key(key)
        return version

    def committed_versions(self, key):
        """Committed versions of ``key`` in install (commit-sequence) order."""
        chain = self._committed.get(key)
        return chain if chain is not None else []

    def uncommitted_versions(self, key):
        """In-flight uncommitted versions of ``key`` (install order)."""
        per_key = self._uncommitted.get(key)
        if not per_key:
            return []
        return list(per_key.values())

    def uncommitted_map(self, key):
        """The live ``{writer_id: version}`` map of ``key`` (or ``None``).

        Hot-path variant of :meth:`uncommitted_versions` that avoids the
        list copy; callers must not mutate the store while iterating it.
        """
        return self._uncommitted.get(key)

    def latest_committed(self, key):
        """Most recently committed version of ``key`` or ``None``."""
        chain = self._committed.get(key)
        return chain[-1] if chain is not None else None

    def latest_committed_before(self, key, timestamp, strict=True):
        """Latest committed version with CC timestamp below ``timestamp``.

        Used by snapshot reads (SSI) and timestamp-ordering reads (TSO).
        Versions without a timestamp (written under single-version CCs) fall
        back to treating their commit as happening at timestamp 0, i.e. they
        are visible to every snapshot.
        """
        for version in reversed(self._committed.get(key, ())):
            ts = version.timestamp
            if ts is None:
                ts = 0.0
            if ts < timestamp if strict else ts <= timestamp:
                return version
        return None

    def own_uncommitted(self, key, txn_id):
        """The uncommitted version of ``key`` written by ``txn_id``, if any."""
        per_key = self._uncommitted.get(key)
        if per_key is None:
            return None
        return per_key.get(txn_id)

    def last_commit_seq(self):
        """Commit sequence number of the most recent commit."""
        return self._last_commit_seq

    # -- pre-assigned version slots (deterministic batch execution) -----------

    def declare_slots(self, txn_id, seq, keys):
        """Pre-assign version slots for a sequenced transaction.

        Called once per transaction when its batch seals: every declared
        write key gets a slot carrying the transaction's position ``seq`` in
        the batch total order.  Readers sequenced after ``seq`` wait until
        the slot resolves (the version is installed) or is retracted; the
        keys join the table index immediately so range scans enumerate
        pending inserts before the writer has executed.
        """
        recorded = self._slots_by_txn.get(txn_id)
        if recorded is None:
            recorded = self._slots_by_txn[txn_id] = []
        for key in keys:
            per_key = self._slots.get(key)
            if per_key is None:
                per_key = self._slots[key] = {}
            per_key[txn_id] = seq
            recorded.append(key)
            self._index_key(key)

    def slot_writers(self, key):
        """Live ``{writer_id: seq}`` of unresolved pre-assigned slots (or None)."""
        return self._slots.get(key)

    def retract_slots(self, txn_id):
        """Drop the remaining unresolved slots of a finished transaction."""
        keys = self._slots_by_txn.pop(txn_id, None)
        if not keys:
            return 0
        removed = 0
        for key in keys:
            per_key = self._slots.get(key)
            if per_key is not None and per_key.pop(txn_id, None) is not None:
                removed += 1
                if not per_key:
                    del self._slots[key]
                    self._unindex_dead_key(key)
        return removed

    # -- writing -------------------------------------------------------------

    def _shared_key(self, key, per_key):
        """``key``'s one key object: its chain's, an in-flight version's, or ``key``."""
        chain = self._committed.get(key)
        if chain is not None:
            return chain[-1].key
        return next(iter(per_key.values())).key if per_key else key

    def install(self, key, value, txn):
        """Install an uncommitted version written by ``txn``.

        A transaction that writes the same key twice overwrites its own
        uncommitted version (the intermediate value is superseded, matching
        the buffered-writes model of the paper).
        """
        txn_id = txn.txn_id
        per_key = self._uncommitted.get(key)
        if per_key is not None:
            own = per_key.get(txn_id)
            if own is not None:
                own.value = value
                return own
        shared = self._shared_key(key, per_key)
        if per_key is None:
            per_key = self._uncommitted[shared] = {}
            if shared is key:  # a new key (or its stored tuple): make it scannable
                self._index_key(key)
        version = Version(
            key=shared,
            value=value,
            writer=txn_id,
            timestamp=txn.cc_timestamp,
        )
        per_key[txn_id] = version
        if self._slots:
            # Installing the version resolves the writer's pre-assigned slot.
            slot_map = self._slots.get(key)
            if slot_map is not None and slot_map.pop(txn_id, None) is not None:
                if not slot_map:
                    del self._slots[key]
        writes = self._writes_by_txn.get(txn_id)
        if writes is None:
            writes = self._writes_by_txn[txn_id] = []
        writes.append(version)
        return version

    def pending_versions(self, txn_id):
        """``txn_id``'s uncommitted versions, one per key in first-write order."""
        return self._writes_by_txn.get(txn_id, ())

    def commit_transaction(self, txn, timestamp=None, retained=()):
        """Move every uncommitted version of ``txn`` to the committed chains.

        Returns the list of committed versions.  The global commit sequence
        defines the total order of versions per object.

        ``retained`` holds the ids of finished writers something live may
        still be concurrent with (``engine.finished``).  Before the append,
        each written key's chain loses its leading versions whose successor
        was written by nobody in it: no reader can be ordered before that
        successor any more.  The chain's tail always stays — its successor
        is the version appended here, whose writer is still running.
        """
        versions = self._writes_by_txn.pop(txn.txn_id, [])
        uncommitted = self._uncommitted
        committed_chains = self._committed
        seq = self._last_commit_seq
        for version in versions:
            seq = next(self._commit_seq)
            # Inlined mark_committed / _append_committed (hot commit loop).
            version.committed = True
            version.commit_seq = seq
            if timestamp is not None:
                version.timestamp = timestamp
            key = version.key
            per_key = uncommitted.get(key)
            if per_key is not None:
                per_key.pop(version.writer, None)
                if not per_key:
                    del uncommitted[key]
            chain = committed_chains.get(key)
            if chain is None:
                committed_chains[key] = [version]
            else:
                if len(chain) > 1 and chain[1].writer not in retained:
                    dead, tail = 1, len(chain) - 1
                    while dead < tail and chain[dead + 1].writer not in retained:
                        dead += 1
                    del chain[:dead]
                chain.append(version)
        self._last_commit_seq = seq
        if self._slots_by_txn:
            # Declared-but-unwritten keys (conditional writes) release their
            # slots at commit so sequenced readers stop waiting.
            self.retract_slots(txn.txn_id)
        return versions

    def abort_transaction(self, txn):
        """Discard every uncommitted version written by ``txn``."""
        if self._slots_by_txn:
            self.retract_slots(txn.txn_id)
        versions = self._writes_by_txn.pop(txn.txn_id, [])
        for version in versions:
            per_key = self._uncommitted.get(version.key)
            if per_key is not None:
                per_key.pop(version.writer, None)
                if not per_key:
                    del self._uncommitted[version.key]
                    self._unindex_dead_key(version.key)
        return len(versions)

    # -- snapshot / recovery helpers -------------------------------------------

    def restore_version(self, key, value, writer, commit_seq=None):
        """Install a committed version rebuilt from the durable log.

        Used by crash recovery after re-populating the initial load: the
        surviving transactions' final writes are appended with their
        original commit sequence (so the cross-crash version order is
        preserved) and timestamp 0.0 (visible to every snapshot, like
        loaded data).  ``commit_seq`` defaults to the next sequence.
        """
        if commit_seq is None:
            commit_seq = next(self._commit_seq)
        version = Version(key=self._shared_key(key, None), value=value, writer=writer)
        version.mark_committed(commit_seq, timestamp=0.0)
        if commit_seq > self._last_commit_seq:
            self._last_commit_seq = commit_seq
        self._append_committed(key, version)
        self._index_key(key)
        return version

    def advance_commit_seq(self, floor):
        """Fast-forward the commit-sequence counter past ``floor``.

        After recovery the rebuilt store must hand out sequences strictly
        above every pre-crash sequence, so the stitched cross-crash history
        keeps one total version order per key.
        """
        if floor > self._last_commit_seq:
            self._last_commit_seq = floor
        self._commit_seq = count(self._last_commit_seq + 1)

    def latest_state(self):
        """Map of key -> value of the latest committed version (for recovery)."""
        return {key: chain[-1].value for key, chain in self._committed.items()}

    def clear(self):
        """Drop all state (used by recovery before replaying logs)."""
        self._committed.clear()
        self._uncommitted.clear()
        self._writes_by_txn.clear()
        self._table_index.clear()
        self._slots.clear()
        self._slots_by_txn.clear()
        self._commit_seq = count(1)
        self._last_commit_seq = 0
