"""Multiversioned timestamp ordering with promises (Section 4.4.4).

Every transaction receives a timestamp at start time that predetermines its
position in the serialization order.  A read returns the latest version with
a smaller timestamp (uncommitted versions included — TSO exposes uncommitted
writes, pipelining conflicting transactions without SSI's aborts); a write is
rejected if a reader with a larger timestamp has already missed it.  The
*promise* optimisation lets transactions declare their write keys at start
time so that later readers wait for the write instead of forcing the writer
to abort.  A promise is the promisor's own state; a reader waits for the
earlier members, in the node's timestamp-ordered ``_active``, that promised
its key and have no version of it installed yet.

TSO is leaf-only.  The paper obtains consistent ordering at an internal node
by batching (transactions of one child group share a timestamp), but that
composition keeps no reader retention and fails the isolation oracle
(PERFORMANCE.md, *What may sit where*), so the composition table rejects it.
Committing in timestamp order introduces the spurious dependencies that the
partition-by-instance optimisation removes (Section 5.4.2, Table 5.1).
"""

from repro.cc.base import ConcurrencyControl, register_cc
from repro.core.waits import NONE, MovedEvents
from repro.storage.ranges import ScanSet


@register_cc
class TimestampOrdering(ConcurrencyControl):
    """Multiversioned timestamp ordering with promises."""

    name = "tso"
    handles_contention = True
    efficient_internal = False
    leaf_only = True
    extra_start_rtts = 1  # centralized timestamp server

    def __init__(self, engine, node):
        super().__init__(engine, node)
        self._reads = {}
        # The range reads of active scanners.  A scan at timestamp T
        # observes the *absence* of every matching key that does not exist
        # yet; a later write at timestamp W < T into the range is a write
        # the scan already missed and must abort.
        self._scans = ScanSet()
        #: txn_id -> txn in timestamp order: ``start`` adds each right after
        #: the oracle hands it a timestamp larger than any before.  The
        #: commit-order wait reads its head, a promise wait its prefix.
        self._active = {}
        #: A promisor moves when it writes a promised key or finishes.
        self._moved = MovedEvents(engine.env)

    # -- helpers -----------------------------------------------------------------

    def _version_ts(self, version):
        ts = version.tso_ts
        if ts is not None:
            return ts
        return version.timestamp if version.timestamp is not None else 0

    # -- start phase -----------------------------------------------------------------

    def start(self, txn):
        state = self.state(txn)
        state["read_keys"] = set()
        # TSO is leaf-only: a path has one TSO node, whose draw this is.
        txn.cc_timestamp = self.engine.oracle.next()
        self._active[txn.txn_id] = txn
        # Promises come from the profile: a type that declares its write
        # keys promises them, and later readers wait for those writes.
        profile = self.engine.profile_of(txn.txn_type)
        if profile.promise_keys is not None:
            state["promised"] = frozenset(profile.promise_keys(txn.args))

    # -- execution phase -----------------------------------------------------------------

    def before_read(self, txn, key):
        """Wait for promised writes by smaller-timestamp transactions."""
        my_ts = txn.cc_timestamp

        def _pending_promisors():
            # Earlier members that promised the key and have not written it.
            pending = []
            for writer in self._active.values():
                if writer.cc_timestamp >= my_ts:
                    break
                if key in self.state(writer).get("promised", ()) and (
                    self.engine.store.own_uncommitted(key, writer.txn_id) is None
                ):
                    pending.append(writer)
            return pending

        yield from self.waits.wait(
            txn,
            _pending_promisors,
            "tso-promise",
            events=self._moved.events,
            check=NONE,
        )

    def before_scan(self, txn, key_range):
        """Register a timestamped range read (phantom guard for TSO).

        The per-key timestamp reads of existing keys are handled by the
        ordinary read path (TSO exposes uncommitted versions, so in-flight
        inserts are enumerated and readable); the registration covers keys
        that do not exist yet, turning a later smaller-timestamp insert into
        a write-too-late abort.
        """
        self._scans.add(txn, key_range)

    def before_write(self, txn, key, value):
        my_ts = txn.cc_timestamp
        readers = self._reads.get(key)
        if readers:
            for reader_id, (reader, read_version_ts) in list(readers.items()):
                if reader_id == txn.txn_id:
                    continue
                if reader.cc_timestamp > my_ts and read_version_ts < my_ts:
                    # A later reader already missed this write: abort the writer.
                    self.waits.abort(txn, "tso-write-too-late", reader)
        for reader in self._scans.covering(key):
            reader_id = reader.txn_id
            if reader_id == txn.txn_id or reader.cc_timestamp <= my_ts:
                continue
            if readers and reader_id in readers:
                # The scanner read an actual version of this key; the
                # item-level rule above already decided its fate.
                continue
            # A later scan observed the absence of this key: the write
            # arrives too late for its position in time.
            self.waits.abort(txn, "tso-write-too-late", reader)

    def _timestamp_read(self, txn, key, candidate):
        my_ts = txn.cc_timestamp
        if candidate is not None and not candidate.committed:
            writer_id = candidate.writer
            if writer_id == txn.txn_id or self.engine.find_transaction(writer_id) is None:
                self._record_read(txn, key, self._version_ts(candidate))
                return candidate
        best = None
        best_ts = -1.0
        for version in reversed(self.engine.store.committed_versions(key)):
            ts = self._version_ts(version)
            if ts < my_ts:
                best, best_ts = version, ts
                break
        for version in self.engine.store.uncommitted_versions(key):
            writer = self.engine.find_transaction(version.writer)
            if writer is None or not self.is_member(writer):
                continue
            ts = self._version_ts(version)
            if ts < my_ts and ts >= best_ts:
                best, best_ts = version, ts
        if best is None:
            best = candidate
        self._record_read(txn, key, self._version_ts(best) if best is not None else 0)
        return best

    def _record_read(self, txn, key, version_ts):
        readers = self._reads.get(key)
        if readers is None:
            readers = self._reads[key] = {}
        readers[txn.txn_id] = (txn, version_ts)
        self.state(txn)["read_keys"].add(key)

    def select_version(self, txn, key):
        candidate = self.engine.store.own_uncommitted(key, txn.txn_id)
        return self._timestamp_read(txn, key, candidate)

    def amend_read(self, txn, key, candidate):
        return self._timestamp_read(txn, key, candidate)

    def after_write(self, txn, key, version):
        version.tso_ts = txn.cc_timestamp
        if key in self.state(txn).get("promised", ()):
            self._moved.fire(txn)

    # -- validation & commit ------------------------------------------------------------------

    def validate(self, txn):
        my_ts = txn.cc_timestamp

        def _earlier_active():
            # The earliest active transaction, if earlier: all ``check=FIRST`` reads.
            for head in self._active.values():
                return (head,) if head.cc_timestamp < my_ts else ()
            return ()

        # Commit in timestamp order: wait (targeted) for every earlier
        # transaction of this TSO instance to finish first.
        yield from self.waits.wait(txn, _earlier_active, "tso-commit-order")
        deps = self.subtree_dependencies(txn)
        if deps:
            yield from self.engine.wait_for_transactions(txn, deps)

    def finish(self, txn, committed):
        self._active.pop(txn.txn_id, None)
        state = self.state(txn)
        for key in state.get("read_keys", ()):  # prune read tracking
            readers = self._reads.get(key)
            if readers is not None:
                readers.pop(txn.txn_id, None)
                if not readers:
                    self._reads.pop(key, None)
        self._scans.drop(txn.txn_id)
        self._moved.fire(txn)
