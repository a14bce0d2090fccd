"""Durability protocol: write-ahead logging, 2PC-style precommit records,
asynchronous flushing with global checkpoint (GCP) epochs, and recovery
(Section 4.5.4 of the paper).

The manager is deliberately independent of the concurrency-control module: a
committed-but-not-yet-durable transaction looks exactly like a durable one to
every CC mechanism, which is what keeps the overhead at ~5% in Table 4.2.

Fault injection: when a :class:`~repro.sim.faults.FaultInjector` is attached
(``manager.faults``), the manager notifies it at every instrumented site —
between per-server precommit appends/flushes, after a complete precommit,
and around the per-server flushes of a GCP epoch advance.  When the injector
declares a crash the manager *halts*: every subsequent append or flush is a
no-op, modelling a machine that is down.  :meth:`crash` then discards the
volatile state (log buffers, the precommit dedup table) and :meth:`recover`
replays whatever made it to the persistent backends.

Release rule: once an advance has made its epoch persistent, and the manager
is not halted, every log folds its records into a per-key image, as the
recovery checkpoint does; recovery reads the image plus the tail above it.
"""

import zlib
from collections import defaultdict
from dataclasses import dataclass, field
from itertools import count

from repro.errors import ConfigurationError
from repro.storage.backends import InMemoryBackend
from repro.storage.wal import KIND, TXN_ID, WriteAheadLog, record_body


@dataclass
class DurabilityConfig:
    """Configuration of the durability module."""

    enabled: bool = False
    asynchronous: bool = True
    gcp_epoch_length: float = 1.0
    num_servers: int = 4
    sync_flush_delay: float = 200e-6
    async_flush_delay: float = 50e-6

    def __post_init__(self):
        if self.num_servers < 1:
            raise ConfigurationError(
                f"durability num_servers must be >= 1, got {self.num_servers}"
            )
        if self.gcp_epoch_length <= 0:
            raise ConfigurationError(
                "durability gcp_epoch_length must be positive, "
                f"got {self.gcp_epoch_length}"
            )
        if self.sync_flush_delay < 0 or self.async_flush_delay < 0:
            raise ConfigurationError(
                "durability flush delays must be non-negative, got "
                f"sync={self.sync_flush_delay} async={self.async_flush_delay}"
            )
        # They are slept, and a process sleeps only on a float.
        for name in ("gcp_epoch_length", "sync_flush_delay", "async_flush_delay"):
            setattr(self, name, float(getattr(self, name)))


class DurabilityManager:
    """Coordinates per-data-server WALs and the GCP asynchronous flush."""

    def __init__(self, config=None, backend_factory=InMemoryBackend, faults=None):
        self.config = config or DurabilityConfig()
        self.logs = [
            WriteAheadLog(backend_factory()) for _ in range(self.config.num_servers)
        ]
        self._current_gcp_epoch = [1] * self.config.num_servers
        self._persistent_gcp_epoch = 0
        self._precommit_ticket = count(1)
        self._server_of = {}
        # Retransmit dedup: txn id -> global epoch of the already-applied
        # precommit.  A duplicated or retried precommit request must apply
        # exactly once (one ticket, one record set).  Only a retransmit
        # inside the commit exchange reads an entry, so the coordinator
        # releases it when that exchange ends (:meth:`release_precommit`).
        self._precommit_epochs = {}
        self.duplicate_precommits = 0
        #: Optional FaultInjector; assigned by the crash harness.
        self.faults = faults
        self._halted = False

    @property
    def enabled(self):
        return self.config.enabled

    @property
    def halted(self):
        """True after an injected crash fired: the machine is down."""
        return self._halted

    def server_for(self, key):
        """Hash-partition a storage key onto a data server.

        Uses CRC32 of the key's repr rather than ``hash()``: Python string
        hashing is salted per interpreter, and the partitioning must be
        byte-identical across processes for fault schedules and recovered
        survivor sets to reproduce from a seed.  Memoised per key: a write is
        routed at precommit and, under message faults, again when the
        exchange is addressed.
        """
        server_id = self._server_of.get(key)
        if server_id is None:
            server_id = self._server_of[key] = (
                zlib.crc32(repr(key).encode("utf-8")) % self.config.num_servers
            )
        return server_id

    def _shares(self, writes):
        """A write set split by data server: ``[(server id, [write, ...])]``
        in server order, each share in write order.  A write set with no
        write is one empty share at server 0."""
        shares = defaultdict(list)
        for write in writes:
            shares[self.server_for(write[0])].append(write)
        return sorted(shares.items()) or [(0, [])]

    def participants_for(self, writes):
        """Sorted participant server ids of a write set (``(0,)`` if empty).

        The coordinator addresses its precommit exchange to exactly these
        servers, and :meth:`precommit` writes one record at each of them,
        so a partition over any participant stalls the commit."""
        return tuple(server_id for server_id, _share in self._shares(writes))

    def _trip(self, site, **detail):
        """Report an instrumented site to the fault injector; on a planned
        crash the manager halts (everything volatile is about to be lost).
        Sites test ``self.faults is not None`` themselves, so a manager with
        no injector pays one comparison per site and builds no ``detail``."""
        if self.faults.trip(site, **detail):
            self._halted = True
            return True
        return False

    # -- logging -----------------------------------------------------------

    def precommit(self, txn, writes):
        """Write one precommit record per participating data server.

        ``writes`` is the list of (key, value) pairs buffered by the
        transaction.  Returns the transaction's *global* GCP epoch id (the
        maximum over participants), which the coordinator propagates in the
        commit notification.

        Every record carries the participant count (recovery must not trust
        a partial set to describe itself) and a monotonically increasing
        ``ticket``: precommit happens atomically with the in-memory commit,
        so ticket order *is* commit order, and recovery replays surviving
        records in ticket order to rebuild the latest value of every key.

        In synchronous mode each record is flushed as it is appended; a
        crash injected between records leaves a durable *torn* precommit
        set, which recovery must discard.

        The call is *idempotent* per transaction: a retransmitted or
        duplicated precommit request returns the already-assigned global
        epoch without allocating a new ticket or appending new records,
        so a reply lost on the wire cannot double-apply the commit.
        """
        if not self.enabled or self._halted:
            return 0
        cached = self._precommit_epochs.get(txn.txn_id)
        if cached is not None:
            self.duplicate_precommits += 1
            return cached
        txn_id = txn.txn_id
        shares = self._shares(writes)
        total = len(shares)
        ticket = next(self._precommit_ticket)
        synchronous = not self.config.asynchronous
        global_epoch = 0
        for index, (server_id, share) in enumerate(shares):
            epoch = self._current_gcp_epoch[server_id]
            global_epoch = max(global_epoch, epoch)
            log = self.logs[server_id]
            log.append("precommit", txn_id, epoch, (total, ticket, tuple(share)))
            if synchronous:
                log.flush()
            if self.faults is not None and self._trip(
                "precommit-record", txn_id=txn_id, index=index, total=total
            ):
                return 0
        if synchronous:
            self._persistent_gcp_epoch = max(
                self._persistent_gcp_epoch, global_epoch
            )
        self._precommit_epochs[txn_id] = global_epoch
        if self.faults is not None:
            self._trip("precommit-done", txn_id=txn_id)
        return global_epoch

    def release_precommit(self, txn):
        """The precommit exchange of ``txn`` ended: nothing can retransmit
        it any more, so its dedup entry goes."""
        self._precommit_epochs.pop(txn.txn_id, None)

    def commit_notification(self, txn, global_epoch):
        """Apply the commit notification: bump lagging servers' epochs."""
        if not self.enabled or self._halted:
            return
        for server_id in range(self.config.num_servers):
            if global_epoch > self._current_gcp_epoch[server_id]:
                self._current_gcp_epoch[server_id] = global_epoch

    def flush_delay(self):
        """Virtual-time cost charged to the committing transaction."""
        if not self.enabled:
            return 0.0
        if self.config.asynchronous:
            return self.config.async_flush_delay
        return self.config.sync_flush_delay

    # -- asynchronous flushing (GCP protocol) --------------------------------

    def advance_gcp_epoch(self):
        """Close the current GCP epoch: flush its logs and open the next one.

        Returns the epoch that became persistent (0 if nothing happened).
        A crash injected between the per-server flushes leaves a *torn*
        epoch behind: some servers' records are durable but the persistent
        marker never advanced, so recovery discards the whole epoch.
        """
        if not self.enabled or self._halted:
            return 0
        faults = self.faults
        if faults is not None and self._trip("gcp-before"):
            return 0
        closing = max(self._current_gcp_epoch)
        for server_id, log in enumerate(self.logs):
            log.flush(up_to_epoch=closing)
            if faults is not None and self._trip(
                "gcp-server", server_id=server_id, epoch=closing
            ):
                return 0
        self._current_gcp_epoch = [closing + 1] * self.config.num_servers
        self._persistent_gcp_epoch = max(self._persistent_gcp_epoch, closing)
        if faults is not None:
            self._trip("gcp-after", epoch=closing)
        if not self._halted:
            for log in self.logs:
                log.fold()
        return closing

    def run_flusher(self, env, stop_event=None):
        """Background process flushing GCP epochs periodically."""
        while stop_event is None or not stop_event.triggered:
            yield self.config.gcp_epoch_length
            self.advance_gcp_epoch()

    # -- crash / recovery ---------------------------------------------------

    def precommitted_transactions(self):
        """Ids with a precommit record in the logs, durable, buffered or
        folded.  Every commit in memory writes one (a read-only commit too,
        at server 0), so before :meth:`crash` drops the buffers these are the
        incarnation's commits and any the crash caught inside its precommit."""
        ids = set()
        for log in self.logs:
            for record in log.records():
                if record[KIND] == "precommit":
                    ids.add(record[TXN_ID])
                elif record[KIND] == "folded":
                    ids.update(*record_body(record))
        return ids

    def crash(self):
        """Lose all volatile state: log buffers, the dedup table, epoch counters.

        Persistent backends survive.  Clears the halt so the manager can be
        reused by the next incarnation (after :meth:`recover`).
        """
        for log in self.logs:
            log.crash()
        # The dedup table is volatile.  Losing it is benign: a post-crash
        # retransmit appends a fresh record set with a fresh ticket over the
        # *same* writes, and per-key last-ticket-wins replay converges.
        self._precommit_epochs.clear()
        self._halted = False
        resume = self._persistent_gcp_epoch + 1
        self._current_gcp_epoch = [resume] * self.config.num_servers

    def recover(self):
        """Replay persistent logs and rebuild the latest committed state.

        Implements the three-step recovery of Section 4.5.4 (minus the CC
        state rebuild, which the engine performs):

        1. retrieve durable records from every server (checkpoint records
           are the image, the base state; a ``folded`` record's ids survive);
        2. discard transactions with fewer precommit records than their
           participant count — every record must carry the count, a record
           set is never trusted to describe its own completeness — or whose
           GCP epoch exceeds the persistent one.  The epoch filter always
           applies: before the first GCP advance the persistent epoch is 0,
           so asynchronous-mode records (epoch >= 1) are discarded, and
           synchronous precommits, which bump it at flush time, pass.
        3. reconstruct the latest value of every object from the surviving
           precommit records, in precommit-ticket (= commit) order.
        """
        state, writers = {}, {}
        survivors, recovered_writers = set(), set()
        # txn id -> [(participants, epoch, (ticket, server id, lsn), writes)]
        precommits = defaultdict(list)
        for server_id, log in enumerate(self.logs):
            for record in log.persisted_records():
                lsn, kind, txn_id, epoch, _body = record
                if kind == "checkpoint":
                    key, value, writer = record_body(record)
                    state[key], writers[key] = value, writer
                elif kind == "folded":
                    folded_writers, readers = record_body(record)
                    survivors.update(folded_writers, readers)
                    recovered_writers.update(folded_writers)
                elif kind == "precommit":
                    participants, ticket, writes = record_body(record)
                    precommits[txn_id].append(
                        (participants, epoch, (ticket or 0, server_id, lsn), writes)
                    )
        replayable = []
        for txn_id, entries in precommits.items():
            counts = [entry[0] for entry in entries]
            torn = None in counts or len(entries) < max(counts)
            if torn or max(entry[1] for entry in entries) > self._persistent_gcp_epoch:
                continue
            survivors.add(txn_id)
            replayable.extend(
                (order, txn_id, writes) for _count, _epoch, order, writes in entries
            )
        replayable.sort()
        for _order, txn_id, writes in replayable:
            for key, value in writes:
                state[key], writers[key] = value, txn_id
                recovered_writers.add(txn_id)
        return RecoveryResult(
            recovered_transactions=survivors,
            discarded_transactions=set(precommits) - survivors,
            state=state,
            state_writers=writers,
            recovered_writers=recovered_writers,
        )

    def checkpoint(self, result):
        """Persist a recovery result as the base state of a new incarnation.

        Wipes every server's durable log and folds the recovered state into
        it, the advance's fold: one checkpoint record per recovered key.  So
        no record of a *discarded* epoch can resurrect once later epochs
        pass the epoch filter, and LSNs and GCP epochs restart.  Returns the
        number of checkpoint records written.
        """
        if not self.enabled:
            return 0
        keys = sorted(result.state, key=repr)
        for server_id, log in enumerate(self.logs):
            log.reset()
            log.fold((key, result.state[key], result.state_writers.get(key, 0))
                     for key in keys if self.server_for(key) == server_id)
        self._persistent_gcp_epoch = 0
        self._current_gcp_epoch = [1] * self.config.num_servers
        self._halted = False
        return len(result.state)


@dataclass
class RecoveryResult:
    """Outcome of a recovery pass."""

    recovered_transactions: set
    discarded_transactions: set
    state: dict
    #: key -> txn id of the surviving writer that produced ``state[key]``
    #: (0 for initial-load values restored from a checkpoint).
    state_writers: dict = field(default_factory=dict)
    #: The recovered transactions whose precommit carried writes (a
    #: read-only commit's share is empty).
    recovered_writers: set = field(default_factory=set)
