"""Tests for the multi-version store, tables, WAL and durability."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.transaction import Transaction
from repro.harness import configs
from repro.storage.backends import FileBackend, InMemoryBackend
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.mvstore import MultiVersionStore
from repro.storage.tables import Catalog, Table, TableSchema, composite_key
from repro.storage.wal import BODY, KIND, LSN, TXN_ID, WriteAheadLog, record_body
from tests.retention_catalogue import _micro, _tiny_tpcc, _zipf
from tests.snapshot_read_census import census_of_run


def make_txn(txn_id, txn_type="t"):
    return Transaction(txn_id=txn_id, txn_type=txn_type)


class TestMultiVersionStore:
    def test_load_creates_committed_version(self, store):
        version = store.load(("t", 1), {"v": 1})
        assert version.committed
        assert store.latest_committed(("t", 1)).value == {"v": 1}

    def test_install_is_uncommitted(self, store):
        txn = make_txn(1)
        version = store.install(("t", 1), {"v": 2}, txn)
        assert not version.committed
        assert store.latest_committed(("t", 1)) is None
        assert store.uncommitted_versions(("t", 1)) == [version]

    def test_reinstall_overwrites_own_version(self, store):
        txn = make_txn(1)
        store.install(("t", 1), {"v": 1}, txn)
        store.install(("t", 1), {"v": 2}, txn)
        assert len(store.uncommitted_versions(("t", 1))) == 1
        assert store.uncommitted_versions(("t", 1))[0].value == {"v": 2}

    def test_commit_moves_versions(self, store):
        txn = make_txn(1)
        store.install(("t", 1), {"v": 1}, txn)
        committed = store.commit_transaction(txn, timestamp=5)
        assert len(committed) == 1
        assert store.latest_committed(("t", 1)).timestamp == 5
        assert store.uncommitted_versions(("t", 1)) == []

    def test_abort_discards_versions(self, store):
        txn = make_txn(1)
        store.install(("t", 1), {"v": 1}, txn)
        assert store.abort_transaction(txn) == 1
        assert store.latest_committed(("t", 1)) is None
        assert store.uncommitted_versions(("t", 1)) == []

    def test_commit_seq_is_monotonic(self, store):
        seqs = []
        for txn_id in range(1, 5):
            txn = make_txn(txn_id)
            store.install(("t", txn_id), {"v": txn_id}, txn)
            seqs.extend(v.commit_seq for v in store.commit_transaction(txn))
        assert seqs == sorted(seqs)
        assert store.last_commit_seq() == seqs[-1]

    def test_latest_committed_before_timestamp(self, store):
        for ts in (1, 5, 9):
            txn = make_txn(ts)
            store.install(("t", 1), {"v": ts}, txn)
            store.commit_transaction(txn, timestamp=ts, retained=(1, 5, 9))
        assert store.latest_committed_before(("t", 1), 6).value == {"v": 5}
        assert store.latest_committed_before(("t", 1), 1) is None
        assert store.latest_committed_before(("t", 1), 100).value == {"v": 9}

    def test_latest_committed_before_strictness(self, store):
        txn = make_txn(1)
        store.install(("t", 1), {"v": 1}, txn)
        store.commit_transaction(txn, timestamp=5)
        assert store.latest_committed_before(("t", 1), 5, strict=True) is None
        assert store.latest_committed_before(("t", 1), 5, strict=False) is not None

    def test_own_uncommitted(self, store):
        txn = make_txn(1)
        other = make_txn(2)
        store.install(("t", 1), {"v": 1}, txn)
        store.install(("t", 1), {"v": 2}, other)
        assert store.own_uncommitted(("t", 1), 1).value == {"v": 1}
        assert store.own_uncommitted(("t", 1), 3) is None

    def test_latest_state_snapshot(self, store):
        store.load(("t", 1), {"v": 1})
        store.load(("t", 2), {"v": 2})
        txn = make_txn(9)
        store.install(("t", 1), {"v": 10}, txn)
        store.commit_transaction(txn)
        assert store.latest_state() == {("t", 1): {"v": 10}, ("t", 2): {"v": 2}}

    @given(st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=30))
    @settings(max_examples=50, deadline=None)
    def test_version_chain_order_matches_commit_order(self, writer_ids):
        store = MultiVersionStore()
        expected = []
        for index, writer in enumerate(writer_ids, start=1):
            txn = make_txn(index, txn_type=f"w{writer}")
            store.install(("k",), {"v": index}, txn)
            store.commit_transaction(txn, retained=expected)
            expected.append(index)
        chain = store.committed_versions(("k",))
        assert [v.writer for v in chain] == expected
        assert [v.commit_seq for v in chain] == sorted(v.commit_seq for v in chain)


class TestOneKeyObjectPerKey:
    """Every version of a key holds the key object its chain is filed
    under: a writer's equal tuple is not kept beside it."""

    @staticmethod
    def _equal_copy(key):
        copy = tuple(list(key))
        assert copy == key and copy is not key
        return copy

    def test_a_write_to_a_loaded_key_shares_the_chain_key(self, store):
        key = ("t", 1)
        store.load(key, {"v": 0})
        version = store.install(self._equal_copy(key), {"v": 1}, make_txn(1))
        assert version.key is key
        store.commit_transaction(make_txn(1))
        assert all(v.key is key for v in store.committed_versions(key))

    def test_the_second_in_flight_insert_shares_the_first_ones_key(self, store):
        key = ("t", 2)
        first = store.install(key, {"v": 1}, make_txn(1))
        second = store.install(self._equal_copy(key), {"v": 2}, make_txn(2))
        assert first.key is key and second.key is key
        store.commit_transaction(make_txn(2))
        [(chain_key, chain)] = store._committed.items()
        assert chain_key is key and chain[0] is second

    def test_a_restored_version_shares_the_loaded_key(self, store):
        key = ("t", 3)
        store.load(key, {"v": 0})
        version = store.restore_version(self._equal_copy(key), {"v": 1}, writer=7)
        assert version.key is key
        assert store.latest_committed(key) is version


class TestTables:
    def test_composite_key_single_part(self):
        assert composite_key("t", 5) == ("t", 5)

    def test_composite_key_multi_part(self):
        assert composite_key("t", 1, 2) == ("t", (1, 2))

    def test_schema_key_validation(self):
        schema = TableSchema("t", ("a", "b"))
        with pytest.raises(ValueError):
            schema.key_for(1)

    def test_table_load_into_store(self, store):
        table = Table(TableSchema("t", ("id",)))
        table.insert((1,), {"v": 1})
        table.insert((2,), {"v": 2})
        assert table.load_into(store) == 2
        assert store.latest_committed(("t", 1)).value == {"v": 1}

    def test_catalog_lookup_and_load(self, store):
        table = Table(TableSchema("t", ("id",)))
        table.insert((1,), {"v": 1})
        catalog = Catalog([table])
        assert "t" in catalog
        assert catalog["t"] is table
        assert catalog.load_into(store) == 1
        assert [table.name for table in catalog] == ["t"]


class TestBackends:
    def test_in_memory_roundtrip(self):
        backend = InMemoryBackend()
        backend.put("a", {"x": 1})
        assert backend.get("a") == {"x": 1}
        assert backend.get("missing", "default") == "default"
        assert backend.items() == [("a", {"x": 1})]
        backend.clear()
        assert backend.items() == [] and len(backend) == 0

    def test_file_backend_persists(self, tmp_path):
        path = str(tmp_path / "wal" / "log.jsonl")
        backend = FileBackend(path)
        backend.put("k1", {"v": 1})
        backend.put("k2", {"v": 2})
        backend.close()
        reopened = FileBackend(path)
        assert reopened.get("k1") == {"v": 1}
        assert len(reopened) == 2
        reopened.close()

    def test_file_backend_latest_value_wins(self, tmp_path):
        path = str(tmp_path / "log.jsonl")
        backend = FileBackend(path)
        backend.put("k", 1)
        backend.put("k", 2)
        backend.close()
        assert FileBackend(path).get("k") == 2

    def test_a_removal_persists(self, tmp_path):
        """A removed key stays gone, in memory and when the file is
        replayed; a key put again after its removal is back."""
        path = str(tmp_path / "log.jsonl")
        expected = [(1, (1, b"one")), (4, (4, b"one")), (5, (5, b"one")), (3, (3, b"two"))]
        for backend in (InMemoryBackend(), FileBackend(path)):
            for key in range(1, 6):
                backend.put(key, (key, b"one"))
            backend.remove(range(2, 4))
            backend.put(3, (3, b"two"))
            assert backend.items() == expected
        backend.close()
        reopened = FileBackend(path)
        assert sorted(reopened.items()) == sorted(expected)
        reopened.close()


    def test_a_tuple_key_survives_a_reopen(self, tmp_path):
        """A key is coded like a value: a tuple key comes back a tuple, so
        the index rebuilds, and a tombstone names it the same way."""
        path = str(tmp_path / "log.jsonl")
        backend = FileBackend(path)
        backend.put(("a", 1), {"v": 1})
        backend.put(("b", (2, 3)), 2)
        backend.remove([("b", (2, 3))])
        backend.close()
        reopened = FileBackend(path)
        assert reopened.get(("a", 1)) == {"v": 1}
        assert reopened.items() == [(("a", 1), {"v": 1})]
        reopened.close()


class TestWriteAheadLog:
    def test_append_assigns_lsn(self):
        wal = WriteAheadLog(InMemoryBackend())
        first = wal.append("precommit", 1)
        second = wal.append("precommit", 2)
        assert (first[LSN], second[LSN]) == (1, 2)
        assert len(wal._buffer) == 2

    def test_flush_persists_records(self):
        wal = WriteAheadLog(InMemoryBackend())
        wal.append("precommit", 1, gcp_epoch=1)
        assert wal.flush() == 1
        assert len(wal._buffer) == 0
        records = wal.persisted_records()
        assert len(records) == 1 and records[0][TXN_ID] == 1

    def test_flush_up_to_epoch(self):
        wal = WriteAheadLog(InMemoryBackend())
        wal.append("precommit", 1, gcp_epoch=1)
        wal.append("precommit", 2, gcp_epoch=2)
        assert wal.flush(up_to_epoch=1) == 1
        assert len(wal._buffer) == 1

    def test_interleaved_sync_async_flushes_preserve_lsn_order(self):
        """Sync (immediate) and async (epoch-batched) flushes interleave;
        persisted_records() must still return every flushed record exactly
        once, in LSN order, with no record skipped by the epoch filter."""
        wal = WriteAheadLog(InMemoryBackend())
        wal.append("precommit", 1, gcp_epoch=1)
        wal.append("precommit", 2, gcp_epoch=2)
        wal.flush(up_to_epoch=1)  # async epoch flush, leaves txn 2 pending
        wal.append("precommit", 3, gcp_epoch=0)
        wal.flush()  # sync flush: everything buffered, regardless of epoch
        wal.append("precommit", 4, gcp_epoch=3)
        wal.flush(up_to_epoch=3)
        records = wal.persisted_records()
        assert [r[TXN_ID] for r in records] == [1, 2, 3, 4]
        assert [r[LSN] for r in records] == [1, 2, 3, 4]
        assert len(wal._buffer) == 0

    def test_crash_interrupted_flush_keeps_persisted_prefix(self):
        """A crash mid-run drops the volatile buffer but never the records
        already handed to the backend."""
        wal = WriteAheadLog(InMemoryBackend())
        wal.append("precommit", 1, gcp_epoch=1)
        wal.flush()
        wal.append("precommit", 2, gcp_epoch=2)
        wal.append("precommit", 3, gcp_epoch=2)
        lost = wal.crash()
        assert lost == 2
        assert len(wal._buffer) == 0
        assert [r[TXN_ID] for r in wal.persisted_records()] == [1]

    def test_reset_wipes_the_backend_and_restarts_lsns(self):
        wal = WriteAheadLog(InMemoryBackend())
        wal.append("precommit", 1)
        wal.flush()
        wal.append("precommit", 2)
        wal.reset()
        assert wal.records() == []
        record = wal.append("precommit", 3)
        assert record[LSN] == 1

    def test_a_durable_record_is_stored_under_its_lsn(self):
        wal = WriteAheadLog(InMemoryBackend())
        records = [wal.append("precommit", txn_id) for txn_id in (1, 2)]
        wal.flush()
        assert wal.backend.items() == [(record[LSN], record) for record in records]

    def test_a_reopened_log_continues_after_its_records(self, tmp_path):
        """A log opened over a file that holds records goes on past their
        LSNs, so its next flush overwrites none, and a fold of the reopened
        log releases what a fold of the log that never closed would."""
        path = str(tmp_path / "wal.jsonl")

        def precommit(wal, txn_id, key):
            wal.append("precommit", txn_id, body=(1, txn_id, ((("t", key), txn_id),)))
            wal.flush()

        wal = WriteAheadLog(FileBackend(path))
        precommit(wal, 1, 1)
        precommit(wal, 2, 2)
        wal.backend.close()
        reopened = WriteAheadLog(FileBackend(path))
        precommit(reopened, 3, 1)
        assert [r[TXN_ID] for r in reopened.persisted_records()] == [1, 2, 3]
        assert [r[LSN] for r in reopened.persisted_records()] == [1, 2, 3]
        never_closed = WriteAheadLog(InMemoryBackend())
        for txn_id, key in ((1, 1), (2, 2), (3, 1)):
            precommit(never_closed, txn_id, key)
        for log in (reopened, never_closed):
            log.fold()
        assert reopened.persisted_records() == never_closed.persisted_records()
        reopened.backend.close()
        again = WriteAheadLog(FileBackend(path))
        assert again.persisted_records() == never_closed.persisted_records()
        assert (again._image, again._next_lsn) == (never_closed._image, never_closed._next_lsn)
        again.backend.close()

    def test_key_codec_roundtrips_through_file_backend(self, tmp_path):
        """A record with a composite key survives a JSON backend exactly: the
        tuple/bytes coding is FileBackend's business, not the write path's."""
        key = ("accounts", ("savings", 7))
        path = str(tmp_path / "wal.jsonl")
        wal = WriteAheadLog(FileBackend(path))
        written = wal.append("precommit", 1, body=(1, 1, ((key, {"v": 1}),)))
        assert type(written) is tuple and type(written[BODY]) is bytes
        wal.flush()
        wal.backend.close()
        reloaded = WriteAheadLog(FileBackend(path))
        records = reloaded.persisted_records()
        assert records == [written]
        participants, ticket, writes = record_body(records[0])
        assert (participants, ticket) == (1, 1)
        assert writes == ((key, {"v": 1}),)
        reloaded.backend.close()


class TestDurability:
    def _manager(self, asynchronous=True):
        return DurabilityManager(
            DurabilityConfig(enabled=True, asynchronous=asynchronous, num_servers=2)
        )

    def test_disabled_manager_is_noop(self):
        manager = DurabilityManager(DurabilityConfig(enabled=False))
        txn = make_txn(1)
        assert manager.precommit(txn, [(("t", 1), {"v": 1})]) == 0
        assert manager.flush_delay() == 0.0

    def test_precommit_writes_one_record_per_server(self):
        manager = self._manager(asynchronous=False)
        txn = make_txn(1)
        writes = [(("a", 1), {"v": 1}), (("b", 2), {"v": 2})]
        manager.precommit(txn, writes)
        participants = manager.participants_for(writes)
        for server_id, log in enumerate(manager.logs):
            records = log.persisted_records()
            assert len(records) == (server_id in participants)
            assert all(record[KIND] == "precommit" for record in records)

    def test_synchronous_precommit_is_durable_immediately(self):
        manager = self._manager(asynchronous=False)
        txn = make_txn(7)
        manager.precommit(txn, [(("a", 1), {"v": 7})])
        result = manager.recover()
        assert 7 in result.recovered_transactions
        assert result.state.get(("a", 1)) == {"v": 7}
        assert result.state_writers.get(("a", 1)) == 7

    def test_async_needs_gcp_flush_to_be_durable(self):
        manager = self._manager(asynchronous=True)
        txn = make_txn(8)
        manager.precommit(txn, [(("a", 1), {"v": 8})])
        assert 8 not in manager.recover().recovered_transactions
        manager.advance_gcp_epoch()
        assert 8 in manager.recover().recovered_transactions

    def test_recovery_latest_write_wins(self):
        manager = self._manager(asynchronous=False)
        for txn_id, value in ((1, 10), (2, 20)):
            manager.precommit(make_txn(txn_id), [(("a", 1), {"v": value})])
        result = manager.recover()
        assert result.state[("a", 1)] == {"v": 20}
        assert result.state_writers[("a", 1)] == 2

    @pytest.mark.parametrize("asynchronous", [False, True])
    def test_log_holds_a_copy_of_the_row(self, asynchronous):
        """``ctx.update`` returns the dict it handed to ``perform_write``,
        which is also ``Version.value`` and the precommit's value: mutating
        it after the log calls returned must change nothing recovery rebuilds."""
        manager = self._manager(asynchronous=asynchronous)
        txn = make_txn(3)
        row = {"v": 1, "tags": ["a"]}
        manager.precommit(txn, [(("a", 1), row)])
        row["v"] = 99
        row["tags"].append("b")
        if asynchronous:
            manager.advance_gcp_epoch()
        result = manager.recover()
        assert result.state == {("a", 1): {"v": 1, "tags": ["a"]}}
        assert result.state_writers == {("a", 1): 3}

    def test_checkpoint_wipe_survives_a_file_backend_reopen(self, tmp_path):
        """A checkpoint wipes the durable logs on disk too: reopened, they
        hold exactly the checkpoint records, and no precommit of the wiped
        incarnation comes back."""
        paths = iter(str(tmp_path / f"wal-{index}.jsonl") for index in range(2))
        manager = DurabilityManager(
            DurabilityConfig(enabled=True, asynchronous=False, num_servers=2),
            backend_factory=lambda: FileBackend(next(paths)),
        )
        try:
            # More precommit records than checkpoint records, so the
            # checkpoint's restarted LSNs cannot overwrite them all.
            for txn_id in range(1, 7):
                writes = [(("a", 1), {"v": txn_id}), (("b", 2), {"v": -txn_id})]
                manager.precommit(make_txn(txn_id), writes)
            base = manager.recover()
            written = manager.checkpoint(base)
            for log in manager.logs:
                log.backend.close()
                log.backend = FileBackend(log.backend.path)
            records = [record for log in manager.logs for record in log.persisted_records()]
            assert [record[KIND] for record in records] == ["checkpoint"] * written
            assert written == len(base.state) == 2
            result = manager.recover()
            assert result.state == base.state == {("a", 1): {"v": 6}, ("b", 2): {"v": -6}}
            assert result.state_writers == base.state_writers
            assert result.recovered_transactions == result.discarded_transactions == set()
        finally:
            for log in manager.logs:
                log.backend.close()

    def test_a_fold_survives_a_file_backend_reopen(self, tmp_path):
        """Folded precommit records stay gone when the files are replayed,
        and recovery from the reopened files equals recovery from memory."""
        config = DurabilityConfig(enabled=True, asynchronous=True, num_servers=2)
        paths = iter(str(tmp_path / f"wal-{index}.jsonl") for index in range(2))
        on_disk = DurabilityManager(config, backend_factory=lambda: FileBackend(next(paths)))
        in_memory = DurabilityManager(config)
        try:
            for manager in (on_disk, in_memory):
                # Three folds; txn 5 is read-only; txn 10 is durable but
                # above the persistent epoch (a torn epoch).
                for txn_id in range(1, 10):
                    writes = [(("a", txn_id % 3), {"v": txn_id}), (("b", 1), {"v": -txn_id})]
                    manager.precommit(make_txn(txn_id), writes if txn_id != 5 else [])
                    if txn_id % 3 == 0:
                        manager.advance_gcp_epoch()
                manager.precommit(make_txn(10), [(("a", 0), {"v": 10})])
                for log in manager.logs:
                    log.flush()
            for log in on_disk.logs:
                log.backend.close()
                log.backend = FileBackend(log.backend.path)
            held = [record for log in on_disk.logs for record in log.persisted_records()]
            assert held == [record for log in in_memory.logs for record in log.persisted_records()]
            assert [record[TXN_ID] for record in held if record[KIND] == "precommit"] == [10]
            assert sum(record[KIND] == "checkpoint" for record in held) == 4
            result = on_disk.recover()
            assert result == in_memory.recover()
            assert result.recovered_transactions == set(range(1, 10))
            assert result.recovered_writers == set(range(1, 10)) - {5}
            assert result.discarded_transactions == {10}
            assert result.state_writers == {("a", 0): 9, ("a", 1): 7, ("a", 2): 8, ("b", 1): 9}
            assert result.state[("a", 0)] == {"v": 9} and result.state[("b", 1)] == {"v": -9}
        finally:
            for log in on_disk.logs:
                log.backend.close()

    def test_commit_notification_advances_lagging_epochs(self):
        manager = self._manager()
        manager._current_gcp_epoch = [1, 3]
        manager.commit_notification(make_txn(1), global_epoch=3)
        assert manager._current_gcp_epoch == [3, 3]


class TestVersionRetention:
    """The one rule: a superseded version is dead once the writer of the next
    version on its key is no longer retained (``engine.finished``); it is
    dropped by the next commit on that key.  The engine-level half — what is
    retained, holds, bounds, prune ≡ never prune — is the retention catalogue
    (tests/retention_catalogue.py, held by tests/test_retention.py).
    """

    @staticmethod
    def _overwrite(store, txn_id, retained=()):
        txn = make_txn(txn_id)
        store.install(("k",), {"v": txn_id}, txn)
        store.commit_transaction(txn, retained=retained)

    @staticmethod
    def _writers(store):
        return [version.writer for version in store.committed_versions(("k",))]

    def test_nothing_retained_leaves_the_newest_and_what_it_superseded(self, store):
        store.load(("k",), {"v": 0})
        for txn_id in range(1, 6):
            self._overwrite(store, txn_id)
        # 4 stays although dead: 5's own commit ran while 5 was still live.
        assert self._writers(store) == [4, 5]
        assert store.latest_committed(("k",)).value == {"v": 5}

    def test_a_retained_writer_keeps_the_version_it_superseded(self, store):
        store.load(("k",), {"v": 0})
        self._overwrite(store, 1)
        self._overwrite(store, 2, retained={1})
        self._overwrite(store, 3, retained={1, 2})
        assert self._writers(store) == [0, 1, 2, 3]
        # 1 is released: the load goes; 1's own version stays while 2 is kept.
        self._overwrite(store, 4, retained={2, 3})
        assert self._writers(store) == [1, 2, 3, 4]
        self._overwrite(store, 5)
        assert self._writers(store) == [4, 5]

    def test_the_drop_stops_at_the_first_retained_successor(self, store):
        """Oldest first: a released writer behind a retained one waits for it
        (release order is finish order, a chain is in commit order — the two
        differ only by what overlapped)."""
        store.load(("k",), {"v": 0})
        everyone = {1, 2, 3}
        for txn_id in (1, 2, 3):
            self._overwrite(store, txn_id, retained=everyone)
        self._overwrite(store, 4, retained={1})
        assert self._writers(store) == [0, 1, 2, 3, 4]
        self._overwrite(store, 5, retained={3})
        assert self._writers(store) == [2, 3, 4, 5]

    def test_only_the_written_key_is_touched(self, store):
        for txn_id in (1, 2, 3):
            txn = make_txn(txn_id)
            store.install(("a",), txn_id, txn)
            store.install(("b",), txn_id, txn)
            store.commit_transaction(txn, retained=(1, 2, 3))
        txn = make_txn(4)
        store.install(("a",), 4, txn)
        store.commit_transaction(txn)
        assert [v.writer for v in store.committed_versions(("a",))] == [3, 4]
        assert [v.writer for v in store.committed_versions(("b",))] == [1, 2, 3]

    def test_restored_versions_go_with_the_first_overwrite(self, store):
        # Recovery appends pre-crash writers the new engine never retains.
        for seq, writer in enumerate((7, 8, 9), start=1):
            store.restore_version(("k",), {"v": writer}, writer, commit_seq=seq)
        store.advance_commit_seq(3)
        self._overwrite(store, 20)
        assert self._writers(store) == [9, 20]


class TestSnapshotReadsLandNearTheTail:
    """``latest_committed_before`` walks back from the newest version: a
    workload that reads deep must fail here, not silently pay the walk."""

    @pytest.mark.parametrize("cell, clients, duration", [
        ("tpcc/3layer", 12, 1.2), ("ycsb-zipf/ssi", 64, 0.2), ("micro/ssi-2layer", 8, 3.0),
    ])
    def test_mean_and_longest_walk(self, cell, clients, duration):

        workload, tree = {
            "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer),
            "ycsb-zipf/ssi": (_zipf, configs.WORKLOAD_CONFIGURATIONS["ycsb"]["ssi"]),
            "micro/ssi-2layer": (_micro, configs.micro_ssi_2layer),
        }[cell]
        summary, commits = census_of_run(workload(), tree(), clients, duration, seed=11)
        # Measured: tail in 95.1 % of 2,498 / 93.7 % of 3,688 / 91.3 % of
        # 20,960 calls, mean 0.05 / 0.06 / 0.10, at most 2 / 1 / 5 back.
        assert commits > 500 and summary["calls"] > 2000 and summary["unordered"] == 0
        assert summary["mean"] < 0.5 and summary["max"] <= 16, summary
