"""Property tests for :class:`MultiVersionStore` invariants and the log's
serialiser.

These tests drive random operation sequences against the store while
mirroring them in a naive list-based model, and assert the two always agree
— in particular that install/commit/abort never lose the newest committed
version, that a commit drops from the key it writes exactly what the
retention rule calls dead (the drop edits the chain in place), that
``latest_committed_before`` matches a naive backward scan, on chains whose
timestamps are out of commit order too, and that ``range_keys`` lists a
table's live keys in order whenever its first scan builds the index.

The write-ahead log serialises every row once, at append; the round-trip
property at the end of the file is what that serialiser owes: whatever rows
were written, ``recover()`` returns them exactly.
"""

import os
import tempfile

from hypothesis import given
from hypothesis import strategies as st

from repro.core.transaction import Transaction
from repro.storage.backends import FileBackend, InMemoryBackend
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.mvstore import MultiVersionStore

# Table keys are ``(table, pk)``; a key of another shape is never scanned.
KEYS = (("t", 2), ("t", 0), ("u", 1), "a")
TABLES = ("t", "u")
PROBE_TIMESTAMPS = (0.0, 1.0, 5.0, 10.5, 21.0)


def _naive_survivors(chain, retained):
    """The retention rule on one chain: oldest first, a version goes while
    the writer of its successor is not retained; the newest always stays.
    (``engine.finished`` releases in finish order, which is commit order, so
    in an engine the retained writers are a suffix of the chain and this is
    "survives iff newest or its successor's writer is retained".)"""
    while len(chain) > 1 and chain[1].writer not in retained:
        chain = chain[1:]
    return chain


def _naive_latest_before(chain, timestamp, strict):
    for version in reversed(chain):
        ts = version.timestamp if version.timestamp is not None else 0.0
        if ts < timestamp if strict else ts <= timestamp:
            return version
    return None


_OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("install"),
            st.sampled_from(KEYS),
            st.integers(0, 3),
            st.integers(0, 5),
        ),
        st.tuples(
            st.just("commit"),
            st.integers(0, 3),
            st.one_of(st.none(), st.integers(0, 20)),
            # Which writers are still retained, as a bit mask over txn ids.
            st.integers(0, 2**12 - 1),
        ),
        st.tuples(st.just("abort"), st.integers(0, 3)),
        st.tuples(st.just("load"), st.sampled_from(KEYS), st.integers(0, 5)),
        st.tuples(
            st.just("declare"),
            st.lists(st.sampled_from(KEYS), min_size=1, max_size=3),
            st.integers(0, 3),
        ),
        st.tuples(st.just("retract"), st.integers(0, 3)),
        st.tuples(
            st.just("scan"),
            st.sampled_from(TABLES),
            st.one_of(st.none(), st.integers(0, 2)),
            st.one_of(st.none(), st.integers(0, 2)),
        ),
    ),
    max_size=50,
)


def _open_txn(open_txns, writes, seen_writers, slot, next_txn_id):
    """The open transaction ``slot`` picks, or a new one; the next free id."""
    index = slot % (len(open_txns) + 1)
    if index == len(open_txns):
        txn = Transaction(txn_id=next_txn_id, txn_type="t")
        next_txn_id += 1
        open_txns.append(txn)
        writes[txn.txn_id] = []
        seen_writers.add(txn.txn_id)
    return open_txns[index], next_txn_id


@given(ops=_OPS)
def test_store_agrees_with_naive_model(ops):
    store = MultiVersionStore()
    committed = {key: [] for key in KEYS}
    uncommitted = {key: [] for key in KEYS}
    # key -> ids of the writers holding an unresolved pre-assigned slot.
    slots = {key: set() for key in KEYS}
    open_txns = []
    writes = {}
    seen_writers = {0}
    next_txn_id = 1

    def retract(txn_id):
        for holders in slots.values():
            holders.discard(txn_id)

    for op in ops:
        kind = op[0]
        if kind == "install":
            _, key, slot, value = op
            txn, next_txn_id = _open_txn(open_txns, writes, seen_writers, slot, next_txn_id)
            version = store.install(key, {"v": value}, txn)
            slots[key].discard(txn.txn_id)
            existing = [v for v in uncommitted[key] if v.writer == txn.txn_id]
            if existing:
                assert version is existing[0]
            else:
                uncommitted[key].append(version)
                writes[txn.txn_id].append(version)
        elif kind == "commit":
            _, slot, timestamp, mask = op
            if not open_txns:
                continue
            txn = open_txns.pop(slot % len(open_txns))
            ts = float(timestamp) if timestamp is not None else None
            retained = {writer for writer in seen_writers if mask >> writer % 12 & 1}
            store.commit_transaction(txn, timestamp=ts, retained=retained)
            retract(txn.txn_id)
            for version in writes.pop(txn.txn_id):
                uncommitted[version.key].remove(version)
                # Only the key being written loses versions, before the append.
                chain = _naive_survivors(committed[version.key], retained)
                committed[version.key] = chain + [version]
        elif kind == "abort":
            _, slot = op
            if not open_txns:
                continue
            txn = open_txns.pop(slot % len(open_txns))
            store.abort_transaction(txn)
            retract(txn.txn_id)
            for version in writes.pop(txn.txn_id):
                uncommitted[version.key].remove(version)
        elif kind == "load":
            _, key, value = op
            version = store.load(key, {"v": value})
            committed[key].append(version)
        elif kind == "declare":
            _, keys, slot = op
            txn, next_txn_id = _open_txn(open_txns, writes, seen_writers, slot, next_txn_id)
            store.declare_slots(txn.txn_id, len(seen_writers), keys)
            for key in keys:
                slots[key].add(txn.txn_id)
        elif kind == "retract":
            _, slot = op
            if not open_txns:
                continue
            txn_id = open_txns[slot % len(open_txns)].txn_id
            store.retract_slots(txn_id)
            retract(txn_id)
        elif kind == "scan":
            # The table's first scan builds its index; every later op keeps it.
            _, table, lo, hi = op
            live = sorted(
                key[1]
                for key in KEYS
                if isinstance(key, tuple)
                and key[0] == table
                and (committed[key] or uncommitted[key] or slots[key])
                and (lo is None or lo <= key[1])
                and (hi is None or key[1] <= hi)
            )
            assert store.range_keys(table, lo, hi) == [(table, pk) for pk in live]

        # -- invariants after every operation ------------------------------
        for key in KEYS:
            chain = committed[key]
            got_chain = store.committed_versions(key)
            assert len(got_chain) == len(chain)
            assert all(a is b for a, b in zip(got_chain, chain))
            latest = store.latest_committed(key)
            assert latest is (chain[-1] if chain else None)
            got_uncommitted = store.uncommitted_versions(key)
            assert len(got_uncommitted) == len(uncommitted[key])
            assert all(a is b for a, b in zip(got_uncommitted, uncommitted[key]))
            for timestamp in PROBE_TIMESTAMPS:
                for strict in (True, False):
                    assert store.latest_committed_before(
                        key, timestamp, strict=strict
                    ) is _naive_latest_before(chain, timestamp, strict)
            for writer in seen_writers:
                own = store.own_uncommitted(key, writer)
                naive_own = next(
                    (v for v in reversed(uncommitted[key]) if v.writer == writer),
                    None,
                )
                assert own is naive_own


@given(
    timestamps=st.lists(st.integers(0, 8), min_size=1, max_size=12),
    probe=st.integers(0, 9),
)
def test_bisect_matches_naive_on_sorted_chains(timestamps, probe):
    """Timestamp-ordered chains with duplicate timestamps: the strict /
    non-strict boundary sits inside a run of equal timestamps."""
    store = MultiVersionStore()
    chain = []
    everyone = range(1, len(timestamps) + 1)
    for index, ts in enumerate(sorted(timestamps)):
        txn = Transaction(txn_id=index + 1, txn_type="t")
        store.install(("k",), {"v": index}, txn)
        store.commit_transaction(txn, timestamp=float(ts), retained=everyone)
        chain.append(store.latest_committed(("k",)))
    for strict in (True, False):
        assert store.latest_committed_before(
            ("k",), float(probe), strict=strict
        ) is _naive_latest_before(chain, float(probe), strict)


def test_newest_committed_survives_every_drop():
    """Explicit regression: whatever is retained, the newest version stays
    and stays readable."""
    store = MultiVersionStore()
    for index in range(6):
        txn = Transaction(txn_id=index + 1, txn_type="t")
        store.install(("k",), {"v": index}, txn)
        store.commit_transaction(txn, timestamp=float(index), retained={2, 3} if index < 4 else ())
        assert store.latest_committed(("k",)).value == {"v": index}
    assert [v.value["v"] for v in store.committed_versions(("k",))] == [4, 5]
    assert store.latest_committed_before(("k",), 100.0).value == {"v": 5}


# -- the log's serialiser --------------------------------------------------

# Every value type the registry writes: ints, floats, strings, None, nested
# tuples (and lists), inside rows that may be empty or a None tombstone.
_ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.floats(allow_nan=False),
    st.text(max_size=6),
)
_VALUES = st.recursive(
    _ATOMS,
    lambda inner: st.one_of(st.tuples(inner, inner), st.lists(inner, max_size=3)),
    max_leaves=6,
)
_ROWS = st.one_of(st.none(), st.dictionaries(st.text(max_size=6), _VALUES, max_size=4))
_LOG_KEYS = st.tuples(
    st.sampled_from(("a", "b")),
    st.one_of(st.integers(0, 4), st.tuples(st.text(max_size=3), st.integers(0, 4))),
)
_WRITE_SETS = st.lists(
    st.lists(st.tuples(_LOG_KEYS, _ROWS), min_size=1, max_size=3), max_size=4
)


def _log_and_recover(manager, write_sets, reopen=None):
    """Precommit each write set as its own transaction (synchronously
    durable), optionally reopen the backends, and recover."""
    expected, writers = {}, {}
    for txn_id, writes in enumerate(write_sets, start=1):
        txn = Transaction(txn_id=txn_id, txn_type="t")
        for key, row in writes:
            expected[key], writers[key] = row, txn_id
        manager.precommit(txn, writes)
    if reopen is not None:
        reopen(manager)
    result = manager.recover()
    assert result.state == expected
    # Equality tells (1, 2) from [1, 2] but not 1 from 1.0 or True: pin the
    # types as well.
    assert {key: repr(row) for key, row in result.state.items()} == {
        key: repr(row) for key, row in expected.items()
    }
    assert result.state_writers == writers


_SYNC = DurabilityConfig(enabled=True, asynchronous=False, num_servers=2)


@given(write_sets=_WRITE_SETS)
def test_recover_returns_what_was_written_in_memory(write_sets):
    _log_and_recover(DurabilityManager(_SYNC, backend_factory=InMemoryBackend), write_sets)


@given(write_sets=_WRITE_SETS)
def test_recover_returns_what_was_written_through_reopened_files(write_sets):
    def reopen(manager):
        for log in manager.logs:
            log.backend.close()
            log.backend = FileBackend(log.backend.path)

    with tempfile.TemporaryDirectory() as directory:
        paths = iter(os.path.join(directory, f"wal-{index}.jsonl") for index in range(2))
        manager = DurabilityManager(_SYNC, backend_factory=lambda: FileBackend(next(paths)))
        try:
            _log_and_recover(manager, write_sets, reopen=reopen)
        finally:
            for log in manager.logs:
                log.backend.close()
