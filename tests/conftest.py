"""Shared fixtures for the test suite."""

import os

import pytest
from hypothesis import Phase, settings

# Hypothesis profiles: "fast" keeps the default tier-1 run snappy (no
# shrinking phase), "ci" digs deeper, "ci-fast" is the CI fast lane's
# deterministic budget (fixed derivation instead of random seeding, fewer
# examples).  Select with HYPOTHESIS_PROFILE=ci / ci-fast.
settings.register_profile(
    "fast",
    max_examples=25,
    deadline=None,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.register_profile("ci", max_examples=200, deadline=None)
settings.register_profile(
    "ci-fast",
    max_examples=15,
    deadline=None,
    derandomize=True,
    phases=[Phase.explicit, Phase.reuse, Phase.generate],
)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "fast"))

from repro.core.config import Configuration, leaf, monolithic, node
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.isolation import HistoryRecorder
from repro.sim.environment import Environment
from repro.storage.mvstore import MultiVersionStore
from repro.storage.tables import composite_key
from repro.workloads.micro import CrossGroupConflictWorkload, NoConflictWorkload
from repro.workloads.tpcc import TPCCWorkload
from repro.workloads.tpcc.schema import TPCCScale


@pytest.fixture
def env():
    return Environment()


@pytest.fixture
def store():
    return MultiVersionStore()


@pytest.fixture
def fast_options():
    """Engine options with costs disabled (pure logic tests)."""
    return EngineOptions(charge_costs=False, lock_timeout=0.2, commit_wait_timeout=0.4)


@pytest.fixture
def micro_workload():
    return CrossGroupConflictWorkload(shared_rows=10, cold_rows=100)


@pytest.fixture
def noconflict_workload():
    return NoConflictWorkload(rows=1000, operations=4)


@pytest.fixture
def tiny_tpcc():
    """A very small TPC-C population for functional tests."""
    scale = TPCCScale(
        warehouses=1,
        districts_per_warehouse=2,
        customers_per_district=10,
        items=30,
        initial_orders_per_district=5,
    )
    return TPCCWorkload(scale=scale)


class RecordingRecorder(HistoryRecorder):
    """A recorder that keeps commit records, as a fault lane's does: what a
    test hands the post-hoc reference checker (``history()``)."""

    def __init__(self):
        super().__init__(records=True)


def build_engine(env, workload, configuration, options=None, profiler=None,
                 engine_class=TebaldiEngine, store_class=MultiVersionStore,
                 recorder_class=HistoryRecorder):
    """Create an engine with the workload's data loaded.

    A streaming :class:`HistoryRecorder` (or ``recorder_class``) is
    attached, so ``check_engine`` has a history to check (the engine keeps
    none of its own).
    """
    store = store_class()
    workload.populate(store)
    engine = engine_class(
        env,
        configuration,
        workload.transaction_types(),
        store=store,
        options=options or EngineOptions(charge_costs=False),
        profiler=profiler,
    )
    engine.history_recorder = recorder_class()
    return engine


def read_row(db, table, *parts):
    """The latest committed row of ``table`` at ``parts`` in a
    :class:`~repro.database.Database` (``None`` when there is none)."""
    version = db.store.latest_committed(composite_key(table, *parts))
    return None if version is None else version.value


def think(duration):
    """Coroutine for a transaction procedure: spend ``duration`` virtual
    seconds of application compute time.  A process sleeps on a bare float;
    a zero duration does not sleep at all (a zero sleep would still add a
    run-queue entry and move the schedule)."""
    if duration > 0:
        yield float(duration)


class OverlapAuditEngine(TebaldiEngine):
    """Audits the retention rule from outside, with its own clock.

    The engine releases a finished transaction once nothing active is
    concurrent with it; whatever then looks it up gets ``None``.  Every such
    miss must be for a transaction that no currently active one overlapped
    (began before it finished) — anything else means a CC consulted state
    the engine had already let go.  Id 0 is the loader, never a miss.

    Beside it, what ``tests/retention_catalogue.py`` writes its bounds
    over: the most transactions retained when a commit trimmed a chain
    (``peak_retained``), the committed ones whose finish hooks have not run
    yet (``finishing``: a durable commit's flush delay), the floor of a hold
    dropped since the last retire (``dropped_floor``: its release waits for
    the next one) and the read and scan records committed transactions
    carried (``read_records``).
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._ticks = 0
        self._began = {}
        self._ended = {}
        self.misses = 0
        self.bad_misses = []
        self.peak_retained = self.read_records = 0
        self.finishing = set()
        self.dropped_floor = None

    def begin(self, *args, **kwargs):
        txn = super().begin(*args, **kwargs)
        self._ticks += 1
        self._began[txn.txn_id] = self._ticks
        return txn

    def _retire(self, txn):
        self._ticks += 1
        self._ended.setdefault(txn.txn_id, self._ticks)
        self.peak_retained = max(self.peak_retained, len(self.finished))
        if txn.committed:
            self.finishing.add(txn.txn_id)
            self.read_records += len(txn.reads or ()) + len(txn.scans or ())
        super()._retire(txn)
        self.dropped_floor = None

    def _run(self, txn):
        result = yield from super()._run(txn)
        self.finishing.discard(txn.txn_id)
        return result

    def drop_hold(self, key):
        held = self._holds.get(key)
        if held is not None and (self.dropped_floor is None or held < self.dropped_floor):
            self.dropped_floor = held
        super().drop_hold(key)

    def find_transaction(self, txn_id):
        txn = super().find_transaction(txn_id)
        if txn is None and txn_id != 0:
            self.misses += 1
            ended = self._ended[txn_id]
            overlapped = [a for a in self.active if self._began[a] < ended]
            if overlapped:
                self.bad_misses.append((txn_id, overlapped))
        return txn



def run_transactions(env, engine, requests, lanes=None):
    """Run a list of (txn_type, args) through the engine; return transactions.

    Every request is its own process, all started at once — or, with
    ``lanes``, that many processes each run their share one after another.
    """
    from repro.errors import TransactionAborted

    outcomes = []

    def _stream(stream):
        for txn_type, args in stream:
            try:
                txn = yield from engine.execute_transaction(txn_type, args)
                outcomes.append(txn)
            except TransactionAborted as aborted:
                outcomes.append(aborted)

    streams = [[request] for request in requests]
    if lanes is not None:
        streams = [requests[lane::lanes] for lane in range(lanes)]
    processes = [
        env.process(_stream(stream), name=f"test-{index}")
        for index, stream in enumerate(streams)
    ]
    env.run()
    return outcomes, processes


@pytest.fixture
def micro_configs():
    """A few representative configurations for the micro workload."""
    return {
        "2pl": monolithic("2pl", ("group_a_update", "group_b_update")),
        "ssi": monolithic("ssi", ("group_a_update", "group_b_update")),
        "two-layer": Configuration(
            node(
                "2pl",
                leaf("rp", "group_a_update"),
                leaf("rp", "group_b_update"),
            ),
            name="two-layer",
        ),
        "three-layer": Configuration(
            node(
                "ssi",
                leaf("none", "group_b_read"),
                node("2pl", leaf("rp", "group_a_update")),
            ),
            name="three-layer",
        ),
    }
