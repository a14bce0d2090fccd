"""Retention: every catalogue row on every cell, each twin, and what no bound says.

``tests/retention_catalogue.py`` states the release rule and declares each
structure kept across transactions as a row.  Here every row holds on the
44 registry cells and the reference cells, whose census figures keep their
old bounds; each never-release twin changes no outcome; and the rest pins
what a bound cannot say: records kept only for a reader or a lane, one row
and one key object per key, partition routes, the owner census, late
resolution and fold recovery at every crash site.  How a hold, a batch or
the oracle lets go is pinned with its component (``TestHolds`` and
``TestBatchLeafLetsGo`` in ``tests/test_engine_and_cc.py``,
``TestTheEnginesReleases`` in ``tests/test_streaming_checker.py``).
"""

import gc
import random
import weakref
from collections import Counter, defaultdict
from dataclasses import fields
from types import SimpleNamespace

import pytest

from benchmarks.bench_speed import census_by_owner
from repro.cc import two_phase_locking
from repro.cc.locks import LockTable
from repro.cc.ssi import SerializableSnapshotIsolation
from repro.core.config import Configuration, leaf, node
from repro.core.engine import EngineOptions, TebaldiEngine
from repro.core.transaction import ReadRecord, Transaction
from repro.database import Database
from repro.errors import ConfigurationError, TransactionAborted
from repro.harness import runner as runner_module
from repro.harness.crash import CrashLane
from repro.harness.runner import BenchmarkRunner, Lane
from repro.isolation.checker import check_recorder
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.sim.faults import SITES, CrashPoint, FaultPlan
from repro.storage import durability as durability_module
from repro.storage.durability import DurabilityConfig, DurabilityManager
from repro.storage.mvstore import MultiVersionStore
from repro.storage.versions import Version
from repro.storage.wal import KIND, TXN_ID, WriteAheadLog, record_body
from repro.workloads.seats import SEATSWorkload
from tests import test_cc_conformance as conformance
from tests.conftest import RecordingRecorder, build_engine, read_row, run_transactions
from tests.reference_checker import check_history
from tests.retention_catalogue import (
    CELLS, CLIENTS, FOLDING, GROWTH, REFERENCE, ROWS, SCAN_DRAIN_TREES, TREES,
    KeepEverythingEngine, KeepEveryRecordLockTable, KeepEveryVersionStore, NeverFoldLog,
    NeverPruneRecorder, ReadLogEngine, _digest, _log_held, _micro, _scan, _smallbank,
    _tiny_tpcc, _zipf, as_run, build, census_figures, configs, look, mechanisms,
    range_managers_held,
    reference, run_conformance_tree, sample_run, scan_registries, sweep, violations,
)
from tests.test_cc_conformance import (
    CONFORMANCE_TREES, TXN_TYPES, ConformanceWorkload, random_requests, replay_conformance,
    run_conformance, run_micro_schedule,
)

@pytest.fixture(scope="module")
def looks():
    """Each cell's looks, run once: a registry cell's sweep or a reference run."""
    runs = {}

    def looks_of(cell):
        if cell not in runs:
            name = cell.removeprefix("reference ")
            runs[cell] = reference(name) if name != cell else sweep(cell)
        return runs[cell]

    return looks_of


def _row_params():
    for row in ROWS:
        for cell in CELLS + [f"reference {name}" for name in REFERENCE]:
            reason = GROWTH.get((row.structure, cell))
            marks = [pytest.mark.xfail(strict=True, reason=reason)] if reason else []
            yield pytest.param(row, cell, id=f"{row}@{cell}", marks=marks)


@pytest.mark.parametrize("row, cell", _row_params())
def test_row_holds(row, cell, looks):
    """At both commit counts and drained; a reference cell after every step."""
    assert violations(looks(cell), row) == []


def test_a_read_filed_after_its_rw_checks_fails_both_siread_rows(monkeypatch):
    """Filing the key in ``read_keys`` only after ``_snapshot_read``'s rw
    checks leaves the entry of each read ``ssi-committed-pivot`` aborts
    inside them: both SIREAD rows must see it on the cell that showed it."""
    snapshot_read = SerializableSnapshotIsolation._snapshot_read

    def filed_after_the_checks(self, txn, key, candidate):
        filed = key in self.state(txn).get("read_keys", ())
        try:
            return snapshot_read(self, txn, key, candidate)
        except TransactionAborted as aborted:
            if not filed and (aborted.txn_id, aborted.reason) == (txn.txn_id,
                                                                  "ssi-committed-pivot"):
                self.state(txn)["read_keys"].discard(key)
            raise

    monkeypatch.setattr(SerializableSnapshotIsolation, "_snapshot_read", filed_after_the_checks)
    looks, rows = sweep("micro/ssi-2layer"), {row.structure: row for row in ROWS}
    assert violations(looks, rows["ssi._readers, pivot-aborted reads"])
    assert violations(looks, rows["ssi._readers"])


@pytest.mark.parametrize("tree", sorted(CONFORMANCE_TREES))
def test_a_drained_conformance_tree_holds_nothing_per_transaction(tree):
    engine = run_conformance_tree(tree)
    assert engine.active == {} and engine.stats.commits > 0 and engine.bad_misses == []
    looked, growing = {"drained": look(as_run(engine), 6)}, {row for row, _cell in GROWTH}
    assert [row for row in ROWS if str(row) not in growing and violations(looked, row)] == []


def test_the_census_figures_keep_their_old_bounds(looks):
    reference_looks = {name: looks(f"reference {name}") for name in REFERENCE}
    assert [entry[:4] for entry in census_figures(reference_looks) if not entry[4]] == []


def test_the_log_holds_only_what_recovery_reads(looks):
    """The precommit record is the log's only redo record: one per
    participant, retransmits included."""
    for name in ("smallbank/3layer durable", "smallbank/3layer net-faults"):
        figures = looks(f"reference {name}")[1200]
        assert {record[KIND] for record in figures["records"]} == {"precommit"}
        participants = defaultdict(list)
        for record in figures["records"]:
            participants[record[TXN_ID]].append(record_body(record)[0])
        assert len(participants) >= figures["commits"]
        assert all(counts == [len(counts)] * len(counts) for counts in participants.values())


def test_the_scan_registries_and_range_managers():
    # dequeue and sweep scan through the cross-group 2PL node and the
    # consumer leaf; the producer leaf routes only enqueue.
    assert range_managers_held("queue/3layer") == ["0.1", "0.1.1"]
    assert range_managers_held("tpcc/tebaldi-3layer") == []
    registries = [r for t in SCAN_DRAIN_TREES for r in scan_registries(run_conformance_tree(t))]
    assert len(registries) == 13 and not any(registries)


# -- release ≡ never release ------------------------------------------------------------

TWIN_CELLS = {
    "tpcc/3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer, 12, 300),
    "smallbank/3layer": (_smallbank, configs.smallbank_3layer, 12, 1200),
    "ycsb-scan/2layer": (_scan, configs.ycsb_2layer, 10, 1000),
    "ycsb-zipf/batch": (_zipf, TREES["ycsb"]["batch"], 16, 1000),
    "micro/ssi-2layer": (_micro, configs.micro_ssi_2layer, 8, 400),
}
SWAP = {
    KeepEveryVersionStore: (runner_module, "MultiVersionStore"),
    KeepEveryRecordLockTable: (two_phase_locking, "LockTable"),
    NeverPruneRecorder: (runner_module, "HistoryRecorder"),
}


def _fields(report):
    return (report.ok, report.serializable, report.cycles, report.num_edges,
            report.num_transactions, report.aborted_reads, report.intermediate_reads,
            report.edges_into_pruned, report.reads_below_trimmed)


def _kept(engine, recorder):
    """What the twins keep: finished transactions (and all there were),
    committed versions and keys, lock records, the oracle's committed ids
    and version-order entries."""
    chains, checker = engine.store._committed.values(), recorder and recorder.streaming_checker
    return SimpleNamespace(
        finished=len(engine.finished), all=engine.stats.commits + engine.stats.aborts,
        versions=sum(map(len, chains)), keys=len(chains),
        locks=sum(len(cc.locks._locks) for _n, cc in mechanisms(engine)
                  if isinstance(vars(cc).get("locks"), LockTable)),
        committed=checker and len(checker._committed),
        order=checker and sum(map(len, checker._writers.values())))


#: twin -> what shows, mid-run on a cell and drained on a conformance tree,
#: that it kept what the structure let go of (``r`` released, ``k`` kept).
KEPT_MORE = {
    KeepEverythingEngine: ("k.finished == k.all and r.finished < r.all // 2",
                           "k.finished == k.all == 60 and r.finished < k.finished"),
    KeepEveryVersionStore: ("k.versions - r.versions > (k.versions - k.keys) // 4 > 0",
                            "r.versions < k.versions"),
    KeepEveryRecordLockTable: ("0 < 4 * r.locks < k.locks", "r.locks == 0 < k.locks"),
    NeverPruneRecorder: ("r.committed < k.committed and r.order < k.order", None),
}


def _twin_runs(twin, run, monkeypatch, drained):
    """``run(engine_class, swapped)`` without and with ``twin`` in place,
    each returning its outcome and :func:`_kept`: the outcomes must match,
    and the twin must have kept what the other let go of."""
    runs = []
    for swapped in (False, True):
        if swapped and twin in SWAP:
            monkeypatch.setattr(*SWAP[twin], twin)
        engine_class = twin if swapped and twin is KeepEverythingEngine else ReadLogEngine
        runs.append(run(engine_class, swapped))
    (released, r), (kept, k) = runs
    if twin is KeepEverythingEngine:  # whose reads nobody logs
        released, kept = released[:-1], kept[:-1]
    assert released == kept
    assert eval(KEPT_MORE[twin][drained], {}, {"r": r, "k": k}), (vars(r), vars(k))
    return released


@pytest.mark.parametrize("twin, cell", [
    *((KeepEverythingEngine, cell) for cell in TWIN_CELLS),
    # Nothing is ever superseded on the scan cell (it only inserts).
    *((KeepEveryVersionStore, cell) for cell in TWIN_CELLS if cell != "ycsb-scan/2layer"),
    (KeepEveryRecordLockTable, "tpcc/3layer"), (KeepEveryRecordLockTable, "smallbank/3layer"),
    (NeverPruneRecorder, "smallbank/3layer"), (NeverPruneRecorder, "micro/ssi-2layer"),
], ids=lambda value: getattr(value, "__name__", value))
def test_release_equals_never_release(twin, cell, monkeypatch):
    """Every commit, abort, read (what each returned) and verdict, and the
    final state, are those of the twin that never lets go; what each kept is
    compared at the commit count, the outcomes once drained."""
    workload, tree, clients, commits = TWIN_CELLS[cell]

    def run(engine_class, _swapped):
        # Checked where reads or verdicts are compared: under a recorder
        # every transaction records its reads.
        runner = build(workload(), tree(), engine_class, seed=11,
                       check_isolation=twin in (KeepEveryVersionStore, NeverPruneRecorder))
        kept = sample_run(runner, clients, (commits,), figures=lambda sample: {
            "kept": _kept(sample.engine, runner.recorder)})[commits]["kept"]
        stats, recorder = runner.engine.stats, runner.recorder
        verdict = recorder and (_fields(runner.check_isolation()), recorder.duplicate_commits)
        return (stats.commits, stats.aborts, dict(stats.abort_reasons), _digest(runner.store),
                verdict, getattr(runner.engine, "read_log", None)), kept

    assert _twin_runs(twin, run, monkeypatch, drained=False)[0] >= commits


@pytest.mark.parametrize("twin, tree", [
    *((KeepEverythingEngine, tree) for tree in ("rp/(rp,rp)", "mono-tso", "mono-occ")),
    *((KeepEveryVersionStore, tree)
      for tree in ("rp/(rp,rp)", "mono-tso", "mono-occ", "mono-ssi", "ssi/(none,2pl)")),
    (KeepEveryRecordLockTable, "2pl/(rp,rp)"),
], ids=lambda value: getattr(value, "__name__", value))
def test_release_equals_never_release_on_a_conformance_tree(twin, tree, monkeypatch):
    def run(engine_class, swapped):
        store = twin if swapped and twin is KeepEveryVersionStore else MultiVersionStore
        engine = run_conformance_tree(tree, engine_class, store)
        stats = engine.stats
        return ((stats.summary()["per_type"], stats.aborts, _digest(engine.store),
                 getattr(engine, "read_log", None)), _kept(engine, None))

    assert _twin_runs(twin, run, monkeypatch, drained=True)[0]


RECORDERS = (HistoryRecorder, NeverPruneRecorder, RecordingRecorder)


@pytest.mark.parametrize("lanes", [None, 2, 3])
@pytest.mark.parametrize("tree", sorted(CONFORMANCE_TREES))
def test_recorders_agree_on_every_conformance_tree(tree, lanes):
    """The oracle that forgets, the one that never does and a lane's, which
    keeps commit records, give the same report: the verdict reads no record
    and a forgotten node is one no later edge reaches."""
    held = {recorder_class: Counter() for recorder_class in RECORDERS}
    for seed in range(8):
        reports = []
        for recorder_class in RECORDERS:
            report, _commits, recorder = run_conformance(
                tree, random_requests(seed, 10), lanes, recorder_class
            )
            reports.append((_fields(report), recorder.duplicate_commits))
            checker = recorder.streaming_checker
            held[recorder_class].update(
                nodes=len(checker.detector._ord), committed=len(checker._committed),
                order=sum(map(len, checker._writers.values())), aborted=len(checker._aborted),
            )
        assert reports[0] == reports[1] == reports[2] and reports[0][0][0], f"seed {seed}"
    # Ten requests seldom write a key three times, so the orders and the
    # aborted ids may match (the checked twins above trim both).
    forgot, kept = held[HistoryRecorder], held[NeverPruneRecorder]
    assert forgot["nodes"] < kept["nodes"] and forgot["committed"] < kept["committed"]
    assert forgot["order"] <= kept["order"] and forgot["aborted"] <= kept["aborted"]


@pytest.mark.parametrize("replay, schedule", [
    *((lambda s, r: replay_conformance(*s, recorder_class=r)[0], s)
      for s in conformance.TestOpenFamilies.CONFORMANCE),
    *((lambda s, r: run_micro_schedule(*s, recorder_class=r)[1], s)
      for s in conformance.TestOpenFamilies.MICRO),
], ids=str)
def test_open_families_fail_through_their_cycle_under_every_recorder(replay, schedule):
    reports = [replay(schedule, recorder_class) for recorder_class in RECORDERS]
    assert _fields(reports[0]) == _fields(reports[1]) == _fields(reports[2])
    assert not reports[0].ok and reports[0].cycles and reports[0].edges_into_pruned == []


@pytest.mark.parametrize("site", SITES)
def test_recovery_from_image_and_tail_equals_the_full_log(site, monkeypatch):
    """At every crash site, recovery from the image plus the tail gives the
    never-folding log's ``RecoveryResult``, crash report for crash report."""
    recover, crash = DurabilityManager.recover, DurabilityManager.crash
    occurrence = {"precommit-record": 2500, "precommit-done": 2000, "gcp-server": 10}.get(site, 3)
    runs = {}
    for log_class in (WriteAheadLog, NeverFoldLog):
        recoveries, folded_at_crash = [], []

        def spying_crash(manager):
            folded_at_crash.append(sum(_log_held(log)[1] for log in manager.logs))
            crash(manager)

        def recording_recover(manager):
            recoveries.append(recover(manager))
            return recoveries[-1]

        monkeypatch.setattr(durability_module, "WriteAheadLog", log_class)
        monkeypatch.setattr(DurabilityManager, "recover", recording_recover)
        monkeypatch.setattr(DurabilityManager, "crash", spying_crash)
        lane = CrashLane(FaultPlan((CrashPoint(site, occurrence),)), durability=FOLDING)
        runner = BenchmarkRunner(_smallbank(), configs.smallbank_3layer(), seed=7, lanes=[lane])
        try:
            result = runner.run(CLIENTS, duration=0.25, warmup=0.0)
        finally:
            runner.stop()
        assert result.extra["isolation"].ok
        runs[log_class] = recoveries, result.crashes, result.commits, folded_at_crash
    folding, never = runs[WriteAheadLog], runs[NeverFoldLog]
    assert folding[:3] == never[:3]
    (recovered,), (crash_report,) = folding[0], folding[1]
    assert crash_report.site == site and len(recovered.recovered_transactions) > 1200
    # Not vacuous: the folding run's crash came after two folds.
    assert folding[3][0] >= 2 * FOLDING.num_servers and never[3] == [0]


# -- one row and one key object per key, and what needs no service --------------------------


def test_an_active_straggler_keeps_what_it_can_still_read(env):
    """Nothing a live transaction overlapped goes, and it goes — on the next
    write of the key — once the straggler has finished."""
    engine = build_engine(env, _micro(), TREES["micro"]["2pl"]())
    args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}

    def overwrite(times):
        outcomes, _ = run_transactions(env, engine, [("group_a_update", args)] * times, lanes=1)
        assert all(txn.committed for txn in outcomes)
        return [version.writer for version in engine.store.committed_versions(("shared", 0))]

    assert overwrite(2) == [1, 2]
    straggler = engine.begin("group_b_update", args)
    # Whoever finishes while the straggler runs is retained, and so is what
    # each of them superseded; 2 finished before it began, so 1 went.
    assert overwrite(4) == [2, 4, 5, 6, 7] and list(engine.finished) == [4, 5, 6, 7]
    engine._finish_abort(straggler, "done")
    assert engine.finished == {} and len(overwrite(1)) == 2


@pytest.mark.parametrize("commits", [0, 100, 1200])
def test_database_prunes_without_services(commits):
    """``Database`` starts no services, and needs none — over a batching root
    too, where one group B transaction is followed only by group A: B's
    batch closes when its one member finishes, or its hold would keep every
    later finish, every SIREAD entry and every version the shared row had."""
    args = {"shared_id": 0, "local_id": 0, "cold_ids": [1]}
    db = Database(_micro(), configs.micro_ssi_2layer() if commits else TREES["micro"]["2pl"]())
    if not commits:
        for _ in range(20):
            db.execute("group_a_update", **args)
        assert read_row(db, "shared", 0) == {"value": 20}
        assert [v.value["value"] for v in db.store.committed_versions(("shared", 0))] == [19, 20]
        return
    engine, peak = db.engine, (0, 0)
    db.execute("group_b_update", **args)
    for _ in range(commits):
        db.execute("group_a_update", **args)
        readers = set().union(*engine.root.cc._readers.values())
        assert readers <= set(engine.active) | set(engine.finished)
        peak = tuple(map(max, peak, (len(engine.finished), len(engine.root.cc._readers))))
    # One at a time, the last finish waits only for the next retire, and
    # until then SSI keeps that one reader's read set: its three keys.
    finished, read_keys = peak
    assert db.stats.commits == commits + 1 and finished <= 1 and 0 < read_keys <= 3
    assert engine._holds == {} and len(engine.finished) == 1
    assert len(db.store.committed_versions(("shared", 0))) == 3


def test_a_key_written_once_costs_its_list_and_its_version():
    store = MultiVersionStore()
    store.load(("t", -1), {"v": 0})
    store.range_keys("t")                   # the table's index exists
    writer = Transaction(txn_id=1, txn_type="w")
    counts = []
    for insert in (lambda pk: store.load(("t", pk), {"v": pk}),
                   lambda pk: store.install(("t", 1000 + pk), {"v": pk}, writer)):
        gc.collect()
        before = len(gc.get_objects())
        for pk in range(500):
            insert(pk)
        store.commit_transaction(writer)
        gc.collect()
        counts.append(len(gc.get_objects()) - before)
    assert counts == [1000, 1000]
    # A version is a fixed header plus its row: no container of its own.
    version = store.install(("t", 1), {"v": 1}, Transaction(txn_id=2, txn_type="w"))
    assert [ref for ref in gc.get_referents(version) if isinstance(ref, (dict, list, set, tuple))
            and ref is not version.key and ref is not version.value] == []


def test_population_leaves_no_catalog_and_versions_share_their_keys_object(monkeypatch):
    workload, built = _tiny_tpcc(), []
    build_catalog = workload.build_catalog
    monkeypatch.setattr(workload, "build_catalog",
                        lambda: built.append(build_catalog()) or built[-1])
    runner = BenchmarkRunner(workload, configs.tpcc_tebaldi_3layer(), seed=11)
    try:
        catalog = weakref.ref(built.pop())
        runner.run(12, duration=0.3, warmup=0.0)
        assert catalog() is None and runner.engine.stats.commits > 0
        assert [key for key, chain in runner.store._committed.items()
                if any(version.key is not key for version in chain)] == []
    finally:
        runner.stop()


def test_engine_options_have_no_retention_knob():
    assert [option.name for option in fields(EngineOptions)] == [
        "lock_timeout", "commit_wait_timeout", "charge_costs", "durability",
    ]


# -- records for a reader or a lane, and late resolution -------------------------------------


def test_only_a_reader_gets_a_record_per_read():
    """A transaction records its reads and scans only on a route through a
    mechanism that validates them (OCC) or under a history recorder."""
    for name, checked in (("tpcc/3layer", False), ("ycsb-scan/2layer", False),
                          ("smallbank/3layer", True)):
        workload, tree, _clients, commits = TWIN_CELLS[name]
        runner = build(workload(), tree(), ReadLogEngine, check_isolation=checked)
        sample_run(runner, CLIENTS, (commits,))
        log = runner.engine.read_log.values()
        committed = [entry for entry in log if entry[1]]
        if checked:  # the recorder reads them: one record per read and per scan
            assert sum(entry[2] for entry in committed) > 900
            assert all(len(entry[4]) == entry[2] and entry[5] == entry[3] for entry in committed)
        else:
            assert sum(entry[2] for entry in committed) > 4 * len(committed) > 100
            assert {entry[4:] for entry in log} == {(None, None)}
    engine = build_engine(
        Environment(), ConformanceWorkload(),
        Configuration(node("2pl", leaf("occ", "alpha"), leaf("2pl", "beta", "reader"))),
        options=EngineOptions(charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4),
        engine_class=ReadLogEngine,
    )
    engine.history_recorder = None
    rng = random.Random(99)
    requests = [ConformanceWorkload().next_transaction(rng) for _ in range(60)]
    run_transactions(engine.env, engine, requests, lanes=6)
    by_type = defaultdict(list)
    for txn_type, committed, reads, scans, records, scan_records in engine.read_log.values():
        if committed:
            by_type[txn_type].append((reads, scans, records and len(records), scan_records))
    assert sorted(by_type) == ["alpha", "beta", "reader"]
    assert all(row[:2] == row[2:] and row[0] for row in by_type["alpha"])
    assert all(row[2:] == (None, None) for row in by_type["beta"] + by_type["reader"])


@pytest.mark.parametrize("cc, records", [("occ", True), ("2pl", False)])
def test_a_partitioned_leaf_records_as_its_mechanism_does(cc, records):
    engine = build_engine(Environment(), ConformanceWorkload(),
                          Configuration(leaf(cc, *TXN_TYPES, instance_key=lambda args: 0)))
    assert engine.root.cc is None and engine.root.instances == {}
    assert {route.records_reads for route in engine._routes.values()} == {records}
    run_transactions(engine.env, engine, [("alpha", {"ops": [("r", 1)]})])
    (partition,) = engine._routes["alpha"].partitions.values()
    assert partition.records_reads is records


def test_a_recorder_attached_after_a_begin_is_refused():
    # Without the refusal the begun transaction would commit with no reads
    # and the oracle pass without having looked.  A crash lane's rebuilt
    # engine starts at a later id, and attaches first.
    workload, store = ConformanceWorkload(), MultiVersionStore()
    workload.populate(store)
    engine = TebaldiEngine(Environment(), CONFORMANCE_TREES["mono-2pl"](),
                           workload.transaction_types(), store=store, txn_id_start=50)
    engine.history_recorder = HistoryRecorder()
    engine.history_recorder = None
    engine.begin("alpha")
    with pytest.raises(ConfigurationError, match="before the first begin"):
        engine.history_recorder = HistoryRecorder()
    assert engine.history_recorder is None


def test_only_a_lane_keeps_commit_records_and_they_are_flat():
    """A plain checked run refuses ``history()`` rather than hand out an
    empty one.  A lane's recorder keeps every record and the whole orders
    its checks read (``history()``, the crash stitch's ``seq_of``), and its
    records and the log are data the cyclic collector cannot see: tracked
    objects grow by less than one per commit (17.5 before they were flat)."""
    recorder = HistoryRecorder()
    recorder.on_abort(Transaction(txn_id=-1, txn_type="w"))
    assert -1 in recorder.streaming_checker._aborted and recorder._aborted_ids is None
    db = Database(_smallbank(), configs.smallbank_3layer())
    db.execute("deposit_checking", c_id=3, amount=50.0)
    assert db.check_serializability().num_transactions == 1
    for plain in (recorder, db.engine.history_recorder):
        with pytest.raises(ValueError, match="no commit records"):
            plain.history()
    runner = BenchmarkRunner(
        _smallbank(), configs.smallbank_3layer(), seed=7, lanes=(Lane(),),
        options=EngineOptions(durability=DurabilityConfig(enabled=True)),
    )
    try:
        runner.add_clients(CLIENTS)
        tracked = []
        for target in (1200, 4800):
            while runner.engine.stats.commits < target:
                runner.run_additional(0.01)
            for _ in range(4):
                gc.collect()
            tracked.append((runner.engine.stats.commits, len(gc.get_objects())))
        (c0, t0), (c1, t1) = tracked
        assert (t1 - t0) / (c1 - c0) < 1
        recorder = runner.recorder
        checker, history = recorder.streaming_checker, recorder.history()
        assert len(recorder._records) == len(history) == recorder.recorded_commits
        versions = sum(len(txn.writes) for txn in history.transactions.values())
        assert sum(map(len, checker._writers.values())) == versions > 0
        assert len(checker._committed) == recorder.recorded_commits
        assert not any(writers[0] is None for writers in checker._writers.values())
        # A folded log is checkpoints plus one record of folded ids per server.
        runner.manager.advance_gcp_epoch()
        runner.run_additional(0.02)
        for _ in range(4):
            gc.collect()
        buffered = [r for log in runner.manager.logs for r in log._buffer]
        persisted = [r for log in runner.manager.logs for r in log.persisted_records()]
        kinds = Counter(record[KIND] for record in persisted)
        assert len(buffered) > 100 and kinds["checkpoint"] > 300
        assert kinds == {"checkpoint": kinds["checkpoint"], "folded": len(runner.manager.logs)}
        assert not any(map(gc.is_tracked, buffered + persisted))
        # The named exceptions: a record carrying a scan predicate or a
        # pipelined read whose Version is still awaiting its sequence.
        retained = list(recorder._records.values())
        flat = [r for r in retained if not r[1] and not any(isinstance(i, Version) for i in r)]
        assert len(retained) > 4800 and len(flat) > 0.9 * len(retained)
        assert not any(map(gc.is_tracked, flat))
    finally:
        runner.stop()


@pytest.mark.parametrize("writer_commits", [True, False])
@pytest.mark.parametrize("oracle", ["post-hoc", "streaming"])
def test_a_pipelined_read_resolves_late(oracle, writer_commits):
    """A committed read of a then-uncommitted version takes its writer's
    final sequence once the writer commits, and stays an aborted read if it
    aborts: a flat record must not freeze the missing sequence."""
    store, recorder = MultiVersionStore(), HistoryRecorder(records=True)
    writer = Transaction(txn_id=1, txn_type="w", reads=[])
    version = store.install(("x",), {"v": 1}, writer)
    reader = Transaction(txn_id=2, txn_type="r", reads=[ReadRecord(("x",), version)])
    recorder.on_commit(reader, [])        # the reader commits first
    if writer_commits:
        recorder.on_commit(writer, store.commit_transaction(writer))
    else:
        store.abort_transaction(writer)
        recorder.on_abort(writer)
    history = recorder.history()
    (read,) = history.transactions[2].reads
    report = check_history(history) if oracle == "post-hoc" else check_recorder(recorder)
    if writer_commits:
        assert read == (("x",), 1, version.commit_seq) and version.commit_seq is not None
        assert report.ok and report.num_edges == 1
    else:
        assert read == (("x",), 1, None) and report.aborted_reads == [(2, ("x",), 1)]


# -- the owner census and partition routes -----------------------------------------------------


def test_lock_records_are_booked_to_their_cc_node():
    """``bench_speed --profile``'s census: a finished transaction reaches
    every CC node of its route, which must not make their state its own."""
    runner = BenchmarkRunner(_tiny_tpcc(), configs.tpcc_tebaldi_3layer(), seed=7)
    try:
        runner.add_clients(CLIENTS)
        while runner.engine.stats.commits < 300:
            runner.run_additional(0.01)
        assert runner.engine.finished
        total, owners = census_by_owner(runner)
        records = Counter()
        for tree_node, cc in mechanisms(runner.engine):
            if hasattr(cc, "locks"):
                records[f"cc node {tree_node.node_id}"] += len(cc.locks._locks)
        assert sum(records.values()) > 0 and sum(owners.values()) == total
        assert all(owners[owner] >= count for owner, count in records.items()), owners
    finally:
        runner.stop()


#: A route's hook tables (``select_version`` is the one single hook).
HOOK_TABLES = (
    "read_hooks", "update_read_hooks", "write_hooks", "scan_hooks", "amend_hooks",
    "after_write_hooks", "start_hooks", "validate_hooks", "pre_commit_hooks", "finish_hooks",
)


def _seats_run(engine, seed, count=300):
    """``count`` SEATS requests from ``seed`` over ``engine``'s per-flight
    partitioned tree: the requests and the commits."""
    rng = random.Random(seed)
    workload = SEATSWorkload(flights=100, seats_per_flight=20, customers=50)
    requests = [workload.next_transaction(rng) for _ in range(count)]
    outcomes, _ = run_transactions(engine.env, engine, requests, lanes=8)
    return requests, [txn for txn in outcomes if isinstance(txn, Transaction)]


def _seats_engine():
    workload = SEATSWorkload(flights=100, seats_per_flight=20, customers=50)
    engine = build_engine(Environment(), workload, configs.seats_3layer())
    (partitioned,) = [n for n in engine.nodes if n.instances is not None]
    return engine, partitioned


def test_a_partitioned_leaf_builds_what_a_run_touched_and_binds_it():
    """One instance per partition value a run touched and a route per (type,
    value) bound to that instance's own hooks; the type's route builds none
    (a forwarding wrapper used to call the instance from every hook)."""
    engine, partitioned = _seats_engine()
    types, key = partitioned.spec.transactions, partitioned.spec.instance_key
    assert partitioned.cc is None and partitioned.instances == {}
    requests, committed = _seats_run(engine, seed=5)
    touched = {key(args) for txn_type, args in requests if txn_type in types}
    assert 1 < len(touched) < 100 and set(partitioned.instances) == touched
    assert all(len(engine._routes[txn_type].partitions) <= len(touched) for txn_type in types)
    ancestors = {id(n.cc) for n in partitioned.path_from_root()[:-1]}
    checked = [txn for txn in committed if txn.txn_type in types]
    for txn in checked:
        hooks = [hook for table in HOOK_TABLES for hook in getattr(txn.charges, table)]
        bound = {id(hook.__self__) for hook in hooks + [txn.charges.select_version]
                 if hasattr(hook, "__self__")}  # a refusal is a plain function
        instance = partitioned.instances[key(txn.args)]
        assert id(instance) in bound and bound <= ancestors | {id(instance)}
    assert len(checked) > 50


def test_a_splice_beside_a_partitioned_leaf_keeps_its_instances_and_rebuilds_routes():
    engine, partitioned = _seats_engine()
    _seats_run(engine, seed=6, count=100)
    instances, built = partitioned.instances, dict(partitioned.instances)
    new_config = engine.configuration.clone(name="occ-customers")
    new_config.leaf_for("update_customer").cc = "occ"
    engine.env.run(until=engine.env.process(engine.reconfigure_online(new_config)))
    assert partitioned in engine.nodes and partitioned.instances is instances
    assert instances == built
    (customers,) = [n for n in engine.nodes if n.spec.transactions == ("update_customer",)]
    assert customers.cc.name == "occ"
    types = partitioned.spec.transactions
    assert all(engine._routes[txn_type].partitions == {} for txn_type in types)
    _seats_run(engine, seed=7, count=100)
    rebuilt = [(v, r) for t in types for v, r in engine._routes[t].partitions.items()]
    assert rebuilt
    for value, route in rebuilt:
        # Bottom-up: the leaf's own validate runs first.
        assert route.validate_hooks[0].__self__ is instances[value]
