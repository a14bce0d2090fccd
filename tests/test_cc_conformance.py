"""CC conformance fuzz suite: random histories vs every registered CC tree.

Every CC mechanism (and the hierarchical compositions the registry builds
from them) must keep randomly generated concurrent histories — point reads,
writes, read-modify-writes and *range scans* — serializable under the
streaming isolation oracle.  Three layers:

* a Hypothesis fuzzer drawing random multi-transaction schedules and a
  random tree per example;
* a deterministic seeded sweep replaying a fixed workload against *every*
  tree (marked ``slow``: the CI fast lane skips it, the full lane and the
  local tier-1 run keep it);
* a pinned regression corpus of previously-found counterexample shapes
  (scan skew, write skew, G1c, the queue enqueue/dequeue race, the
  RP-over-RP cross-group stale read), replayed against every tree on every
  run.

Everything in the registry's vocabulary is in: cross-group RP-over-RP trees
(whose stale-read corner is now closed — see ``TestRpOverRpStaleRead`` for
the pinned multi-step adversary) and the deterministic batch trees included.
What random draws found since is at the end, as plain seed tuples: the two
stale mirrors that were fixed (``TestStaleMirrorAdversaries``), the
timestamp batches that outlived their members
(``TestBatchEndsWithItsLastMember``), the families that are still open
(``TestOpenFamilies``, strict xfail) and the shapes that no longer build
(``TestRejectedAtBuildTime``).
"""

import random
import re

import pytest
from hypothesis import given, note, settings, strategies as st

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.core.config import Configuration, leaf, monolithic, node
from repro.core.engine import EngineOptions
from repro.errors import ConfigurationError, TransactionAborted
from repro.isolation.checker import check_recorder
from repro.isolation.history import HistoryRecorder
from repro.sim.environment import Environment
from repro.storage.tables import Catalog, Table, TableSchema
from repro.workloads.base import Workload
from repro.workloads.micro import CrossGroupConflictWorkload
from tests.conftest import (
    OverlapAuditEngine,
    RecordingRecorder,
    build_engine,
    run_transactions,
    think,
)
from tests.reference_checker import check_history

TXN_TYPES = ("alpha", "beta", "reader")
KEYSPACE = 8          # loaded keys 0..7
INSERT_SPACE = 16     # writes may create keys up to 15 (phantom sources)


def _declared_writes(args):
    """Write keys of a scripted transaction, computed from the args alone."""
    return [("rows", op[1]) for op in args["ops"] if op[0] in ("w", "u")]


def _declared_ranges(args):
    """Scan ranges of a scripted transaction, computed from the args alone."""
    return [("rows", op[1], op[2]) for op in args["ops"] if op[0] == "scan"]


class ConformanceWorkload(Workload):
    """One table, three transaction types, ops scripted through args."""

    name = "cc-conformance"

    def build_catalog(self):
        rows = Table(TableSchema("rows", ("id",)))
        for pk in range(KEYSPACE):
            rows.insert((pk,), {"v": pk})
        return Catalog([rows])

    def _run_ops(self, ctx, ops):
        total = 0
        for op in ops:
            kind = op[0]
            if kind == "r":
                row = yield from ctx.read("rows", op[1])
                total += (row or {}).get("v", 0)
            elif kind == "w":
                yield from ctx.write("rows", op[1], row={"v": op[2]})
            elif kind == "u":
                yield from ctx.update(
                    "rows", op[1], updates={"v": lambda v: (v or 0) + 1}
                )
            elif kind == "scan":
                matches = yield from ctx.scan("rows", lo=op[1], hi=op[2])
                total += sum((row or {}).get("v", 0) for _pk, row in matches)
            else:  # pragma: no cover - strategy bug guard
                raise ValueError(f"unknown op {op!r}")
        return total

    def build_transaction_types(self):
        types = {}
        for name in TXN_TYPES:
            read_only = name == "reader"
            accesses = (
                (("rows", "r"),) if read_only else (("rows", "r"), ("rows", "w"))
            )
            types[name] = TransactionType(
                name=name,
                procedure=self._run_ops,
                profile=TransactionProfile(
                    name=name,
                    accesses=accesses,
                    read_only=read_only,
                    # The scripted ops ride in the args, so the write set and
                    # the scanned ranges are declarable — which is what lets
                    # the deterministic batch trees join the conformance
                    # sweep (their sequencer pre-assigns version slots from
                    # these declarations).
                    promise_keys=None if read_only else _declared_writes,
                    scan_ranges=_declared_ranges,
                ),
            )
        return types

    def generate_args(self, rng, txn_type):
        ops = []
        for _ in range(rng.randint(1, 5)):
            ops.append(random_op(rng, read_only=txn_type == "reader"))
        return {"ops": ops}


def random_op(rng, read_only=False):
    kinds = ("r", "scan") if read_only else ("r", "w", "u", "scan")
    kind = rng.choice(kinds)
    if kind == "r":
        return ("r", rng.randrange(KEYSPACE))
    if kind == "w":
        return ("w", rng.randrange(INSERT_SPACE), rng.randrange(100))
    if kind == "u":
        return ("u", rng.randrange(KEYSPACE))
    lo = rng.randrange(INSERT_SPACE)
    return ("scan", lo, lo + rng.randint(0, 5))


#: Every CC tree shape the conformance suite holds to the oracle — the
#: cross-group RP-over-RP trees and the deterministic batch trees included.
CONFORMANCE_TREES = {
    "mono-2pl": lambda: monolithic("2pl", TXN_TYPES, name="conf-2pl"),
    "mono-ssi": lambda: monolithic("ssi", TXN_TYPES, name="conf-ssi"),
    "mono-occ": lambda: monolithic("occ", TXN_TYPES, name="conf-occ"),
    "mono-tso": lambda: monolithic("tso", TXN_TYPES, name="conf-tso"),
    "mono-rp": lambda: monolithic("rp", TXN_TYPES, name="conf-rp"),
    "2pl/(rp,rp)": lambda: Configuration(
        node("2pl", leaf("rp", "alpha"), leaf("rp", "beta", "reader")),
        name="conf-2pl-rp-rp",
    ),
    "ssi/(none,2pl)": lambda: Configuration(
        node("ssi", leaf("none", "reader"), leaf("2pl", "alpha", "beta")),
        name="conf-ssi-none-2pl",
    ),
    # Three read-only-optimised SSI roots (one update child group): the
    # last is the shape of the TPC-C and SmallBank flagship trees.
    "ssi/(none,rp)": lambda: Configuration(
        node("ssi", leaf("none", "reader"), leaf("rp", "alpha", "beta")),
        name="conf-ssi-none-rp",
    ),
    "ssi/(none,2pl/(rp,2pl))": lambda: Configuration(
        node(
            "ssi",
            leaf("none", "reader"),
            node("2pl", leaf("rp", "alpha"), leaf("2pl", "beta")),
        ),
        name="conf-ssi-none-2pl-rp-2pl",
    ),
    "ssi/(2pl,2pl)": lambda: Configuration(
        node("ssi", leaf("2pl", "alpha", "reader"), leaf("2pl", "beta")),
        name="conf-ssi-2pl-2pl",
    ),
    "ssi/(rp,2pl)": lambda: Configuration(
        node("ssi", leaf("rp", "alpha"), leaf("2pl", "beta", "reader")),
        name="conf-ssi-rp-2pl",
    ),
    "2pl/(2pl,tso)": lambda: Configuration(
        node("2pl", leaf("2pl", "alpha", "reader"), leaf("tso", "beta")),
        name="conf-2pl-2pl-tso",
    ),
    "rp/(rp,rp)": lambda: Configuration(
        node("rp", leaf("rp", "alpha"), leaf("rp", "beta", "reader")),
        name="conf-rp-rp-rp",
    ),
    "rp/(rp,2pl)": lambda: Configuration(
        node("rp", leaf("rp", "alpha", "reader"), leaf("2pl", "beta")),
        name="conf-rp-rp-2pl",
    ),
    "mono-batch": lambda: monolithic("batch", TXN_TYPES, name="conf-batch"),
    "ssi/(none,batch)": lambda: Configuration(
        node("ssi", leaf("none", "reader"), leaf("batch", "alpha", "beta")),
        name="conf-ssi-none-batch",
    ),
    "2pl/(batch,2pl)": lambda: Configuration(
        node("2pl", leaf("batch", "alpha"), leaf("2pl", "beta", "reader")),
        name="conf-2pl-batch-2pl",
    ),
    "ssi/(batch,batch)": lambda: Configuration(
        node("ssi", leaf("batch", "alpha", "reader"), leaf("batch", "beta")),
        name="conf-ssi-batch-batch",
    ),
}


#: Two TSO leaves under a lock-based parent.  Not in ``CONFORMANCE_TREES``:
#: with this workload's scans and read-only type they are not oracle-green
#: yet (``TestOpenFamilies``), though ``rp/(tso,tso)`` is the tree autoconf
#: picks for TPC-C.
OPEN_TREES = {
    "2pl/(tso,tso)": lambda: Configuration(
        node("2pl", leaf("tso", "alpha"), leaf("tso", "beta", "reader")),
        name="conf-2pl-tso-tso",
    ),
    "rp/(tso,tso)": lambda: Configuration(
        node("rp", leaf("tso", "alpha"), leaf("tso", "beta", "reader")),
        name="conf-rp-tso-tso",
    ),
}

#: Shapes the oracle showed unsound, which the composition rules now refuse
#: to build (``TestRejectedAtBuildTime``).
REJECTED_TREES = {
    "rp/(ssi,tso)": lambda: Configuration(
        node("rp", leaf("ssi", "alpha", "reader"), leaf("tso", "beta")),
        name="conf-rp-ssi-tso",
    ),
    "rp/(tso,ssi)": lambda: Configuration(
        node("rp", leaf("tso", "alpha"), leaf("ssi", "beta", "reader")),
        name="conf-rp-tso-ssi",
    ),
    "tso/(2pl,2pl)": lambda: Configuration(
        node("tso", leaf("2pl", "alpha", "reader"), leaf("2pl", "beta")),
        name="conf-tso-2pl-2pl",
    ),
}

#: Every tree a ``(tree, seed, count, lanes)`` tuple may name.
ALL_TREES = {**CONFORMANCE_TREES, **OPEN_TREES, **REJECTED_TREES}


def run_conformance(tree_name, requests, lanes=None, recorder_class=HistoryRecorder):
    """Run scripted transactions under a tree; return the oracle report.

    The engine audits its own retention on the way (see
    :class:`~tests.conftest.OverlapAuditEngine`); with ``lanes`` the requests
    run as that many sequential streams, so transactions finish and are
    released while later ones are still to come.  ``recorder_class`` swaps
    the oracle's recorder (the pruning pins compare one that never prunes).
    """
    workload = ConformanceWorkload()
    env = Environment()
    engine = build_engine(
        env,
        workload,
        ALL_TREES[tree_name](),
        options=EngineOptions(
            charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
        ),
        engine_class=OverlapAuditEngine,
        recorder_class=recorder_class,
    )
    recorder = engine.history_recorder
    outcomes, _processes = run_transactions(env, engine, requests, lanes=lanes)
    assert not engine.bad_misses, f"{tree_name}: released too early {engine.bad_misses}"
    report = check_recorder(recorder)
    committed = sum(1 for o in outcomes if not isinstance(o, TransactionAborted))
    return report, committed, recorder


def random_requests(seed, count):
    """``count`` scripted requests from ``random.Random(seed)`` — what a
    ``(tree, seed, count, lanes)`` tuple of the fuzz test replays."""
    rng = random.Random(seed)
    requests = []
    for _ in range(count):
        name = rng.choice(TXN_TYPES)
        ops = [
            random_op(rng, read_only=name == "reader")
            for _ in range(rng.randint(1, 5))
        ]
        requests.append((name, {"ops": ops}))
    return requests


def replay_conformance(tree_name, seed, count, lanes, recorder_class=HistoryRecorder):
    """A ``(tree, seed, count, lanes)`` tuple: the report and the commits."""
    report, committed, _recorder = run_conformance(
        tree_name, random_requests(seed, count), lanes, recorder_class
    )
    return report, committed


class TestConformanceFuzz:
    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_histories_stay_serializable(self, data):
        """Random multi-key histories (scans included) pass the oracle."""
        tree_name = data.draw(st.sampled_from(sorted(CONFORMANCE_TREES)))
        seed = data.draw(st.integers(0, 10_000))
        count = data.draw(st.integers(min_value=3, max_value=12))
        lanes = data.draw(st.sampled_from([None, 2, 3]))
        note(f"(tree, seed, count, lanes) = {(tree_name, seed, count, lanes)!r}")
        report, _committed = replay_conformance(tree_name, seed, count, lanes)
        assert report.ok, f"{tree_name}: {report.describe()}"

    @pytest.mark.slow
    @pytest.mark.parametrize("tree_name", sorted(CONFORMANCE_TREES))
    def test_seeded_sweep_every_tree(self, tree_name):
        """A fixed seeded schedule replayed against every registered tree."""
        workload = ConformanceWorkload()
        rng = random.Random(1234)
        requests = [workload.next_transaction(rng) for _ in range(40)]
        report, committed, recorder = run_conformance(
            tree_name, requests, recorder_class=RecordingRecorder
        )
        assert report.ok, f"{tree_name}: {report.describe()}"
        assert committed > 0
        # Streaming and post-hoc reference passes agree on the same history.
        posthoc = check_history(recorder.history(), level="serializable")
        assert posthoc.ok == report.ok


# ---------------------------------------------------------------------------
# Pinned regression corpus: previously-found counterexample shapes
# ---------------------------------------------------------------------------

#: Each entry is a named list of (txn_type, ops).  These shapes have each
#: broken a CC implementation at some point (phantom scan skew broke SSI's
#: committed-reader retention during development); they are replayed against
#: every tree on every run so a regression cannot land silently.
REGRESSION_CORPUS = {
    "scan-skew": [
        ("alpha", [("scan", 0, 15), ("r", 0), ("r", 1), ("w", 3, 99)]),
        ("beta", [("r", 3), ("w", 12, 7)]),
    ],
    "write-skew": [
        ("alpha", [("r", 0), ("w", 1, 10)]),
        ("beta", [("r", 1), ("w", 0, 20)]),
    ],
    "g1c-exchange": [
        ("alpha", [("w", 0, 1), ("r", 1), ("w", 2, 1)]),
        ("beta", [("w", 1, 2), ("r", 0), ("w", 2, 2)]),
    ],
    "queue-race": [
        # Dequeue-shaped scan+consume racing an enqueue-shaped insert.
        ("alpha", [("u", 0), ("scan", 0, 10), ("w", 2, 0)]),
        ("beta", [("u", 1), ("w", 9, 1)]),
        ("reader", [("scan", 0, 10)]),
    ],
    "rmw-pileup": [
        ("alpha", [("u", 0), ("u", 1)]),
        ("beta", [("u", 1), ("u", 0)]),
        ("alpha", [("u", 0), ("scan", 0, 3)]),
    ],
}


class TestRegressionCorpus:
    @pytest.mark.parametrize("case", sorted(REGRESSION_CORPUS))
    @pytest.mark.parametrize("tree_name", sorted(CONFORMANCE_TREES))
    def test_corpus_case_passes_oracle(self, tree_name, case):
        requests = [
            (name, {"ops": list(ops)}) for name, ops in REGRESSION_CORPUS[case]
        ]
        report, _committed, _recorder = run_conformance(tree_name, requests)
        assert report.ok, f"{tree_name}/{case}: {report.describe()}"


# ---------------------------------------------------------------------------
# Pinned adversary: the cross-group RP-over-RP stale read
# ---------------------------------------------------------------------------


class TwoStepWorkload(Workload):
    """Two tables => two pipeline steps, so RP step-commits mid-transaction.

    The single-table :class:`ConformanceWorkload` collapses every RP group
    to one pipeline step, which is why random fuzzing never reached the
    RP-over-RP corner: the outer node's step-commit bookkeeping only fills
    when a transaction advances past a step while still active.  This
    workload's profiles access ``hot`` then ``tail``, giving every RP group
    two steps, and a ``think`` op controls the interleaving.
    """

    name = "two-step"
    #: One pipeline step per table, in this order.
    TABLES = ("hot", "tail")

    def build_catalog(self):
        tables = [Table(TableSchema(name, ("id",))) for name in self.TABLES]
        for table in tables:
            for pk in range(4):
                table.insert((pk,), {"v": pk})
        return Catalog(tables)

    def _run_ops(self, ctx, ops):
        total = 0
        for op in ops:
            kind = op[0]
            if kind == "r":
                row = yield from ctx.read(op[1], op[2])
                total += (row or {}).get("v", 0)
            elif kind == "w":
                yield from ctx.write(op[1], op[2], row={"v": op[3]})
            elif kind == "think":
                yield from think(op[1])
            elif kind == "abort":
                ctx.abort()
            else:  # pragma: no cover - script bug guard
                raise ValueError(f"unknown op {op!r}")
        return total

    def build_transaction_types(self):
        types = {}
        for name in ("alpha", "beta"):
            types[name] = TransactionType(
                name=name,
                procedure=self._run_ops,
                profile=TransactionProfile(
                    name=name,
                    accesses=tuple(
                        (table, mode) for table in self.TABLES for mode in "rw"
                    ),
                ),
            )
        return types

    def generate_args(self, rng, txn_type):
        return {"ops": []}


class TestRpOverRpStaleRead:
    """The closed cross-group RP-over-RP stale-read corner, pinned.

    History: T1 (group A) writes hot.0 and advances into the tail step,
    step-committing the write at both RP nodes.  T2 (group B) then writes
    hot.0 *and* hot.1 through the outer pipeline — its hot.0 supersedes
    T1's at the outer node — and advances.  T3 (group A) reads hot.1
    (T2's version: ordered after T2) and then hot.0: before the fix, the
    inner leaf proposed T1's step-committed hot.0 and the outer amend
    trusted the member candidate, so T3 observed {hot.1 from T2, hot.0
    from T1} — a cycle, since T2 is ordered after T1 on hot.0.
    """

    TREE = staticmethod(
        lambda: Configuration(
            node("rp", leaf("rp", "alpha"), leaf("rp", "beta")),
            name="rp-over-rp-adversary",
        )
    )

    REQUESTS = [
        ("alpha", {"ops": [("w", "hot", 0, 101), ("r", "tail", 0), ("think", 0.5)]}),
        ("beta", {"ops": [
            ("think", 0.1),
            ("w", "hot", 0, 202),
            ("w", "hot", 1, 202),
            ("r", "tail", 1),
            ("think", 0.3),
        ]}),
        ("alpha", {"ops": [("think", 0.2), ("r", "hot", 1), ("r", "hot", 0)]}),
    ]

    def test_pinned_adversary_stays_serializable(self):
        workload = TwoStepWorkload()
        env = Environment()
        engine = build_engine(
            env,
            workload,
            self.TREE(),
            options=EngineOptions(
                charge_costs=False, lock_timeout=2.0, commit_wait_timeout=4.0
            ),
        )
        recorder = HistoryRecorder(level="serializable")
        engine.history_recorder = recorder
        outcomes, _processes = run_transactions(env, engine, self.REQUESTS)
        report = check_recorder(recorder)
        assert report.ok, report.describe()
        # The reader must not mix pipeline generations: whichever writer its
        # hot.1 read observed, its hot.0 read must not come from an *earlier*
        # one (the stale proposal the outer amend used to trust).
        readers = [
            txn
            for txn in outcomes
            if not isinstance(txn, TransactionAborted)
            and txn.txn_type == "alpha"
            and any(r.key == ("hot", 1) for r in txn.reads)
        ]
        assert readers, "the adversarial reader must commit"
        for txn in readers:
            by_key = {r.key: r.version for r in txn.reads}
            hot0, hot1 = by_key.get(("hot", 0)), by_key.get(("hot", 1))
            if hot0 is not None and hot1 is not None and hot1.writer != hot0.writer:
                assert hot0.writer > hot1.writer, (
                    f"stale cross-group read: hot.0 from txn {hot0.writer} "
                    f"but hot.1 from the later txn {hot1.writer}"
                )


# ---------------------------------------------------------------------------
# Pinned adversaries: the two stale mirrors
# ---------------------------------------------------------------------------


def run_micro_schedule(cross, leaf_a, leaf_b, seed, count, recorder_class=HistoryRecorder):
    """One-shot micro requests under ``cross/(leaf_a, leaf_b)`` — what a
    ``(cross, leaf_a, leaf_b, seed, count)`` tuple of
    ``test_random_micro_schedules_are_serializable`` replays."""
    workload = CrossGroupConflictWorkload(shared_rows=3, local_rows=3, cold_rows=20)
    env = Environment()
    engine = build_engine(
        env,
        workload,
        Configuration(
            node(cross, leaf(leaf_a, "group_a_update"), leaf(leaf_b, "group_b_update")),
            name="random",
        ),
        options=EngineOptions(
            charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
        ),
        recorder_class=recorder_class,
    )
    rng = workload.make_rng(seed)
    requests = [workload.next_transaction(rng) for _ in range(count)]
    run_transactions(env, engine, requests)
    return engine, check_recorder(engine.history_recorder)


def _tuple_id(schedule):
    return "-".join(map(str, schedule))


class ThreeStepWorkload(TwoStepWorkload):
    """A third step, so a cross-group follower can step-commit too while the
    leader is still active (it may enter a step only once the leader left it)."""

    name = "three-step"
    TABLES = ("hot", "mid", "tail")


class TestStaleMirrorAdversaries:
    """Two facts were each kept twice, by different rules; each second copy
    went stale and closed a DSG cycle.  Every tuple below failed the oracle
    at the parent of the commit that deleted the copies.

    * RP kept the step-committed version a reader observes in a slot per
      key beside ``_passed[key]``, overwritten by the latest step-committer
      and dropped when that one aborted — although an earlier step-committer,
      after which the reader had just been ordered, was still active.  Its
      seed tuples all put SSI below RP, which no longer builds
      (``TestRejectedAtBuildTime``); the five-step handoff test below pins
      the rule.
    * SSI drained retained SIREAD entries below the oldest snapshot of the
      members that had *begun*, while an open timestamp batch would still
      hand its older snapshot to a member that had not.
    """

    #: (tree, seed, requests, lanes) for ``replay_conformance``.
    SSI_FLOOR = [
        ("ssi/(2pl,2pl)", 23, 9, 2),
        ("ssi/(2pl,2pl)", 234, 10, 3),
        ("ssi/(rp,2pl)", 3086, 8, 2),
        ("ssi/(batch,batch)", 102, 11, 2),
        ("ssi/(batch,batch)", 2396, 11, 2),
    ]

    @pytest.mark.parametrize("schedule", SSI_FLOOR, ids=_tuple_id)
    def test_ssi_keeps_readers_an_open_batch_can_still_meet(self, schedule):
        report, committed = replay_conformance(*schedule)
        assert report.ok, f"{schedule}: {report.describe()}"
        assert committed > 0

    @pytest.mark.parametrize(
        "tree",
        [
            monolithic("rp", ("alpha", "beta"), name="mono-rp-handoff"),
            Configuration(
                node("rp", leaf("rp", "alpha"), leaf("rp", "beta")),
                name="rp-over-rp-handoff",
            ),
        ],
        ids=["leaf", "internal"],
    )
    def test_aborted_follower_hands_the_key_back_to_its_leader(self, tree):
        """The RP rule without a seed, in five steps: T1 step-commits hot.0;
        T2 reads it and overwrites it; T2 step-commits; T2 aborts; T3, which
        the handoff order puts after the still-active T1, must read T1's
        version — reading the committed one underneath loses T1's update."""
        env = Environment()
        engine = build_engine(
            env,
            ThreeStepWorkload(),
            tree,
            options=EngineOptions(
                charge_costs=False, lock_timeout=2.0, commit_wait_timeout=4.0
            ),
        )
        requests = [
            ("alpha", {"ops": [
                ("w", "hot", 0, 101), ("r", "mid", 0), ("r", "tail", 0), ("think", 0.5),
            ]}),
            ("beta", {"ops": [
                ("think", 0.1), ("r", "hot", 0), ("w", "hot", 0, 202), ("r", "mid", 1),
                ("think", 0.1), ("abort",),
            ]}),
            ("beta", {"ops": [("think", 0.3), ("r", "hot", 0), ("w", "hot", 0, 303)]}),
        ]
        outcomes, _processes = run_transactions(env, engine, requests)
        leader, follower, reader = sorted(outcomes, key=lambda o: o.txn_id)
        assert isinstance(follower, TransactionAborted) and follower.reason == "user-abort"
        assert leader.committed and reader.committed
        (read,) = reader.reads
        assert read.key == ("hot", 0) and read.version.writer == leader.txn_id
        report = check_recorder(engine.history_recorder)
        assert report.ok, report.describe()


class TestBatchEndsWithItsLastMember:
    """A timestamp batch used to stay open after its members had finished,
    until it filled or an idle tick closed it, and handed its old timestamp
    to whichever member of its group came next: a joiner that read other
    groups' keys at that stale snapshot and its own group's at the child's
    newest proposal.  Every tuple below failed the oracle at the parent of
    the commit that made a batch die with its last member."""

    #: (tree, seed, requests, lanes) for ``replay_conformance``.
    SCHEDULES = [
        ("ssi/(rp,2pl)", 2414, 11, 2),
        ("ssi/(rp,2pl)", 3364, 11, 2),
        ("ssi/(rp,2pl)", 440, 7, 2),
        ("ssi/(2pl,2pl)", 415, 10, 2),
        ("ssi/(batch,batch)", 4661, 12, 2),
        ("ssi/(batch,batch)", 5012, 12, 2),
    ]

    @pytest.mark.parametrize("schedule", SCHEDULES, ids=_tuple_id)
    def test_no_joiner_after_the_last_member(self, schedule):
        report, committed = replay_conformance(*schedule)
        assert report.ok, f"{schedule}: {report.describe()}"
        assert committed > 0


class TestOpenFamilies:
    """Cycles that are *not* fixed, as plain tuples instead of cached
    Hypothesis examples: each reproduces at HEAD and, identically, before
    the stale mirrors went, so none is one of them (ROADMAP, *The open
    cycle*, names a first suspect for each).  Strict: the fix that closes a
    family flips its tuples, which then move up to the adversaries."""

    CONFORMANCE = [
        # SSI: an rw edge found between a pivot's validation and its commit.
        ("mono-ssi", 896, 4, 2),
        # SSI: two writers past the ww check before either installs.
        ("ssi/(2pl,2pl)", 7743, 9, None),
        # SSI: a late joiner's stale batch snapshot beside child proposals —
        # narrowed, not closed, by ending a batch with its last member: here
        # the joiner arrives while an earlier member still runs.
        ("ssi/(rp,2pl)", 2036, 10, 2),
        ("ssi/(rp,2pl)", 3238, 6, 3),
        # TSO leaves under a lock-based parent: both trees fail on the same
        # draw with the same cycle, [(1, 4), (4, 1)].
        ("2pl/(tso,tso)", 9116, 4, None),
        ("rp/(tso,tso)", 9116, 4, None),
    ]
    MICRO = [("2pl", "tso", "tso", 147, 20), ("2pl", "tso", "tso", 172, 8)]

    @pytest.mark.xfail(strict=True, reason="open serializability cycle")
    @pytest.mark.parametrize("schedule", CONFORMANCE, ids=_tuple_id)
    def test_conformance_schedule(self, schedule):
        report, _committed = replay_conformance(*schedule)
        assert report.ok, f"{schedule}: {report.describe()}"

    @pytest.mark.xfail(strict=True, reason="open serializability cycle")
    @pytest.mark.parametrize("schedule", MICRO, ids=_tuple_id)
    def test_micro_schedule(self, schedule):
        _engine, report = run_micro_schedule(*schedule)
        assert report.ok, f"{schedule}: {report.describe()}"


class TestRejectedAtBuildTime:
    """Shapes the oracle showed unsound are not fixed but outlawed: the
    composition rules (``repro.cc.base.check_composition``) refuse them when
    the ``Configuration`` is built.  The conformance tuples failed the oracle
    at the parent of the commit that added the rule named beside them; the
    micro tuples passed it there, as the RP step-committer slot's
    adversaries (``TestStaleMirrorAdversaries``), on shapes that no longer
    build."""

    #: (tree, seed, requests, lanes) for ``replay_conformance``, and the rule.
    CONFORMANCE = [
        # (i) an RP parent prefers the latest committed version to its SSI
        # child's snapshot even when the child's own group wrote it.
        (("rp/(tso,ssi)", 924, 9, None), "forbidden ancestor: ssi@0.1"),
        (("rp/(ssi,tso)", 3612, 4, None), "forbidden ancestor: ssi@0.0"),
        # (vi) TSO as an internal node keeps no reader retention.
        (("tso/(2pl,2pl)", 2207, 6, 2), "leaf-only: tso@0"),
    ]
    #: (cross, leaf_a, leaf_b, seed, requests) for ``run_micro_schedule``.
    MICRO = [
        (("rp", "ssi", "tso", 262, 20), "forbidden ancestor: ssi@0.0"),
        (("rp", "ssi", "tso", 165, 17), "forbidden ancestor: ssi@0.0"),
        (("rp", "tso", "ssi", 252, 20), "forbidden ancestor: ssi@0.1"),
        (("rp", "tso", "ssi", 948, 17), "forbidden ancestor: ssi@0.1"),
    ]

    @pytest.mark.parametrize(
        "schedule, rule", CONFORMANCE, ids=[_tuple_id(t) for t, _rule in CONFORMANCE]
    )
    def test_conformance_schedule(self, schedule, rule):
        with pytest.raises(ConfigurationError, match=re.escape(rule)):
            replay_conformance(*schedule)

    @pytest.mark.parametrize(
        "schedule, rule", MICRO, ids=[_tuple_id(t) for t, _rule in MICRO]
    )
    def test_micro_schedule(self, schedule, rule):
        with pytest.raises(ConfigurationError, match=re.escape(rule)):
            run_micro_schedule(*schedule)
