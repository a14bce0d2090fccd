"""The contention profiler's stream: pinned, and free when off.

Every CC mechanism reports "who waited for whom" and "who aborted because
of whom" through the one wait loop and the one abort of
``repro.core.waits``.  Three pins keep a refactor of that surface honest:

* **stream** — a fixed-seed run with a :class:`ContentionProfiler` attached
  yields exactly the recorded sequence of blocking events and abort
  counters, one cell per family of wait (locks and RP pipeline, range locks,
  TSO promises and commit order, batch condition waits);
* **off means free** — the same run without a profiler commits, aborts and
  writes exactly the same;
* **one site** — the profiler calls, the ``current_wait`` edge and the
  deadline wait occur in ``repro/core/waits.py`` and nowhere else.

Re-record rule (as for ``tests/golden/``): a refactor must never touch
``STREAM``.  It was recorded at the parent of the commit that introduced
``repro.core.waits``, by running ``PYTHONPATH=src:. python
tests/test_profiler_stream.py`` there; re-record only when a change legitimately moves schedules or the
reported edges (the hot-row stall fix will), with the reason in CHANGES.md.
Re-recorded twice, both times ``ssi/(2pl,2pl)``, ``ssi/(rp,2pl)`` and
``ssi/(batch,batch)`` only: when SSI's SIREAD drain took its floor from the
oldest live batch (the runs keep entries they used to forget, so more
``ssi-committed-pivot`` aborts), and when a timestamp batch began to close
with its last member (a group's next transaction gets a fresh timestamp
instead of the finished batch's, so other aborts and waits).  Re-recorded
once more, the five batch digests (``ycsb-zipf/batch``, ``mono-batch``,
``2pl/(batch,2pl)``, ``ssi/(batch,batch)``, ``ssi/(none,batch)``) only: when
the batch leaf stopped broadcasting every change and began to wake only the
waiters a change concerns.  A wait now records one event per wake of its own
head instead of one per broadcast, and same-instant waiters resume in
per-blocker subscription order, so different arrivals seal together.
Re-recorded once more, the three TSO-promise digests (``ycsb-zipf/tso``,
``mono-tso``, ``2pl/(2pl,tso)``) only: when TSO's broadcast ``progress``
condition gave way to per-promisor *moved* events.  A promise wait now
records one pass per move of its head instead of one per broadcast; the
commits, aborts, final state and each transaction's total blocked time per
kind are unchanged, so only pass boundaries moved.  Re-recorded once more,
``2pl/(rp,rp)``, ``mono-2pl``, ``mono-rp``, ``rp/(rp,2pl)`` and
``ssi/(none,2pl)`` only: when a lock request that leaves its queue (at its
deadline, or when its transaction aborts) began to grant the compatible
requests behind it, which used to wait on until their own deadline.
"""

import hashlib
import random
from pathlib import Path

import pytest

import repro
from repro.autoconf.profiler import ContentionProfiler
from repro.core.config import monolithic
from repro.core.engine import EngineOptions
from repro.harness import configs
from repro.harness.runner import BenchmarkRunner
from repro.sim.environment import Environment
from repro.workloads.queue import QueueWorkload
from repro.workloads.seats import SEATSWorkload
from repro.workloads.smallbank import SmallBankWorkload
from tests.conftest import build_engine, run_transactions
from tests.test_cc_conformance import CONFORMANCE_TREES, ConformanceWorkload
from tests.test_retention import _digest, _tiny_tpcc, _zipf

#: name -> (workload factory, configuration factory, clients, sim seconds).
#: The last two are not registry cells: no registry tree waits on a TSO
#: promise (only YCSB declares write keys, and it has no TSO tree) and the
#: first four never wait on a range lock.
CELLS = {
    "tpcc/tebaldi-3layer": (_tiny_tpcc, configs.tpcc_tebaldi_3layer, 12, 0.3),
    "smallbank/3layer": (
        lambda: SmallBankWorkload(customers=200, hot_accounts=10),
        configs.smallbank_3layer, 12, 0.15,
    ),
    "seats/3layer": (
        lambda: SEATSWorkload(flights=2, seats_per_flight=100, customers=50),
        configs.seats_3layer, 12, 0.15,
    ),
    "ycsb-zipf/batch": (_zipf, configs.WORKLOAD_CONFIGURATIONS["ycsb"]["batch"], 16, 0.08),
    "ycsb-zipf/tso": (
        _zipf,
        lambda: monolithic("tso", sorted(_zipf().transaction_types()), name="ycsb-tso"),
        16, 0.1,
    ),
    "queue/2pl": (QueueWorkload, configs.WORKLOAD_CONFIGURATIONS["queue"]["2pl"], 12, 0.2),
}

#: name -> (blocking events, kinds seen, digest of the whole stream)
STREAM = {
    "queue/2pl": (
        210, ["lock", "range-lock"],
        "f08c3599c30bc1e09de0552784e84ea810f93d005847c5b6829bab98b53823e3",
    ),
    "seats/3layer": (
        170, ["lock", "tso-commit-order"],
        "d0f1289a994a99941a0d0f9435de401afc7fee4d86ce7af8b20062868782c2b8",
    ),
    "smallbank/3layer": (
        138, ["commit-order", "lock"],
        "0e1d56920791f128a977a1fd197c9572f75ec5b0cd4a5fbd6846c0bc8647ed13",
    ),
    "tpcc/tebaldi-3layer": (
        1468, ["lock", "rp-pipeline"],
        "5ccc45abb20369cf5f7cc88f96c414498e5a241c49d458db3ecd2fc0dc49a1c5",
    ),
    "ycsb-zipf/batch": (
        908, ["batch-commit-order", "batch-pred-commit", "batch-slot-wait", "commit-order"],
        "5cbba2366ec3e209759de6201a9a7bffe4a03f1393888aae257edb96b5ad46c9",
    ),
    "ycsb-zipf/tso": (
        8434, ["tso-commit-order", "tso-promise"],
        "68438ae170b90ff1d19c8099a28bb238dbe45c409ed2ec4264d4be3cfc7951db",
    ),
}

#: conformance tree -> the same triple
CONFORMANCE_STREAM = {
    "2pl/(2pl,tso)": (
        157, ["lock", "range-lock", "tso-commit-order", "tso-promise"],
        "fd51072f8526eba43882844b1f9724f8ae0bf71abb1af052ed1babec4c1031fe",
    ),
    "2pl/(batch,2pl)": (
        97, ["batch-commit-order", "batch-install-order", "batch-pred-commit", "batch-scan-wait", "batch-slot-wait", "commit-order", "lock", "range-lock"],
        "0b80cab47d7b7434109e65705c86a64202900e18fffb8892440b8c0cad669caf",
    ),
    "2pl/(rp,rp)": (
        120, ["lock", "range-lock"],
        "7c16517dbac4cb24975ebfd5c7e7e08a22254410f5b9eea3bd247706f4f4cfae",
    ),
    "mono-2pl": (
        123, ["lock", "range-lock"],
        "a35ef9f8dfcf444731a40dadec9b1999576aa3f9b02f07b8ba90175d479fb42c",
    ),
    "mono-batch": (
        163, ["batch-commit-order", "batch-install-order", "batch-pred-commit", "batch-scan-wait", "batch-slot-wait", "commit-order"],
        "8caeaf8dcb756ce3abaf9601780ae421da5da65e10e8f39fe7115ca60c67cbef",
    ),
    "mono-occ": (
        7, ["commit-order"],
        "684cb9843c88ab1a54d0e2de75b12927a502cc1c0d93a1dd6bb840fa342e029a",
    ),
    "mono-rp": (
        123, ["lock", "range-lock"],
        "d1e56a5c4f1da2fb8b772f7a41858509dc9a91fd68f7d49ace005adf78afcb52",
    ),
    "mono-ssi": (
        0, [],
        "36c4703e81bee0288fcd7c193c59678e2ce3bbcd7c9694cd656b5585be8587c6",
    ),
    "mono-tso": (
        302, ["tso-commit-order", "tso-promise"],
        "9a14d4c334c74337fc052c475e16e51bf7f4aa707b863c46c3171d151f75d826",
    ),
    "rp/(rp,2pl)": (
        127, ["lock", "range-lock"],
        "22db0a686f9cbdc08cd425dcd95b5e53d999f197ec52e69341c6ec9af6825adc",
    ),
    "rp/(rp,rp)": (
        120, ["lock", "range-lock"],
        "3abc0cea54d0a05fbae80c76f415c7393f9e279a83c272ac398a8553043a846d",
    ),
    "ssi/(2pl,2pl)": (
        42, ["lock", "range-lock"],
        "35c3f5ee57d7fd789a7b84a7c21cbea8026d5b791d74cbfa468d45c88a3ab011",
    ),
    "ssi/(batch,batch)": (
        83, ["batch-commit-order", "batch-install-order", "batch-pred-commit", "batch-scan-wait", "batch-slot-wait", "commit-order"],
        "e2ae3019a0d6e367f896ba25a7a31cd65db16ce693c7ff167ff41f9a3683f6f6",
    ),
    "ssi/(none,2pl)": (
        80, ["lock", "range-lock"],
        "daab378aa0395cebfa91c49036d71050265da6b49c74db27d9f583be1a130fcf",
    ),
    "ssi/(none,2pl/(rp,2pl))": (
        81, ["lock", "range-lock"],
        "af932e0b65dc2aac742a0fe9487883cde16759c9b73d3e9b8cc04a9bf72fc81f",
    ),
    "ssi/(none,batch)": (
        110, ["batch-commit-order", "batch-install-order", "batch-pred-commit", "batch-scan-wait", "batch-slot-wait", "commit-order"],
        "a0b54e6d194f42ce55280d5dc4667a1516610d62705fda649a7dea287a07295b",
    ),
    "ssi/(none,rp)": (
        79, ["lock", "range-lock"],
        "eaeff4fa5e03bb1469701432c735d58f345754e21c8c2fd6a3cce7c696a4fcb2",
    ),
    "ssi/(rp,2pl)": (
        38, ["lock", "range-lock"],
        "bc9309ad9e60c541fe1f45a100d2f9e45e4a9a276236b9cbd6e52d6f74f05350",
    ),
}


def _run(cell, profiler):
    workload_factory, config_factory, clients, duration = CELLS[cell]
    runner = BenchmarkRunner(
        workload_factory(), config_factory(), seed=11, profiler=profiler
    )
    try:
        runner.run(clients, duration=duration, warmup=0.0)
    finally:
        runner.stop()
    return runner


def _run_conformance(tree, profiler):
    """Eight lanes of the conformance mix with short timeouts: the cells
    above abort rarely, these trees hit every deadlock and timeout reason."""
    workload = ConformanceWorkload()
    rng = random.Random(99)
    requests = [workload.next_transaction(rng) for _ in range(120)]
    engine = build_engine(
        Environment(),
        workload,
        CONFORMANCE_TREES[tree](),
        options=EngineOptions(
            charge_costs=True, lock_timeout=0.2, commit_wait_timeout=0.4
        ),
        profiler=profiler,
    )
    run_transactions(engine.env, engine, requests, lanes=8)
    return engine


def _stream(profiler):
    events = [
        (event.blocked_id, event.blocker_id, event.start, event.end, event.kind)
        for event in profiler.events
    ]
    canonical = repr(
        (events, sorted(profiler.aborts.items()), sorted(profiler.abort_edges.items()))
    )
    kinds = sorted({kind.split(":")[0] for *_ignored, kind in events})
    return len(events), kinds, hashlib.sha256(canonical.encode()).hexdigest()


def wait_passes_per_commit(cell, kind):
    """Blocked wait passes whose kind starts with ``kind``, per commit, on
    the pinned ``cell`` (the profiler records one event per pass):
    ``scripts/check.sh`` prints the batch leaf's and TSO's promise waits, so
    a slide back to broadcast wakes shows."""
    profiler = ContentionProfiler()
    runner = _run(cell, profiler)
    passes = sum(event.kind.startswith(kind) for event in profiler.events)
    return passes / runner.engine.stats.commits


def _outcome(engine):
    stats = engine.stats
    return stats.commits, stats.aborts, dict(stats.abort_reasons), _digest(engine.store)


@pytest.mark.parametrize("cell", sorted(CELLS))
def test_stream_is_pinned_and_profiler_is_free(cell):
    profiler = ContentionProfiler()
    attached = _run(cell, profiler)
    assert _stream(profiler) == STREAM[cell]
    assert _outcome(attached.engine) == _outcome(_run(cell, None).engine)


@pytest.mark.parametrize("tree", sorted(CONFORMANCE_TREES))
def test_conformance_stream_is_pinned_and_profiler_is_free(tree):
    profiler = ContentionProfiler()
    attached = _run_conformance(tree, profiler)
    assert _stream(profiler) == CONFORMANCE_STREAM[tree]
    assert _outcome(attached) == _outcome(_run_conformance(tree, None))


SRC = Path(repro.__file__).parent


def _modules_with(needle, under=""):
    """Modules below ``src/repro/<under>`` whose source contains ``needle``
    (the profiler itself, which defines the calls, aside)."""
    found = []
    for path in sorted((SRC / under).rglob("*.py")):
        name = path.relative_to(SRC).as_posix()
        if name != "autoconf/profiler.py" and needle in path.read_text():
            found.append(name)
    return found


def test_one_wait_site_and_one_abort_site():
    for needle in ("profiler.record_wait(", "profiler.record_abort(", "current_wait = "):
        assert _modules_with(needle) == ["core/waits.py"], needle
    # Waiting on a deadline: the wait loop and, the one named exception, the
    # reconfiguration drain, which waits for no transaction (the runner's
    # ``any_of`` is the run horizon, not a wait).
    waits_on_deadline = _modules_with("any_of(", "core") + _modules_with("any_of(", "cc")
    assert waits_on_deadline == ["core/engine.py", "core/waits.py"]
    assert (SRC / "core/engine.py").read_text().count("any_of(") == 1
    # Every CC mechanism aborts through ``waits.abort``.
    assert _modules_with("raise TransactionAborted", "cc") == []


if __name__ == "__main__":
    for name in sorted(CELLS):
        recorded = ContentionProfiler()
        _run(name, recorded)
        print(f"    {name!r}: {_stream(recorded)!r},")
    for name in sorted(CONFORMANCE_TREES):
        recorded = ContentionProfiler()
        _run_conformance(name, recorded)
        print(f"    {name!r}: {_stream(recorded)!r},")
