"""Fixed-seed stdout pins for the two fault lanes.

``BENCH_speed.json`` pins the plain path's schedules; these goldens do the
same for the crash lane (``--faults``) and the message-fault lane
(``--net-faults``): the whole CLI report at seed 7 — commit counts, crash
points and recovery classification, fault times, retry and park counters —
must match ``tests/golden/`` byte for byte.  The crash lane is pinned on the
queue cells, the message-fault lane on every chaos workload's cells.

Re-record rule: a refactor must never touch these files.  Re-record only
when a change *legitimately* moves fault-lane schedules (a CC or recovery
bugfix), with the justification in CHANGES.md, by redirecting the command in
the golden's name into it, e.g.::

    PYTHONPATH=src python -m repro.harness --workload queue --faults 1 \
        --quick --workers 1 > tests/golden/queue_faults_1_quick.txt

(``ycsb_zipf`` in a golden's name is the ``ycsb-zipf`` workload.)
"""

from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.storage.durability import DurabilityManager
from repro.storage.wal import KIND

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize(
    "workload,flag,count,golden",
    [
        ("queue", "--faults", "1", "queue_faults_1_quick.txt"),
        ("queue", "--net-faults", "2", "queue_net_faults_2_quick.txt"),
        ("smallbank", "--net-faults", "2", "smallbank_net_faults_2_quick.txt"),
        ("ycsb-zipf", "--net-faults", "2", "ycsb_zipf_net_faults_2_quick.txt"),
    ],
)
def test_fault_lane_stdout_matches_golden(capsys, workload, flag, count, golden):
    code = main(["--workload", workload, flag, count, "--quick", "--workers", "1"])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_the_crash_golden_recovers_from_folded_logs(capsys, monkeypatch):
    """The queue crash cells run 0.01 sim-s GCP epochs, so every crash after
    the first advance recovers from a folded image plus its tail, and the
    golden's "N recovered" counts the folded ids: 2pl crashes at 0.021 s,
    ssi at 0.001 s (before any advance), 2layer at 0.05 s and 3layer at
    0.15 s."""
    crash = DurabilityManager.crash
    folded_at_crash = []

    def spying_crash(manager):
        folded_at_crash.append(
            sum(record[KIND] == "folded" for log in manager.logs for record in log.records())
        )
        crash(manager)

    monkeypatch.setattr(DurabilityManager, "crash", spying_crash)
    assert main(["--workload", "queue", "--faults", "1", "--quick", "--workers", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "queue_faults_1_quick.txt").read_text()
    assert [count > 0 for count in folded_at_crash] == [True, False, True, True]
    assert folded_at_crash[3] > folded_at_crash[2] > folded_at_crash[0]
