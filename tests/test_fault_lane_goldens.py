"""Fixed-seed stdout pins: every behaviour pin is a command whose stdout is
a file under ``tests/golden/``.

The model is deterministic: a fixed seed fixes every schedule, so a pinned
stdout pins the behaviour behind it.  A plain cell's line ends with
``; state <12 hex>``, the head of the SHA-256 of the cell's final committed
state, so a value that moves shows even where the counts do not.  A fault
lane's report carries commit counts, crash points and recovery
classification, fault times and retry and park counters instead.

Each CLI golden is ``PYTHONPATH=src python -m repro.harness`` with the
arguments in ``CLI_GOLDENS``; its stdout does not depend on ``--workers``
or ``PYTHONHASHSEED`` (``scripts/check.sh`` runs each one at its
``--workers`` under two salts and ``cmp``s it).  The other goldens:

* ``quickstart.txt``: ``PYTHONPATH=src python examples/quickstart.py``;
* ``autoconf_tpcc.txt``:
  ``PYTHONPATH=src python examples/automatic_configuration.py``;
* ``registry_trees.txt``: ``PYTHONPATH=src python -m tests.test_registry_goldens``.

Re-record rule: a refactor must never touch these files.  Re-record only
when a change *legitimately* moves schedules or values (a CC or recovery
bugfix), with the justification in CHANGES.md, by redirecting the golden's
command into it, e.g.::

    PYTHONPATH=src python -m repro.harness --all --quick > tests/golden/all_quick.txt

The golden's diff is then the evidence; a change that moves none says
"goldens unchanged".
"""

from pathlib import Path

import pytest

from repro.harness.cli import main
from repro.storage.durability import DurabilityManager
from repro.storage.wal import KIND

GOLDEN = Path(__file__).parent / "golden"

#: golden file -> the ``python -m repro.harness`` arguments that write it.
CLI_GOLDENS = {
    "all_quick.txt": ("--all", "--quick"),
    "all_faults_2_quick.txt": ("--all", "--faults", "2", "--quick"),
    "all_net_faults_2_quick.txt": ("--all", "--net-faults", "2", "--quick"),
    # The plain path's longest horizon: 2.0 sim-s at 20 clients, unchecked.
    "micro_20_clients_2s_unchecked.txt": (
        "--workload", "micro", "--config", "2layer", "--config", "ssi",
        "--clients", "20", "--duration", "2", "--warmup", "0", "--no-check",
    ),
    "queue_faults_1_quick.txt": ("--workload", "queue", "--faults", "1", "--quick"),
}


def cell_lines(text, prefix):
    return [line for line in text.splitlines() if line.startswith(prefix)]


@pytest.mark.parametrize("golden", ["queue_faults_1_quick.txt", "all_net_faults_2_quick.txt"])
def test_fault_lane_stdout_matches_golden(capsys, golden):
    assert main([*CLI_GOLDENS[golden], "--workers", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / golden).read_text()


def test_the_micro_cells_match_their_lines_in_the_plain_golden(capsys):
    """The tier-1 slice of ``all_quick.txt``: a moved schedule or value on
    the four micro trees shows without the whole sweep."""
    assert main(["--workload", "micro", "--quick", "--workers", "1"]) == 0
    lines = cell_lines(capsys.readouterr().out, "micro/")
    assert len(lines) == 4
    assert lines == cell_lines((GOLDEN / "all_quick.txt").read_text(), "micro/")


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
    assert main([*CLI_GOLDENS["queue_faults_1_quick.txt"], "--workers", "1"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "queue_faults_1_quick.txt").read_text()
    assert [count > 0 for count in folded_at_crash] == [True, False, True, True]
    assert folded_at_crash[3] > folded_at_crash[2] > folded_at_crash[0]
