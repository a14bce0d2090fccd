"""Every tree the registry and the figure scripts hand the engine, pinned.

``tests/golden/registry_trees.txt`` was recorded at PR 23's commit, when
``harness/configs.py`` still spelled each tree out by hand: per
``workload/config`` cell and per named non-registry tree, the configuration
``name``, ``signature()``, ``describe()`` (labels and leaf transaction
order) and each node's ``params`` and whether it partitions by instance.
The trees are derived from one grouping table now; this is the proof that
the derivation yields the same trees, so no fingerprint, fault-lane golden
or profiler-stream pin can move through a change to that table.

Re-record rule: as for ``tests/test_fault_lane_goldens.py`` — a refactor
must never touch the golden.  Re-record only when a tree is added or
*legitimately* regrouped, with the justification in CHANGES.md::

    PYTHONPATH=src python -m tests.test_registry_goldens \
        > tests/golden/registry_trees.txt
"""

from pathlib import Path

import pytest

from repro.core.config import initial_configuration
from repro.harness import configs

GOLDEN = Path(__file__).parent / "golden" / "registry_trees.txt"


def named_trees():
    """label -> Configuration, registry cells first (registration order)."""
    trees = {
        f"{workload}/{config}": factory()
        for workload, configurations in configs.WORKLOAD_CONFIGURATIONS.items()
        for config, factory in configurations.items()
    }
    trees.update(
        {
            "tpcc_hot_item_3layer()": configs.tpcc_hot_item_3layer(),
            "tpcc_hot_item_4layer()": configs.tpcc_hot_item_4layer(),
            "grouping_same_group()": configs.grouping_same_group(),
            "grouping_separate()": configs.grouping_separate(),
            "seats_3layer(per_flight=False)": configs.seats_3layer(per_flight=False),
            "initial_configuration(read-only + updates)": initial_configuration(
                {"new_order", "payment", "stock_level", "order_status"},
                {"stock_level", "order_status"},
            ),
            "initial_configuration(updates only)": initial_configuration(
                {"group_b_update", "group_a_update"}, set()
            ),
        }
    )
    return trees


def render(trees):
    lines = []
    for label, configuration in trees.items():
        lines.append(f"== {label}")
        lines.append(f"name: {configuration.name}")
        lines.append(f"signature: {configuration.signature()!r}")
        lines.append(configuration.describe())
        for spec in configuration.root.iter_nodes():
            lines.append(
                f"  {spec.cc} {spec.label!r}: params={spec.params!r} "
                f"instance_key={spec.instance_key is not None}"
            )
    return "\n".join(lines) + "\n"


def test_registry_trees_match_golden():
    assert render(named_trees()) == GOLDEN.read_text()


@pytest.mark.parametrize("cells", [configs.CRASH_CELLS, configs.CHAOS_CELLS])
def test_fault_cells_name_registered_trees(cells):
    """A typo here would otherwise surface as a ``KeyError`` inside a worker."""
    for workload, config_names in cells.items():
        registered = configs.WORKLOAD_CONFIGURATIONS[workload]
        assert set(config_names) <= set(registered), (workload, config_names)


if __name__ == "__main__":
    print(render(named_trees()), end="")
