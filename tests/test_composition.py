"""The composition table: what may sit where in a CC tree.

The rules are class attributes of the mechanisms, and one function,
``repro.cc.base.check_composition``, enforces them: the structural rows when
a ``Configuration`` is built, all rows again (the declared-writes row
included, which needs the profiles) when an engine builds its tree, and the
synchronous ``pre_commit`` row when a mechanism registers.  The verdicts
below are spelled out literally, so a loosened row fails here before a
random draw has to find the shape unsound.
"""

import inspect
import re

import pytest

from repro.cc.base import CC_REGISTRY, register_cc
from repro.cc.no_op import NoOpCC
from repro.core import tree as tree_module
from repro.core.config import Configuration, leaf, monolithic, node
from repro.errors import ConfigurationError
from tests.conftest import build_engine

OK = None
LEAF = "leaf-only"
ANCESTOR = "forbidden ancestor"
PARTITION = "partition-by-instance"

MECHANISMS = ("none", "2pl", "rp", "ssi", "occ", "tso", "batch")

#: parent -> the verdict on each child, in ``MECHANISMS`` order.
PAIRS = {
    #         none  2pl   rp    ssi       occ   tso   batch
    "none":  (OK,   OK,   OK,   OK,       OK,   OK,   OK),
    "2pl":   (OK,   OK,   OK,   ANCESTOR, OK,   OK,   OK),
    "rp":    (OK,   OK,   OK,   ANCESTOR, OK,   OK,   ANCESTOR),
    "ssi":   (OK,   OK,   OK,   OK,       OK,   OK,   OK),
    "occ":   (OK,   OK,   OK,   OK,       OK,   OK,   OK),
    "tso":   (LEAF, LEAF, LEAF, LEAF,     LEAF, LEAF, LEAF),
    "batch": (LEAF, LEAF, LEAF, LEAF,     LEAF, LEAF, LEAF),
}

#: mechanism -> the verdict on it as an internal node, as a partitioned
#: leaf and as a partitioned internal node.
NODES = {
    "none":  (OK,   OK,        PARTITION),
    "2pl":   (OK,   OK,        PARTITION),
    "rp":    (OK,   OK,        PARTITION),
    "ssi":   (OK,   OK,        PARTITION),
    "occ":   (OK,   OK,        PARTITION),
    "tso":   (LEAF, OK,        LEAF),
    "batch": (LEAF, PARTITION, LEAF),
}


#: mechanism -> the knobs its constructor takes beyond ``(engine, node)``;
#: whatever else a mechanism needs it derives from the profiles.  A new
#: per-node knob is an edit here.
KNOBS = {
    "2pl": {"lock_timeout"},
    "rp": {"lock_timeout"},
    "ssi": {"batch_size"},
    "tso": set(),
    "batch": {"batch_size", "batch_window", "max_inflight_batches"},
    "occ": set(),
    "none": set(),
}


def constructor_parameters():
    """mechanism -> the parameters its constructor takes beyond ``(engine,
    node)``.  ``scripts/check.sh`` prints how many there are."""
    return {
        name: set(inspect.signature(cls.__init__).parameters) - {"self", "engine", "node"}
        for name, cls in CC_REGISTRY.items()
    }


def rule_of(spec):
    """The rule that refuses ``spec`` (the message up to its colon), or
    ``OK`` when it builds."""
    try:
        Configuration(spec)
    except ConfigurationError as error:
        return str(error).split(":")[0]
    return OK


def verdicts(spec, ancestors=()):
    """Every (parent, child) pair and every node of ``spec``, judged by the
    literal tables above, not by the code under test: the set of rules broken."""
    broken = set()
    if spec.children:
        broken.add(NODES[spec.cc][0])
    if spec.instance_key is not None:
        broken.add(NODES[spec.cc][2 if spec.children else 1])
    for ancestor in ancestors:
        broken.add(PAIRS[ancestor][MECHANISMS.index(spec.cc)])
    for child in spec.children:
        broken |= verdicts(child, ancestors + (spec.cc,))
    return broken - {OK}


def test_the_tables_name_every_registered_mechanism():
    assert sorted(MECHANISMS) == sorted(CC_REGISTRY) == sorted(PAIRS) == sorted(NODES)


@pytest.mark.parametrize("child", MECHANISMS)
@pytest.mark.parametrize("parent", MECHANISMS)
def test_parent_child_pair(parent, child):
    expected = PAIRS[parent][MECHANISMS.index(child)]
    spec = node(parent, leaf(child, "alpha"), leaf("2pl", "beta"))
    assert rule_of(spec) == expected
    if expected is not OK:
        # The message names the rule and the node that breaks it.
        where = f"{parent}@0" if expected == LEAF else f"{child}@0.0 sits below {parent}@0"
        with pytest.raises(ConfigurationError, match=re.escape(f"{expected}: {where}")):
            Configuration(spec)


def test_a_forbidden_ancestor_is_found_above_the_parent():
    spec = node(
        "rp", node("2pl", leaf("batch", "alpha"), leaf("2pl", "beta")), leaf("2pl", "gamma")
    )
    with pytest.raises(
        ConfigurationError, match=re.escape("forbidden ancestor: batch@0.0.0 sits below rp@0")
    ):
        Configuration(spec)


@pytest.mark.parametrize("cc", MECHANISMS)
def test_internal_and_partitioned_nodes(cc):
    internal, partitioned_leaf, partitioned_internal = NODES[cc]

    def by_pk(args):
        return args.get("pk")

    assert rule_of(node(cc, leaf("2pl", "alpha"), leaf("2pl", "beta"))) == internal
    assert rule_of(leaf(cc, "alpha", instance_key=by_pk)) == partitioned_leaf
    spec = node(cc, leaf("2pl", "alpha"), leaf("2pl", "beta"))
    spec.instance_key = by_pk
    assert rule_of(spec) == partitioned_internal


def test_the_literal_tables_agree_with_the_code_on_deeper_trees():
    def auto(last):  # autoconf's TPC-C tree, with ``last`` for its last leaf
        return node(
            "ssi",
            leaf("none", "r"),
            node("2pl", leaf("2pl", "a"), node("rp", leaf("tso", "b"), leaf(last, "c"))),
        )

    specs = [
        auto("tso"),
        auto("ssi"),
        node("2pl", node("ssi", leaf("2pl", "a"), leaf("batch", "b")), leaf("rp", "c")),
        node("occ", node("ssi", leaf("tso", "a"), leaf("batch", "b")), leaf("rp", "c")),
    ]
    assert [rule_of(spec) for spec in specs] == [OK, ANCESTOR, ANCESTOR, OK]
    for spec in specs:
        assert (rule_of(spec) is OK) == (not verdicts(spec))


def test_declared_writes_are_checked_at_engine_build_before_any_cc(
    env, micro_workload, monkeypatch
):
    """The micro workload's update types declare no write keys: the tree is
    structurally legal, and the engine refuses it before building a CC."""
    built = []
    create_cc = tree_module.create_cc

    def counted(name, *args, **kwargs):
        built.append(name)
        return create_cc(name, *args, **kwargs)

    monkeypatch.setattr(tree_module, "create_cc", counted)
    config = Configuration(
        node("2pl", leaf("2pl", "group_a_update"), leaf("batch", "group_b_update"))
    )
    rule = "declared writes: batch@0.1 needs promise_keys for writer 'group_b_update'"
    with pytest.raises(ConfigurationError, match=re.escape(rule)):
        build_engine(env, micro_workload, config)
    assert built == []


def test_a_spec_changed_after_its_configuration_is_checked_again_at_build(
    env, micro_workload
):
    config = monolithic("2pl", sorted(micro_workload.transaction_types()))
    config.root.cc = "batch"
    config.root.instance_key = lambda args: args["shared_id"]
    with pytest.raises(ConfigurationError, match=re.escape("partition-by-instance: batch@0")):
        build_engine(env, micro_workload, config)


def test_a_generator_pre_commit_is_refused_at_registration():
    """pre_commit runs inside the synchronous commit apply: a generator
    override would be silently skipped."""

    class YieldingPreCommit(NoOpCC):
        name = "test-yielding-pre-commit"

        def pre_commit(self, txn):
            yield self.engine.env.timeout(0)

    with pytest.raises(ConfigurationError, match="pre_commit must be synchronous"):
        register_cc(YieldingPreCommit)
    assert YieldingPreCommit.name not in CC_REGISTRY


def test_every_mechanism_takes_only_its_knobs():
    assert constructor_parameters() == KNOBS


@pytest.mark.parametrize(
    "cc, params",
    [
        ("2pl", {"lock_timeot": 0.1}),
        ("rp", {"pipeline_steps": [["shared"]]}),
        ("tso", {"promises": []}),
    ],
)
def test_a_param_no_constructor_takes_fails_fast(env, micro_workload, cc, params):
    """``create_cc`` hands a spec's params to the constructor verbatim: a
    typo, or a derived value written into a spec, is a ``TypeError``."""
    config = monolithic(cc, sorted(micro_workload.transaction_types()), params=params)
    with pytest.raises(TypeError, match=next(iter(params))):
        build_engine(env, micro_workload, config)
