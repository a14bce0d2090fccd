"""The CC-tree configurations used in the paper's evaluation.

The evaluation uses two tree shapes over and over — Figure 5.2's SSI over
{read-only, one update group} and Figure 4.6d's SSI over {read-only, 2PL
over the update groups} — beside the monolithic 2PL / SSI baselines.  Each
registered workload therefore states its grouping *once*, as a
:class:`Grouping` row, and its ``2pl`` / ``ssi`` / ``2layer`` / ``3layer``
trees (and YCSB's ``batch*`` variants) are derived from the row through
``repro.core.config``'s shape constructors.  Only what is not an instance of
a shape is spelled out: the two Callas groupings (Figure 4.6a/b), Table
3.1's groupings, the four-layer ``hot_item`` tree of the extensibility
experiment (Section 4.6.3) and the micro workload's two cross-group trees.

``WORKLOAD_CONFIGURATIONS`` maps each workload name to its named
configuration factories — the checked-run harness (``python -m
repro.harness``) gates every workload × configuration pair on the isolation
oracle through this registry.
"""

from functools import partial
from typing import NamedTuple

from repro.core.config import Configuration, leaf, monolithic, node, three_layer, two_layer


class Grouping(NamedTuple):
    """One workload's row of the grouping table."""

    #: Names the trees: ``"SmallBank"`` gives ``smallbank-2pl`` and a
    #: ``smallbank-3layer`` whose root is labelled ``SmallBank-3layer``.
    title: str
    #: Every transaction type, in the order a monolithic leaf lists them.
    transactions: tuple
    #: The types the SSI root keeps apart under no CC.
    read_only: tuple = ()
    #: The ``3layer`` update groups under the cross-group 2PL node.
    groups: tuple = ()

    @property
    def updates(self):
        return tuple(t for t in self.transactions if t not in self.read_only)


def monolithic_tree(row, cc):
    return monolithic(cc, row.transactions, name=f"{row.title.lower()}-{cc}")


def two_layer_tree(row, cc="2pl", group_label="2PL updates", title=None):
    """The read-only types apart from *one* ``cc`` group of every update."""
    title = title or row.title
    return two_layer(
        row.read_only,
        leaf(cc, *row.updates, label=group_label),
        name=f"{title.lower()}-2layer",
        label=f"{title}-2layer",
    )


def three_layer_tree(row, groups=None, title=None):
    """The read-only types apart from 2PL over the row's update groups."""
    title = title or row.title
    return three_layer(
        row.read_only,
        [group.clone() for group in groups or row.groups],
        name=f"{title.lower()}-3layer",
        label=f"{title}-3layer",
    )


def derived(row, *names):
    """Registry entries ``name -> factory`` for the families a row yields."""
    families = {
        "2pl": partial(monolithic_tree, row, "2pl"),
        "ssi": partial(monolithic_tree, row, "ssi"),
        "2layer": partial(two_layer_tree, row),
        "3layer": partial(three_layer_tree, row),
    }
    return {name: families[name] for name in names}


# ---------------------------------------------------------------------------
# The grouping table
# ---------------------------------------------------------------------------

_RP_NO_PAY = leaf("rp", "new_order", "payment", label="RP(NO,PAY)")
_RP_DEL = leaf("rp", "delivery", label="RP(DEL)")

#: Figure 4.6d: new_order and payment pipeline together, delivery alone.
TPCC = Grouping(
    "TPCC",
    ("new_order", "payment", "delivery", "order_status", "stock_level"),
    ("order_status", "stock_level"),
    (_RP_NO_PAY, _RP_DEL),
)

#: TPC-C with the by-name payment variant (customer-last-name index scan).
#: The by-name payment stays out of the RP group (its index scan needs the
#: 2PL predicate locks), so the cross-group 2PL node mediates the scan
#: against the pipelined by-id payments — the nexus range-lock path.
TPCC_SCAN = Grouping(
    "TPCC-scan",
    ("new_order", "payment", "payment_by_name", "delivery", "order_status", "stock_level"),
    TPCC.read_only,
    (_RP_NO_PAY, leaf("2pl", "payment_by_name", "delivery", label="2PL(BYNAME,DEL)")),
)

#: SEATS (Figure 4.8 / 5.15); its ``3layer`` is :func:`seats_3layer`.
SEATS = Grouping(
    "SEATS",
    (
        "new_reservation",
        "delete_reservation",
        "update_reservation",
        "update_customer",
        "find_flights",
        "find_open_seats",
    ),
    ("find_flights", "find_open_seats"),
)

#: The cross-group micro workload has no read-only type: only the monolithic
#: baselines are derived, Figure 4.10's shapes are spelled out below.
MICRO = Grouping("micro", ("group_a_update", "group_b_update"))

#: The single-row transactions (deposit_checking, transact_savings,
#: write_check) pipeline well; amalgamate and send_payment touch two
#: customers and stay under plain 2PL.
SMALLBANK = Grouping(
    "SmallBank",
    (
        "balance",
        "deposit_checking",
        "transact_savings",
        "amalgamate",
        "write_check",
        "send_payment",
    ),
    ("balance",),
    (
        leaf("rp", "deposit_checking", "transact_savings", "write_check", label="RP(single-row)"),
        leaf("2pl", "amalgamate", "send_payment", label="2PL(two-row)"),
    ),
)

_YCSB_INSERT = leaf("2pl", "insert_record", label="2PL(insert)")
#: RP for the contended single-key writers, plain 2PL for inserts.
YCSB = Grouping(
    "YCSB",
    ("read_record", "scan_records", "update_record", "insert_record", "read_modify_write"),
    ("read_record", "scan_records"),
    (leaf("rp", "update_record", "read_modify_write", label="RP(updates)"), _YCSB_INSERT),
)
YCSB_TRANSACTIONS = YCSB.transactions

#: Producers and consumers sit in *different* child groups, so the
#: dequeue's bounded scan conflicts with enqueue's tail inserts at the
#: internal 2PL node — the cross-group (nexus) predicate-lock path.
QUEUE = Grouping(
    "Queue",
    ("peek", "enqueue", "dequeue", "sweep"),
    ("peek",),
    (
        leaf("2pl", "enqueue", label="2PL(producer)"),
        leaf("2pl", "dequeue", "sweep", label="2PL(consumer)"),
    ),
)


# ---------------------------------------------------------------------------
# Trees that are no instance of a shape, or a shape with one-off groups
# ---------------------------------------------------------------------------

def tpcc_callas_1():
    """Callas-1 (Figure 4.6a): 2PL cross-group over three groups."""
    return Configuration(
        node(
            "2pl",
            _RP_NO_PAY.clone(),
            _RP_DEL.clone(),
            leaf("none", "order_status", "stock_level", label="ReadOnly"),
            label="Callas-1",
        ),
        name="callas-1",
    )


def tpcc_callas_2():
    """Callas-2 (Figure 4.6b): stock_level moved into the RP group."""
    return Configuration(
        node(
            "2pl",
            leaf("rp", "new_order", "payment", "stock_level", label="RP(NO,PAY,SL)"),
            _RP_DEL.clone(),
            leaf("none", "order_status", label="ReadOnly"),
            label="Callas-2",
        ),
        name="callas-2",
    )


def tpcc_hot_item_3layer():
    """Extensibility baseline: hot_item joins the new_order/payment RP group."""
    return three_layer(
        TPCC.read_only,
        [leaf("rp", "new_order", "payment", "hot_item", label="RP(NO,PAY,HOT)"), _RP_DEL.clone()],
        name="hot-item-3layer",
        label="HotItem-3layer",
    )


def tpcc_hot_item_4layer():
    """Extensibility solution: hot_item in its own group under a cross-group RP."""
    cross_group = node(
        "rp",
        _RP_NO_PAY.clone(),
        leaf("2pl", "hot_item", label="2PL(HOT)"),
        label="RP cross-group",
    )
    return three_layer(
        TPCC.read_only,
        [cross_group, _RP_DEL.clone()],
        name="hot-item-4layer",
        label="HotItem-4layer",
    )


def grouping_same_group():
    """Table 3.1: new_order and stock_level pipelined in one RP group."""
    return Configuration(
        node(
            "2pl",
            leaf("rp", "new_order", "stock_level", label="RP(NO,SL)"),
            leaf("2pl", "payment", "delivery", "order_status", label="rest"),
        ),
        name="grouping-same-group",
    )


def grouping_separate():
    """Table 3.1: new_order and stock_level in separate groups under 2PL."""
    return Configuration(
        node(
            "2pl",
            leaf("rp", "new_order", label="RP(NO)"),
            leaf("none", "stock_level", label="SL"),
            leaf("2pl", "payment", "delivery", "order_status", label="rest"),
        ),
        name="grouping-separate",
    )


def _flight(args):
    return args.get("f_id")


def seats_3layer(per_flight=True):
    """SSI over {read-only, 2PL over per-flight TSO reservation groups}.

    ``per_flight=False`` is Table 5.1's contrast: one TSO instance for every
    flight instead of partition-by-instance.
    """
    reservations = leaf(
        "tso",
        "new_reservation",
        "delete_reservation",
        "update_reservation",
        label="TSO per flight" if per_flight else "TSO",
        instance_key=_flight if per_flight else None,
    )
    return three_layer(
        SEATS.read_only,
        [reservations, leaf("2pl", "update_customer", label="2PL(UC)")],
        name="seats-3layer" if per_flight else "seats-3layer-no-partition",
        label="SEATS-3layer",
    )


def micro_2layer():
    """2PL cross-group over two runtime-pipelining groups (Figure 4.10)."""
    return Configuration(
        node(
            "2pl",
            leaf("rp", "group_a_update", label="RP(A)"),
            leaf("rp", "group_b_update", label="RP(B)"),
            label="Micro-2layer",
        ),
        name="micro-2layer",
    )


def micro_ssi_2layer():
    """SSI cross-group over an RP group and a 2PL group."""
    return Configuration(
        node(
            "ssi",
            leaf("rp", "group_a_update", label="RP(A)"),
            leaf("2pl", "group_b_update", label="2PL(B)"),
            label="Micro-SSI-2layer",
        ),
        name="micro-ssi-2layer",
    )


# ---------------------------------------------------------------------------
# Registries
# ---------------------------------------------------------------------------

#: The ``batch*`` trees: every YCSB writer's key set is computable from its
#: arguments and the scan declares its range, so the entire mix satisfies
#: the batch mechanism's declarability requirement (the BOHM/DGCC
#: configuration).  In ``batch-3layer`` the deterministic batch group
#: replaces the RP group: the contended single-key writers are sequenced,
#: inserts stay under plain 2PL and conflict with them only at the nexus.
YCSB_CONFIGURATIONS = {
    **derived(YCSB, "2pl", "ssi", "2layer", "3layer"),
    "batch": partial(monolithic_tree, YCSB, "batch"),
    "batch-2layer": partial(two_layer_tree, YCSB, "batch", "Batch updates", "YCSB-batch"),
    "batch-3layer": partial(
        three_layer_tree,
        YCSB,
        (leaf("batch", "update_record", "read_modify_write", label="Batch(updates)"), _YCSB_INSERT),
        "YCSB-batch",
    ),
}

#: workload name -> {configuration name -> zero-argument factory}.
#: ``tpcc`` is Figure 4.6 (Tebaldi's two-layer tree pipelines its one update
#: group).  ``tpcc-scan``, ``queue`` and ``ycsb-scan`` carry range scans;
#: ``ycsb-zipf`` shares the YCSB trees (same transaction types, zipfian
#: keys at a larger keyspace) including the deterministic batch trees.
#: ``ycsb-scan`` is the scan-heavy profile (E) as its own workload: scans
#: are 95% of the mix, so the batch trees must carry their declared-range
#: phantom story, not just point writes.
WORKLOAD_CONFIGURATIONS = {
    "tpcc": {
        **derived(TPCC, "2pl", "ssi"),
        "callas-1": tpcc_callas_1,
        "callas-2": tpcc_callas_2,
        "tebaldi-2layer": partial(two_layer_tree, TPCC, "rp", "RP(NO,PAY,DEL)", "Tebaldi"),
        "tebaldi-3layer": partial(three_layer_tree, TPCC, title="Tebaldi"),
    },
    "tpcc-scan": derived(TPCC_SCAN, "2pl", "ssi", "2layer", "3layer"),
    "seats": {**derived(SEATS, "2pl", "2layer"), "3layer": seats_3layer},
    "micro": {
        **derived(MICRO, "2pl", "ssi"),
        "2layer": micro_2layer,
        "ssi-2layer": micro_ssi_2layer,
    },
    "smallbank": derived(SMALLBANK, "2pl", "ssi", "2layer", "3layer"),
    "ycsb": YCSB_CONFIGURATIONS,
    "ycsb-zipf": YCSB_CONFIGURATIONS,
    "ycsb-scan": {
        name: YCSB_CONFIGURATIONS[name]
        for name in ("2pl", "ssi", "2layer", "batch", "batch-2layer")
    },
    "queue": derived(QUEUE, "2pl", "ssi", "2layer", "3layer"),
}

# benchmarks/ledger/ imports these three (and YCSB_TRANSACTIONS) by name, and
# a PR it measures may not edit it.
tpcc_tebaldi_3layer = WORKLOAD_CONFIGURATIONS["tpcc"]["tebaldi-3layer"]
ycsb_2layer = YCSB_CONFIGURATIONS["2layer"]
smallbank_3layer = WORKLOAD_CONFIGURATIONS["smallbank"]["3layer"]

#: workload name -> configuration names registered for crash-enabled checked
#: runs (``python -m repro.harness --faults N`` and the crash-recovery test
#: suite).  The queue/outbox workload is the flagship — exactly-once dequeue
#: must hold across a crash — with smallbank as the point-access contrast;
#: both sweep the monolithic trees and the hierarchical 2/3-layer trees so
#: recovery is exercised under every CC family the paper composes.
CRASH_CELLS = {
    "queue": ("2pl", "ssi", "2layer", "3layer"),
    "smallbank": ("2pl", "ssi", "2layer", "3layer"),
}

#: workload name -> configuration names registered for degraded-mode checked
#: runs under seeded *message* faults (``python -m repro.harness
#: --net-faults N`` and the network-chaos test suite).  The queue workload
#: is again the flagship (exactly-once dequeue under duplicated and
#: reordered commit traffic); smallbank exercises multi-participant
#: precommits (transfers span durability servers) and ycsb-zipf adds a
#: skewed-contention profile.  Each sweeps a monolithic tree and the
#: hierarchical 2/3-layer trees so retries and the admission valve run
#: under every CC family the paper composes.
CHAOS_CELLS = {
    "queue": ("2pl", "ssi", "2layer", "3layer"),
    "smallbank": ("2pl", "2layer", "3layer"),
    "ycsb-zipf": ("2pl", "2layer", "3layer"),
}
