"""The TPC-C workload: mix, argument generation and scale handling."""

import random
from functools import partial

from repro.analysis.profiles import TransactionType
from repro.workloads.base import Workload
from repro.workloads.tpcc import transactions as procs
from repro.workloads.tpcc.schema import (
    MAX_ORDER_LINES, MIN_ORDER_LINES, TPCCScale, build_catalog, customer_last_name,
)

#: Chance that a new order line is supplied by a random warehouse.
REMOTE_ITEM_PROBABILITY = 0.01


#: The contention-heavy closed-loop mix used throughout the evaluation.
TPCC_STANDARD_MIX = {
    "new_order": 0.45,
    "payment": 0.43,
    "delivery": 0.04,
    "order_status": 0.04,
    "stock_level": 0.04,
}

#: Mix used by the extensibility experiment (Section 4.6.3).
TPCC_HOT_ITEM_MIX = {
    "new_order": 0.418,
    "payment": 0.418,
    "delivery": 0.041,
    "order_status": 0.041,
    "stock_level": 0.041,
    "hot_item": 0.041,
}

#: Mix with the by-name payment variant: TPC-C addresses 60% of payments by
#: customer last name (clause 2.5.1.2), so the standard payment share is
#: split 60/40 between the scan-based and the by-id variant.
TPCC_PAYMENT_BY_NAME_MIX = {
    "new_order": 0.45,
    "payment": 0.172,
    "payment_by_name": 0.258,
    "delivery": 0.04,
    "order_status": 0.04,
    "stock_level": 0.04,
}


class TPCCWorkload(Workload):
    """TPC-C adapted to the key-value interface (Section 4.6.1)."""

    name = "tpcc"

    def __init__(
        self,
        warehouses=2,
        scale=None,
        seed=42,
        include_hot_item=False,
        include_payment_by_name=False,
        deadlock_prone_new_order=False,
        disjoint_warehouses=False,
    ):
        self.scale = scale or TPCCScale(warehouses=warehouses)
        self.seed = seed
        self.include_hot_item = include_hot_item
        self.include_payment_by_name = include_payment_by_name
        self.deadlock_prone_new_order = deadlock_prone_new_order
        self.disjoint_warehouses = disjoint_warehouses

    # -- schema / registration -------------------------------------------------

    def build_catalog(self):
        return build_catalog(self.scale, random.Random(self.seed))

    def build_transaction_types(self):
        names = ["new_order", "payment", "delivery", "order_status", "stock_level"]
        if self.include_payment_by_name:
            names.insert(2, "payment_by_name")
        if self.include_hot_item:
            names.append("hot_item")
        types = {}
        for name in names:
            procedure = procs.PROCEDURES[name]
            if name == "new_order" and self.deadlock_prone_new_order:
                procedure = partial(procs.new_order, deadlock_prone=True)
            types[name] = TransactionType(
                name=name,
                procedure=procedure,
                profile=procs.PROFILES[name],
            )
        return types

    def mix(self):
        if self.include_hot_item:
            return dict(TPCC_HOT_ITEM_MIX)
        if self.include_payment_by_name:
            return dict(TPCC_PAYMENT_BY_NAME_MIX)
        return dict(TPCC_STANDARD_MIX)

    # -- argument generation ------------------------------------------------------

    def _warehouse_for(self, rng, txn_type):
        warehouses = self.scale.warehouses
        if self.disjoint_warehouses and warehouses > 1:
            # Table 3.1 "no conflict" column: stock_level and new_order are
            # artificially restricted to disjoint warehouse ranges.
            half = max(warehouses // 2, 1)
            if txn_type == "stock_level":
                return rng.randint(half + 1, warehouses)
            return rng.randint(1, half)
        return rng.randint(1, warehouses)

    def generate_args(self, rng, txn_type):
        scale = self.scale
        w_id = self._warehouse_for(rng, txn_type)
        d_id = rng.randint(1, scale.districts_per_warehouse)
        if txn_type == "new_order":
            item_count = rng.randint(MIN_ORDER_LINES, MAX_ORDER_LINES)
            item_ids = rng.sample(range(1, scale.items + 1), item_count)
            items = []
            for i_id in sorted(item_ids):
                supply_w_id = w_id
                if scale.warehouses > 1 and rng.random() < REMOTE_ITEM_PROBABILITY:
                    supply_w_id = rng.randint(1, scale.warehouses)
                items.append((i_id, supply_w_id, rng.randint(1, 10)))
            return {
                "w_id": w_id,
                "d_id": d_id,
                "c_id": rng.randint(1, scale.customers_per_district),
                "items": items,
            }
        if txn_type == "payment":
            c_w_id, c_d_id = w_id, d_id
            if scale.warehouses > 1 and rng.random() < 0.15:
                c_w_id = rng.randint(1, scale.warehouses)
                c_d_id = rng.randint(1, scale.districts_per_warehouse)
            return {
                "w_id": w_id,
                "d_id": d_id,
                "c_w_id": c_w_id,
                "c_d_id": c_d_id,
                "c_id": rng.randint(1, scale.customers_per_district),
                "h_amount": round(rng.uniform(1.0, 5000.0), 2),
            }
        if txn_type == "payment_by_name":
            c_w_id, c_d_id = w_id, d_id
            if scale.warehouses > 1 and rng.random() < 0.15:
                c_w_id = rng.randint(1, scale.warehouses)
                c_d_id = rng.randint(1, scale.districts_per_warehouse)
            # Drawing the name through a random loaded customer id matches
            # the loaded name distribution, so scans rarely come up empty.
            c_last = customer_last_name(rng.randint(1, scale.customers_per_district))
            return {
                "w_id": w_id,
                "d_id": d_id,
                "c_w_id": c_w_id,
                "c_d_id": c_d_id,
                "c_last": c_last,
                "h_amount": round(rng.uniform(1.0, 5000.0), 2),
            }
        if txn_type == "delivery":
            districts = list(range(1, scale.districts_per_warehouse + 1))
            return {"w_id": w_id, "carrier_id": rng.randint(1, 10), "districts": districts}
        if txn_type == "order_status":
            return {
                "w_id": w_id,
                "d_id": d_id,
                "c_id": rng.randint(1, scale.customers_per_district),
            }
        if txn_type == "stock_level":
            return {"w_id": w_id, "d_id": d_id, "threshold": rng.randint(10, 20)}
        if txn_type == "hot_item":
            return {"w_id": w_id, "d_id": d_id}
        raise ValueError(f"unknown TPC-C transaction {txn_type!r}")
