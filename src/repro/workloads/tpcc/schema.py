"""TPC-C schema and initial population, adapted to the key-value interface.

The adaptation follows Section 4.6: a separate table serves as a secondary
index locating a customer's latest order, and cardinalities are configurable
so that laptop-scale runs stay fast while preserving the contention
structure (hot ``warehouse`` and ``district`` rows, per-item ``stock``
rows).  The paper's adaptation dropped customer-last-name scans; with
first-class range scans in the storage layer they are back:
``customer_name_idx`` is a secondary index keyed
``(w_id, d_id, c_last, c_id)`` whose prefix scan serves the
payment-by-name lookup (customers share TPC-C's syllable-generated last
names, so a name resolves to a small ordered candidate set).
"""

from dataclasses import dataclass

from repro.storage.tables import Catalog, Table, TableSchema

#: The TPC-C last-name syllables (clause 4.3.2.3).
LAST_NAME_SYLLABLES = (
    "BAR", "OUGHT", "ABLE", "PRI", "PRES",
    "ESE", "ANTI", "CALLY", "ATION", "EING",
)


def last_name_for(number):
    """The TPC-C last name of a customer number (three base-10 syllables)."""
    number = number % 1000
    return (
        LAST_NAME_SYLLABLES[number // 100]
        + LAST_NAME_SYLLABLES[(number // 10) % 10]
        + LAST_NAME_SYLLABLES[number % 10]
    )


def customer_last_name(c_id):
    """The deterministic last name assigned to customer ``c_id`` at load.

    Customers cycle through 100 distinct names, so every district of a
    laptop-scale population has a handful of customers per name — the
    by-name scan returns a small, non-trivial candidate set.
    """
    return last_name_for((c_id - 1) % 100)


@dataclass
class TPCCScale:
    """Scale parameters of the TPC-C population."""

    warehouses: int = 2
    districts_per_warehouse: int = 10
    customers_per_district: int = 200
    items: int = 5000
    initial_orders_per_district: int = 150
    max_order_lines: int = 8
    min_order_lines: int = 3


TABLES = {
    "warehouse": TableSchema("warehouse", ("w_id",)),
    "district": TableSchema("district", ("w_id", "d_id")),
    "customer": TableSchema("customer", ("w_id", "d_id", "c_id")),
    # Secondary index for payment-by-name: prefix (w_id, d_id, c_last) scans
    # enumerate the matching customer ids in order.
    "customer_name_idx": TableSchema(
        "customer_name_idx", ("w_id", "d_id", "c_last", "c_id")
    ),
    "history": TableSchema("history", ("h_id",)),
    "orders": TableSchema("orders", ("w_id", "d_id", "o_id")),
    "new_order": TableSchema("new_order", ("w_id", "d_id", "o_id")),
    "new_order_ptr": TableSchema("new_order_ptr", ("w_id", "d_id")),
    "order_line": TableSchema("order_line", ("w_id", "d_id", "o_id", "ol_number")),
    "item": TableSchema("item", ("i_id",)),
    "stock": TableSchema("stock", ("w_id", "i_id")),
    "customer_last_order": TableSchema("customer_last_order", ("w_id", "d_id", "c_id")),
    "item_stats": TableSchema("item_stats", ("i_id",)),
}


def build_catalog(scale, rng):
    """Populate a full TPC-C catalog for the given scale."""
    tables = {name: Table(schema) for name, schema in TABLES.items()}

    for w_id in range(1, scale.warehouses + 1):
        tables["warehouse"].insert(
            (w_id,), {"w_name": f"W{w_id}", "w_ytd": 0.0, "w_tax": 0.05}
        )
        for i_id in range(1, scale.items + 1):
            tables["stock"].insert(
                (w_id, i_id),
                {"s_quantity": 100, "s_ytd": 0, "s_order_cnt": 0, "s_remote_cnt": 0},
            )
        for d_id in range(1, scale.districts_per_warehouse + 1):
            next_o_id = scale.initial_orders_per_district + 1
            tables["district"].insert(
                (w_id, d_id),
                {
                    "d_name": f"D{w_id}.{d_id}",
                    "d_ytd": 0.0,
                    "d_tax": 0.07,
                    "d_next_o_id": next_o_id,
                },
            )
            tables["new_order_ptr"].insert((w_id, d_id), {"first_undelivered": 1})
            for c_id in range(1, scale.customers_per_district + 1):
                c_last = customer_last_name(c_id)
                tables["customer"].insert(
                    (w_id, d_id, c_id),
                    {
                        "c_name": f"C{c_id}",
                        "c_last": c_last,
                        "c_balance": 0.0,
                        "c_ytd_payment": 0.0,
                        "c_payment_cnt": 0,
                        "c_delivery_cnt": 0,
                    },
                )
                tables["customer_name_idx"].insert((w_id, d_id, c_last, c_id), {})
            for o_id in range(1, scale.initial_orders_per_district + 1):
                c_id = rng.randint(1, scale.customers_per_district)
                ol_cnt = rng.randint(scale.min_order_lines, scale.max_order_lines)
                tables["orders"].insert(
                    (w_id, d_id, o_id),
                    {"o_c_id": c_id, "o_carrier_id": None, "o_ol_cnt": ol_cnt, "o_entry_d": 0.0},
                )
                tables["customer_last_order"].insert((w_id, d_id, c_id), {"o_id": o_id})
                tables["new_order"].insert((w_id, d_id, o_id), {})
                for ol_number in range(1, ol_cnt + 1):
                    i_id = rng.randint(1, scale.items)
                    tables["order_line"].insert(
                        (w_id, d_id, o_id, ol_number),
                        {
                            "ol_i_id": i_id,
                            "ol_supply_w_id": w_id,
                            "ol_quantity": rng.randint(1, 10),
                            "ol_amount": round(rng.uniform(1.0, 100.0), 2),
                            "ol_delivery_d": None,
                        },
                    )

    for i_id in range(1, scale.items + 1):
        tables["item"].insert(
            (i_id,), {"i_name": f"item-{i_id}", "i_price": round(1.0 + i_id * 0.37, 2)}
        )
        tables["item_stats"].insert((i_id,), {"sale_count": 0})

    return Catalog(tables.values())
