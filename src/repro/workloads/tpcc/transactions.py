"""TPC-C stored procedures and static profiles.

The five standard transactions (new_order, payment, delivery, order_status,
stock_level) follow the adaptation of Section 4.6.1, and hot_item is the
extensibility transaction of Figure 4.9.  Each procedure is a generator using
the :class:`~repro.core.context.TransactionContext` API, and each has a
static :class:`~repro.analysis.profiles.TransactionProfile` describing its
table-access order for the runtime-pipelining static analysis.
"""

from repro.analysis.profiles import TransactionProfile


# ---------------------------------------------------------------------------
# Stored procedures
# ---------------------------------------------------------------------------

def new_order(ctx, w_id, d_id, c_id, items, deadlock_prone=False):
    """Place a new order: the contention hot spots are district and stock."""
    warehouse = yield from ctx.read("warehouse", w_id)
    if deadlock_prone:
        # Preferred RP ordering that reads stock before touching district;
        # under a cross-group 2PL this ordering deadlocks with stock_level
        # (Table 3.1 "Separate - Deadlock" column).
        stock_rows = []
        for i_id, _supply_w, _qty in items:
            stock_row = yield from ctx.read("stock", w_id, i_id, for_update=True)
            stock_rows.append(stock_row)
        district = yield from ctx.update(
            "district", w_id, d_id, updates={"d_next_o_id": lambda v: (v or 1) + 1}
        )
        o_id = district["d_next_o_id"] - 1
    else:
        district = yield from ctx.update(
            "district", w_id, d_id, updates={"d_next_o_id": lambda v: (v or 1) + 1}
        )
        o_id = district["d_next_o_id"] - 1
        stock_rows = None
    yield from ctx.write(
        "orders", w_id, d_id, o_id,
        row={
            "o_c_id": c_id,
            "o_carrier_id": None,
            "o_ol_cnt": len(items),
            "o_entry_d": ctx.now,
        },
    )
    yield from ctx.write("new_order", w_id, d_id, o_id, row={})
    # Operations are grouped by table (all item reads, then all stock updates,
    # then all order_line inserts): this is the reordering runtime pipelining's
    # preprocessing performs so that each table maps to one pipeline step.
    prices = []
    for i_id, _supply_w_id, _quantity in items:
        item = yield from ctx.read("item", i_id)
        prices.append((item or {}).get("i_price", 1.0))
    for index, (i_id, supply_w_id, quantity) in enumerate(items, start=1):
        if stock_rows is not None:
            stock = stock_rows[index - 1]
            new_quantity = max((stock or {}).get("s_quantity", 100) - quantity, 0) or 91
            yield from ctx.write(
                "stock", supply_w_id, i_id,
                row={
                    "s_quantity": new_quantity,
                    "s_ytd": (stock or {}).get("s_ytd", 0) + quantity,
                    "s_order_cnt": (stock or {}).get("s_order_cnt", 0) + 1,
                    "s_remote_cnt": (stock or {}).get("s_remote_cnt", 0),
                },
            )
        else:
            yield from ctx.update(
                "stock", supply_w_id, i_id,
                updates={
                    "s_quantity": lambda v, q=quantity: (v if v and v > q else 100) - q,
                    "s_ytd": lambda v, q=quantity: (v or 0) + q,
                    "s_order_cnt": lambda v: (v or 0) + 1,
                },
            )
    total_amount = 0.0
    for index, (i_id, supply_w_id, quantity) in enumerate(items, start=1):
        amount = quantity * prices[index - 1]
        total_amount += amount
        yield from ctx.write(
            "order_line", w_id, d_id, o_id, index,
            row={
                "ol_i_id": i_id,
                "ol_supply_w_id": supply_w_id,
                "ol_quantity": quantity,
                "ol_amount": amount,
                "ol_delivery_d": None,
            },
        )
    customer = yield from ctx.read("customer", w_id, d_id, c_id)
    yield from ctx.write("customer_last_order", w_id, d_id, c_id, row={"o_id": o_id})
    tax = (warehouse or {}).get("w_tax", 0.0) + (district or {}).get("d_tax", 0.0)
    return {"o_id": o_id, "total": round(total_amount * (1 + tax), 2), "customer": customer}


def payment(ctx, w_id, d_id, c_w_id, c_d_id, c_id, h_amount):
    """Record a customer payment against warehouse, district and customer."""
    yield from ctx.update(
        "warehouse", w_id, updates={"w_ytd": lambda v: (v or 0.0) + h_amount}
    )
    yield from ctx.update(
        "district", w_id, d_id, updates={"d_ytd": lambda v: (v or 0.0) + h_amount}
    )
    customer = yield from ctx.update(
        "customer", c_w_id, c_d_id, c_id,
        updates={
            "c_balance": lambda v: (v or 0.0) - h_amount,
            "c_ytd_payment": lambda v: (v or 0.0) + h_amount,
            "c_payment_cnt": lambda v: (v or 0) + 1,
        },
    )
    history_id = (w_id, d_id, c_id, ctx.txn_id)
    yield from ctx.write(
        "history", history_id,
        row={"w_id": w_id, "d_id": d_id, "c_id": c_id, "amount": h_amount},
    )
    return {"customer": customer}


def payment_by_name(ctx, w_id, d_id, c_w_id, c_d_id, c_last, h_amount):
    """Payment addressed by customer last name (TPC-C clause 2.5.2.2).

    The customer is located with a prefix scan over the
    ``customer_name_idx`` secondary index; per the specification the
    midpoint customer (position ``ceil(n/2)``) of the name's ordered
    candidate set receives the payment.  A name with no customers is a
    no-op (the spec resubmits with a different name; the closed-loop
    harness just draws a new transaction).
    """
    matches = yield from ctx.scan(
        "customer_name_idx", prefix=(c_w_id, c_d_id, c_last)
    )
    if not matches:
        return {"customer": None, "matched": 0}
    c_ids = sorted(pk[3] for pk, _row in matches)
    c_id = c_ids[(len(c_ids) - 1) // 2]
    result = yield from payment(ctx, w_id, d_id, c_w_id, c_d_id, c_id, h_amount)
    return {"customer": result["customer"], "matched": len(c_ids), "c_id": c_id}


def delivery(ctx, w_id, carrier_id, districts):
    """Deliver the oldest undelivered order of each district.

    The per-district loop revisits new_order_ptr after touching orders,
    order_line and customer, so under runtime pipelining all of delivery's
    tables collapse into a single merged step (its profile declares the loop).
    """
    delivered = []
    for d_id in districts:
        pointer = yield from ctx.read("new_order_ptr", w_id, d_id, for_update=True)
        o_id = (pointer or {}).get("first_undelivered", 1)
        order = yield from ctx.read("orders", w_id, d_id, o_id, for_update=True)
        if order is None:
            continue
        yield from ctx.write(
            "new_order_ptr", w_id, d_id, row={"first_undelivered": o_id + 1}
        )
        yield from ctx.delete("new_order", w_id, d_id, o_id)
        yield from ctx.write(
            "orders", w_id, d_id, o_id,
            row={**order, "o_carrier_id": carrier_id},
        )
        amount = 0.0
        for ol_number in range(1, order.get("o_ol_cnt", 0) + 1):
            line = yield from ctx.read(
                "order_line", w_id, d_id, o_id, ol_number, for_update=True
            )
            if line is None:
                continue
            amount += line.get("ol_amount", 0.0)
            yield from ctx.write(
                "order_line", w_id, d_id, o_id, ol_number,
                row={**line, "ol_delivery_d": ctx.now},
            )
        yield from ctx.update(
            "customer", w_id, d_id, order.get("o_c_id", 1),
            updates={
                "c_balance": lambda v, a=amount: (v or 0.0) + a,
                "c_delivery_cnt": lambda v: (v or 0) + 1,
            },
        )
        delivered.append((d_id, o_id))
    return {"delivered": delivered}


def order_status(ctx, w_id, d_id, c_id):
    """Read-only: a customer's balance and the status of their latest order."""
    customer = yield from ctx.read("customer", w_id, d_id, c_id)
    index_row = yield from ctx.read("customer_last_order", w_id, d_id, c_id)
    lines = []
    order = None
    if index_row is not None:
        o_id = index_row.get("o_id")
        order = yield from ctx.read("orders", w_id, d_id, o_id)
        for ol_number in range(1, (order or {}).get("o_ol_cnt", 0) + 1):
            line = yield from ctx.read("order_line", w_id, d_id, o_id, ol_number)
            if line is not None:
                lines.append(line)
    return {"customer": customer, "order": order, "lines": lines}


def stock_level(ctx, w_id, d_id, threshold, recent_orders=5):
    """Read-only: count recently-sold items whose stock is below a threshold."""
    district = yield from ctx.read("district", w_id, d_id)
    next_o_id = (district or {}).get("d_next_o_id", 1)
    orders = []
    for o_id in range(max(next_o_id - recent_orders, 1), next_o_id):
        order = yield from ctx.read("orders", w_id, d_id, o_id)
        if order is not None:
            orders.append((o_id, order.get("o_ol_cnt", 0)))
    item_ids = set()
    for o_id, ol_cnt in orders:
        for ol_number in range(1, ol_cnt + 1):
            line = yield from ctx.read("order_line", w_id, d_id, o_id, ol_number)
            if line is not None:
                item_ids.add(line.get("ol_i_id"))
    low_stock_items = set()
    for i_id in sorted(item_ids):
        stock = yield from ctx.read("stock", w_id, i_id)
        if stock is not None and stock.get("s_quantity", 100) < threshold:
            low_stock_items.add(i_id)
    return {"low_stock": len(low_stock_items)}


def hot_item(ctx, w_id, d_id, recent_orders=3):
    """Extensibility transaction (Figure 4.9): aggregate per-item sale counts."""
    district = yield from ctx.read("district", w_id, d_id)
    next_o_id = (district or {}).get("d_next_o_id", 1)
    orders = []
    for o_id in range(max(next_o_id - recent_orders, 1), next_o_id):
        order = yield from ctx.read("orders", w_id, d_id, o_id)
        if order is not None:
            orders.append((o_id, order.get("o_ol_cnt", 0)))
    touched = []
    for o_id, ol_cnt in orders:
        for ol_number in range(1, ol_cnt + 1):
            line = yield from ctx.read("order_line", w_id, d_id, o_id, ol_number)
            if line is not None:
                touched.append(line.get("ol_i_id"))
    for i_id in sorted(set(touched)):
        yield from ctx.update(
            "item_stats", i_id, updates={"sale_count": lambda v: (v or 0) + 1}
        )
    return {"items": touched}


# ---------------------------------------------------------------------------
# Static profiles (table access order as executed above)
# ---------------------------------------------------------------------------

PROFILES = {
    "new_order": TransactionProfile(
        name="new_order",
        accesses=(
            ("warehouse", "r"),
            ("district", "w"),
            ("orders", "w"),
            ("new_order", "w"),
            ("item", "r"),
            ("stock", "w"),
            ("order_line", "w"),
            ("customer", "r"),
            ("customer_last_order", "w"),
        ),
        description="place a new order (heavy district/stock contention)",
    ),
    "payment": TransactionProfile(
        name="payment",
        accesses=(
            ("warehouse", "w"),
            ("district", "w"),
            ("customer", "w"),
            ("history", "w"),
        ),
        description="record a payment (heavy warehouse/district contention)",
    ),
    "payment_by_name": TransactionProfile(
        name="payment_by_name",
        accesses=(
            ("customer_name_idx", "r"),
            ("warehouse", "w"),
            ("district", "w"),
            ("customer", "w"),
            ("history", "w"),
        ),
        scans=("customer_name_idx",),
        description="record a payment located by a customer-last-name scan",
    ),
    "delivery": TransactionProfile(
        name="delivery",
        accesses=(
            ("new_order_ptr", "w"),
            ("orders", "w"),
            ("new_order", "w"),
            ("order_line", "w"),
            ("customer", "w"),
            # The per-district loop revisits the first table, merging these
            # tables into one pipeline step under runtime pipelining.
            ("new_order_ptr", "w"),
        ),
        description="deliver the oldest undelivered orders",
    ),
    "order_status": TransactionProfile(
        name="order_status",
        accesses=(
            ("customer", "r"),
            ("customer_last_order", "r"),
            ("orders", "r"),
            ("order_line", "r"),
        ),
        read_only=True,
        description="read a customer's latest order",
    ),
    "stock_level": TransactionProfile(
        name="stock_level",
        accesses=(
            ("district", "r"),
            ("orders", "r"),
            ("order_line", "r"),
            ("stock", "r"),
        ),
        read_only=True,
        description="count low-stock items over recent orders",
    ),
    "hot_item": TransactionProfile(
        name="hot_item",
        accesses=(
            ("district", "r"),
            ("orders", "r"),
            ("order_line", "r"),
            ("item_stats", "w"),
        ),
        description="aggregate per-item sale counts over recent orders",
    ),
}

PROCEDURES = {
    "new_order": new_order,
    "payment": payment,
    "payment_by_name": payment_by_name,
    "delivery": delivery,
    "order_status": order_status,
    "stock_level": stock_level,
    "hot_item": hot_item,
}
