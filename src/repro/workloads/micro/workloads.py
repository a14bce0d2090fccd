"""The paper's microbenchmarks (Sections 4.6.4 and 4.6.5).

Three synthetic workloads:

* :class:`CrossGroupConflictWorkload` — Figure 4.10: two groups of update (or
  one update and one read-only) transactions whose first operation touches a
  shared hot table; tuning the hot-table size varies the cross-group conflict
  rate (rw-1/rw-5/rw-10 and ww-1/ww-5/ww-10).
* :class:`HierarchyMicroWorkload` — Figure 4.11: three transaction types whose
  pairwise conflicts cannot all be handled well by a single cross-group CC.
* :class:`NoConflictWorkload` — Table 4.1: conflict-free writes used to
  measure the pure overhead of additional CC layers.
"""

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.storage.tables import Catalog, Table, TableSchema
from repro.workloads.base import Workload


def _table(name, key_columns, rows):
    table = Table(TableSchema(name=name, key_columns=key_columns))
    for key_parts, row in rows:
        table.insert(key_parts, row)
    return table


class CrossGroupConflictWorkload(Workload):
    """Two transaction groups conflicting on a shared hot table (Figure 4.10)."""

    name = "micro-crossgroup"

    def __init__(self, shared_rows=100, local_rows=10, cold_rows=10_000,
                 read_only_second_group=False, operations=7):
        self.shared_rows = shared_rows
        self.local_rows = local_rows
        self.cold_rows = cold_rows
        self.read_only_second_group = read_only_second_group
        self.operations = operations
        # Each remaining operation touches its own rarely-contended table, so
        # runtime pipelining can give every operation its own pipeline step
        # (the paper's "remaining operations conflict with low probability").
        self.cold_tables = tuple(
            f"cold_{index}" for index in range(max(self.operations - 2, 1))
        )

    # -- schema -----------------------------------------------------------------

    def build_catalog(self):
        tables = [
            _table(
                "shared", ("id",),
                (((i,), {"value": 0}) for i in range(self.shared_rows)),
            ),
            _table(
                "local_a", ("id",),
                (((i,), {"value": 0}) for i in range(self.local_rows)),
            ),
            _table(
                "local_b", ("id",),
                (((i,), {"value": 0}) for i in range(self.local_rows)),
            ),
        ]
        for name in self.cold_tables:
            tables.append(
                _table(name, ("id",), (((i,), {"value": 0}) for i in range(self.cold_rows)))
            )
        return Catalog(tables)

    # -- procedures ---------------------------------------------------------------

    def _update_group_a(self, ctx, shared_id, local_id, cold_ids):
        yield from ctx.update("shared", shared_id, updates={"value": lambda v: (v or 0) + 1})
        yield from ctx.update("local_a", local_id, updates={"value": lambda v: (v or 0) + 1})
        for table, cold_id in zip(self.cold_tables, cold_ids):
            yield from ctx.update(table, cold_id, updates={"value": lambda v: (v or 0) + 1})
        return True

    def _update_group_b(self, ctx, shared_id, local_id, cold_ids):
        yield from ctx.update("shared", shared_id, updates={"value": lambda v: (v or 0) + 1})
        yield from ctx.update("local_b", local_id, updates={"value": lambda v: (v or 0) + 1})
        for table, cold_id in zip(self.cold_tables, cold_ids):
            yield from ctx.update(table, cold_id, updates={"value": lambda v: (v or 0) + 1})
        return True

    def _read_group_b(self, ctx, shared_id, local_id, cold_ids):
        total = 0
        row = yield from ctx.read("shared", shared_id)
        total += (row or {}).get("value", 0)
        row = yield from ctx.read("local_b", local_id)
        total += (row or {}).get("value", 0)
        for table, cold_id in zip(self.cold_tables, cold_ids):
            row = yield from ctx.read(table, cold_id)
            total += (row or {}).get("value", 0)
        return total

    def build_transaction_types(self):
        writer_accesses = (
            ("shared", "w"), ("local_a", "w"),
        ) + tuple((name, "w") for name in self.cold_tables)
        writer_b_accesses = (
            ("shared", "w"), ("local_b", "w"),
        ) + tuple((name, "w") for name in self.cold_tables)
        reader_accesses = (
            ("shared", "r"), ("local_b", "r"),
        ) + tuple((name, "r") for name in self.cold_tables)
        types = {
            "group_a_update": TransactionType(
                name="group_a_update",
                procedure=self._update_group_a,
                profile=TransactionProfile(
                    name="group_a_update", accesses=writer_accesses
                ),
            ),
        }
        if self.read_only_second_group:
            types["group_b_read"] = TransactionType(
                name="group_b_read",
                procedure=self._read_group_b,
                profile=TransactionProfile(
                    name="group_b_read", accesses=reader_accesses, read_only=True
                ),
            )
        else:
            types["group_b_update"] = TransactionType(
                name="group_b_update",
                procedure=self._update_group_b,
                profile=TransactionProfile(
                    name="group_b_update", accesses=writer_b_accesses
                ),
            )
        return types

    def generate_args(self, rng, txn_type):
        # Every transaction walks the cold tables in the same order, so the
        # workload is deadlock-free under lock-based CCs, matching the paper's
        # setup (2PL "does not cause aborts for deadlock-free applications").
        return {
            "shared_id": rng.randrange(self.shared_rows),
            "local_id": rng.randrange(self.local_rows),
            "cold_ids": [rng.randrange(self.cold_rows) for _ in self.cold_tables],
        }


class HierarchyMicroWorkload(Workload):
    """Three transactions needing different cross-group CCs (Figure 4.11)."""

    name = "micro-hierarchy"
    #: Cold rows ``t1_read`` reads in each cold table.
    READS_PER_TABLE = 3

    def __init__(self, hot_rows=10, cold_rows=10_000):
        self.hot_rows = hot_rows
        self.cold_rows = cold_rows
        self.cold_tables = ("table_b", "table_c", "table_d", "table_e")

    def build_catalog(self):
        tables = [
            _table("table_a", ("id",), (((i,), {"value": 0}) for i in range(self.hot_rows)))
        ]
        for name in self.cold_tables:
            tables.append(
                _table(name, ("id",), (((i,), {"value": 0}) for i in range(self.cold_rows)))
            )
        return Catalog(tables)

    def _t1_read(self, ctx, hot_id, cold_ids):
        total = 0
        row = yield from ctx.read("table_a", hot_id)
        total += (row or {}).get("value", 0)
        for name, ids in zip(self.cold_tables, cold_ids):
            for cold_id in ids:
                row = yield from ctx.read(name, cold_id)
                total += (row or {}).get("value", 0)
        return total

    def _t2_update(self, ctx, hot_id, cold_ids):
        yield from ctx.update("table_a", hot_id, updates={"value": lambda v: (v or 0) + 1})
        for name, ids in zip(self.cold_tables, cold_ids):
            yield from ctx.update(name, ids[0], updates={"value": lambda v: (v or 0) + 1})
        return True

    def _t3_update(self, ctx, hot_id, cold_ids):
        values = []
        for name, ids in zip(self.cold_tables, cold_ids):
            row = yield from ctx.read(name, ids[0])
            values.append((row or {}).get("value", 0))
        yield from ctx.update(
            "table_b", cold_ids[0][0], updates={"value": sum(values)}
        )
        return True

    def build_transaction_types(self):
        return {
            "t1_read": TransactionType(
                name="t1_read",
                procedure=self._t1_read,
                profile=TransactionProfile(
                    name="t1_read",
                    accesses=(("table_a", "r"),) + tuple(
                        (name, "r") for name in self.cold_tables
                    ),
                    read_only=True,
                ),
            ),
            "t2_update": TransactionType(
                name="t2_update",
                procedure=self._t2_update,
                profile=TransactionProfile(
                    name="t2_update",
                    accesses=(("table_a", "w"),) + tuple(
                        (name, "w") for name in self.cold_tables
                    ),
                ),
            ),
            "t3_update": TransactionType(
                name="t3_update",
                procedure=self._t3_update,
                profile=TransactionProfile(
                    name="t3_update",
                    accesses=tuple((name, "r") for name in self.cold_tables)
                    + (("table_b", "w"),),
                ),
            ),
        }

    def generate_args(self, rng, txn_type):
        if txn_type == "t1_read":
            cold_ids = [
                [rng.randrange(self.cold_rows) for _ in range(self.READS_PER_TABLE)]
                for _ in self.cold_tables
            ]
        else:
            cold_ids = [[rng.randrange(self.cold_rows)] for _ in self.cold_tables]
        return {"hot_id": rng.randrange(self.hot_rows), "cold_ids": cold_ids}


class NoConflictWorkload(Workload):
    """Conflict-free writes measuring pure framework overhead (Table 4.1)."""

    name = "micro-noconflict"

    def __init__(self, rows=200_000, operations=7):
        self.rows = rows
        self.operations = operations

    def build_catalog(self):
        # Rows are created on demand by the writes; pre-load a marker row so
        # the table exists in the catalog.
        table = _table("payload", ("id",), [((0,), {"value": 0})])
        return Catalog([table])

    def _write_only(self, ctx, ids):
        for row_id in ids:
            yield from ctx.write("payload", row_id, row={"value": row_id})
        return True

    def build_transaction_types(self):
        return {
            "write_only": TransactionType(
                name="write_only",
                procedure=self._write_only,
                profile=TransactionProfile(
                    name="write_only",
                    accesses=tuple(("payload", "w") for _ in range(self.operations)),
                ),
            )
        }

    def generate_args(self, rng, txn_type):
        base = rng.randrange(self.rows) * self.operations
        return {"ids": [base + offset for offset in range(self.operations)]}
