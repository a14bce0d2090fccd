"""Table abstraction over the key-value store.

Tebaldi is a transactional key-value store with support for tables and
variable-sized columns (Section 4.5).  Rows are dictionaries; the storage key
of a row is ``(table_name, primary_key_tuple)``.  Secondary indexes are plain
tables whose rows hold the primary key of the indexed row, mirroring how the
paper adapts TPC-C and SEATS to the key-value interface.
"""

from dataclasses import dataclass, field


def composite_key(table, *parts):
    """Build the storage key for a row of ``table`` with primary key ``parts``."""
    if len(parts) == 1:
        return (table, parts[0])
    return (table, tuple(parts))


@dataclass(frozen=True)
class TableSchema:
    """Static description of a table: its name and key columns."""

    name: str
    key_columns: tuple

    def key_for(self, *parts):
        if len(parts) != len(self.key_columns):
            raise ValueError(
                f"table {self.name!r} expects {len(self.key_columns)} key parts, "
                f"got {len(parts)}"
            )
        return composite_key(self.name, *parts)


@dataclass
class Table:
    """Convenience wrapper binding a schema to loader-time population."""

    schema: TableSchema
    rows: dict = field(default_factory=dict)

    @property
    def name(self):
        return self.schema.name

    def insert(self, key_parts, row):
        """Record a row to be loaded into the store at population time."""
        key = self.schema.key_for(*key_parts)
        self.rows[key] = dict(row)
        return key

    def load_into(self, store):
        """Hand each staged row (private since :meth:`insert`) to the store as is."""
        for key, row in self.rows.items():
            store.load(key, row)
        return len(self.rows)


class Catalog:
    """A named collection of tables (one per workload)."""

    def __init__(self, tables=()):
        self._tables = {}
        for table in tables:
            self.add(table)

    def add(self, table):
        self._tables[table.name] = table
        return table

    def __getitem__(self, name):
        return self._tables[name]

    def __contains__(self, name):
        return name in self._tables

    def __iter__(self):
        return iter(self._tables.values())

    def load_into(self, store):
        """Load every table into ``store``; returns total rows loaded."""
        return sum(table.load_into(store) for table in self._tables.values())
