"""A YCSB-style parameterized workload over one ``usertable``.

The Yahoo! Cloud Serving Benchmark's core operations — point read, update,
insert, short scan and read-modify-write — are expressed as transactions
over the key-value interface, and its standard letter profiles select the
operation mix:

* **A** (update-heavy): 50% read / 50% update,
* **B** (read-heavy): 95% read / 5% update,
* **E** (scan-heavy): 95% scan / 5% insert.

All five transaction types are always registered (so one CC tree covers all
profiles); the profile only changes the mix that closed-loop clients draw
from.  Two skew models are available: YCSB's *hotspot* distribution (with
probability :data:`HOT_OP_FRACTION` the key is drawn from the first
``HOT_SET_FRACTION * records`` keys) and the classic *zipfian* generator of
Gray et al. with configurable ``zipf_theta`` — the heavier-tailed
distribution the original benchmark defaults to, registered in the harness
at a larger keyspace as ``ycsb-zipf``.
"""

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.storage.tables import Catalog, Table, TableSchema
from repro.workloads.base import Workload


class ZipfianGenerator:
    """Zipfian-distributed integers in ``[0, n)`` (Gray et al., SIGMOD '94).

    The standard YCSB generator: item ranks follow a power law with
    exponent ``theta`` (0 < theta < 1; YCSB's default is 0.99).  The
    ``zeta`` constants are precomputed once per (n, theta) — O(n) at
    construction, O(1) per draw — and draws are a pure function of the
    caller's RNG, so fixed-seed runs stay deterministic.
    """

    def __init__(self, n, theta=0.99):
        if not 0.0 < theta < 1.0:
            raise ValueError(f"zipfian theta must be in (0, 1), got {theta}")
        if n < 1:
            raise ValueError("zipfian range must contain at least one item")
        self.n = n
        self.theta = theta
        self.zeta2 = sum(1.0 / i ** theta for i in range(1, 3))
        self.zetan = sum(1.0 / i ** theta for i in range(1, n + 1))
        self.alpha = 1.0 / (1.0 - theta)
        self.eta = (1.0 - (2.0 / n) ** (1.0 - theta)) / (
            1.0 - self.zeta2 / self.zetan
        )

    def draw(self, rng):
        u = rng.random()
        uz = u * self.zetan
        if uz < 1.0:
            return 0
        if uz < 1.0 + 0.5 ** self.theta:
            return 1
        return int(self.n * (self.eta * u - self.eta + 1.0) ** self.alpha)


YCSB_PROFILES = {
    "a": {"read_record": 0.50, "update_record": 0.50},
    "b": {"read_record": 0.95, "update_record": 0.05},
    "e": {"scan_records": 0.95, "insert_record": 0.05},
}

UPDATE_TRANSACTIONS = ("update_record", "insert_record", "read_modify_write")
READ_ONLY_TRANSACTIONS = ("read_record", "scan_records")

#: The hotspot distribution: this share of operations hits the first
#: ``HOT_SET_FRACTION * records`` keys.
HOT_OP_FRACTION = 0.5
HOT_SET_FRACTION = 0.05
#: An insert's key is ``records + randrange(INSERT_SPACE)``.
INSERT_SPACE = 10_000


class YCSBWorkload(Workload):
    """YCSB core operations as transactions over ``usertable``."""

    name = "ycsb"

    def __init__(self, records=1000, profile="a", max_scan_length=10, seed=31,
                 distribution="hotspot", zipf_theta=0.99):
        if profile not in YCSB_PROFILES:
            raise ValueError(
                f"unknown YCSB profile {profile!r}; choose one of {sorted(YCSB_PROFILES)}"
            )
        if distribution not in ("hotspot", "zipfian"):
            raise ValueError(
                f"unknown YCSB distribution {distribution!r}; "
                "choose 'hotspot' or 'zipfian'"
            )
        self.records = records
        self.profile = profile
        self.max_scan_length = max_scan_length
        self.seed = seed
        self._zipf = (
            ZipfianGenerator(records, zipf_theta)
            if distribution == "zipfian"
            else None
        )

    # -- schema -------------------------------------------------------------------

    def build_catalog(self):
        usertable = Table(TableSchema("usertable", ("key",)))
        for key in range(self.records):
            usertable.insert((key,), {"field0": key * 7, "version": 0})
        return Catalog([usertable])

    # -- procedures -----------------------------------------------------------------

    def _read_record(self, ctx, key):
        row = yield from ctx.read("usertable", key)
        return {"row": row}

    def _update_record(self, ctx, key, value):
        row = yield from ctx.update(
            "usertable", key,
            updates={"field0": value, "version": lambda v: (v or 0) + 1},
        )
        return {"version": row["version"]}

    def _insert_record(self, ctx, key, value):
        yield from ctx.write("usertable", key, row={"field0": value, "version": 0})
        return {"inserted": key}

    def _scan_records(self, ctx, start, count):
        # A first-class range scan: CC mechanisms see the predicate (range
        # locks / snapshot range read sets) instead of a loop of point reads
        # blind to keys inserted into the scanned window.
        matches = yield from ctx.scan("usertable", lo=start, hi=start + count - 1)
        return {"rows": [row for _key, row in matches]}

    def _read_modify_write(self, ctx, key, delta):
        row = yield from ctx.read("usertable", key, for_update=True)
        current = (row or {}).get("field0", 0)
        version = (row or {}).get("version", 0)
        yield from ctx.write(
            "usertable", key, row={"field0": current + delta, "version": version + 1}
        )
        return {"field0": current + delta}

    # -- registration -------------------------------------------------------------------

    def build_transaction_types(self):
        # Every writer's key set — and the scan's range — is computable from
        # the arguments alone, so the whole mix is declarable: TSO promises
        # and deterministic batch sequencing can pre-assign version slots.
        write_key = lambda args: (("usertable", args["key"]),)  # noqa: E731
        scan_range = lambda args: (  # noqa: E731
            ("usertable", args["start"], args["start"] + args["count"] - 1),
        )
        profiles = {
            "read_record": TransactionProfile(
                name="read_record", accesses=(("usertable", "r"),), read_only=True,
                description="point read of one record",
            ),
            "update_record": TransactionProfile(
                name="update_record", accesses=(("usertable", "w"),),
                promise_keys=write_key,
                description="overwrite one field of a record",
            ),
            "insert_record": TransactionProfile(
                name="insert_record", accesses=(("usertable", "w"),),
                promise_keys=write_key,
                description="insert a new record",
            ),
            "scan_records": TransactionProfile(
                name="scan_records", accesses=(("usertable", "r"),), read_only=True,
                scans=("usertable",), scan_ranges=scan_range,
                description="short range scan",
            ),
            "read_modify_write": TransactionProfile(
                name="read_modify_write", accesses=(("usertable", "w"),),
                promise_keys=write_key,
                description="read a record and write it back",
            ),
        }
        procedures = {
            "read_record": self._read_record,
            "update_record": self._update_record,
            "insert_record": self._insert_record,
            "scan_records": self._scan_records,
            "read_modify_write": self._read_modify_write,
        }
        return {
            name: TransactionType(
                name=name,
                procedure=procedures[name],
                profile=profiles[name],
            )
            for name in profiles
        }

    def mix(self):
        return dict(YCSB_PROFILES[self.profile])

    # -- argument generation -----------------------------------------------------------

    def _key(self, rng):
        if self._zipf is not None:
            return self._zipf.draw(rng)
        if rng.random() < HOT_OP_FRACTION:
            hot = max(int(self.records * HOT_SET_FRACTION), 1)
            return rng.randrange(hot)
        return rng.randrange(self.records)

    def generate_args(self, rng, txn_type):
        if txn_type == "read_record":
            return {"key": self._key(rng)}
        if txn_type == "update_record":
            return {"key": self._key(rng), "value": rng.randrange(1_000_000)}
        if txn_type == "insert_record":
            # Inserts land in a key space above the loaded records; collisions
            # just overwrite, which YCSB's insert-order guarantees tolerate.
            return {
                "key": self.records + rng.randrange(INSERT_SPACE),
                "value": rng.randrange(1_000_000),
            }
        if txn_type == "scan_records":
            count = rng.randint(1, self.max_scan_length)
            start = min(self._key(rng), max(self.records - count, 0))
            return {"start": start, "count": count}
        if txn_type == "read_modify_write":
            return {"key": self._key(rng), "delta": rng.randrange(1, 100)}
        raise ValueError(f"unknown YCSB transaction {txn_type!r}")
