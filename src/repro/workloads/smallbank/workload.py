"""The SmallBank workload: six short banking transactions.

SmallBank (Alomari et al., the standard snapshot-isolation stress test, also
shipped with H-Store/OLTP-Bench) keeps a savings and a checking balance per
customer and mixes five update transactions with one read-only balance
probe.  The transactions are short — one to four row accesses — so CC
framework overhead and contention handling dominate, which is exactly the
regime where hierarchical CC composition must stay serializable.

Contention is tuned with the hot-account knob: with probability
``hot_probability`` a transaction draws its customers from the first
``hot_accounts`` ids instead of the whole population, mimicking the skewed
access pattern of the original benchmark.
"""

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.storage.tables import Catalog, Table, TableSchema
from repro.workloads.base import Workload


SMALLBANK_MIX = {
    "balance": 0.15,
    "deposit_checking": 0.15,
    "transact_savings": 0.15,
    "amalgamate": 0.15,
    "write_check": 0.15,
    "send_payment": 0.25,
}

UPDATE_TRANSACTIONS = (
    "deposit_checking",
    "transact_savings",
    "amalgamate",
    "write_check",
    "send_payment",
)
READ_ONLY_TRANSACTIONS = ("balance",)


class SmallBankWorkload(Workload):
    """SmallBank over the transactional key-value interface."""

    name = "smallbank"

    def __init__(self, customers=1000, hot_accounts=10, hot_probability=0.25,
                 initial_balance=10_000.0, seed=23):
        self.customers = customers
        self.hot_accounts = min(hot_accounts, customers)
        self.hot_probability = hot_probability
        self.initial_balance = initial_balance
        self.seed = seed

    # -- schema -------------------------------------------------------------------

    def build_catalog(self):
        account = Table(TableSchema("account", ("c_id",)))
        savings = Table(TableSchema("savings", ("c_id",)))
        checking = Table(TableSchema("checking", ("c_id",)))
        for c_id in range(1, self.customers + 1):
            account.insert((c_id,), {"name": f"customer-{c_id}"})
            savings.insert((c_id,), {"balance": self.initial_balance})
            checking.insert((c_id,), {"balance": self.initial_balance})
        return Catalog([account, savings, checking])

    # -- procedures -----------------------------------------------------------------

    def _balance(self, ctx, c_id):
        savings = yield from ctx.read("savings", c_id)
        checking = yield from ctx.read("checking", c_id)
        total = (savings or {}).get("balance", 0.0) + (checking or {}).get("balance", 0.0)
        return {"balance": total}

    def _deposit_checking(self, ctx, c_id, amount):
        row = yield from ctx.update(
            "checking", c_id, updates={"balance": lambda v: (v or 0.0) + amount}
        )
        return {"ok": True, "balance": row["balance"]}

    def _transact_savings(self, ctx, c_id, amount):
        savings = yield from ctx.read("savings", c_id, for_update=True)
        balance = (savings or {}).get("balance", 0.0)
        if balance + amount < 0:
            return {"ok": False, "balance": balance}
        yield from ctx.write("savings", c_id, row={"balance": balance + amount})
        return {"ok": True, "balance": balance + amount}

    def _amalgamate(self, ctx, from_c_id, to_c_id):
        savings = yield from ctx.read("savings", from_c_id, for_update=True)
        checking = yield from ctx.read("checking", from_c_id, for_update=True)
        total = (savings or {}).get("balance", 0.0) + (checking or {}).get("balance", 0.0)
        yield from ctx.write("savings", from_c_id, row={"balance": 0.0})
        yield from ctx.write("checking", from_c_id, row={"balance": 0.0})
        yield from ctx.update(
            "checking", to_c_id, updates={"balance": lambda v: (v or 0.0) + total}
        )
        return {"ok": True, "moved": total}

    def _write_check(self, ctx, c_id, amount):
        savings = yield from ctx.read("savings", c_id)
        checking = yield from ctx.read("checking", c_id, for_update=True)
        total = (savings or {}).get("balance", 0.0) + (checking or {}).get("balance", 0.0)
        # Overdraft penalty, as in the original benchmark.
        charge = amount + 1.0 if total < amount else amount
        balance = (checking or {}).get("balance", 0.0) - charge
        yield from ctx.write("checking", c_id, row={"balance": balance})
        return {"ok": True, "balance": balance, "penalty": charge != amount}

    def _send_payment(self, ctx, from_c_id, to_c_id, amount):
        # Touch checking rows in customer-id order so concurrent opposite
        # direction payments cannot deadlock under lock-based CCs.
        rows = {}
        for c_id in sorted({from_c_id, to_c_id}):
            rows[c_id] = yield from ctx.read("checking", c_id, for_update=True)
        balance = (rows[from_c_id] or {}).get("balance", 0.0)
        if balance < amount:
            return {"ok": False, "balance": balance}
        yield from ctx.write("checking", from_c_id, row={"balance": balance - amount})
        to_balance = (rows[to_c_id] or {}).get("balance", 0.0)
        if from_c_id == to_c_id:
            to_balance = balance - amount
        yield from ctx.write("checking", to_c_id, row={"balance": to_balance + amount})
        return {"ok": True}

    # -- registration -------------------------------------------------------------------

    def build_transaction_types(self):
        profiles = {
            "balance": TransactionProfile(
                name="balance",
                accesses=(("savings", "r"), ("checking", "r")),
                read_only=True,
                description="read a customer's combined balance",
            ),
            "deposit_checking": TransactionProfile(
                name="deposit_checking",
                accesses=(("checking", "w"),),
                description="deposit into a checking account",
            ),
            "transact_savings": TransactionProfile(
                name="transact_savings",
                accesses=(("savings", "w"),),
                description="deposit into / withdraw from a savings account",
            ),
            "amalgamate": TransactionProfile(
                name="amalgamate",
                accesses=(("savings", "w"), ("checking", "w")),
                description="move all funds of one customer to another",
            ),
            "write_check": TransactionProfile(
                name="write_check",
                accesses=(("savings", "r"), ("checking", "w")),
                description="cash a check against the combined balance",
            ),
            "send_payment": TransactionProfile(
                name="send_payment",
                accesses=(("checking", "w"),),
                description="transfer between two checking accounts",
            ),
        }
        procedures = {
            "balance": self._balance,
            "deposit_checking": self._deposit_checking,
            "transact_savings": self._transact_savings,
            "amalgamate": self._amalgamate,
            "write_check": self._write_check,
            "send_payment": self._send_payment,
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
        return dict(SMALLBANK_MIX)

    # -- argument generation -----------------------------------------------------------

    def _customer(self, rng):
        if self.hot_accounts and rng.random() < self.hot_probability:
            return rng.randint(1, self.hot_accounts)
        return rng.randint(1, self.customers)

    def _customer_pair(self, rng):
        first = self._customer(rng)
        second = self._customer(rng)
        # Bounded retries: a degenerate hot set (hot_accounts=1 with
        # hot_probability=1.0) would otherwise never draw a distinct id.
        for _attempt in range(8):
            if second != first or self.customers <= 1:
                break
            second = self._customer(rng)
        if second == first and self.customers > 1:
            second = first % self.customers + 1
        return first, second

    def generate_args(self, rng, txn_type):
        if txn_type == "balance":
            return {"c_id": self._customer(rng)}
        if txn_type == "deposit_checking":
            return {"c_id": self._customer(rng), "amount": round(rng.uniform(1.0, 100.0), 2)}
        if txn_type == "transact_savings":
            amount = round(rng.uniform(-50.0, 100.0), 2)
            return {"c_id": self._customer(rng), "amount": amount}
        if txn_type == "amalgamate":
            from_c_id, to_c_id = self._customer_pair(rng)
            return {"from_c_id": from_c_id, "to_c_id": to_c_id}
        if txn_type == "write_check":
            return {"c_id": self._customer(rng), "amount": round(rng.uniform(1.0, 150.0), 2)}
        if txn_type == "send_payment":
            from_c_id, to_c_id = self._customer_pair(rng)
            return {
                "from_c_id": from_c_id,
                "to_c_id": to_c_id,
                "amount": round(rng.uniform(1.0, 75.0), 2),
            }
        raise ValueError(f"unknown SmallBank transaction {txn_type!r}")
