"""SEATS airline ticketing workload (Section 4.6.2).

The adaptation follows the paper: customer-name scans are removed, separate
tables act as secondary indexes locating a reservation from the flight/seat
or flight/customer pair, the number of flights is small (to concentrate
contention) and each flight has many seats.  The hot object is the per-flight
row holding the seats-left counter, which is why the paper's three-layer
configuration runs one TSO instance per flight.
"""

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.storage.tables import Catalog, Table, TableSchema
from repro.workloads.base import Workload


SEATS_MIX = {
    "find_flights": 0.10,
    "find_open_seats": 0.30,
    "new_reservation": 0.25,
    "delete_reservation": 0.15,
    "update_reservation": 0.10,
    "update_customer": 0.10,
}

UPDATE_TRANSACTIONS = (
    "new_reservation",
    "delete_reservation",
    "update_reservation",
    "update_customer",
)
READ_ONLY_TRANSACTIONS = ("find_flights", "find_open_seats")


class SEATSWorkload(Workload):
    """Scaled-down SEATS benchmark over the key-value interface."""

    name = "seats"

    def __init__(self, flights=20, seats_per_flight=2000, customers=2000,
                 open_seat_probes=15, seed=17):
        self.flights = flights
        self.seats_per_flight = seats_per_flight
        self.customers = customers
        self.open_seat_probes = open_seat_probes
        self.seed = seed

    # -- schema -------------------------------------------------------------------

    def build_catalog(self):
        flight = Table(TableSchema("flight", ("f_id",)))
        for f_id in range(1, self.flights + 1):
            flight.insert(
                (f_id,),
                {"seats_left": self.seats_per_flight, "base_price": 100.0 + f_id},
            )
        customer = Table(TableSchema("customer", ("c_id",)))
        for c_id in range(1, self.customers + 1):
            customer.insert((c_id,), {"balance": 1000.0, "reservations": 0, "tier": 0})
        reservation = Table(TableSchema("reservation", ("f_id", "seat")))
        res_by_customer = Table(TableSchema("res_by_customer", ("f_id", "c_id")))
        return Catalog([flight, customer, reservation, res_by_customer])

    # -- procedures -----------------------------------------------------------------

    def _new_reservation(self, ctx, f_id, c_id, seat, price):
        flight = yield from ctx.read("flight", f_id, for_update=True)
        if flight is None or flight.get("seats_left", 0) <= 0:
            return {"reserved": False}
        existing = yield from ctx.read("reservation", f_id, seat)
        if existing is not None:
            return {"reserved": False}
        yield from ctx.write(
            "flight", f_id, row={**flight, "seats_left": flight["seats_left"] - 1}
        )
        yield from ctx.write("reservation", f_id, seat, row={"c_id": c_id, "price": price})
        yield from ctx.write("res_by_customer", f_id, c_id, row={"seat": seat})
        yield from ctx.update(
            "customer", c_id,
            updates={
                "balance": lambda v: (v or 0.0) - price,
                "reservations": lambda v: (v or 0) + 1,
            },
        )
        return {"reserved": True, "seat": seat}

    def _delete_reservation(self, ctx, f_id, c_id):
        index_row = yield from ctx.read("res_by_customer", f_id, c_id, for_update=True)
        if index_row is None or index_row.get("seat") is None:
            return {"deleted": False}
        seat = index_row["seat"]
        reservation = yield from ctx.read("reservation", f_id, seat, for_update=True)
        yield from ctx.delete("reservation", f_id, seat)
        yield from ctx.write("res_by_customer", f_id, c_id, row={"seat": None})
        yield from ctx.update(
            "flight", f_id, updates={"seats_left": lambda v: (v or 0) + 1}
        )
        refund = (reservation or {}).get("price", 0.0)
        yield from ctx.update(
            "customer", c_id,
            updates={
                "balance": lambda v: (v or 0.0) + refund,
                "reservations": lambda v: max((v or 1) - 1, 0),
            },
        )
        return {"deleted": True, "seat": seat}

    def _update_reservation(self, ctx, f_id, c_id, new_seat):
        index_row = yield from ctx.read("res_by_customer", f_id, c_id, for_update=True)
        if index_row is None or index_row.get("seat") is None:
            return {"updated": False}
        old_seat = index_row["seat"]
        reservation = yield from ctx.read("reservation", f_id, old_seat, for_update=True)
        if reservation is None:
            return {"updated": False}
        taken = yield from ctx.read("reservation", f_id, new_seat)
        if taken is not None:
            return {"updated": False}
        yield from ctx.delete("reservation", f_id, old_seat)
        yield from ctx.write("reservation", f_id, new_seat, row=reservation)
        yield from ctx.write("res_by_customer", f_id, c_id, row={"seat": new_seat})
        return {"updated": True, "seat": new_seat}

    def _update_customer(self, ctx, c_id, tier):
        yield from ctx.update("customer", c_id, updates={"tier": tier})
        return {"updated": True}

    def _find_flights(self, ctx, f_ids):
        found = []
        for f_id in f_ids:
            flight = yield from ctx.read("flight", f_id)
            if flight is not None and flight.get("seats_left", 0) > 0:
                found.append((f_id, flight["base_price"]))
        return {"flights": found}

    def _find_open_seats(self, ctx, f_id, seats):
        flight = yield from ctx.read("flight", f_id)
        open_seats = []
        for seat in seats:
            reservation = yield from ctx.read("reservation", f_id, seat)
            if reservation is None:
                open_seats.append(seat)
        return {"flight": flight, "open_seats": open_seats}

    # -- registration -------------------------------------------------------------------

    def build_transaction_types(self):
        profiles = {
            "new_reservation": TransactionProfile(
                name="new_reservation",
                accesses=(
                    ("flight", "w"),
                    ("reservation", "w"),
                    ("res_by_customer", "w"),
                    ("customer", "w"),
                ),
            ),
            "delete_reservation": TransactionProfile(
                name="delete_reservation",
                accesses=(
                    ("res_by_customer", "w"),
                    ("reservation", "w"),
                    ("flight", "w"),
                    ("customer", "w"),
                ),
            ),
            "update_reservation": TransactionProfile(
                name="update_reservation",
                accesses=(
                    ("res_by_customer", "w"),
                    ("reservation", "w"),
                ),
            ),
            "update_customer": TransactionProfile(
                name="update_customer", accesses=(("customer", "w"),)
            ),
            "find_flights": TransactionProfile(
                name="find_flights", accesses=(("flight", "r"),), read_only=True
            ),
            "find_open_seats": TransactionProfile(
                name="find_open_seats",
                accesses=(("flight", "r"), ("reservation", "r")),
                read_only=True,
            ),
        }
        procedures = {
            "new_reservation": self._new_reservation,
            "delete_reservation": self._delete_reservation,
            "update_reservation": self._update_reservation,
            "update_customer": self._update_customer,
            "find_flights": self._find_flights,
            "find_open_seats": self._find_open_seats,
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
        return dict(SEATS_MIX)

    # -- argument generation -----------------------------------------------------------

    def generate_args(self, rng, txn_type):
        f_id = rng.randint(1, self.flights)
        c_id = rng.randint(1, self.customers)
        if txn_type == "new_reservation":
            return {
                "f_id": f_id,
                "c_id": c_id,
                "seat": rng.randint(1, self.seats_per_flight),
                "price": round(rng.uniform(50.0, 500.0), 2),
            }
        if txn_type == "delete_reservation":
            return {"f_id": f_id, "c_id": c_id}
        if txn_type == "update_reservation":
            return {
                "f_id": f_id,
                "c_id": c_id,
                "new_seat": rng.randint(1, self.seats_per_flight),
            }
        if txn_type == "update_customer":
            return {"c_id": c_id, "tier": rng.randint(0, 5)}
        if txn_type == "find_flights":
            count = min(5, self.flights)
            return {"f_ids": sorted(rng.sample(range(1, self.flights + 1), count))}
        if txn_type == "find_open_seats":
            seats = sorted(
                rng.sample(range(1, self.seats_per_flight + 1), self.open_seat_probes)
            )
            return {"f_id": f_id, "seats": seats}
        raise ValueError(f"unknown SEATS transaction {txn_type!r}")
