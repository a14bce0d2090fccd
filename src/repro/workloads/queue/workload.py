"""A transactional queue/outbox workload built on ordered scans.

The transactional-outbox pattern (publish a message in the same transaction
as the state change, drain it with competing consumers) is a classic
contention shape none of the point-access workloads exercise: the *dequeue*
is a bounded ordered scan from the head of the queue, racing *enqueue*
inserts at the tail — exactly the scan-misses-concurrent-insert window
where MVCC serializability schemes historically leak phantoms.

Four transactions over a ``messages`` table and two pointer rows:

* **enqueue** — claim the next message id from the ``tail`` pointer and
  insert a pending message (a brand-new key: the phantom source).
* **dequeue** — read the ``head`` pointer for update, scan the window
  ``[head, head+window)`` in order, consume the first pending message and
  advance the head past it.
* **sweep** — scan the consumed prefix behind the head and delete drained
  messages (tombstones), bounding the live queue.
* **peek** — read-only: scan the window at the head and report the backlog.

The queue is loaded *short* (a few initial messages), so the dequeue window
overlaps the enqueue tail almost permanently — sustained scan-vs-insert
contention rather than an occasional corner case.
"""

from repro.analysis.profiles import TransactionProfile, TransactionType
from repro.storage.tables import Catalog, Table, TableSchema
from repro.workloads.base import Workload

PENDING = "pending"
CONSUMED = "consumed"

QUEUE_MIX = {
    "enqueue": 0.35,
    "dequeue": 0.35,
    "sweep": 0.10,
    "peek": 0.20,
}

UPDATE_TRANSACTIONS = ("enqueue", "dequeue", "sweep")
READ_ONLY_TRANSACTIONS = ("peek",)


class QueueWorkload(Workload):
    """Queue/outbox over the transactional key-value interface."""

    name = "queue"

    def __init__(self, initial_messages=6, window=8, payload_space=1000, seed=17):
        self.initial_messages = initial_messages
        self.window = window
        self.payload_space = payload_space
        self.seed = seed

    # -- schema -------------------------------------------------------------------

    def build_catalog(self):
        messages = Table(TableSchema("messages", ("m_id",)))
        pointers = Table(TableSchema("queue_ptr", ("name",)))
        for m_id in range(1, self.initial_messages + 1):
            messages.insert((m_id,), {"payload": m_id * 13, "state": PENDING})
        pointers.insert(("head",), {"value": 1})
        pointers.insert(("tail",), {"value": self.initial_messages + 1})
        return Catalog([messages, pointers])

    # -- procedures -----------------------------------------------------------------

    def _enqueue(self, ctx, payload):
        pointer = yield from ctx.update(
            "queue_ptr", "tail", updates={"value": lambda v: (v or 1) + 1}
        )
        m_id = pointer["value"] - 1
        yield from ctx.write(
            "messages", m_id, row={"payload": payload, "state": PENDING}
        )
        return {"m_id": m_id}

    def _dequeue(self, ctx):
        pointer = yield from ctx.read("queue_ptr", "head", for_update=True)
        head = (pointer or {}).get("value", 1)
        window = yield from ctx.scan(
            "messages", lo=head, hi=head + self.window - 1
        )
        for m_id, row in window:
            if row.get("state") != PENDING:
                continue
            yield from ctx.write(
                "messages", m_id, row={**row, "state": CONSUMED}
            )
            yield from ctx.write("queue_ptr", "head", row={"value": m_id + 1})
            return {"m_id": m_id, "payload": row.get("payload")}
        return {"m_id": None, "empty": True}

    def _sweep(self, ctx):
        pointer = yield from ctx.read("queue_ptr", "head")
        head = (pointer or {}).get("value", 1)
        lo = max(head - self.window, 1)
        if lo >= head:
            return {"swept": 0}
        drained = yield from ctx.scan("messages", lo=lo, hi=head - 1)
        swept = 0
        for m_id, row in drained:
            if row.get("state") == CONSUMED:
                yield from ctx.delete("messages", m_id)
                swept += 1
        return {"swept": swept}

    def _peek(self, ctx):
        pointer = yield from ctx.read("queue_ptr", "head")
        head = (pointer or {}).get("value", 1)
        window = yield from ctx.scan(
            "messages", lo=head, hi=head + self.window - 1
        )
        pending = [m_id for m_id, row in window if row.get("state") == PENDING]
        return {"backlog": len(pending), "next": pending[0] if pending else None}

    # -- registration -------------------------------------------------------------------

    def build_transaction_types(self):
        profiles = {
            "enqueue": TransactionProfile(
                name="enqueue",
                accesses=(("queue_ptr", "w"), ("messages", "w")),
                description="claim the tail id and insert a pending message",
            ),
            "dequeue": TransactionProfile(
                name="dequeue",
                accesses=(
                    ("queue_ptr", "w"),
                    ("messages", "w"),
                    ("queue_ptr", "w"),
                ),
                scans=("messages",),
                description="scan from the head and consume the oldest pending message",
            ),
            "sweep": TransactionProfile(
                name="sweep",
                accesses=(("queue_ptr", "r"), ("messages", "w")), scans=("messages",),
                description="delete consumed messages behind the head",
            ),
            "peek": TransactionProfile(
                name="peek",
                accesses=(("queue_ptr", "r"), ("messages", "r")), scans=("messages",),
                read_only=True,
                description="report the pending backlog at the head",
            ),
        }
        procedures = {
            "enqueue": self._enqueue,
            "dequeue": self._dequeue,
            "sweep": self._sweep,
            "peek": self._peek,
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
        return dict(QUEUE_MIX)

    # -- argument generation -----------------------------------------------------------

    def generate_args(self, rng, txn_type):
        if txn_type == "enqueue":
            return {"payload": rng.randrange(self.payload_space)}
        if txn_type in ("dequeue", "sweep", "peek"):
            return {}
        raise ValueError(f"unknown queue transaction {txn_type!r}")
