"""The TC/DS link: what a protocol round trip costs, and the message
transport that carries the phases when message faults are armed.

The paper's cluster (Section 4.6) has transaction coordinators (TCs) and data
servers (DSs) connected by a 10 GbE network with ~0.1 ms ping.  The four-phase
protocol is optimised so that each phase costs a single TC-to-DS round-trip
regardless of the CC-tree depth (Section 4.5.2); individual CC mechanisms may
add extra round-trips (SSI's timestamp server, RP's per-step coordination).

Four constants are the cost model: :data:`RTT` and the CPU costs
:data:`OPERATION_CPU`, :data:`PHASE_CPU` and :data:`CC_LAYER_CPU`, which
:class:`~repro.core.tree.Route` folds into per-type delay constants.  The
engine's constant-delay transport charges those and nothing else.

:class:`MessageTransport` is the other phase transport, the link as its own
component with its own failure model.  The degraded harness
(:mod:`repro.harness.degraded`) builds one per run and installs it on every
engine of the run.  Each protocol round trip becomes a :meth:`send` that
consults the :class:`~repro.sim.faults.MessageFaultInjector` and may be
dropped, delayed, duplicated, reordered or caught in a TC/DS partition
window; :meth:`exchange` wraps it in timeout / retry / seeded backoff, and
the retry backlog drives the engine's admission valve.  The counters and the
backoff stream live as long as the run, not as long as one engine.
"""

import random
from dataclasses import dataclass

from repro.errors import TransactionAborted

#: One TC <-> DS round trip, and the CPU cost of one read/write, of one
#: non-operation phase, and of each CC layer either traverses (seconds).
RTT = 120e-6
OPERATION_CPU = 12e-6
PHASE_CPU = 6e-6
CC_LAYER_CPU = 4e-6

#: Destination token for the centralized timestamp / batch server (the one
#: extra machine of Section 4.6).  It can be partitioned away from the TC
#: like any DS.
TIMESTAMP_SERVER = "ts"

#: Degraded-mode protocol: per-exchange reply timeout, retry budget of a
#: never-applied request, capped exponential backoff, and the retry backlog
#: at which the admission valve closes (it reopens at half).
PHASE_TIMEOUT = 0.002
RETRY_LIMIT = 8
BACKOFF_BASE = 0.0004
BACKOFF_CAP = 0.0064
PARK_THRESHOLD = 6


@dataclass(frozen=True)
class Delivery:
    """Outcome of one :meth:`MessageTransport.send`, as the TC sees it.

    ``request_reached`` and ``delivered`` are distinct on purpose: a lost
    *reply* leaves the request applied at the servers while the TC times
    out — the case that makes retransmit idempotency (commit-ticket dedup
    in the durability layer) load-bearing rather than decorative.
    """

    delivered: bool
    request_reached: bool
    duplicated: bool = False


class MessageTransport:
    """The phase transport of a run with armed message faults.

    ``faults`` is the run's :class:`~repro.sim.faults.MessageFaultInjector`;
    ``seed`` seeds the backoff randomization (integers only), so retry
    schedules — and therefore whole degraded runs — reproduce
    byte-identically.  :meth:`install` hands it an engine before any
    transaction begins; ``stats`` counts over every engine it was installed
    on.
    """

    def __init__(self, faults, seed=0):
        self.faults = faults
        self._rng = random.Random((int(seed) << 8) ^ 0xB0FF)
        self._engine = None
        self._backlog = 0
        self.stats = {
            "retries": 0,
            "duplicate_deliveries": 0,
            "retransmit_applies": 0,
            "unreachable_aborts": 0,
            "parked": 0,
            "degraded_windows": 0,
        }

    def install(self, engine):
        """Carry every protocol phase of ``engine`` from now on.  The
        previous engine's exchanges died with it, and so did its backlog."""
        self._engine = engine
        self._backlog = 0
        engine.transport = self.phase

    def phase(self, txn, phase):
        """Coroutine: one protocol phase as real round trips.

        The start phase adds, for CCs that use the centralized timestamp
        server (SSI, TSO, batch), its round trips; only their cost and
        faults are modelled here, the CC's ``start`` hook takes the
        timestamp.  The commit request applies the engine's
        ``apply_commit`` exactly once at delivery; retransmits after a lost
        reply and duplicated deliveries re-enter only the durability layer,
        whose commit-ticket dedup must absorb them.
        """
        engine = self._engine
        charges = txn.charges
        if engine.options.charge_costs:
            yield charges.phase_cost
        if phase == "precommit":
            participants = (0,)
            retransmit = None
            durability = engine.durability
            if durability.enabled:
                writes = [(v.key, v.value) for v in engine.store.pending_versions(txn.txn_id)]
                participants = durability.participants_for(writes)
                retransmit = lambda: durability.precommit(txn, writes)
            yield from self.exchange(
                txn,
                phase,
                dsts=participants,
                apply_fn=lambda: engine.apply_commit(txn),
                retransmit_fn=retransmit,
            )
            return
        yield from self.exchange(txn, phase)
        if phase == "start" and charges.start_rtts:
            yield from self.exchange(
                txn,
                "timestamp",
                dsts=(TIMESTAMP_SERVER,),
                round_trips=charges.start_rtts,
            )

    def exchange(self, txn, phase, dsts=(0,), round_trips=1,
                 apply_fn=None, retransmit_fn=None):
        """Coroutine: one protocol exchange with timeout/retry/backoff.

        ``apply_fn`` runs exactly once, synchronously, the first time the
        request reaches the servers; duplicated deliveries and retransmits
        after a lost reply invoke ``retransmit_fn`` instead — the
        receiver-side dedup path.  The exchange returns once a reply
        arrives.

        A request that was never applied aborts the transaction after
        :data:`RETRY_LIMIT` failed attempts.  Once applied, the TC retries
        without bound — the effect may be durable, so abandoning it would
        manufacture a phantom commit — which terminates because fault
        plans are finite and partitions heal by time.  Failed attempts
        enter the retry backlog that drives the admission valve.
        """
        engine = self._engine
        stats = self.stats
        applied = False
        attempts = 0
        backlogged = False
        try:
            while True:
                attempts += 1
                outcome = yield from self.send(engine.env, dsts, phase, round_trips)
                if outcome.request_reached:
                    if not applied:
                        if apply_fn is not None:
                            apply_fn()
                        applied = True
                        if outcome.duplicated:
                            stats["duplicate_deliveries"] += 1
                            if retransmit_fn is not None:
                                retransmit_fn()
                    else:
                        stats["retransmit_applies"] += 1
                        if retransmit_fn is not None:
                            retransmit_fn()
                if outcome.delivered:
                    return
                stats["retries"] += 1
                if not applied and attempts > RETRY_LIMIT:
                    stats["unreachable_aborts"] += 1
                    raise TransactionAborted(txn.txn_id, f"net-unreachable-{phase}")
                if not backlogged:
                    backlogged = True
                    self._backlog += 1
                    if engine.throttled is None and self._backlog >= PARK_THRESHOLD:
                        # The admission valve: new work parks instead of
                        # piling onto a partitioned link.
                        engine.throttled = self._count_park
                        stats["degraded_windows"] += 1
                delay = min(BACKOFF_BASE * (2 ** min(attempts - 1, 6)), BACKOFF_CAP)
                # Seeded deterministic "randomization": spreads concurrent
                # retries apart without forfeiting reproducibility.
                delay *= 0.5 + self._rng.random()
                yield delay
        finally:
            # An exchange of an engine since replaced is closed, not
            # finished: the backlog it joined is gone.
            if backlogged and engine is self._engine:
                self._backlog -= 1
                if (
                    engine.throttled is not None
                    and self._backlog <= PARK_THRESHOLD // 2
                ):
                    # Hysteresis: reopen admission only once the backlog
                    # drained to half the threshold, not at the first lull.
                    engine.throttled = None
                    engine.admission_condition.notify_all()

    def _count_park(self):
        """The closed valve's park counter: the engine calls it once for
        every arrival it holds back."""
        self.stats["parked"] += 1

    def send(self, env, dsts, phase, round_trips=1):
        """Coroutine: one TC -> servers exchange; returns a :class:`Delivery`.

        ``dsts`` names the destination servers (data server ids, or
        :data:`TIMESTAMP_SERVER`).  A lost exchange costs the TC
        :data:`PHASE_TIMEOUT`, its wait for a reply that never comes.  The
        send itself never retries — :meth:`exchange` does — and never
        raises on a fault.
        """
        delay = 0.0
        for _ in range(round_trips):
            delay += RTT
        fault = self.faults.disposition(env.now, dsts, phase)
        kind = None if fault is None else fault.kind
        if kind == "delay":
            # A latency spike: the exchange completes, just late.  The TC
            # accepts late replies (no spurious retransmit on slow links).
            delay *= fault.magnitude
        elif kind == "reorder":
            # Held back behind later traffic: an extra ``magnitude`` base
            # round-trips, so messages sent afterwards overtake this one.
            delay += fault.magnitude * RTT
        elif kind in ("partition", "drop"):
            yield PHASE_TIMEOUT
            # A lost *reply*: the request made it to every server, which
            # applied it — only retransmit dedup keeps the inevitable retry
            # from applying it twice.
            return Delivery(False, kind == "drop" and fault.lost_reply)
        yield delay
        return Delivery(True, True, duplicated=kind == "duplicate")
