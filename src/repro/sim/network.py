"""Cluster cost and message model: network round-trips, faults and CPU costs.

The paper's cluster (Section 4.6) has transaction coordinators (TCs) and data
servers (DSs) connected by a 10 GbE network with ~0.1 ms ping.  The four-phase
protocol is optimised so that each phase costs a single TC-to-DS round-trip
regardless of the CC-tree depth (Section 4.5.2); individual CC mechanisms may
add extra round-trips (SSI's timestamp server, RP's per-step coordination).

The :class:`NetworkModel` captures these costs as virtual-time delays —
including seeded, deterministic jitter — and :class:`CostModel` the CPU
cost of operations and phases.

Beyond the constant-delay pipe, :meth:`ClusterModel.send` is a real message
layer: every protocol round-trip the engine routes through it consults the
attached :class:`~repro.sim.faults.MessageFaultInjector` (if any) and may be
dropped, delayed, duplicated, reordered or caught in a TC/DS partition
window.  Per-destination :class:`LinkState` records what happened on each
link, and the :class:`Delivery` outcome tells the engine whether the request
reached the servers and whether the reply made it back — the engine's
timeout/retry/backoff loop (:meth:`TebaldiEngine._robust_exchange`, the message-layer transport) is built
on exactly that distinction.
"""

from dataclasses import dataclass, field

import random

from repro.errors import ConfigurationError

#: Destination token for the centralized timestamp / batch server (the one
#: extra machine of Section 4.6).  Sends addressed to it are charged the
#: ``timestamp_rtt`` and can be partitioned away from the TC like any DS.
TIMESTAMP_SERVER = "ts"


@dataclass
class NetworkModel:
    """Virtual-time network cost parameters (seconds).

    ``jitter`` adds a seeded, deterministic ``uniform(0, jitter)`` component
    to every round-trip.  With ``jitter=0.0`` (the default) no RNG is ever
    consulted, so jitter-free schedules are byte-identical to the historical
    constant-delay model — pinned by the ``bench_speed`` fingerprints.
    """

    rtt: float = 120e-6
    timestamp_rtt: float = 120e-6
    jitter: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.rtt < 0:
            raise ConfigurationError(f"network rtt must be >= 0, got {self.rtt}")
        if self.timestamp_rtt < 0:
            raise ConfigurationError(
                f"network timestamp_rtt must be >= 0, got {self.timestamp_rtt}"
            )
        if self.jitter < 0:
            raise ConfigurationError(
                f"network jitter must be >= 0, got {self.jitter}"
            )
        self._rng = None

    def _jitter(self):
        if self.jitter <= 0:
            return 0.0
        rng = self._rng
        if rng is None:
            # random.Random over integers only (no salted hashes), so the
            # jitter stream reproduces across processes for a fixed seed.
            rng = self._rng = random.Random((int(self.seed) << 8) ^ 0x31EB)
        return rng.uniform(0.0, self.jitter)

    def round_trip(self):
        """Cost of one TC <-> DS round-trip (jittered when enabled)."""
        return self.rtt + self._jitter()

    def timestamp_round_trip(self):
        """Cost of contacting the centralized timestamp / batch server."""
        return self.timestamp_rtt + self._jitter()


@dataclass
class CostModel:
    """Per-operation CPU cost parameters (seconds)."""

    operation_cpu: float = 12e-6
    phase_cpu: float = 6e-6
    cc_layer_cpu: float = 4e-6
    commit_cpu: float = 10e-6
    durability_flush_cpu: float = 15e-6

    def operation_cost(self, cc_layers):
        """CPU cost of one read/write that traverses ``cc_layers`` CC nodes."""
        return self.operation_cpu + self.cc_layer_cpu * cc_layers

    def phase_cost(self, cc_layers):
        """CPU cost of one non-operation phase (start/validate/commit)."""
        return self.phase_cpu + self.cc_layer_cpu * cc_layers


@dataclass
class Delivery:
    """Outcome of one :meth:`ClusterModel.send` exchange, as the TC sees it.

    ``request_reached`` and ``delivered`` are distinct on purpose: a lost
    *reply* leaves the request applied at the servers while the TC times
    out — the case that makes retransmit idempotency (commit-ticket dedup
    in the durability layer) load-bearing rather than decorative.
    """

    delivered: bool
    request_reached: bool
    delay: float
    fault: str = ""
    duplicated: bool = False


@dataclass
class LinkState:
    """Per TC->destination link bookkeeping (message counts, fault windows)."""

    dst: object
    sent: int = 0
    delivered: int = 0
    dropped: int = 0
    duplicated: int = 0
    delayed: int = 0
    reordered: int = 0
    partitioned_until: float = 0.0


@dataclass
class ClusterModel:
    """The cluster as the engine sees it: network and cost models plus the
    message layer.

    ``message_faults`` (a :class:`~repro.sim.faults.MessageFaultInjector`)
    is attached by the degraded harness; without one, :meth:`send` is a
    plain jittered round-trip that always delivers.
    """

    env: object
    network: NetworkModel = field(default_factory=NetworkModel)
    costs: CostModel = field(default_factory=CostModel)
    message_faults: object = None

    def __post_init__(self):
        self.links = {}

    def link(self, dst):
        """The (lazily created) per-destination link state."""
        state = self.links.get(dst)
        if state is None:
            state = self.links[dst] = LinkState(dst)
        return state

    def send(self, dsts=(0,), phase="rpc", txn_id=None, round_trips=1, timeout=None):
        """Coroutine: one TC -> servers exchange over the message layer.

        Waits out the (jittered, possibly faulted) exchange and returns a
        :class:`Delivery`.  ``dsts`` names the destination servers (data
        server ids, or :data:`TIMESTAMP_SERVER`); ``timeout`` is how long
        the TC waits for a reply that never comes before giving up on this
        attempt (default: four base round-trips).  The send itself never
        retries — that is the engine's job — and never raises on a fault.
        """
        if round_trips < 1:
            raise ConfigurationError(
                f"send round_trips must be >= 1, got {round_trips}"
            )
        network = self.network
        per_trip = (
            network.timestamp_round_trip
            if all(dst == TIMESTAMP_SERVER for dst in dsts)
            else network.round_trip
        )
        delay = 0.0
        for _ in range(int(round_trips)):
            delay += per_trip()
        if timeout is None:
            timeout = 4 * delay
        links = [self.link(dst) for dst in dsts]
        for link in links:
            link.sent += 1
        faults = self.message_faults
        fault = (
            faults.disposition(self.env.now, dsts, phase)
            if faults is not None
            else None
        )
        if fault is None:
            if delay > 0:
                yield self.env.timeout(delay)
            for link in links:
                link.delivered += 1
            return Delivery(delivered=True, request_reached=True, delay=delay)
        kind = fault.kind
        if kind == "delay":
            # A latency spike: the exchange completes, just late.  The TC
            # accepts late replies (no spurious retransmit on slow links).
            delay *= fault.magnitude
            for link in links:
                link.delayed += 1
            yield self.env.timeout(delay)
            for link in links:
                link.delivered += 1
            return Delivery(True, True, delay, fault="delay")
        if kind == "reorder":
            # Held back behind later traffic: an extra ``magnitude`` base
            # round-trips, so messages sent afterwards overtake this one.
            delay += fault.magnitude * network.rtt
            for link in links:
                link.reordered += 1
            yield self.env.timeout(delay)
            for link in links:
                link.delivered += 1
            return Delivery(True, True, delay, fault="reorder")
        if kind == "duplicate":
            for link in links:
                link.duplicated += 1
            yield self.env.timeout(delay)
            for link in links:
                link.delivered += 1
            return Delivery(True, True, delay, fault="duplicate", duplicated=True)
        if kind == "partition":
            for link in links:
                link.dropped += 1
                if faults is not None:
                    link.partitioned_until = max(
                        link.partitioned_until, faults.partitioned_until(link.dst)
                    )
            if timeout > 0:
                yield self.env.timeout(timeout)
            return Delivery(False, False, timeout, fault="partition")
        # kind == "drop"
        for link in links:
            link.dropped += 1
        if fault.lost_reply:
            # The request made it to every server; the *reply* was lost.
            # The servers applied the request — only retransmit dedup keeps
            # the inevitable retry from applying it twice.
            if timeout > 0:
                yield self.env.timeout(timeout)
            return Delivery(False, True, timeout, fault="drop-reply")
        if timeout > 0:
            yield self.env.timeout(timeout)
        return Delivery(False, False, timeout, fault="drop")
