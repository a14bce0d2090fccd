"""Seeded fault injection: deterministic crash and message-fault schedules.

A :class:`FaultPlan` names the adversarial points at which the simulated
cluster loses its volatile state (a "crash"): mid-commit between per-server
precommit flushes (a torn precommit record set), immediately after a durable
precommit but before the commit becomes visible, or around/inside a GCP
epoch flush (a torn epoch).  The plan is pure data derived from the run
seed, so every failure schedule — and therefore every recovery and every
oracle verdict — reproduces byte-identically for a fixed seed.

The :class:`FaultInjector` is the runtime half: the durability module calls
:meth:`FaultInjector.trip` at each instrumented site, and when the planned
occurrence of a site is reached the injector declares the crash, freezes
the caller (the durability manager stops persisting anything) and fires the
crash event the harness is waiting on.  The harness then tears the world
down, drives WAL recovery, and resumes the workload — see
:mod:`repro.harness.crash`.

The *message* half mirrors the same split: a :class:`MessageFaultPlan` is
seed-derived pure data naming what goes wrong on the TC/DS wire (drop,
delay spike, duplicate, reorder, partition-and-heal), and the
:class:`MessageFaultInjector` is consulted by
:meth:`~repro.sim.network.MessageTransport.send` for every protocol
exchange.  The transport's timeout/retry/backoff loop and the durability
layer's commit-ticket dedup are what make the system survive the plan — see
:mod:`repro.harness.degraded`.
"""

import random
from dataclasses import dataclass

#: Instrumented crash sites, in the durability module:
#:
#: * ``precommit-record`` — after one per-server precommit record is
#:   appended (and, in synchronous mode, flushed).  Firing with
#:   ``index < total - 1`` leaves a *torn* precommit set behind.
#: * ``precommit-done``  — after the full precommit set is persisted but
#:   before the commit becomes visible: the transaction is durable yet
#:   unacknowledged (the "ghost" recovery case).
#: * ``gcp-before``      — at the start of a GCP epoch advance: nothing of
#:   the closing epoch is durable yet.
#: * ``gcp-server``      — after one server's epoch flush inside the
#:   advance: a torn epoch (some servers flushed, marker not advanced).
#: * ``gcp-after``       — after the persistent-epoch marker advanced.
SITES = (
    "precommit-record",
    "precommit-done",
    "gcp-before",
    "gcp-server",
    "gcp-after",
)


@dataclass(frozen=True)
class CrashPoint:
    """Crash at the ``occurrence``-th trip of ``site`` (1-based, counted
    from the start of the current incarnation)."""

    site: str
    occurrence: int = 1

    def __post_init__(self):
        if self.site not in SITES:
            raise ValueError(f"unknown fault site {self.site!r}; known: {SITES}")
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence}")


#: A seeded crash point fires at its site's occurrence 1..this.
MAX_CRASH_OCCURRENCE = 25


@dataclass(frozen=True)
class FaultPlan:
    """An ordered tuple of crash points: one simulated crash per point."""

    points: tuple = ()

    @classmethod
    def from_seed(cls, seed, crashes=1):
        """Derive a deterministic plan from the run seed.

        Uses ``random.Random`` over integers only (no salted hashes), so the
        schedule is identical across processes and interpreter restarts.
        """
        if crashes < 0:
            raise ValueError(f"crashes must be >= 0, got {crashes}")
        rng = random.Random((int(seed) << 8) ^ 0xFA17)
        points = tuple(
            CrashPoint(site=rng.choice(SITES), occurrence=rng.randint(1, MAX_CRASH_OCCURRENCE))
            for _ in range(crashes)
        )
        return cls(points=points)

    def __len__(self):
        return len(self.points)


class FaultInjector:
    """Runtime crash scheduler driven by the durability module's trip calls.

    One injector lives for the whole (multi-incarnation) run; the harness
    re-arms it with the new environment after every recovery, which resets
    the per-site occurrence counters and moves on to the next planned point.
    """

    def __init__(self, plan=None):
        self.plan = plan or FaultPlan()
        self.crashed = False
        self.crash_info = None
        #: One info dict per crash that actually fired, in order.
        self.crash_log = []
        self._counts = {}
        self._next_index = 0
        self._event = None
        self._env = None

    def arm(self, env):
        """Start a new incarnation: fresh crash event, counters reset.

        Returns the event the harness should wait on; it fires when (and
        only when) the next planned crash point trips.  If the plan is
        exhausted the event simply never triggers.
        """
        self.crashed = False
        self.crash_info = None
        self._counts = {}
        self._env = env
        self._event = env.event(name="crash")
        return self._event

    def trip(self, site, **detail):
        """Notify the injector that an instrumented site was reached.

        Returns ``True`` exactly once per planned crash point — at the
        planned occurrence of the planned site — after which the caller
        must stop persisting state (the machine is "down").
        """
        if self.crashed or self._next_index >= len(self.plan.points):
            return False
        count = self._counts.get(site, 0) + 1
        self._counts[site] = count
        point = self.plan.points[self._next_index]
        if point.site != site or point.occurrence != count:
            return False
        self.crashed = True
        self._next_index += 1
        self.crash_info = {
            "site": site,
            "occurrence": count,
            "time": self._env.now if self._env is not None else None,
            "detail": dict(detail),
        }
        self.crash_log.append(self.crash_info)
        if self._event is not None and not self._event.triggered:
            self._event.succeed(self.crash_info)
        return True


# ---------------------------------------------------------------------------
# Message faults (the network half of the failure model)
# ---------------------------------------------------------------------------

#: Message fault kinds applied by the message layer:
#:
#: * ``drop``      — the exchange is lost.  With ``lost_reply`` set, the
#:   *request* reaches every destination (and is applied there) but the
#:   reply never returns: the TC times out and retransmits, so only
#:   receiver-side dedup keeps the retry from double-applying.
#: * ``delay``     — a latency spike: the exchange completes, ``magnitude``
#:   times slower.
#: * ``duplicate`` — the request is delivered twice; the duplicate must be
#:   absorbed by the receiver (commit-ticket dedup at the durability
#:   layer; the timestamp exchange applies nothing, the CC's ``start`` hook
#:   takes the timestamp).
#: * ``reorder``   — the message is held back ``magnitude`` extra base
#:   round-trips, so traffic sent after it overtakes it.
#: * ``partition`` — the TC loses the affected destinations for
#:   ``duration`` virtual seconds; every send that touches a partitioned
#:   destination fails until the window heals.
MESSAGE_FAULT_KINDS = ("drop", "delay", "duplicate", "reorder", "partition")

#: A seeded message fault fires 1..this counted sends after the previous one.
MAX_MESSAGE_FAULT_GAP = 30


@dataclass(frozen=True)
class MessageFault:
    """One planned message fault.

    ``occurrence`` is the *gap*: the fault fires on the occurrence-th
    counted send after the previous fault fired (1 = the very next send).
    Gap-based scheduling guarantees every planned point fires in order no
    matter how the workload interleaves — an absolute send index could be
    starved by an earlier long partition.  Sends failing merely because
    they fall inside an active partition window are not counted and do not
    consume plan points.

    ``phases`` restricts the point to protocol phases by name ("start",
    "validate", "precommit", "timestamp"); once the gap is reached the
    point stays armed until a send of a matching phase comes along.  An
    empty tuple (the default, and what seeded plans use) matches any
    phase.  Adversarial tests use it to aim a fault at exactly the
    exchange whose idempotency they are probing.
    """

    kind: str
    occurrence: int = 1
    magnitude: float = 4.0
    duration: float = 0.02
    servers: tuple = ()
    lost_reply: bool = False
    phases: tuple = ()

    def __post_init__(self):
        if self.kind not in MESSAGE_FAULT_KINDS:
            raise ValueError(
                f"unknown message fault kind {self.kind!r}; "
                f"known: {MESSAGE_FAULT_KINDS}"
            )
        if self.occurrence < 1:
            raise ValueError(f"occurrence must be >= 1, got {self.occurrence}")
        if self.magnitude <= 0:
            raise ValueError(f"magnitude must be > 0, got {self.magnitude}")
        if self.duration <= 0:
            raise ValueError(f"duration must be > 0, got {self.duration}")


@dataclass(frozen=True)
class MessageFaultPlan:
    """An ordered tuple of message faults, fired gap-by-gap over the run."""

    points: tuple = ()

    @classmethod
    def from_seed(cls, seed, faults=4, require=()):
        """Derive a deterministic message fault plan from the run seed.

        ``require`` pins the kinds of the first ``len(require)`` points
        (the chaos cells use ``("drop", "partition")`` so every cell sees
        at least one drop+retry and one partition-and-heal window); the
        rest are drawn from :data:`MESSAGE_FAULT_KINDS`.  All per-point
        attributes are drawn from ``random.Random`` over integers only, so
        the plan reproduces byte-identically across processes and
        interpreter restarts.
        """
        if faults < 0:
            raise ValueError(f"faults must be >= 0, got {faults}")
        count = max(int(faults), len(require))
        rng = random.Random((int(seed) << 8) ^ 0x5E7D)
        points = []
        for index in range(count):
            # Every attribute is drawn unconditionally so that pinning a
            # kind via ``require`` never shifts the stream of later points.
            drawn_kind = rng.choice(MESSAGE_FAULT_KINDS)
            occurrence = rng.randint(1, MAX_MESSAGE_FAULT_GAP)
            magnitude = float(rng.randint(2, 6))
            duration = rng.uniform(0.005, 0.03)
            lost_reply = bool(rng.getrandbits(1))
            kind = require[index] if index < len(require) else drawn_kind
            points.append(
                MessageFault(
                    kind=kind,
                    occurrence=occurrence,
                    magnitude=magnitude,
                    duration=duration,
                    lost_reply=lost_reply,
                )
            )
        return cls(points=tuple(points))

    def __len__(self):
        return len(self.points)


#: Disposition returned for sends that fall inside an already-open partition
#: window: they fail like the partition that opened the window, but they do
#: not consume plan points (the window is a state, not an event).
_PARTITION_WINDOW = MessageFault(kind="partition", occurrence=1, duration=1e-9)


class MessageFaultInjector:
    """Runtime message-fault scheduler consulted by the message layer.

    :meth:`~repro.sim.network.MessageTransport.send` calls :meth:`disposition`
    once per exchange; the injector answers with the fault to apply (or
    ``None``).  Partition points open a heal-by-time window over the
    affected destinations; subsequent sends touching a partitioned
    destination keep failing — without consuming further plan points —
    until virtual time passes the heal point.
    """

    def __init__(self, plan=None):
        self.plan = plan or MessageFaultPlan()
        #: One record per planned fault that fired, in order.
        self.fault_log = []
        self._next_index = 0
        self._since_last = 0
        self._partitioned_until = {}

    @property
    def enabled(self):
        """True when the plan injects anything at all.  An empty plan keeps
        the engine on the plain (chaos-free) path, byte-identical to a run
        with no injector attached."""
        return bool(self.plan.points)

    def disposition(self, now, dsts, phase):
        """The fault to apply to a send at ``now`` addressed to ``dsts``."""
        for dst in dsts:
            if now < self._partitioned_until.get(dst, 0.0):
                return _PARTITION_WINDOW
        if self._next_index >= len(self.plan.points):
            return None
        self._since_last += 1
        point = self.plan.points[self._next_index]
        if self._since_last < point.occurrence:
            return None
        if point.phases and phase not in point.phases:
            return None
        self._next_index += 1
        self._since_last = 0
        self.fault_log.append(
            {
                "kind": point.kind,
                "time": now,
                "phase": phase,
                "dsts": tuple(dsts),
                "lost_reply": point.lost_reply,
            }
        )
        if point.kind == "partition":
            heal = now + point.duration
            for dst in point.servers or tuple(dsts):
                self._partitioned_until[dst] = max(
                    self._partitioned_until.get(dst, 0.0), heal
                )
            self.fault_log[-1]["heals_at"] = heal
        return point
