"""Deterministic discrete-event simulation kernel.

This package is the substrate that replaces the paper's CloudLab cluster:
closed-loop clients and the network are simulated in virtual time, so that
the concurrency-control behaviour (blocking, aborts, pipelining) determines
throughput, not the Python GIL.  A data server's CPU is not simulated: only
its cost is, a fixed delay per operation and phase
(:mod:`repro.sim.network`), so no server queues and none can saturate.

The programming model is the classic process-based one (SimPy-like): a
*process* is a generator that yields :class:`~repro.sim.events.Event`
instances; ``yield from`` composes sub-coroutines.
"""

from repro.sim.environment import Environment
from repro.sim.events import Condition, Event, Timeout
from repro.sim.faults import (
    FaultInjector,
    FaultPlan,
    MessageFault,
    MessageFaultInjector,
    MessageFaultPlan,
)
from repro.sim.network import Delivery, MessageTransport

__all__ = [
    "Environment",
    "Event",
    "Timeout",
    "Condition",
    "Delivery",
    "MessageTransport",
    "FaultInjector",
    "FaultPlan",
    "MessageFault",
    "MessageFaultInjector",
    "MessageFaultPlan",
]
