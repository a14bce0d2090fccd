"""Concurrency-control mechanisms federated by the hierarchical MCC engine.

Each mechanism implements the four-phase interface of
:class:`repro.cc.base.ConcurrencyControl`.  Where it may sit in the CC tree
(leaf only or also internal, below which ancestors) is declared on its class
and checked for every tree by :func:`repro.cc.base.check_composition`.
"""

from repro.cc.base import ConcurrencyControl, CC_REGISTRY, register_cc, create_cc
from repro.cc.no_op import NoOpCC
from repro.cc.two_phase_locking import TwoPhaseLocking
from repro.cc.runtime_pipelining import RuntimePipelining
from repro.cc.ssi import SerializableSnapshotIsolation
from repro.cc.tso import TimestampOrdering
from repro.cc.occ import OptimisticCC
from repro.cc.batch import DeterministicBatch
from repro.cc.timestamps import TimestampOracle

__all__ = [
    "ConcurrencyControl",
    "CC_REGISTRY",
    "register_cc",
    "create_cc",
    "NoOpCC",
    "TwoPhaseLocking",
    "RuntimePipelining",
    "SerializableSnapshotIsolation",
    "TimestampOrdering",
    "OptimisticCC",
    "DeterministicBatch",
    "TimestampOracle",
]
