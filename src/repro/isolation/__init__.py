"""Adya-style isolation theory used as a correctness oracle in tests.

The committed execution history of an engine is turned into a Direct
Serialization Graph (Section 2.2.3); isolation levels are characterised by
the anomalies (aborted/intermediate reads) and DSG cycles they proscribe.
"""

from repro.isolation.history import History, HistoryRecorder
from repro.isolation.cycles import IncrementalCycleDetector, find_cycle
from repro.isolation.dsg import iter_dsg_edges
from repro.isolation.levels import ISOLATION_LEVELS, LEVEL_EDGE_KINDS
from repro.isolation.streaming import StreamingDSGChecker
from repro.isolation.checker import (
    IsolationReport,
    check_engine,
    check_history,
    check_recorder,
)

__all__ = [
    "History",
    "HistoryRecorder",
    "IncrementalCycleDetector",
    "find_cycle",
    "iter_dsg_edges",
    "ISOLATION_LEVELS",
    "LEVEL_EDGE_KINDS",
    "StreamingDSGChecker",
    "IsolationReport",
    "check_engine",
    "check_history",
    "check_recorder",
]
