"""Adya-style isolation theory used as the engine's correctness oracle.

The committed execution history of an engine is streamed into a Direct
Serialization Graph (Section 2.2.3) as it commits; isolation levels are
characterised by the anomalies (aborted/intermediate reads) and DSG cycles
they proscribe.
"""

from repro.isolation.history import History, HistoryRecorder
from repro.isolation.cycles import IncrementalCycleDetector
from repro.isolation.levels import ISOLATION_LEVELS, LEVEL_EDGE_KINDS
from repro.isolation.streaming import StreamingDSGChecker
from repro.isolation.checker import IsolationReport, check_engine, check_recorder

__all__ = [
    "History",
    "HistoryRecorder",
    "IncrementalCycleDetector",
    "ISOLATION_LEVELS",
    "LEVEL_EDGE_KINDS",
    "StreamingDSGChecker",
    "IsolationReport",
    "check_engine",
    "check_recorder",
]
