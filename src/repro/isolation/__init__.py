"""Adya-style isolation theory used as the engine's correctness oracle.

The committed execution history of an engine is streamed into a Direct
Serialization Graph (Section 2.2.3) as it commits and checked for the
one level every mechanism promises, serializability: no aborted or
intermediate reads and no DSG cycle of any edge kind.
"""

from repro.isolation.history import History, HistoryRecorder
from repro.isolation.cycles import IncrementalCycleDetector
from repro.isolation.streaming import StreamingDSGChecker
from repro.isolation.checker import IsolationReport, check_engine, check_recorder

__all__ = [
    "History",
    "HistoryRecorder",
    "IncrementalCycleDetector",
    "StreamingDSGChecker",
    "IsolationReport",
    "check_engine",
    "check_recorder",
]
