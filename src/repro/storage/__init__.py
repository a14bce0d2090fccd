"""Multi-version storage module and durability.

Tebaldi separates concurrency control from storage (Section 4.3): the storage
module keeps every committed and uncommitted write of each object so that both
single-version and multi-version CC mechanisms can be federated on top of it.
"""

from repro.storage.versions import Version
from repro.storage.mvstore import MultiVersionStore
from repro.storage.tables import Catalog, Table, TableSchema, composite_key
from repro.storage.wal import WriteAheadLog, record_body
from repro.storage.durability import DurabilityManager, DurabilityConfig
from repro.storage.backends import InMemoryBackend, FileBackend

__all__ = [
    "Version",
    "MultiVersionStore",
    "Table",
    "TableSchema",
    "Catalog",
    "composite_key",
    "WriteAheadLog",
    "record_body",
    "DurabilityManager",
    "DurabilityConfig",
    "InMemoryBackend",
    "FileBackend",
]
