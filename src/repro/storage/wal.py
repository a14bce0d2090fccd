"""Write-ahead logging primitives used by the durability protocol.

A log record is one exact ``tuple`` of atoms, ``(lsn, kind, txn_id,
gcp_epoch, body)``.  ``kind`` is ``"precommit"`` (the per-data-server
precommit record, the log's only redo record; body ``(participants, ticket,
writes)``, ``writes`` a tuple of ``(key, value)`` pairs) or ``"checkpoint"``
(one recovered key; body ``(key, value, writer)``).  The body is serialised
once, at append: the log owns a copy of the rows, never an alias of a dict
the engine may still mutate, and the record is flat, which is the only shape
of long-lived data the cyclic collector stops tracking (PERFORMANCE.md,
*What the cyclic collector charges for*).  The server id is not a slot: a
record lives in one log, and each log owns its backend, where a durable
record is stored under its own LSN.
"""

from itertools import count
from pickle import HIGHEST_PROTOCOL, dumps, loads

#: Slot indices of a log record.
LSN, KIND, TXN_ID, GCP_EPOCH, BODY = range(5)


def record_body(record):
    """The deserialised body of a log record (a fresh copy on every call).

    Only for records this program appended: unpickling runs what it reads."""
    return loads(record[BODY])


class WriteAheadLog:
    """Per-data-server write-ahead log.

    Records are appended to a volatile buffer and become durable when
    :meth:`flush` persists them to the backend (synchronously at precommit,
    or asynchronously in GCP-epoch batches).
    """

    def __init__(self, backend):
        self.backend = backend
        self._lsn = count(1)
        self._buffer = []

    def append(self, kind, txn_id, gcp_epoch=0, body=None):
        """Append a record to the volatile tail of the log and return it."""
        record = (next(self._lsn), kind, txn_id, gcp_epoch, dumps(body, HIGHEST_PROTOCOL))
        self._buffer.append(record)
        return record

    def flush(self, up_to_epoch=None):
        """Persist buffered records (optionally only up to a GCP epoch)."""
        remaining = []
        flushed = 0
        for record in self._buffer:
            if up_to_epoch is not None and record[GCP_EPOCH] > up_to_epoch:
                remaining.append(record)
                continue
            self.backend.put(record[LSN], record)
            flushed += 1
        self._buffer = remaining
        return flushed

    def crash(self):
        """Simulate a machine crash: the volatile tail of the log is lost.

        Records already persisted by :meth:`flush` survive in the backend;
        everything still buffered vanishes without trace.
        """
        lost = len(self._buffer)
        self._buffer = []
        return lost

    def reset(self):
        """Restart the log for a new incarnation: the backend is wiped, the
        buffer emptied and LSNs restart from 1."""
        self.backend.clear()
        self._buffer = []
        self._lsn = count(1)

    def persisted_records(self):
        """Read back every durable record of this server, in LSN order."""
        return [record for _lsn, record in sorted(self.backend.items())]

    def records(self):
        """Every record of this server: the durable ones, then the volatile
        tail a crash would lose."""
        return self.persisted_records() + self._buffer
