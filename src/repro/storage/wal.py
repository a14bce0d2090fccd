"""Write-ahead logging primitives used by the durability protocol.

A log record is one exact ``tuple`` of atoms, ``(lsn, kind, txn_id,
gcp_epoch, body)``.  ``kind`` is ``"precommit"`` (the per-data-server
precommit record, the log's only redo record; body ``(participants, ticket,
writes)``, ``writes`` a tuple of ``(key, value)`` pairs), ``"checkpoint"``
(one key of the image; body ``(key, value, writer)``) or ``"folded"`` (body
``(writer ids, read-only ids)``).  The body is serialised once, at append:
the log owns a copy of the rows, never an alias of a dict the engine may
still mutate, and the record is flat, which is the only shape of long-lived
data the cyclic collector stops tracking (PERFORMANCE.md, *What the cyclic
collector charges for*).  The server id is not a slot: a
record lives in one log, and each log owns its backend, where a durable
record is stored under its own LSN.

Release rule: :meth:`WriteAheadLog.fold`, run at every persistent GCP epoch
advance and at the recovery checkpoint (after a wipe), replaces the precommit
records with one checkpoint record per key and one ``folded`` record of their
ids.  A synchronous-mode log has no advance: only recovery releases it.
"""

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
        self._buffer, self._next_lsn, self._tail_start = [], 1, 1
        #: key -> LSN of its image record / of its latest write since the last
        #: fold: both bounded by the keys this server owns.
        self._image, self._latest = {}, {}
        #: Ids of the writers and of the read-only commits logged since.
        self._writers, self._readers = [], []

    def append(self, kind, txn_id, gcp_epoch=0, body=None, lsn=None):
        """Append a record to the volatile tail under the next LSN (a fold
        passes an image record's own) and return it.  A precommit record
        becomes the latest of each key it writes."""
        if lsn is None:
            lsn, self._next_lsn = self._next_lsn, self._next_lsn + 1
        record = (lsn, kind, txn_id, gcp_epoch, dumps(body, HIGHEST_PROTOCOL))
        self._buffer.append(record)
        if kind == "precommit" and body is not None:
            for key, _value in body[2]:
                self._latest[key] = lsn
            (self._writers if body[2] else self._readers).append(txn_id)
        return record

    def flush(self, up_to_epoch=None):
        """Persist buffered records (optionally only up to a GCP epoch) and
        return how many."""
        buffer, self._buffer = self._buffer, []
        for record in buffer:
            if up_to_epoch is not None and record[GCP_EPOCH] > up_to_epoch:
                self._buffer.append(record)
            else:
                self.backend.put(record[LSN], record)
        return len(buffer) - len(self._buffer)

    def fold(self, image=()):
        """Fold ``image`` (``(key, value, writer)`` bodies) and each key's
        latest write into the image, rewriting a key's record under its LSN,
        and release the tail.  Only the records holding a latest write are
        unpickled.  Every record must be durable and recoverable: right
        after a persistent epoch advance, or a reset."""
        latest, backend, tail_end = self._latest, self.backend, self._next_lsn
        bodies = list(image)
        for lsn in set(latest.values()):
            record = backend.get(lsn)
            writer, writes = record[TXN_ID], record_body(record)[2]
            bodies += [(key, value, writer) for key, value in writes if latest[key] == lsn]
        for body in bodies:
            image_lsn = self._image.get(body[0])
            self._image[body[0]] = self.append("checkpoint", 0, 0, body, image_lsn)[LSN]
        if self._writers or self._readers:
            self.append("folded", 0, 0, (self._writers, self._readers))
        self.flush()
        backend.remove(range(self._tail_start, tail_end))
        latest.clear()
        del self._writers[:], self._readers[:]
        self._tail_start = self._next_lsn

    def crash(self):
        """Simulate a machine crash: what :meth:`flush` persisted survives,
        the volatile tail vanishes without trace.  Returns its length."""
        lost, self._buffer = len(self._buffer), []
        return lost

    def reset(self):
        """Restart the log for a new incarnation: the backend is wiped, the
        buffer emptied and LSNs restart from 1."""
        self.backend.clear()
        self.__init__(self.backend)

    def persisted_records(self):
        """Read back every durable record of this server, in LSN order."""
        return [record for _lsn, record in sorted(self.backend.items())]

    def records(self):
        """Every record of this server: the durable ones, then the volatile
        tail a crash would lose."""
        return self.persisted_records() + self._buffer
