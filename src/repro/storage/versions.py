"""Object versions stored by the multi-version storage module."""

from dataclasses import dataclass
from typing import Any, Optional


@dataclass(slots=True)
class Version:
    """A single version of a data object.

    Attributes
    ----------
    key:
        The storage key this version belongs to.
    value:
        The row/value written.  ``None`` represents a deleted object.
    writer:
        Id of the writing transaction.
    committed:
        Whether the writing transaction committed.
    commit_seq:
        Global commit sequence number assigned at commit time; defines the
        total version order that Adya's model requires.
    timestamp:
        Optional CC-specific timestamp (SSI commit timestamp, TSO timestamp).
    batch_seq, tso_ts:
        Set at install by a deterministic batch leaf (the writer's sequence)
        or a TSO leaf (its timestamp).  Two slots, not one: a TSO leaf must
        never read a batch order as a timestamp.  A version is a fixed header
        plus the row and holds no container of its own.
    """

    key: Any
    value: Any
    writer: int
    committed: bool = False
    commit_seq: Optional[int] = None
    timestamp: Optional[float] = None
    batch_seq: Optional[int] = None
    tso_ts: Optional[int] = None

    def mark_committed(self, commit_seq, timestamp=None):
        """Flip the version to committed state with its global order."""
        self.committed = True
        self.commit_seq = commit_seq
        if timestamp is not None:
            self.timestamp = timestamp

    def __repr__(self):
        state = "C" if self.committed else "U"
        return (
            f"<Version {self.key!r} writer={self.writer} {state}"
            f" seq={self.commit_seq} ts={self.timestamp}>"
        )
