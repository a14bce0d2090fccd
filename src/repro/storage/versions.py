"""Object versions stored by the multi-version storage module."""

from dataclasses import dataclass, field
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
    """

    key: Any
    value: Any
    writer: int
    committed: bool = False
    commit_seq: Optional[int] = None
    timestamp: Optional[float] = None
    metadata: dict = field(default_factory=dict)

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
