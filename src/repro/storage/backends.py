"""Persistent key-value backends used by the durability module.

The paper outsources persistence to an off-the-shelf key-value store (Redis or
RocksDB); the only requirement is a durable PUT/GET interface (Section 4.5.4).
This module provides two substitutes with the same interface:

* :class:`InMemoryBackend` — a dictionary, useful for tests that need to
  inspect what was "persisted" without touching the filesystem.
* :class:`FileBackend` — an append-only log file with an in-memory index,
  the closest laptop-scale equivalent of a log-structured store.
"""

import json
import os


def _to_json(value):
    """JSON has no tuple and no bytes; tag both so a reload returns exactly
    what was put (a log record is a tuple whose body is bytes)."""
    if isinstance(value, tuple):
        return {"__tuple__": [_to_json(item) for item in value]}
    if isinstance(value, bytes):
        return {"__bytes__": value.hex()}
    if isinstance(value, list):
        return [_to_json(item) for item in value]
    if isinstance(value, dict):
        return {key: _to_json(item) for key, item in value.items()}
    return value


def _from_json(obj):
    """``object_hook`` inverse of :func:`_to_json` (runs innermost first)."""
    if len(obj) == 1:
        if "__tuple__" in obj:
            return tuple(obj["__tuple__"])
        if "__bytes__" in obj:
            return bytes.fromhex(obj["__bytes__"])
    return obj


class InMemoryBackend:
    """Dictionary-backed 'persistent' store (survives engine restarts only)."""

    def __init__(self):
        self._index = {}

    def put(self, key, value):
        self._index[key] = value

    def get(self, key, default=None):
        return self._index.get(key, default)

    def items(self):
        """Every (key, value) pair."""
        return list(self._index.items())

    def remove(self, keys):
        for key in keys:
            del self._index[key]

    def clear(self):
        self._index.clear()

    def close(self):
        """No resources to release for the in-memory backend."""

    def __len__(self):
        return len(self._index)


class FileBackend(InMemoryBackend):
    """Append-only JSON-lines file behind the in-memory index.

    Every :meth:`put` appends one line ``{"k": ..., "v": ...}`` and every
    :meth:`remove` one tombstone line ``{"d": [keys]}``; on open the file is
    replayed to rebuild the index, so the latest line per key wins.
    The JSON coding of values is this class's own business: tuples and bytes
    are tagged on the way out and restored on the way in.
    """

    def __init__(self, path):
        super().__init__()
        self.path = path
        directory = os.path.dirname(path)
        if directory:
            os.makedirs(directory, exist_ok=True)
        if os.path.exists(path):
            self._replay()
        self._file = open(path, "a", encoding="utf-8")

    def _replay(self):
        with open(self.path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if not line:
                    continue
                record = json.loads(line, object_hook=_from_json)
                super().remove(record.get("d", ()))
                if "k" in record:
                    super().put(record["k"], record["v"])

    def _write(self, line):
        self._file.write(json.dumps(line, default=str) + "\n")
        self._file.flush()

    def put(self, key, value):
        self._write({"k": key, "v": _to_json(value)})
        super().put(key, value)

    def remove(self, keys):
        keys = list(keys)
        self._write({"d": keys})
        super().remove(keys)

    def clear(self):
        """Forget every key, on disk too: a reopen must not replay them."""
        self._file.truncate(0)
        super().clear()

    def close(self):
        self._file.close()
