"""Sorted memtable: a dict plus a sorted key list.

The in-memory sorted run of the LSM-tree.  A dict maps each key to its
latest value and a ``bisect.insort``-maintained list keeps the keys in
order, so a point read is one hash lookup and an ordered walk is a slice
of the list.  Deletes are recorded as tombstones so they shadow older
on-storage values until compaction drops them.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from typing import Iterator, Optional

from repro.errors import ConfigError

#: Sentinel stored as a value to mark a deletion.
TOMBSTONE = None


class MemTable:
    """A sorted in-memory write buffer with tombstone support."""

    def __init__(self) -> None:
        self._values: dict[bytes, Optional[bytes]] = {}
        self._keys: list[bytes] = []  # the dict's keys, sorted
        #: Approximate payload bytes buffered (keys + values + per-entry
        #: overhead), used against the memtable size trigger.
        self.approximate_bytes = 0

    def __len__(self) -> int:
        return len(self._keys)

    # ------------------------------------------------------------- writing

    def put(self, key: bytes, value: Optional[bytes]) -> None:
        """Insert/update ``key``; ``value=None`` records a tombstone."""
        if not key:
            raise ConfigError("empty keys are not supported")
        values = self._values
        new = len(value) if value is not None else 0
        if key in values:
            old = values[key]
            self.approximate_bytes += new - (len(old) if old is not None else 0)
        else:
            insort(self._keys, key)
            self.approximate_bytes += len(key) + new + 24
        values[key] = value

    def delete(self, key: bytes) -> None:
        """Record a tombstone (the key may or may not exist here)."""
        self.put(key, TOMBSTONE)

    # ------------------------------------------------------------- reading

    def get(self, key: bytes) -> tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; ``(True, None)`` means a tombstone."""
        values = self._values
        if key in values:
            return True, values[key]
        return False, None

    def items(self) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """All entries in key order, tombstones included."""
        return self.items_from(b"")

    def sorted_items(self) -> tuple[list[bytes], list[Optional[bytes]]]:
        """Every key in order and its value, as two parallel lists
        (tombstones included): what a flush writes."""
        keys = list(self._keys)
        return keys, list(map(self._values.__getitem__, keys))

    def items_from(self, start_key: bytes) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Entries with key >= ``start_key`` in key order: the keys as of
        the call, each value as of the step that reaches it."""
        keys = self._keys[bisect_left(self._keys, start_key):]
        return zip(keys, map(self._values.__getitem__, keys))

    def min_key(self) -> Optional[bytes]:
        return self._keys[0] if self._keys else None

    def max_key(self) -> Optional[bytes]:
        return self._keys[-1] if self._keys else None
