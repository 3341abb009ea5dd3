"""Skiplist memtable.

The in-memory sorted run of the LSM-tree.  A classic probabilistic skiplist
(p = 1/4, tower height <= 12) keyed by raw bytes; deletes are recorded as
tombstones so they shadow older on-storage values until compaction drops
them.
"""

from __future__ import annotations

import random
from typing import Iterator, Optional

from repro.errors import ConfigError

#: Sentinel stored as a value to mark a deletion.
TOMBSTONE = None

_MAX_HEIGHT = 12
_BRANCHING = 4


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: Optional[bytes], value, height: int) -> None:
        self.key = key
        self.value = value
        self.next: list[Optional[_Node]] = [None] * height


class MemTable:
    """A sorted in-memory write buffer with tombstone support."""

    def __init__(self, seed: int = 0) -> None:
        self._rng = random.Random(seed)
        self._head = _Node(None, None, _MAX_HEIGHT)
        self._height = 1
        self._count = 0
        #: Approximate payload bytes buffered (keys + values + per-entry
        #: overhead), used against the memtable size trigger.
        self.approximate_bytes = 0

    def __len__(self) -> int:
        return self._count

    # ------------------------------------------------------------- writing

    def put(self, key: bytes, value: Optional[bytes]) -> None:
        """Insert/update ``key``; ``value=None`` records a tombstone."""
        if not key:
            raise ConfigError("empty keys are not supported")
        update = self._find_update(key)
        node = update[0].next[0]
        if node is not None and node.key == key:
            old = len(node.value) if node.value is not None else 0
            new = len(value) if value is not None else 0
            self.approximate_bytes += new - old
            node.value = value
            return
        height = self._random_height()
        if height > self._height:
            self._height = height
        node = _Node(key, value, height)
        for level in range(height):
            prev = update[level] if level < len(update) else self._head
            node.next[level] = prev.next[level]
            prev.next[level] = node
        self._count += 1
        self.approximate_bytes += len(key) + (len(value) if value else 0) + 24

    def delete(self, key: bytes) -> None:
        """Record a tombstone (the key may or may not exist here)."""
        self.put(key, TOMBSTONE)

    # ------------------------------------------------------------- reading

    def get(self, key: bytes) -> tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; ``(True, None)`` means a tombstone."""
        node = self._seek(key)
        if node is not None and node.key == key:
            return True, node.value
        return False, None

    def items(self) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """All entries in key order, tombstones included."""
        node = self._head.next[0]
        while node is not None:
            yield node.key, node.value
            node = node.next[0]

    def items_from(self, start_key: bytes) -> Iterator[tuple[bytes, Optional[bytes]]]:
        node = self._seek(start_key)
        while node is not None:
            yield node.key, node.value
            node = node.next[0]

    def min_key(self) -> Optional[bytes]:
        node = self._head.next[0]
        return node.key if node else None

    def max_key(self) -> Optional[bytes]:
        node = self._head
        for level in range(self._height - 1, -1, -1):
            while node.next[level] is not None:
                node = node.next[level]
        return node.key

    # ----------------------------------------------------------- internals

    def _random_height(self) -> int:
        height = 1
        while height < _MAX_HEIGHT and self._rng.randrange(_BRANCHING) == 0:
            height += 1
        return height

    def _find_update(self, key: bytes) -> list[_Node]:
        """Per-level predecessors of ``key``."""
        update: list[_Node] = [self._head] * _MAX_HEIGHT
        node = self._head
        for level in range(self._height - 1, -1, -1):
            while node.next[level] is not None and node.next[level].key < key:
                node = node.next[level]
            update[level] = node
        return update

    def _seek(self, key: bytes) -> Optional[_Node]:
        """First node with ``node.key >= key``."""
        return self._find_update(key)[0].next[0]
