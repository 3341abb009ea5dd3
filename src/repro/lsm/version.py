"""Level bookkeeping (the LSM-tree's version set) and the one recency rule.

**Position is age.**  A shallower level is newer than a deeper one; within
level 0 (whole-memtable flushes, overlapping) and within a level of
overlapping sorted runs (``overlapping=True``, the tiering policies of
:mod:`repro.lsm.strategy`) a table added later is newer than one added
earlier; a leveled level >= 1 is one disjoint sorted run, kept in key order,
so no two of its tables ever hold the same key.  :meth:`VersionSet.
newest_first` is the only statement of that order: compaction inputs
consume it, point reads consume :meth:`VersionSet.tables_for_get` (its
members whose range covers the key; on a disjoint level that is at most one
table, picked by bisecting the level's max keys), range reads consume
:meth:`VersionSet.runs_from` (the same order, with each disjoint level
folded into one run), and nothing compares tables any other way.  Level lists
are persisted in list order and replayed through :meth:`VersionSet.
add_table` in that order, so a reopened store has the same ages.

Compaction *scheduling* is the strategy's job; the version set only answers
shape queries and keeps the leveled round-robin cursor
(:meth:`round_robin_victim`), whose lifetime must match the level state it
indexes."""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Optional

from repro.csd.device import BLOCK_SIZE
from repro.errors import CompactionError
from repro.lsm.sstable import SSTableReader


@dataclass
class CompactionJob:
    """Inputs of one compaction: tables at ``level`` merging into ``level+1``."""

    level: int
    inputs: list[SSTableReader]
    overlaps: list[SSTableReader]

    @property
    def output_level(self) -> int:
        return self.level + 1


class VersionSet:
    """The live set of tables, organised by level."""

    def __init__(self, max_levels: int = 7, overlapping: bool = False) -> None:
        if max_levels < 2:
            raise CompactionError("an LSM-tree needs at least 2 levels")
        self.max_levels = max_levels
        self.overlapping_runs = overlapping
        self.levels: list[list[SSTableReader]] = [[] for _ in range(max_levels)]
        #: Per non-empty disjoint level: (each table's max key, the tables),
        #: both in key order.  Built by :meth:`tables_for_get`, dropped by
        #: every mutation.
        self._fences: Optional[list[tuple[list[bytes], list[SSTableReader]]]] = None
        self._compaction_cursor: dict[int, bytes] = {}

    # ------------------------------------------------------------ mutation

    def add_table(self, level: int, reader: SSTableReader) -> None:
        self._check_level(level)
        self._fences = None
        self.levels[level].append(reader)  # arrival order is age
        if level > 0 and not self.overlapping_runs:
            # One disjoint run: key order, which decides nothing about age.
            self.levels[level].sort(key=lambda r: r.meta.min_key)
            self._check_disjoint(level)

    def remove_tables(self, level: int, readers: list[SSTableReader]) -> None:
        self._check_level(level)
        self._fences = None
        victims = {id(r) for r in readers}
        before = len(self.levels[level])
        self.levels[level] = [r for r in self.levels[level] if id(r) not in victims]
        if before - len(self.levels[level]) != len(readers):
            raise CompactionError(f"some tables to remove were not at level {level}")

    def _check_level(self, level: int) -> None:
        if not 0 <= level < self.max_levels:
            raise CompactionError(f"level {level} out of range")

    def _check_disjoint(self, level: int) -> None:
        tables = self.levels[level]
        for left, right in zip(tables, tables[1:]):
            if left.meta.max_key >= right.meta.min_key:
                raise CompactionError(
                    f"level {level} tables overlap: "
                    f"{left.meta.table_id} and {right.meta.table_id}"
                )

    # ------------------------------------------------------------- queries

    def level_bytes(self, level: int) -> int:
        return sum(r.meta.num_blocks for r in self.levels[level]) * BLOCK_SIZE

    def total_tables(self) -> int:
        return sum(len(tables) for tables in self.levels)

    def num_nonempty_levels(self) -> int:
        return sum(1 for tables in self.levels if tables)

    def deepest_nonempty_level(self) -> int:
        for level in range(self.max_levels - 1, -1, -1):
            if self.levels[level]:
                return level
        return 0

    def overlapping(self, level: int, min_key: bytes, max_key: bytes) -> list[SSTableReader]:
        self._check_level(level)
        return [
            r for r in self.levels[level]
            if not (r.meta.max_key < min_key or r.meta.min_key > max_key)
        ]

    def newest_first(self) -> list[SSTableReader]:
        """Every table, newest first — the recency rule (module docstring)."""
        order = self.levels[0][::-1]
        for tables in self.levels[1:]:
            order.extend(reversed(tables) if self.overlapping_runs else tables)
        return order

    def runs_from(self, start_key: bytes) -> list[list[SSTableReader]]:
        """The sorted runs that can hold keys >= ``start_key``, newest first:
        what a range read merges.  Every level-0 table and every table of an
        overlapping level is a run of its own; a leveled level >= 1 is one
        run, its tables in key order, which a reader enters at the first
        table and leaves as soon as it has what it came for."""
        if self.overlapping_runs:
            runs = [[r] for r in self.newest_first()]
        else:
            runs = [[r] for r in reversed(self.levels[0])] + self.levels[1:]
        live = ([r for r in run if r.meta.max_key >= start_key] for run in runs)
        return [run for run in live if run]

    def tables_for_get(self, key: bytes) -> list[SSTableReader]:
        """Tables whose key range covers ``key``, newest first: the members
        of :meth:`newest_first` a point read has to ask.  A disjoint level
        holds at most one, found by bisecting the level's max keys (its
        fence pointers) instead of testing every table's range."""
        disjoint = not self.overlapping_runs
        candidates = reversed(self.levels[0]) if disjoint else self.newest_first()
        tables = [r for r in candidates if r.meta.min_key <= key <= r.meta.max_key]
        if not disjoint:
            return tables
        fences = self._fences
        if fences is None:
            fences = self._fences = [
                ([r.meta.max_key for r in run], run) for run in self.levels[1:] if run
            ]
        for max_keys, run in fences:
            i = bisect_left(max_keys, key)  # first table ending at or after key
            if i < len(run) and run[i].meta.min_key <= key:
                tables.append(run[i])
        return tables

    # ---------------------------------------------------------- scheduling

    def round_robin_victim(self, level: int) -> Optional[SSTableReader]:
        """Rotate through the level's key space so compaction work spreads out
        (RocksDB's default victim heuristic)."""
        if not self.levels[level]:
            return None
        cursor = self._compaction_cursor.get(level, b"")
        for reader in self.levels[level]:
            if reader.meta.min_key > cursor:
                self._compaction_cursor[level] = reader.meta.max_key
                return reader
        reader = self.levels[level][0]
        self._compaction_cursor[level] = reader.meta.max_key
        return reader
