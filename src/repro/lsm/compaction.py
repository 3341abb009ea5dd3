"""Compaction execution: the newest-first merges, and the table packer.

:func:`merge_newest_first` is the record-at-a-time merge that range reads
(scans, ``items()``) consume.  Its sources arrive in the recency order
:meth:`repro.lsm.version.VersionSet.newest_first` defines (memtables ahead
of every table), so for a key held by several sources the earliest-listed
one wins and the rest are skipped.  Tombstones are carried forward unless
the caller knows nothing older can lie beneath the output (the deepest
occupied level), where they are dropped for good.

A compaction job applies the same rule a table at a time:
:func:`sorted_runs` folds its input tables into sorted runs,
:func:`merge_runs` merges them in rounds of decoded tables, and
:func:`write_tables` packs the merged records into size-capped output
tables.  It moves the record bytes it read and re-encodes nothing.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from itertools import accumulate, compress
from typing import Callable, Iterable, Iterator, Optional

from repro.lsm.sstable import SSTableReader, SSTableWriter, encode_record, pack_table


def merge_newest_first(
    sources: Iterable[Iterator[tuple[bytes, Optional[bytes]]]],
    drop_tombstones: bool = False,
) -> Iterator[tuple[bytes, Optional[bytes]]]:
    """Merge key-sorted streams, listed newest first, into one sorted,
    deduplicated stream; ``None`` values are tombstones."""
    iters = list(sources)
    heap = []
    for rank, stream in enumerate(iters):
        first = next(stream, None)
        if first is not None:
            # (key, rank) is unique, so values are never compared.
            heap.append((first[0], rank, first[1]))
    heapq.heapify(heap)
    last_key: Optional[bytes] = None
    while heap:
        key, rank, value = heap[0]
        nxt = next(iters[rank], None)
        if nxt is None:
            heapq.heappop(heap)
        else:
            heapq.heapreplace(heap, (nxt[0], rank, nxt[1]))
        if key == last_key:
            continue  # an older version of a key already emitted
        last_key = key
        if value is None and drop_tombstones:
            continue
        yield key, value


def sorted_runs(newest_first: list[SSTableReader]) -> list[list[SSTableReader]]:
    """Fold tables listed newest first into sorted runs, newest first, each
    run's tables in key order.  A table joins the run before it when its key
    range lies wholly outside that run's: neighbours in the recency order
    that share no key rank alike against every other table.  A disjoint
    level's tables and a tiered job's output, added in key order, each form
    one run; L0 tables that overlap stay runs of their own."""
    runs: list[list[SSTableReader]] = []
    low = high = b""
    for table in newest_first:
        meta = table.meta
        if runs and (meta.max_key < low or meta.min_key > high):
            runs[-1].append(table)
            low, high = min(low, meta.min_key), max(high, meta.max_key)
        else:
            runs.append([table])
            low, high = meta.min_key, meta.max_key
    for run in runs:
        run.sort(key=lambda table: table.meta.min_key)
    return runs


def merge_runs(
    runs: list[list[SSTableReader]], drop_tombstones: bool = False
) -> Iterator[tuple[list[bytes], list[bytes]]]:
    """:func:`merge_newest_first` over sorted runs (newest first, as
    :func:`sorted_runs` makes them), a round at a time: yields the merged
    keys and their wire-form records (:meth:`SSTableReader.wire_records`),
    tombstones re-encoded when carried.

    Each run holds one decoded table.  The buffered table that ends first
    bounds a round: every buffered record at or below its last key goes
    into one dict, oldest run first so the newest version wins, and the
    dict's keys are sorted.  Then each run whose table is used up decodes
    its next one.  So the merge holds at most one table per run plus a
    round's output, whatever the size of the job.
    """
    cursors = []  # [keys, records, next unmerged index, the run's later tables]
    for run in reversed(runs):
        tables = iter(run)
        cursors.append([*next(tables).wire_records(), 0, tables])
    while cursors:
        bound = min(cursor[0][-1] for cursor in cursors)
        merged: dict[bytes, Optional[bytes]] = {}
        for cursor in cursors:
            keys, records, first, _ = cursor
            end = bisect_right(keys, bound, first)
            merged.update(zip(keys[first:end], records[first:end]))
            cursor[2] = end
        keys = sorted(merged)
        records = list(map(merged.__getitem__, keys))
        if None in records:
            if drop_tombstones:  # a wire record is never empty, so never falsy
                keys = list(compress(keys, records))
                records = list(filter(None, records))
            else:
                records = [
                    encode_record(key, None) if record is None else record
                    for key, record in zip(keys, records)
                ]
        if keys:
            yield keys, records
        live = []
        for cursor in cursors:
            if cursor[2] == len(cursor[0]):
                table = next(cursor[3], None)
                if table is None:
                    continue
                cursor[:3] = [*table.wire_records(), 0]
            live.append(cursor)
        cursors = live


def write_tables(
    rounds: Iterable[tuple[list[bytes], list[bytes]]],
    make_writer: Callable[[], SSTableWriter],
    table_target_bytes: int,
) -> tuple[list, int, int]:
    """Pack merged rounds of ``(keys, wire-form records)`` into output
    tables, each closed once its estimated size reaches
    ``table_target_bytes`` (:func:`~repro.lsm.sstable.pack_table`), and
    write each table as soon as it closes; the records of the table still
    open carry over to the next round.

    Returns ``(metas, logical_bytes, physical_bytes)``.
    """
    metas = []
    logical = physical = 0
    keys: list[bytes] = []
    records: list[bytes] = []

    def write(first: int, end: int) -> None:
        nonlocal logical, physical
        meta, lo, ph = make_writer().write(keys[first:end], records[first:end])
        metas.append(meta)
        logical += lo
        physical += ph

    for round_keys, round_records in rounds:
        keys += round_keys
        records += round_records
        ends = [0, *accumulate(map(len, records))]
        first = 0
        while True:
            _, end = pack_table(ends, first, table_target_bytes)
            if end is None:
                break  # the open table carries over
            write(first, end)
            first = end
        del keys[:first], records[:first]
    if keys:
        write(0, len(keys))
    return metas, logical, physical
