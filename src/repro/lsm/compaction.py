"""Compaction execution: the newest-first k-way merge, and the table writer.

:func:`merge_newest_first` is the only merge in the LSM engine.  Its sources
arrive in the recency order :meth:`repro.lsm.version.VersionSet.newest_first`
defines (memtables ahead of every table), so for a key held by several
sources the earliest-listed one wins and the rest are skipped.  Tombstones
are carried forward unless the caller knows nothing older can lie beneath
the output (the deepest occupied level), where they are dropped for good.
"""

from __future__ import annotations

import heapq
from typing import Callable, Iterable, Iterator, Optional

from repro.lsm.sstable import SSTableWriter


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


def write_merged(
    stream: Iterator[tuple[bytes, Optional[bytes]]],
    make_writer: Callable[[], SSTableWriter],
    table_target_bytes: int,
) -> tuple[list, int, int]:
    """Write a merged stream of ``(key, wire-form record)`` pairs — what
    :meth:`~repro.lsm.sstable.SSTableReader.iter_encoded` yields, ``None``
    for a carried tombstone — into size-capped output tables: a compaction
    moves the record bytes it read and re-encodes nothing.

    Returns ``(metas, logical_bytes, physical_bytes)``.
    """
    metas = []
    logical = physical = 0
    writer: Optional[SSTableWriter] = None
    for key, encoded in stream:
        if writer is None:
            writer = make_writer()
        writer.add_encoded(key, encoded)
        if writer.estimated_bytes >= table_target_bytes:
            meta, lo, ph = writer.finish()
            metas.append(meta)
            logical += lo
            physical += ph
            writer = None
    if writer is not None and writer.count:
        meta, lo, ph = writer.finish()
        metas.append(meta)
        logical += lo
        physical += ph
    return metas, logical, physical
