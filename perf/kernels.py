"""Layer kernels: unit costs of the layers no proxy can reach from outside.

Each kernel times direct calls of one public function on inputs drawn from
the seeded ``lsm_insert`` / ``bminus_update`` op lists, five times over, and
reports the median cost of one call in reference nanoseconds
(``perf.hostclock``; loop overhead included).
Unit cost times the exact call count of the ledger estimates the layer's
share of a workload.
"""

from __future__ import annotations

from dataclasses import replace
from itertools import cycle, islice
from statistics import median
from typing import Callable

from repro.btree.node import LeafNode
from repro.btree.page import Page
from repro.btree.wal import LogOp, RedoLog
from repro.core.delta import DeltaBlock
from repro.csd.arena import ScratchArena
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.lsm.bloom import BloomFilter
from repro.lsm.memtable import MemTable

from perf.hostclock import timed_call
from perf.workloads import BY_NAME, OpList, Workload, generate

TIMINGS = 5
PAGE_SIZE = 8192
SEGMENT_SIZE = 128  # the paper's D_s
RECORDS_PER_LEAF = 40  # an 8 KB leaf at the ~2/3 fill random inserts leave
#: Entries a memtable holds before it is flushed: the harness's 32 KB floor
#: over 128 B records plus the memtable's 24 B per-entry overhead.
MEMTABLE_RECORDS = 215


def _median_ns(run: Callable[[], None], calls: int) -> float:
    """Median over ``TIMINGS`` timings of one call's cost, in reference ns."""
    return median(timed_call(run)[1] * 1e9 / calls for _ in range(TIMINGS))


def _leaves(oplist: OpList) -> list:
    """Finalized leaf pages holding the populate records, in key order."""
    records = sorted(oplist.populate)
    leaves = []
    for page_id, first in enumerate(range(0, len(records), RECORDS_PER_LEAF)):
        leaf = LeafNode.create(PAGE_SIZE, page_id + 1)
        for key, value in records[first : first + RECORDS_PER_LEAF]:
            leaf.put(key, value)
        leaf.page.finalize(lsn=page_id + 1)
        leaf.page.clear_dirty()
        leaves.append(leaf)
    return leaves


def _delta_inputs(oplist: OpList, leaves: list, limit: int) -> list:
    """``(page buffer, dirty segments)`` after each of the first ``limit``
    updates is applied to its leaf: what a delta flush of that page encodes."""
    inputs = []
    for lsn, (_, key, value) in enumerate(oplist.ops[:limit], start=len(leaves) + 1):
        leaf = leaves[int.from_bytes(key, "big") // RECORDS_PER_LEAF]
        leaf.put(key, value)
        leaf.page.finalize(lsn=lsn)
        inputs.append((bytearray(leaf.page.buf), leaf.page.dirty_segments(SEGMENT_SIZE)))
        leaf.page.clear_dirty()
    return inputs


def run_kernels(seed: int, calls: int) -> dict[str, float]:
    """The seven kernels, ``calls`` calls per timing."""
    out = {}
    lsm = generate(_sized(BY_NAME["lsm_insert"], calls), seed)
    keys = [key for _, key, _ in lsm.ops[:calls]]
    pairs = [(key, value) for _, key, value in lsm.ops[:calls]]

    bloom = BloomFilter(expected_keys=len(keys))

    def bloom_add() -> None:
        add = bloom.add
        for key in keys:
            add(key)

    def bloom_probe() -> None:
        may_contain = bloom.may_contain
        for key in keys:
            may_contain(key)

    out["lsm.bloom.add_ns"] = _median_ns(bloom_add, len(keys))
    out["lsm.bloom.probe_ns"] = _median_ns(bloom_probe, len(keys))

    tables: list = []

    def memtable_put() -> None:
        tables.clear()
        for first in range(0, len(pairs), MEMTABLE_RECORDS):
            table = MemTable()
            tables.append(table)
            put = table.put
            for key, value in pairs[first : first + MEMTABLE_RECORDS]:
                put(key, value)

    def memtable_get() -> None:
        for table, first in zip(tables, range(0, len(keys), MEMTABLE_RECORDS)):
            get = table.get
            for key in keys[first : first + MEMTABLE_RECORDS]:
                get(key)

    out["lsm.memtable.put_ns"] = _median_ns(memtable_put, len(pairs))
    out["lsm.memtable.get_ns"] = _median_ns(memtable_get, len(keys))

    bminus = generate(_sized(BY_NAME["bminus_update"], calls), seed)
    leaves = _leaves(bminus)
    images = [leaf.page.image() for leaf in leaves]

    def page_parse_verify() -> None:
        from_bytes = Page.from_bytes
        for image in islice(cycle(images), calls):
            from_bytes(image, verify=True)

    out["btree.page.parse_verify_ns"] = _median_ns(page_parse_verify, calls)

    deltas = _delta_inputs(bminus, leaves, limit=min(calls, 512))
    arena = ScratchArena(BLOCK_SIZE)

    def delta_encode() -> None:
        encode_into = DeltaBlock.encode_into
        for lsn, (source, segments) in enumerate(islice(cycle(deltas), calls)):
            slab = arena.borrow()
            encode_into(slab, PAGE_SIZE, 1, lsn, lsn + 1, SEGMENT_SIZE, segments, source)
            arena.release(slab)

    out["core.delta.encode_ns"] = _median_ns(delta_encode, calls)

    puts = [(key, value) for _, key, value in bminus.ops[:calls]]

    def wal_append() -> None:
        # A scratch drive that is never flushed: framing cost only.
        log = RedoLog(CompressedBlockDevice(1 + calls), 0, 1 + calls)
        append_kv = log.append_kv
        for lsn, (key, value) in enumerate(puts):
            append_kv(lsn, 0, LogOp.PUT, key, value)

    out["btree.wal.append_ns"] = _median_ns(wal_append, len(puts))
    return out


def _sized(workload: Workload, calls: int) -> Workload:
    """The workload with exactly ``calls`` measured ops."""
    return replace(workload, n_ops=calls)
