"""Unit tests for compaction merging.

Recency is the order sources are listed in (newest first); the merge looks
at nothing else — the duplicate-key tests give the *older* table the higher
table id to prove it.
"""

import pytest

from repro.csd.device import CompressedBlockDevice
from repro.lsm.compaction import merge_newest_first, merge_runs, sorted_runs, write_tables
from repro.lsm.sstable import ExtentAllocator, SSTableReader, SSTableWriter
from tests.lsm import write_table


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


@pytest.fixture
def rig():
    device = CompressedBlockDevice(num_blocks=8192)
    return device, ExtentAllocator(0, 8192)


def build(rig, records, table_id):
    device, allocator = rig
    meta, _, _ = write_table(SSTableWriter(device, allocator, table_id), records)
    return SSTableReader.open(device, meta.start_block, meta.num_blocks)


def merge_tables(newest_first, drop_tombstones):
    return merge_newest_first(
        [t.iter_all() for t in newest_first], drop_tombstones=drop_tombstones
    )


def test_merge_disjoint_tables(rig):
    a = build(rig, [(key(i), b"a") for i in range(0, 10)], 1)
    b = build(rig, [(key(i), b"b") for i in range(10, 20)], 2)
    merged = list(merge_tables([a, b], drop_tombstones=False))
    assert [k for k, _ in merged] == [key(i) for i in range(20)]


def test_merge_newest_wins_on_duplicates(rig):
    old = build(rig, [(key(i), b"old") for i in range(10)], 9)
    new = build(rig, [(key(i), b"new") for i in range(5, 15)], 1)
    merged = dict(merge_tables([new, old], drop_tombstones=False))
    for i in range(5):
        assert merged[key(i)] == b"old"
    for i in range(5, 15):
        assert merged[key(i)] == b"new"


def test_merge_carries_tombstones_when_not_bottom(rig):
    base = build(rig, [(key(1), b"v"), (key(2), b"v")], 9)
    deleter = build(rig, [(key(1), None)], 1)
    merged = dict(merge_tables([deleter, base], drop_tombstones=False))
    assert merged[key(1)] is None  # tombstone survives


def test_merge_drops_tombstones_at_bottom(rig):
    base = build(rig, [(key(1), b"v"), (key(2), b"v")], 9)
    deleter = build(rig, [(key(1), None)], 1)
    merged = dict(merge_tables([deleter, base], drop_tombstones=True))
    assert key(1) not in merged
    assert merged[key(2)] == b"v"


def test_merge_tombstone_of_absent_key_dropped_at_bottom(rig):
    deleter = build(rig, [(key(9), None)], 1)
    assert list(merge_tables([deleter], drop_tombstones=True)) == []


def test_write_tables_splits_by_target_size(rig):
    device, allocator = rig
    counter = iter(range(100, 200))

    def make_writer():
        table_id = next(counter)
        return SSTableWriter(device, allocator, table_id)

    # Compaction inputs are decoded into wire records (tombstones as None)
    # and merged a round at a time; the outputs decode to what went in.
    records = [(key(i), None if i % 50 == 7 else bytes(200)) for i in range(500)]
    big = build(rig, records, 1)
    metas, logical, physical = write_tables(
        merge_runs(sorted_runs([big])), make_writer, table_target_bytes=16 << 10,
    )
    assert len(metas) > 3  # split into several output tables
    assert sum(m.n_records for m in metas) == 500
    outputs = [SSTableReader.open(device, m.start_block, m.num_blocks) for m in metas]
    assert [kv for t in outputs for kv in t.iter_all()] == records
    # Outputs are disjoint and ordered.
    for left, right in zip(metas, metas[1:]):
        assert left.max_key < right.min_key
    assert logical >= physical > 0


def test_write_tables_of_no_rounds_writes_nothing(rig):
    metas, logical, physical = write_tables(iter([]), lambda: None, table_target_bytes=1 << 20)
    assert metas == []
    assert logical == physical == 0
