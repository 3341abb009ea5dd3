"""Unit tests for SSTables and the extent allocator."""

import random
import struct
import zlib
from itertools import islice

import pytest
from hypothesis import given

from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import LsmError
from repro.lsm.sstable import (
    _FOOTER,
    ExtentAllocator,
    SSTableReader,
    SSTableWriter,
    encode_record,
)
from repro.lsm.vlog import ValueRef
from repro.sim.rng import DeterministicRng
from tests.fuzz import fuzz_settings, seed_strategy
from tests.lsm import write_table


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def viewed_blocks(reader):
    """Data blocks the reader holds a decoded view of."""
    return sorted(i for i, view in reader._views.items() if view is not None)


@pytest.fixture
def device():
    return CompressedBlockDevice(num_blocks=4096)


@pytest.fixture
def allocator():
    return ExtentAllocator(0, 4096)


def build_table(device, allocator, records, table_id=1):
    meta, _, _ = write_table(SSTableWriter(device, allocator, table_id), records)
    return SSTableReader.open(device, meta.start_block, meta.num_blocks), meta


# --------------------------------------------------------------- allocator


def test_allocator_basic():
    alloc = ExtentAllocator(10, 100)
    a = alloc.allocate(10)
    b = alloc.allocate(20)
    assert a == 10 and b == 20
    assert alloc.free_blocks == 70


def test_allocator_free_coalesces():
    alloc = ExtentAllocator(0, 100)
    a = alloc.allocate(10)
    b = alloc.allocate(10)
    alloc.free(a, 10)
    alloc.free(b, 10)
    assert alloc.allocate(100) == 0  # whole pool contiguous again


def test_allocator_exhaustion():
    alloc = ExtentAllocator(0, 10)
    alloc.allocate(10)
    with pytest.raises(LsmError):
        alloc.allocate(1)


def test_allocator_first_fit_reuses_gap():
    alloc = ExtentAllocator(0, 100)
    a = alloc.allocate(10)
    alloc.allocate(10)
    alloc.free(a, 10)
    assert alloc.allocate(5) == a


def test_allocator_mark_used():
    alloc = ExtentAllocator(0, 100)
    alloc.mark_used(20, 10)
    assert alloc.free_blocks == 90
    with pytest.raises(LsmError):
        alloc.mark_used(25, 10)  # overlaps an already-used range


def test_allocator_validation():
    with pytest.raises(ValueError):
        ExtentAllocator(0, 0)
    with pytest.raises(ValueError):
        ExtentAllocator(0, 10).allocate(0)


# ----------------------------------------------------------------- tables


def test_write_read_roundtrip(device, allocator):
    records = [(key(i), bytes([i % 256]) * 20) for i in range(500)]
    reader, meta = build_table(device, allocator, records)
    assert meta.n_records == 500
    assert meta.min_key == key(0)
    assert meta.max_key == key(499)
    for k, v in records:
        assert reader.get(k) == (True, v)
    assert list(reader.iter_all()) == records


def test_get_absent_key(device, allocator):
    reader, _ = build_table(device, allocator, [(key(2), b"v"), (key(4), b"v")])
    assert reader.get(key(3)) == (False, None)
    assert reader.get(key(0)) == (False, None)
    assert reader.get(key(9)) == (False, None)


def test_tombstones_roundtrip(device, allocator):
    records = [(key(1), b"v"), (key(2), None), (key(3), b"w")]
    reader, _ = build_table(device, allocator, records)
    assert reader.get(key(2)) == (True, None)
    assert list(reader.iter_all()) == records


def test_unsorted_input_rejected(device, allocator):
    writer = SSTableWriter(device, allocator, 1)
    with pytest.raises(LsmError):
        write_table(writer, [(key(5), b"v"), (key(4), b"v")])
    with pytest.raises(LsmError):
        write_table(writer, [(key(5), b"v"), (key(5), b"v")])  # duplicates too


def test_empty_table_rejected(device, allocator):
    writer = SSTableWriter(device, allocator, 1)
    with pytest.raises(LsmError):
        writer.write([], [])


def test_oversized_record_rejected(device, allocator):
    writer = SSTableWriter(device, allocator, 1)
    with pytest.raises(LsmError):
        write_table(writer, [(key(1), b"x" * BLOCK_SIZE)])


def test_iter_from_midpoint(device, allocator):
    records = [(key(i), b"v") for i in range(0, 1000, 2)]
    reader, _ = build_table(device, allocator, records)
    got = [k for k, _ in reader.iter_from(key(501))]
    assert got == [key(i) for i in range(502, 1000, 2)]


def test_iter_from_every_entry_position(device, allocator):
    """Before the table, mid-block, on a key, between two blocks, on the last
    key and past it — the cursor yields exactly the records >= the start."""
    records = [(key(i), bytes([i % 256]) * 90) for i in range(10, 1000, 2)]
    reader, _ = build_table(device, allocator, records)
    assert len(reader._index) > 5
    second_block_first = int.from_bytes(reader._index[1], "big")
    starts = [0, 10, 11, 12, 501, 502, second_block_first - 1, second_block_first,
              second_block_first + 1, 997, 998, 999, 5000]
    for start in starts:
        assert list(reader.iter_from(key(start))) == [
            kv for kv in records if kv[0] >= key(start)
        ], start
    assert list(reader.iter_from(b"")) == records


def test_iter_from_decodes_on_demand(device, allocator):
    """Entering a block reads it once; nothing past the record the consumer
    stopped at is validated, and the next block is read only when asked for."""
    records = [(key(i), bytes([i % 256]) * 40) for i in range(300)]
    reader, meta = build_table(device, allocator, records)
    per_block = int.from_bytes(reader._index[1], "big")
    # Damage the block's fourth record; the cursor is asked for two.
    _corrupt(device, meta.start_block, 3 * (7 + 8 + 40), b"\x07")
    before = device.stats.blocks_read
    cursor = reader.iter_from(key(0))
    assert device.stats.blocks_read == before  # nothing read until asked
    assert [next(cursor), next(cursor)] == records[:2]
    assert device.stats.blocks_read == before + 1
    assert next(cursor) == records[2]
    with pytest.raises(LsmError):
        next(cursor)  # reaches the damaged header: an error, not a wrong key
    # A later block is entered without touching the damaged one, and the
    # block after it is read only when the cursor runs off the end.
    tail = reader.iter_from(key(2 * per_block - 1))
    assert next(tail) == records[2 * per_block - 1]
    assert device.stats.blocks_read == before + 2
    assert next(tail) == records[2 * per_block]
    assert device.stats.blocks_read == before + 3
    assert viewed_blocks(reader) == []  # every block was entered once

    # Block 1's second entry decodes it into a view; the cursor bisects to
    # its start key there.  Nothing is read that the walk would not read.
    lba = meta.start_block + 1
    assert list(islice(reader.iter_from(key(per_block + 1)), 2)) == (
        records[per_block + 1 : per_block + 3]
    )
    assert device.stats.blocks_read == before + 4
    view = reader._views[1]
    assert view is not None
    # Unflushed writes read back as a fresh copy each time: equal bytes keep
    # the view.
    assert device.read_block(lba) is not device.read_block(lba)
    assert list(islice(reader.iter_from(key(per_block)), 3)) == (
        records[per_block : per_block + 3]
    )
    assert reader.get(key(per_block + 2)) == (True, records[per_block + 2][1])
    assert reader._views[1] is view
    # Other bytes are decoded afresh: a rewritten value reads back rewritten...
    _corrupt(device, lba, 7 + 8, b"\xee" * 40)
    assert next(reader.iter_from(key(per_block))) == (key(per_block), b"\xee" * 40)
    assert reader.get(key(per_block)) == (True, b"\xee" * 40)
    assert reader._views[1] is not view
    # ...and a damaged header raises, even for a key before the damage.
    _corrupt(device, lba, 2 * (7 + 8 + 40), b"\x07")
    with pytest.raises(LsmError):
        next(reader.iter_from(key(per_block)))
    with pytest.raises(LsmError):
        reader.get(key(per_block))

    # A fully viewed table: every block holds a view with its values, and a
    # cursor still reads block b + 1 only when it runs off block b.
    warm, _ = build_table(device, allocator, records, table_id=2)
    for _ in range(2):
        assert list(warm.iter_all()) == records
    assert viewed_blocks(warm) == list(range(len(warm._index)))
    before = device.stats.blocks_read
    cursor = warm.iter_from(key(per_block - 3))
    assert device.stats.blocks_read == before
    assert list(islice(cursor, 3)) == records[per_block - 3 : per_block]
    assert device.stats.blocks_read == before + 1  # block 0's last record
    assert next(cursor) == records[per_block]
    assert device.stats.blocks_read == before + 2
    assert list(islice(cursor, per_block - 1)) == records[per_block + 1 : 2 * per_block]
    assert device.stats.blocks_read == before + 2
    assert next(cursor) == records[2 * per_block]
    assert device.stats.blocks_read == before + 3
    # A cursor stopped mid-block reads nothing more.
    stopped = warm.iter_from(key(2 * per_block + 5))
    assert list(islice(stopped, 4)) == records[2 * per_block + 5 : 2 * per_block + 9]
    assert device.stats.blocks_read == before + 4
    del stopped
    assert list(islice(warm.iter_all(), 1)) == records[:1]
    assert device.stats.blocks_read == before + 5


def test_block_values_are_sliced_for_range_reads_only(device, allocator):
    """A view that only gets have used holds keys and offsets; the first
    range cursor to enter it slices its values once, keeps them, and hands
    out the same objects every later cursor does.  A rewritten block starts
    over without values."""
    records = [(key(i), bytes([i % 256]) * 40) for i in range(300)]
    reader, meta = build_table(device, allocator, records)
    per_block = int.from_bytes(reader._index[1], "big")
    for _ in range(3):
        assert reader.get(key(3)) == (True, records[3][1])
    view = reader._views[0]
    assert view[3] is None
    assert list(islice(reader.iter_from(key(3)), 2)) == records[3:5]
    values = reader._views[0][3]
    assert values == [v for _, v in records[:per_block]]
    assert reader._views[0][1] is view[1]  # the keys are not decoded again
    first = next(reader.iter_all())
    assert first[1] is values[0]
    assert reader.get(key(4)) == (True, records[4][1])
    _corrupt(device, meta.start_block, 7 + 8, b"\xee" * 40)
    assert reader.get(key(0)) == (True, b"\xee" * 40)
    assert reader._views[0][3] is None
    assert next(reader.iter_all()) == (key(0), b"\xee" * 40)


def test_multi_block_tables(device, allocator):
    rng = DeterministicRng(1)
    records = [(key(i), rng.random_bytes(100)) for i in range(2000)]
    reader, meta = build_table(device, allocator, records)
    assert meta.num_blocks > 50  # spans many data blocks
    for k, v in records[::37]:
        assert reader.get(k) == (True, v)


def test_bloom_suppresses_reads_for_absent_keys(device, allocator):
    records = [(key(i), b"v" * 50) for i in range(0, 2000, 2)]
    reader, _ = build_table(device, allocator, records)
    before = device.stats.read_ios
    hits = 0
    for i in range(1, 2000, 2):  # absent keys inside the table's range
        hits += reader.get(key(i))[0]
    assert hits == 0
    reads = device.stats.read_ios - before
    assert reads < 2000 * 0.05  # only bloom false positives touch the device


def test_footer_corruption_detected(device, allocator):
    _, meta = build_table(device, allocator, [(key(1), b"v")])
    footer_lba = meta.start_block + meta.num_blocks - 1
    device.write_block(footer_lba, b"\x00" * BLOCK_SIZE)
    with pytest.raises(LsmError):
        SSTableReader.open(device, meta.start_block, meta.num_blocks)


def test_table_filtered_under_the_previous_hash_fails_to_open(device, allocator):
    """An ``SST2`` footer (the same layout, its bloom filled under the
    FNV-1a hash) is refused at open, CRC intact, instead of loading a
    filter that would answer false negatives."""
    _, meta = build_table(device, allocator, [(key(1), b"v")])
    footer_lba = meta.start_block + meta.num_blocks - 1
    footer = bytearray(device.read_block(footer_lba))
    footer[:4] = b"SST2"
    footer[-4:] = struct.pack("<I", zlib.crc32(footer[:-4]))
    device.write_block(footer_lba, bytes(footer))
    with pytest.raises(LsmError, match="invalid SSTable footer"):
        SSTableReader.open(device, meta.start_block, meta.num_blocks)


def test_reopen_from_device(device, allocator):
    records = [(key(i), bytes([i % 251]) * 30) for i in range(300)]
    _, meta = build_table(device, allocator, records, table_id=7)
    device.flush()
    reopened = SSTableReader.open(device, meta.start_block, meta.num_blocks)
    assert reopened.meta == meta
    assert dict(reopened.iter_all()) == dict(records)


def test_zero_padding_compresses_away(device, allocator):
    """Half-zero record content + block padding: physical << logical."""
    rng = DeterministicRng(2)
    records = [(key(i), rng.random_bytes(60) + bytes(60)) for i in range(1000)]
    before = device.stats.snapshot()
    build_table(device, allocator, records)
    delta = device.stats.delta(before)
    assert delta.physical_bytes_written < 0.7 * delta.logical_bytes_written


def _corrupt(device, lba, offset, patch):
    raw = bytearray(device.read_block(lba))
    raw[offset : offset + len(patch)] = patch
    device.write_block(lba, bytes(raw))


@pytest.mark.parametrize(
    "field_offset,patch",
    [
        pytest.param(0, b"\x07", id="unknown-flag"),
        pytest.param(1, struct.pack("<H", 5000), id="klen-past-block-end"),
        pytest.param(3, struct.pack("<I", 1 << 20), id="vlen-past-block-end"),
    ],
)
def test_corrupt_record_header_is_an_error_not_a_wrong_key(
    device, allocator, field_offset, patch
):
    """A damaged header in a data block raises from every read path instead
    of being sliced short or decoded as a value: from the header walk of a
    block's first read, and from the decode of its second read or of bytes
    that changed under a view."""
    records = [(key(i), bytes([i % 256]) * 40) for i in range(300)]
    reader, meta = build_table(device, allocator, records)
    in_block = reader._index[1]
    first = int.from_bytes(in_block, "big")
    victim = key(first + 1)
    # Two reads leave data block 1 with a decoded view.
    assert reader.get(in_block) == (True, records[first][1])
    assert reader.get(victim) == (True, records[first + 1][1])
    assert viewed_blocks(reader) == [1]
    second_record = 7 + 8 + 40  # flag u8 | klen u16 | vlen u32 | key | value
    _corrupt(device, meta.start_block + 1, second_record + field_offset, patch)
    with pytest.raises(LsmError):
        reader.get(in_block)  # a key before the damage: the new bytes are decoded
    assert viewed_blocks(reader) == []

    def fresh():
        return SSTableReader.open(device, meta.start_block, meta.num_blocks)

    reads = [
        lambda r: r.get(victim),
        lambda r: list(r.iter_from(in_block)),
        lambda r: list(r.iter_from(victim)),  # stepping over headers validates them too
        lambda r: list(r.iter_all()),
        lambda r: r.wire_records(),
    ]
    for read in reads:
        with pytest.raises(LsmError):
            read(fresh())  # first read: the header walk
        with pytest.raises(LsmError):
            read(reader)  # a re-read: decoded whole (wire_records walks)
    # A first read walks only as far as its key; the second read decodes
    # the whole block, so a key before the damage raises too.
    cold = fresh()
    assert cold.get(in_block) == (True, records[first][1])
    with pytest.raises(LsmError):
        cold.get(in_block)
    # Blocks before the damage still read, with and without a view.
    for _ in range(3):
        assert reader.get(key(0)) == (True, records[0][1])
    assert viewed_blocks(reader) == [0]


@pytest.mark.parametrize(
    "field_offset,patch",
    [
        pytest.param(None, b"", id="intact"),
        pytest.param(0, b"\x07", id="unknown-flag"),
        pytest.param(1, struct.pack("<H", 5000), id="klen-past-block-end"),
        pytest.param(3, struct.pack("<I", 1 << 20), id="vlen-past-block-end"),
    ],
)
def test_wire_records_match_the_per_record_encoding(
    device, allocator, field_offset, patch
):
    """A compaction decodes each input block whole: the keys and wire
    records equal the per-record encoding over blocks that mix records of
    one shape with tombstones, value-log pointers and longer values, and a
    damaged header raises at its offset, as the walk does."""
    records = []
    for i in range(400):
        value = bytes([i % 251]) * 100
        if i % 97 == 5:
            value = None
        elif i % 89 == 3:
            value = ValueRef.make(addr=4096 * i, length=100 + i)
        elif i % 83 == 7:
            value *= 3
        records.append((key(i), value))
    reader, meta = build_table(device, allocator, records)
    expected = ([k for k, _ in records],
                [None if v is None else encode_record(k, v) for k, v in records])
    if field_offset is None:
        assert reader.wire_records() == expected
        return
    # Data block 4 opens with at least ten records of the common shape.
    first = int.from_bytes(reader._index[4], "big")
    assert all(len(encode_record(*records[i])) == 115 for i in range(first, first + 10))
    _corrupt(device, meta.start_block + 4, 9 * 115 + field_offset, patch)
    with pytest.raises(LsmError, match=f"data block 4 .*offset {9 * 115}:"):
        reader.wire_records()


def fixed_records(n):
    """Values, tombstones and value-log pointers in a fixed pattern."""
    records = []
    for i in range(n):
        if i % 17 == 5:
            v = None
        elif i % 17 == 11:
            v = ValueRef.make(addr=4096 * i + 7, length=300 + i)
        else:
            v = bytes([i % 251]) * (20 + i % 90)
        records.append((b"key%06d" % i, v))
    return records


@pytest.mark.parametrize(
    "n_records,embedded,extent_crc",
    [
        pytest.param(60, 1, 0xE25EE6EC, id="meta-embedded-in-footer"),
        pytest.param(4000, 0, 0xF4EE054E, id="separate-meta-blocks"),
    ],
)
def test_table_bytes_are_pinned(device, allocator, n_records, embedded, extent_crc):
    """Data, index, bloom and footer bytes of a fixed table in the ``SST3``
    format.  The pin leaves out the footer's own trailing CRC32: a CRC over
    bytes that end in their own CRC does not depend on the bytes it covers."""
    records = fixed_records(n_records)
    meta, _, _ = write_table(SSTableWriter(device, allocator, 3), records)
    extent = device.read_blocks(meta.start_block, meta.num_blocks)
    _, _, _, _, footer_embedded, _ = _FOOTER.unpack_from(extent, len(extent) - BLOCK_SIZE)
    assert footer_embedded == embedded
    assert zlib.crc32(extent[:-4]) == extent_crc
    reader = SSTableReader.open(device, meta.start_block, meta.num_blocks)
    assert list(reader.iter_all()) == records
    # A compaction moves wire records (tombstones decoded as None and
    # re-encoded when carried): the copy is the same table, byte for byte.
    keys, wire = reader.wire_records()
    assert keys == [k for k, _ in records]
    assert [e is None for e in wire] == [v is None for _, v in records]
    assert all(e == encode_record(k, v) for e, (k, v) in zip(wire, records) if e)
    wire = [e if e is not None else encode_record(k, None) for k, e in zip(keys, wire)]
    copy_meta, _, _ = SSTableWriter(device, allocator, 3).write(keys, wire)
    copy = device.read_blocks(copy_meta.start_block, copy_meta.num_blocks)
    assert copy == extent


def test_writer_keeps_the_order_and_size_checks(device, allocator):
    """Keys out of order, a repeated key or a record longer than a data
    block are refused before anything is allocated or written."""
    blocks = device.stats.blocks_written
    free = allocator.free_blocks
    writer = SSTableWriter(device, allocator, 1)
    for records in (
        [(key(5), b"v"), (key(4), b"v"), (key(6), b"v")],
        [(key(5), b"v"), (key(5), None)],  # duplicates forbidden too
        [(key(8), b"v"), (key(9), b"x" * BLOCK_SIZE)],
    ):
        with pytest.raises(LsmError):
            write_table(writer, records)
        assert (device.stats.blocks_written, allocator.free_blocks) == (blocks, free)
    meta, _, _ = write_table(writer, [(key(5), b"v"), (key(6), None)])
    reader = SSTableReader.open(device, meta.start_block, meta.num_blocks)
    assert list(reader.iter_all()) == [(key(5), b"v"), (key(6), None)]


def _separate_meta_table(device, allocator):
    records = fixed_records(4000)
    _, meta = build_table(device, allocator, records)
    footer = device.read_block(meta.start_block + meta.num_blocks - 1)
    _, _, n_data, n_meta, embedded, _ = _FOOTER.unpack_from(footer)
    assert not embedded and n_meta >= 2
    return meta, meta.start_block + n_data, n_meta


@pytest.mark.parametrize(
    "damage",
    [
        pytest.param(lambda raw: bytes(BLOCK_SIZE), id="zeroed"),
        pytest.param(lambda raw: raw[:40] + bytes(BLOCK_SIZE - 40), id="cut-short"),
        pytest.param(lambda raw: b"\xff" * BLOCK_SIZE, id="all-ones"),
        pytest.param(lambda raw: raw[:2] + b"\xff\xff" + raw[4:], id="huge-count"),
    ],
)
def test_damaged_first_meta_block_is_a_typed_error_at_open(device, allocator, damage):
    """Separate index/bloom blocks are outside the footer CRC (a torn table
    write can leave one stale): a blob that no longer parses surfaces as an
    LsmError naming its block when the table is opened, not as struct.error."""
    meta, first_meta, _ = _separate_meta_table(device, allocator)
    device.write_block(first_meta, damage(device.read_block(first_meta)))
    with pytest.raises(LsmError, match=f"at block {first_meta}"):
        SSTableReader.open(device, meta.start_block, meta.num_blocks)


def test_damaged_bloom_header_is_a_typed_error_at_open(device, allocator):
    """num_bits == 0, an impossible probe count or a bit array longer than
    the blob: rejected at open, not ZeroDivisionError / IndexError at the
    first probe."""
    meta, first_meta, n_meta = _separate_meta_table(device, allocator)
    blob = device.read_blocks(first_meta, n_meta)
    index_len, = struct.unpack_from("<I", blob, 0)
    header_at = 4 + index_len + 4  # past the bloom payload's length prefix
    assert header_at + 10 <= BLOCK_SIZE
    pristine = device.read_block(first_meta)
    for patch in (bytes(8), b"\xff" * 8, blob[header_at : header_at + 8] + bytes(2),
                  blob[header_at : header_at + 8] + b"\x00\x01"):
        raw = bytearray(pristine)
        raw[header_at : header_at + len(patch)] = patch
        device.write_block(first_meta, bytes(raw))
        with pytest.raises(LsmError, match=f"at block {first_meta}"):
            SSTableReader.open(device, meta.start_block, meta.num_blocks)
    device.write_block(first_meta, pristine)
    reader = SSTableReader.open(device, meta.start_block, meta.num_blocks)
    assert reader.get(b"key000003")[0]


# ----------------------------------------------------- decoded block views


def _random_records(rng):
    """Sorted records spanning several data blocks: values, tombstones and
    value-log pointers, keys of 1-40 bytes and values of 0-600."""
    target = rng.randint(2, 6) * BLOCK_SIZE
    model = {}
    size = 0
    while size < target:
        k = rng.randbytes(rng.randint(1, 40))
        kind = rng.random()
        if kind < 0.15:
            v = None
        elif kind < 0.3:
            v = ValueRef.make(addr=rng.randrange(1 << 40), length=rng.randint(1, 1 << 20))
        else:
            v = rng.randbytes(rng.randint(0, 600))
        if k not in model:
            model[k] = v
            size += len(encode_record(k, v))
    return sorted(model.items())


def _typed(pairs):
    return [(k, type(v), v) for k, v in pairs]


@fuzz_settings(max_examples=25, deadline=None)
@given(seed=seed_strategy())
def test_property_block_views_answer_like_the_walk(seed):
    """``get`` and ``iter_from`` equal a dict model on the first, second and
    third read of every block (walk, decode, view), gets and scans
    interleaved, so each meets views with and without sliced values; a
    single pass of an iterator keeps no view and a compaction's
    ``wire_records`` never keeps one."""
    rng = random.Random(seed)
    device = CompressedBlockDevice(num_blocks=256)
    records = _random_records(rng)
    reader, meta = build_table(device, ExtentAllocator(0, 256), records)
    assert len(reader._index) >= 2
    model = dict(records)
    keys = [k for k, _ in records]
    absent = {rng.randbytes(rng.randint(1, 40)) for _ in range(40)}
    absent |= {k + b"\x00" for k in keys[::3]}
    absent -= model.keys()
    probes = keys + sorted(absent) + [b"", b"\xff" * 41]  # last two: outside

    def reopen():
        return SSTableReader.open(device, meta.start_block, meta.num_blocks)

    for _ in range(3):
        ops = [("get", k) for k in probes] + [("scan", k) for k in probes]
        rng.shuffle(ops)
        for op, k in ops:
            if op == "get":
                found, value = reader.get(k)
                assert found == (k in model), k
                assert _typed([(k, value)]) == _typed([(k, model.get(k))]), k
            else:
                limit = rng.choice([1, 2, 7, len(records)])
                got = list(islice(reader.iter_from(k), limit))
                want = [kv for kv in records if kv[0] >= k][:limit]
                assert _typed(got) == _typed(want), k
    assert viewed_blocks(reader) == list(range(len(reader._index)))
    assert all(view[3] is not None for view in reader._views.values())
    encoded = reader.wire_records()
    assert [(k, e) for k, e in zip(*encoded) if e] == [
        (k, encode_record(k, v)) for k, v in records if v is not None
    ]

    fresh = reopen()
    assert _typed(fresh.iter_all()) == _typed(records)
    assert viewed_blocks(fresh) == []
    fresh = reopen()
    start = rng.choice(probes)
    assert _typed(fresh.iter_from(start)) == _typed(kv for kv in records if kv[0] >= start)
    assert viewed_blocks(fresh) == []
    fresh = reopen()
    for _ in range(3):
        assert fresh.wire_records() == encoded
    assert fresh._views == {}
