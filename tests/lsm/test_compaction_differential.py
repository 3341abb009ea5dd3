"""Differential test: the table-at-a-time compaction against the
record-at-a-time path it replaced.

Memtable flushes and compactions decode each input table into lists, merge
them in rounds and pack the merged lists into output tables
(:mod:`repro.lsm.compaction`).  The oracle below is the path that came
before, kept here: a heap merge over a per-record walk of every input
table, and a writer that appends one record at a time, seals a data block
when the next record does not fit and closes an output table once its
estimated size reaches the target.  Both must leave the same device: the
same stable bytes, device and FTL counters and version set, over random
put / overwrite / delete streams (value-log pointers included) under every
compaction strategy, and on the packing edge cases one by one.  Set
``REPRO_FUZZ_SEED=<n>`` to run the engine differential on one more seed.
"""

import random
import struct
import zlib
from unittest import mock

import pytest

from repro.btree.wal import BLOCK_CAPACITY
from repro.btree.wal import _PAYLOAD_HDR as _WAL_PAYLOAD_HDR
from repro.btree.wal import _REC_HDR as _WAL_REC_HDR
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.lsm import engine as engine_module
from repro.lsm.bloom import BloomFilter, probe_sequence
from repro.lsm.compaction import merge_newest_first, merge_runs, sorted_runs, write_tables
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.sstable import (
    _FOOTER,
    _FOOTER_MAGIC,
    _REC_HDR,
    FLAG_TOMBSTONE,
    ExtentAllocator,
    SSTableMeta,
    SSTableReader,
    SSTableWriter,
    encode_record,
)
from repro.lsm.strategy import STRATEGIES
from tests.fuzz import FUZZ_SEED, report_seed
from tests.lsm import write_table

#: The largest key + value a put accepts: its WAL record fills a log block.
LARGEST_PUT = BLOCK_CAPACITY - _WAL_REC_HDR.size - _WAL_PAYLOAD_HDR.size


# ------------------------------------------------------------------ oracle


def _wire_stream(reader):
    """Every record of ``reader`` as ``(key, wire form)``, ``None`` for a
    tombstone, one block read as the merge reaches it."""
    meta = reader.meta
    for block_index in range(len(reader._index)):
        raw = reader.device.read_block(meta.start_block + block_index)
        offset = 0
        while offset <= BLOCK_SIZE - _REC_HDR.size:
            flag, klen, vlen = _REC_HDR.unpack_from(raw, offset)
            if flag == 0:
                break
            key_at = offset + _REC_HDR.size
            end = key_at + klen + vlen
            yield raw[key_at : key_at + klen], None if flag == FLAG_TOMBSTONE else raw[offset:end]
            offset = end


class OracleWriter:
    """One table, a record at a time: the writer the list path replaced."""

    def __init__(self, device, allocator, table_id, bits_per_key=10.0):
        self.device, self.allocator = device, allocator
        self.table_id, self.bits_per_key = table_id, bits_per_key
        self.blocks, self.records, self.fill = [], [], 0
        self.index, self.keys = [], []
        self.estimated_bytes = 0

    def add_encoded(self, key, encoded):
        assert not self.keys or key > self.keys[-1]
        if encoded is None:
            encoded = encode_record(key, None)
        assert len(encoded) <= BLOCK_SIZE
        if self.fill + len(encoded) > BLOCK_SIZE:
            self._seal()
        if not self.fill:
            self.index.append(key)
        self.records.append(encoded)
        self.fill += len(encoded)
        self.estimated_bytes += len(encoded)
        self.keys.append(key)

    def _seal(self):
        pad = BLOCK_SIZE - self.fill
        self.blocks.append(b"".join(self.records) + bytes(pad))
        self.records, self.fill = [], 0
        self.estimated_bytes += pad

    def write(self, keys, records):  # the memtable flush's entry point
        for key, record in zip(keys, records):
            self.add_encoded(key, record)
        return self.finish()

    def finish(self):
        if self.fill:
            self._seal()
        bloom = BloomFilter(len(self.keys), self.bits_per_key)
        for key in self.keys:  # probe_sequence, not add_all
            h, delta = probe_sequence(key)
            for i in range(bloom.num_probes):
                bloom._bitmap[(h + i * delta) % bloom.num_bits] = 1
        index = struct.pack("<I", len(self.index)) + b"".join(
            struct.pack("<H", len(key)) + key for key in self.index
        )
        bloom_bytes = bloom.to_bytes()
        blob = (struct.pack("<I", len(index)) + index
                + struct.pack("<I", len(bloom_bytes)) + bloom_bytes)
        tail = b"".join(struct.pack("<H", len(k)) + k for k in (self.keys[0], self.keys[-1]))
        fixed_end = _FOOTER.size + len(tail)
        embedded = fixed_end + len(blob) <= BLOCK_SIZE - 4
        meta_blocks = [] if embedded else [
            blob[i : i + BLOCK_SIZE].ljust(BLOCK_SIZE, b"\0")
            for i in range(0, len(blob), BLOCK_SIZE)
        ]
        footer = bytearray(BLOCK_SIZE)
        _FOOTER.pack_into(footer, 0, _FOOTER_MAGIC, self.table_id, len(self.blocks),
                          len(meta_blocks), int(embedded), len(self.keys))
        footer[_FOOTER.size : fixed_end] = tail
        if embedded:
            footer[fixed_end : fixed_end + len(blob)] = blob
        struct.pack_into("<I", footer, BLOCK_SIZE - 4, zlib.crc32(bytes(footer[:-4])))
        blocks = self.blocks + meta_blocks + [bytes(footer)]
        start = self.allocator.allocate(len(blocks))
        physical = self.device.write_blocks(start, b"".join(blocks))
        meta = SSTableMeta(self.table_id, start, len(blocks), len(self.keys),
                           self.keys[0], self.keys[-1])
        return meta, len(blocks) * BLOCK_SIZE, physical


def oracle_merge(tables, drop_tombstones=False):
    """The record-at-a-time merge of ``tables``, listed newest first."""
    return merge_newest_first([_wire_stream(t) for t in tables], drop_tombstones)


def oracle_write(stream, make_writer, table_target_bytes):
    """Size-capped output tables, a record at a time."""
    metas, logical, physical, writer = [], 0, 0, None
    for key, encoded in stream:
        if writer is None:
            writer = make_writer()
        writer.add_encoded(key, encoded)
        if writer.estimated_bytes >= table_target_bytes:
            meta, lo, ph = writer.finish()
            metas.append(meta)
            logical, physical, writer = logical + lo, physical + ph, None
    if writer is not None:
        meta, lo, ph = writer.finish()
        metas.append(meta)
        logical, physical = logical + lo, physical + ph
    return metas, logical, physical


class RecordAtATime(LSMEngine):
    """The engine with the oracle's merge and writer in its flush and
    compaction seams; every other line of the engine is shared."""

    def _make_writer(self):
        table_id = self._next_table_id
        self._next_table_id += 1
        return OracleWriter(self.device, self.allocator, table_id, self.config.bits_per_key)

    def _execute(self, job):
        with mock.patch.multiple(
            engine_module,
            sorted_runs=lambda tables: tables,
            merge_runs=oracle_merge,
            write_tables=oracle_write,
        ):
            super()._execute(job)


# ----------------------------------------------------- engine differential


def _config(strategy, threshold):
    return LSMConfig(
        memtable_bytes=4 << 10, level_base_bytes=16 << 10, table_target_bytes=8 << 10,
        log_blocks=512, compaction_strategy=strategy,
        value_separation_threshold=threshold, vlog_segment_blocks=16, vlog_segments=8,
    )


def _state(engine):
    device = engine.device
    return (
        device.stats, device.ftl.live_bytes, device.ftl.mapped_lbas,
        [[r.meta for r in level] for level in engine.versions.levels],
        engine.traffic_snapshot(), engine.compactions_run, engine.memtable_flushes,
    )


SEEDS = [1, 2] + ([FUZZ_SEED] if FUZZ_SEED is not None else [])


@pytest.mark.parametrize("threshold", [None, 200], ids=["inline", "vlog"])
@pytest.mark.parametrize("strategy", sorted(STRATEGIES))
@pytest.mark.parametrize("seed", SEEDS)
def test_table_at_a_time_compaction_matches_the_record_at_a_time_path(
    seed, strategy, threshold
):
    """Random puts, overwrites and deletes over a small key space, with
    values from empty to the largest a put accepts (or value-log pointers):
    after every memtable flush the two engines hold the same version set,
    device and FTL counters, and at the end the same stable bytes and
    contents."""
    with report_seed(seed):
        engines = [cls(CompressedBlockDevice(num_blocks=8192), _config(strategy, threshold))
                   for cls in (LSMEngine, RecordAtATime)]
        rng = random.Random(seed)
        flushes = 0
        for step in range(2500):
            key = b"k%05d" % rng.randrange(700)
            roll = rng.random()
            if roll < 0.12:
                for engine in engines:
                    engine.delete(key)
            else:
                if roll < 0.125 and threshold is None:
                    size = LARGEST_PUT - len(key)
                else:
                    size = rng.choice([0, 1, 7, 40, 90, 150, 260, 900])
                value = rng.randbytes(size)
                for engine in engines:
                    engine.put(key, value)
            if engines[0].memtable_flushes != flushes:
                flushes = engines[0].memtable_flushes
                assert _state(engines[0]) == _state(engines[1]), step
        assert engines[0].compactions_run >= 5
        for engine in engines:
            engine.close()
        assert _state(engines[0]) == _state(engines[1])
        assert engines[0].device._stable == engines[1].device._stable
        assert list(engines[0].items()) == list(engines[1].items())


# ------------------------------------------------------ packing edge cases


def _key(i):
    return b"%08d" % i


def _sized(i, record_size):
    """A value giving ``_key(i)``'s record exactly ``record_size`` bytes."""
    return bytes([i % 251]) * (record_size - _REC_HDR.size - len(_key(i)))


def _edge_cases():
    exact = [(_key(i), _sized(i, 1024)) for i in range(40)]  # 4 fill a block
    first = [(_key(i), _sized(i, 1000)) for i in range(40)]  # 4 + a 96-byte pad
    largest = [
        (_key(i), _sized(i, _REC_HDR.size + LARGEST_PUT) if i % 5 == 2 else _sized(i, 300))
        for i in range(40)
    ]
    older = [(_key(i), _sized(i, 120)) for i in range(0, 120, 2)]
    deletes = [(_key(i), None) for i in range(0, 120, 3)]
    return {
        # A block filled to its last byte: the next record opens a new one.
        "exact-fill": ([exact], 3 * BLOCK_SIZE),
        # The close lands on the first record of a block (4KB + 1000 bytes).
        "close-on-block-start": ([first], BLOCK_SIZE + 1000),
        "largest-put-record": ([largest], 4 * BLOCK_SIZE),
        # Tombstones above the bottom level are carried, in wire form.
        "tombstones-carried": ([deletes, older], BLOCK_SIZE),
    }


@pytest.mark.parametrize("case", sorted(_edge_cases()))
def test_pack_edge_cases_match_the_record_at_a_time_writer(case):
    inputs, target = _edge_cases()[case]
    outcomes = []
    for merge, write, writer_cls in (
        (lambda tables: merge_runs(sorted_runs(tables)), write_tables, SSTableWriter),
        (oracle_merge, oracle_write, OracleWriter),
    ):
        device = CompressedBlockDevice(num_blocks=4096)
        allocator = ExtentAllocator(0, 4096)
        tables = []
        for table_id, records in enumerate(inputs):  # newest first
            meta, _, _ = write_table(SSTableWriter(device, allocator, table_id), records)
            tables.append(SSTableReader.open(device, meta.start_block, meta.num_blocks))
        ids = iter(range(100, 200))
        metas, logical, physical = write(
            merge(tables), lambda: writer_cls(device, allocator, next(ids)), target
        )
        device.flush()
        outcomes.append((metas, logical, physical, device.stats, device._stable))
    assert outcomes[0] == outcomes[1]
    metas = outcomes[0][0]
    assert len(metas) >= 2
    if case == "tombstones-carried":
        reader = SSTableReader.open(device, metas[0].start_block, metas[0].num_blocks)
        assert (_key(0), None) in list(reader.iter_all())
