"""Block-based SSTables and the extent allocator that places them.

Table layout on the device (all 4KB blocks)::

    [ data block 0 .. n-1 | index block(s) | bloom block(s) | footer block ]

Data blocks pack records back-to-back and zero-pad the tail (the pad
compresses away inside the drive).  Record wire format::

    flag u8 (1 = value, 2 = tombstone, 3 = vlog pointer) | klen u16 | vlen u32 | key | value

The index holds the first key of every data block; index and bloom are
loaded into memory when a table is opened, so a point read costs one data
block read after a bloom pass — matching RocksDB's behaviour with its table
cache warm.
"""

from __future__ import annotations

import struct
import zlib
from array import array
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain, islice
from operator import lt
from typing import Iterable, Iterator, Optional

from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.errors import ConfigError, LsmError
from repro.lsm.bloom import BloomFilter, probe_sequence
from repro.lsm.vlog import ValueRef

_FOOTER_MAGIC = b"SST3"
# magic, table_id, n_data_blocks, n_meta_blocks, embedded_flag, n_records
_FOOTER = struct.Struct("<4sQIIBQ")
_REC_HDR = struct.Struct("<BHI")

FLAG_VALUE = 1
FLAG_TOMBSTONE = 2
FLAG_VPTR = 3  # value bytes are a 16-byte ValueRef into the value log
_HEADER_SIZE = _REC_HDR.size
_LAST_HEADER = BLOCK_SIZE - _HEADER_SIZE  # last offset a header fits at
_ZEROS = memoryview(bytes(BLOCK_SIZE))  # block padding, sliced without a copy

#: A decoded data block: ``(the bytes it was decoded from, its keys, the
#: offset of each record plus the end of the last one as array('H'), its
#: values (value, ``None`` or ValueRef) once a range cursor asked for them)``.
_BlockView = tuple[bytes, list[bytes], array, Optional[list]]
_UNSEEN = object()  # SSTableReader._views' default: a block never read


class ExtentAllocator:
    """First-fit allocator of contiguous block runs inside a device region."""

    def __init__(self, start_block: int, num_blocks: int) -> None:
        if num_blocks <= 0:
            raise ConfigError("extent pool must be non-empty")
        self.start_block = start_block
        self.num_blocks = num_blocks
        self._free: list[tuple[int, int]] = [(start_block, num_blocks)]

    def allocate(self, nblocks: int) -> int:
        if nblocks <= 0:
            raise ConfigError("allocation must be positive")
        for i, (start, length) in enumerate(self._free):
            if length >= nblocks:
                if length == nblocks:
                    self._free.pop(i)
                else:
                    self._free[i] = (start + nblocks, length - nblocks)
                return start
        raise LsmError(
            f"extent pool exhausted: cannot place {nblocks} contiguous blocks"
        )

    def free(self, start: int, nblocks: int) -> None:
        """Return an extent, coalescing with free neighbours."""
        self._free.append((start, nblocks))
        self._free.sort()
        merged: list[tuple[int, int]] = []
        for extent in self._free:
            if merged and merged[-1][0] + merged[-1][1] == extent[0]:
                merged[-1] = (merged[-1][0], merged[-1][1] + extent[1])
            else:
                merged.append(extent)
        self._free = merged

    def mark_used(self, start: int, nblocks: int) -> None:
        """Carve a known-used extent out of the free list (manifest replay)."""
        for i, (free_start, length) in enumerate(self._free):
            if free_start <= start and start + nblocks <= free_start + length:
                self._free.pop(i)
                if free_start < start:
                    self._free.append((free_start, start - free_start))
                tail = (free_start + length) - (start + nblocks)
                if tail:
                    self._free.append((start + nblocks, tail))
                self._free.sort()
                return
        raise LsmError(f"extent [{start}, +{nblocks}) is not free")

    @property
    def free_blocks(self) -> int:
        return sum(length for _, length in self._free)


@dataclass
class SSTableMeta:
    """Durable identity of one table (what the manifest records)."""

    table_id: int
    start_block: int
    num_blocks: int
    n_records: int
    min_key: bytes
    max_key: bytes


def encode_record(key: bytes, value: Optional[bytes]) -> bytes:
    """Wire-encode one record; ``value=None`` encodes a tombstone and a
    :class:`~repro.lsm.vlog.ValueRef` a value-log pointer."""
    if value is None:
        flag, body = FLAG_TOMBSTONE, b""
    elif isinstance(value, ValueRef):
        flag, body = FLAG_VPTR, value
    else:
        flag, body = FLAG_VALUE, value
    return _REC_HDR.pack(flag, len(key), len(body)) + key + body


def pack_table(
    ends: list[int], start: int = 0, target: Optional[int] = None
) -> tuple[list[int], Optional[int]]:
    """The greedy packing of one table from record ``start`` on.

    ``ends[i]`` is the byte size of every record before ``i`` (so
    ``ends[0] == 0`` and the list holds one more entry than there are
    records).  A data block takes records while they fit in 4KB; the next
    record opens a new block.  The table closes after the first record at
    which its estimated size (4KB per sealed block plus the open block's
    fill) reaches ``target``.  Returns the index of each data block's first
    record and the index the table closes at, ``None`` when it takes every
    record without reaching ``target`` (or ``target`` is ``None``).  One
    bisect finds each block's end and one its close, so the cost is per
    block, not per record.
    """
    stop = len(ends) - 1
    starts = []
    sealed = 0  # bytes of this table's full blocks, padding included
    first = start
    while first < stop:
        base = ends[first]
        end = bisect_right(ends, base + BLOCK_SIZE, first + 1) - 1
        if end == first:
            raise LsmError("record exceeds the 4KB data block size")
        starts.append(first)
        if target is not None:
            close = bisect_left(ends, target - sealed + base, first + 1, end + 1)
            if close <= end:
                return starts, close
        sealed += BLOCK_SIZE
        first = end
    return starts, None


class SSTableWriter:
    """Writes one table from key-sorted records in wire form, with a single
    multi-block request.

    :meth:`write` is the one write path: a memtable flush hands it every
    record of the memtable, a compaction each output table's share of the
    merged records (:func:`~repro.lsm.compaction.write_tables` cuts them
    with :func:`pack_table`).
    """

    def __init__(
        self,
        device: BlockDevice,
        allocator: ExtentAllocator,
        table_id: int,
        bits_per_key: float = 10.0,
    ) -> None:
        self.device = device
        self.allocator = allocator
        self.table_id = table_id
        self.bits_per_key = bits_per_key

    def write(
        self, keys: list[bytes], records: list[bytes]
    ) -> tuple[SSTableMeta, int, int]:
        """Write ``keys`` (strictly increasing) and their wire-form
        ``records`` as this writer's table; returns ``(meta, logical_bytes,
        physical_bytes)``.

        Data blocks are packed greedily (:func:`pack_table`) and zero-padded.
        Index and bloom form one meta blob; when it fits into the footer
        block's slack it is embedded there, so small tables pay a single
        metadata block — important at the reproduction's scaled-down table
        sizes, where separate index/bloom blocks would fake LSM space
        amplification out of thin air.  The bloom is sized here, from this
        table's own key count.
        """
        if not keys:
            raise LsmError("cannot finish an empty SSTable")
        if not all(map(lt, keys, islice(keys, 1, None))):
            raise LsmError("SSTable keys must be strictly increasing")
        ends = [0, *accumulate(map(len, records))]
        starts, _ = pack_table(ends)
        parts: list = []
        for first, end in zip(starts, starts[1:] + [len(records)]):
            parts += records[first:end]
            parts.append(_ZEROS[: BLOCK_SIZE - ends[end] + ends[first]])
        bloom = BloomFilter(len(keys), self.bits_per_key)
        bloom.add_all(keys)
        min_key, max_key = keys[0], keys[-1]
        n_data = len(starts)
        index = [keys[first] for first in starts]
        meta_blob = _with_len(_encode_index(index)) + _with_len(bloom.to_bytes())
        footer = bytearray(BLOCK_SIZE)
        tail = bytearray()
        for key in (min_key, max_key):
            tail += struct.pack("<H", len(key)) + key
        fixed_end = _FOOTER.size + len(tail)
        embedded = fixed_end + len(meta_blob) <= BLOCK_SIZE - 4
        n_meta = 0
        if not embedded:
            for i in range(0, len(meta_blob), BLOCK_SIZE):
                chunk = meta_blob[i : i + BLOCK_SIZE]
                parts += (chunk, _ZEROS[: BLOCK_SIZE - len(chunk)])
                n_meta += 1
        _FOOTER.pack_into(
            footer, 0, _FOOTER_MAGIC, self.table_id,
            n_data, n_meta, 1 if embedded else 0, len(keys),
        )
        footer[_FOOTER.size : fixed_end] = tail
        if embedded:
            footer[fixed_end : fixed_end + len(meta_blob)] = meta_blob
        struct.pack_into("<I", footer, len(footer) - 4, zlib.crc32(bytes(footer[:-4])))
        parts.append(footer)
        num_blocks = n_data + n_meta + 1
        start = self.allocator.allocate(num_blocks)
        physical = self.device.write_blocks(start, b"".join(parts))
        logical = num_blocks * BLOCK_SIZE
        meta = SSTableMeta(self.table_id, start, num_blocks, len(keys), min_key, max_key)
        return meta, logical, physical


def _encode_index(index: list[bytes]) -> bytes:
    parts = [struct.pack("<I", len(index))]
    for key in index:
        parts.append(struct.pack("<H", len(key)))
        parts.append(key)
    return b"".join(parts)


def _bad_record(meta: SSTableMeta, block_index: int, offset: int) -> LsmError:
    return LsmError(
        f"corrupt record in table {meta.table_id}: data block {block_index} "
        f"(device block {meta.start_block + block_index}), offset {offset}: "
        "unknown flag or lengths past the block end"
    )


def _with_len(payload: bytes) -> bytes:
    return struct.pack("<I", len(payload)) + payload


def _read_len_prefixed(blob: bytes, offset: int) -> tuple[bytes, int]:
    length, = struct.unpack_from("<I", blob, offset)
    start = offset + 4
    if start + length > len(blob):
        raise LsmError(f"{length}-byte payload at offset {start} runs past the blob's end")
    return blob[start : start + length], start + length


class SSTableReader:
    """Serves reads from one on-device table (index + bloom held in memory)."""

    def __init__(self, device: BlockDevice, meta: SSTableMeta,
                 index: list[bytes], bloom: BloomFilter) -> None:
        self.device = device
        self.meta = meta
        self._index = index
        self._bloom = bloom
        self._n_data = len(index)
        #: data block index -> its decoded view, ``None`` after its first
        #: read (see :meth:`_view`).
        self._views: dict[int, Optional[_BlockView]] = {}

    @classmethod
    def open(cls, device: BlockDevice, start_block: int, num_blocks: int) -> "SSTableReader":
        """Load footer/index/bloom from the device (restart path)."""
        footer = device.read_block(start_block + num_blocks - 1)
        stored, = struct.unpack_from("<I", footer, BLOCK_SIZE - 4)
        if footer[:4] != _FOOTER_MAGIC or zlib.crc32(footer[:-4]) != stored:
            raise LsmError(f"invalid SSTable footer at block {start_block + num_blocks - 1}")
        (_, table_id, n_data, n_meta, embedded, n_records) = _FOOTER.unpack_from(footer, 0)
        offset = _FOOTER.size
        keys = []
        for _ in range(2):
            klen, = struct.unpack_from("<H", footer, offset)
            offset += 2
            keys.append(bytes(footer[offset : offset + klen]))
            offset += klen
        meta = SSTableMeta(table_id, start_block, num_blocks, n_records, keys[0], keys[1])
        if embedded:
            blob = bytes(footer)
            blob_offset = offset
        else:
            blob = device.read_blocks(start_block + n_data, n_meta)
            blob_offset = 0
        # Separate meta blocks are not under the footer's CRC (a torn
        # multi-block table write can leave them stale), so the blob is
        # checked as it is parsed; struct.error is a field past its end.
        try:
            index_payload, blob_offset = _read_len_prefixed(blob, blob_offset)
            bloom_payload, _ = _read_len_prefixed(blob, blob_offset)
            index = cls._decode_index(index_payload)
            if len(index) != n_data:
                raise LsmError(f"index lists {len(index)} data blocks, footer {n_data}")
            bloom = BloomFilter.from_bytes(bloom_payload)
        except (LsmError, struct.error) as exc:
            blob_block = start_block + (num_blocks - 1 if embedded else n_data)
            raise LsmError(
                f"corrupt index/bloom blob of table {table_id} "
                f"at block {blob_block}: {exc}"
            ) from exc
        return cls(device, meta, index, bloom)

    @staticmethod
    def _decode_index(payload: bytes) -> list[bytes]:
        if not payload:
            return []
        count, = struct.unpack_from("<I", payload, 0)
        offset = 4
        keys = []
        for _ in range(count):
            klen, = struct.unpack_from("<H", payload, offset)
            offset += 2
            keys.append(payload[offset : offset + klen])
            offset += klen
        if offset > len(payload):
            raise LsmError(f"index of {count} keys runs past its {len(payload)}-byte payload")
        return keys

    # ------------------------------------------------------------- reading

    def get(
        self, key: bytes, probes: Optional[tuple[int, int]] = None
    ) -> tuple[bool, Optional[bytes]]:
        """Return ``(found, value)``; ``(True, None)`` is a tombstone hit.
        A key outside the table's range or rejected by its bloom filter
        costs no I/O.  A caller probing several tables passes
        ``probe_sequence(key)``, so the key is hashed once, not once per
        table.

        Reads one block and slices nothing but the value it returns.  On
        the block's first read it walks the record headers; from the second
        on it bisects the block's keys (:meth:`_view`)."""
        meta = self.meta
        if not meta.min_key <= key <= meta.max_key or not self._bloom.probe(
            probe_sequence(key) if probes is None else probes
        ):
            return False, None
        block_index = self._block_for(key)
        if block_index < 0:
            return False, None
        raw = self.device.read_block(meta.start_block + block_index)
        key_len = len(key)
        view = self._view(block_index, raw)
        if view is not None:
            keys = view[1]
            i = bisect_left(keys, key)
            if i == len(keys) or keys[i] != key:
                return False, None
            offsets = view[2]
            at = offsets[i]
            flag = raw[at]
            if flag == FLAG_TOMBSTONE:
                return True, None
            value = raw[at + _HEADER_SIZE + key_len : offsets[i + 1]]
            return True, value if flag == FLAG_VALUE else ValueRef(value)
        unpack_header = _REC_HDR.unpack_from
        offset = 0
        while offset <= _LAST_HEADER:
            flag, klen, vlen = unpack_header(raw, offset)
            if flag == 0:
                break  # zero padding
            value_at = offset + _HEADER_SIZE + klen
            end = value_at + vlen
            if end > BLOCK_SIZE or flag > FLAG_VPTR:
                raise _bad_record(meta, block_index, offset)
            if klen == key_len and raw.startswith(key, offset + _HEADER_SIZE):
                if flag == FLAG_VALUE:
                    return True, raw[value_at:end]
                if flag == FLAG_TOMBSTONE:
                    return True, None
                return True, ValueRef(raw[value_at:end])
            offset = end
        return False, None

    def _block_for(self, key: bytes) -> int:
        """Index of the data block that could contain ``key`` (-1 if none)."""
        return bisect_right(self._index, key) - 1

    def _view(self, block_index: int, raw: bytes) -> Optional[_BlockView]:
        """The decoded view of data block ``block_index`` just read as
        ``raw``, or ``None`` on the block's first read.

        A block read once — a cold get, one pass of an iterator — keeps no
        view, so it costs nothing extra.  The second read decodes the whole
        block (every header checked, as the walk checks them) and keeps the
        view for as long as the device returns the same bytes; a read of
        other bytes decodes them afresh."""
        views = self._views
        view = views.get(block_index, _UNSEEN)
        if view is _UNSEEN:
            views[block_index] = None
            return None
        if view is not None and (view[0] is raw or view[0] == raw):
            return view
        views[block_index] = None  # a block that fails to decode keeps no view
        view = views[block_index] = self._decode_block(block_index, raw)
        return view

    def _decode_block(
        self, block_index: int, raw: bytes, records: Optional[list] = None
    ) -> _BlockView:
        """Every record header of ``raw`` under the walk's checks, as a view
        whose values are not sliced yet.  Given a ``records`` list, it also
        appends each record's wire form to it (``None`` for a tombstone), in
        the same pass: what :meth:`wire_records` collects."""
        unpack_header = _REC_HDR.unpack_from
        keys = []
        offsets = array("H")
        offset = 0
        while offset <= _LAST_HEADER:
            flag, klen, vlen = unpack_header(raw, offset)
            if flag == 0:
                break  # zero padding
            key_at = offset + _HEADER_SIZE
            value_at = key_at + klen
            end = value_at + vlen
            if end > BLOCK_SIZE or flag > FLAG_VPTR:
                raise _bad_record(self.meta, block_index, offset)
            keys.append(raw[key_at:value_at])
            offsets.append(offset)
            if records is not None:
                records.append(None if flag == FLAG_TOMBSTONE else raw[offset:end])
            offset = end
        offsets.append(offset)
        return raw, keys, offsets, None

    def _values(self, block_index: int, view: _BlockView) -> list[Optional[bytes]]:
        """The viewed block's values, sliced on the first range cursor that
        enters the view and kept in it: a get slices the one value it
        returns, so only a block that range reads come back to holds its
        values twice (in ``raw`` and here)."""
        raw, keys, offsets, values = view
        if values is None:
            values = [value for _, value in self._walk(block_index, raw)]
            self._views[block_index] = (raw, keys, offsets, values)
        return values

    def _walk(
        self, block_index: int, raw: bytes, start_key: bytes = b""
    ) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """The header walk over one block: its records with key >=
        ``start_key``, each decoded when the consumer asks for it.  Records
        below ``start_key`` are stepped over by their headers, and a damaged
        header raises when the walk reaches it."""
        unpack_header = _REC_HDR.unpack_from
        offset = 0
        while offset <= _LAST_HEADER:
            flag, klen, vlen = unpack_header(raw, offset)
            if flag == 0:
                break  # zero padding
            key_at = offset + _HEADER_SIZE
            value_at = key_at + klen
            end = value_at + vlen
            if end > BLOCK_SIZE or flag > FLAG_VPTR:
                raise _bad_record(self.meta, block_index, offset)
            key = raw[key_at:value_at]
            if key >= start_key:
                if flag == FLAG_TOMBSTONE:
                    yield key, None
                elif flag == FLAG_VALUE:
                    yield key, raw[value_at:end]
                else:
                    yield key, ValueRef(raw[value_at:end])
            offset = end

    def _blocks(
        self, first_block: int, start_key: bytes = b""
    ) -> Iterator[Iterable[tuple[bytes, Optional[bytes]]]]:
        """The cursor behind every iterator, one entered block at a time:
        for each data block from ``first_block`` on, its records with key
        >= ``start_key`` (only the first block can hold smaller ones).

        ``chain.from_iterable`` flattens it, so a block is read only when
        the consumer runs off the one before.  A block entered for the first
        time is walked lazily (:meth:`_walk`): a scan takes a handful of
        records from most of the runs it merges, so decoding the entered
        block whole decoded twice what was consumed.  A block entered again
        is its view's keys zipped with its values (:meth:`_values`), which
        the consumer steps through without a Python frame per record — from
        the bisected start key in the first block."""
        read_block = self.device.read_block
        start_block = self.meta.start_block
        for block_index in range(first_block, self._n_data):
            raw = read_block(start_block + block_index)
            view = self._view(block_index, raw)
            if view is None:
                yield self._walk(block_index, raw, start_key)
                continue
            keys = view[1]
            values = self._values(block_index, view)
            if start_key and block_index == first_block:
                i = bisect_left(keys, start_key)
                yield zip(islice(keys, i, None), islice(values, i, None))
            else:
                yield zip(keys, values)

    def iter_from(self, start_key: bytes) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """All records with key >= ``start_key``, in order."""
        return chain.from_iterable(
            self._blocks(max(0, self._block_for(start_key)), start_key)
        )

    def iter_all(self) -> Iterator[tuple[bytes, Optional[bytes]]]:
        """Every record, in order."""
        return chain.from_iterable(self._blocks(0))

    def wire_records(self) -> tuple[list[bytes], list[Optional[bytes]]]:
        """Every record as parallel lists: the keys, and each record's wire
        form (the slice of its block), ``None`` for a tombstone.  What a
        compaction merges and :meth:`SSTableWriter.write` takes back as is.

        One read per data block, each decoded by :meth:`_decode_block`
        (every header under the walk's checks); a compaction reads the
        table once, so it neither keeps nor uses views."""
        keys: list[bytes] = []
        records: list[Optional[bytes]] = []
        read_block = self.device.read_block
        start_block = self.meta.start_block
        for block_index in range(self._n_data):
            raw = read_block(start_block + block_index)
            keys += self._decode_block(block_index, raw, records)[1]
        return keys, records

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SSTableReader(id={self.meta.table_id}, records={self.meta.n_records})"
