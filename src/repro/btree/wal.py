"""Redo logging: conventional packed layout and the paper's sparse layout.

The log region is a ring of 4KB blocks.  Each block starts with an 8-byte
header ``magic u32 | sequence u32`` (the sequence is a monotone block counter
used by recovery to find the end of the log), followed by back-to-back
records.  A record that does not fit in the remainder of a block starts a new
block; the tail of the old block stays zero.

Record wire format::

    u16 length | u32 crc32(payload) | payload
    payload = lsn u64 | txid u64 | op u8 | klen u16 | vlen u32 | key | value

**Conventional (packed) mode** keeps appending records to the current block
across flushes; consecutive commits therefore rewrite the *same* LBA with an
ever-fuller block (Fig. 7) — each record hits the device multiple times and
the block's compressibility degrades as it fills.

**Sparse mode** (technique 3, §3.3) seals the current block at every flush by
zero-padding it to the 4KB boundary, so the next record opens a fresh block
and every record is written — and compressed — exactly once (Fig. 8).  The
logical write volume per flush is identical (one 4KB block either way); only
the physical, post-compression volume differs.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.csd.faults import read_block_retrying, write_block_retrying
from repro.errors import ConfigError, WalError
from repro.metrics.faults import FaultStats

_BLOCK_MAGIC = 0x42474F4C  # "LOGB"
_BLOCK_HDR = struct.Struct("<II")  # magic, sequence
_REC_HDR = struct.Struct("<HI")  # length, crc
_PAYLOAD_HDR = struct.Struct("<QQBHI")  # lsn, txid, op, klen, vlen

#: Usable payload bytes per log block.
BLOCK_CAPACITY = BLOCK_SIZE - _BLOCK_HDR.size


def check_record_fits(key_len: int, value_len: int) -> None:
    """Raise :class:`WalError` if a key and value of these lengths cannot be
    logged: records never span blocks.

    Engines run this over a whole batch before framing its first record, so
    :meth:`RedoLog.append_kv` — which keeps the same check — cannot reject
    an item after its predecessors were framed.
    """
    encoded_len = _REC_HDR.size + _PAYLOAD_HDR.size + key_len + value_len
    if encoded_len > BLOCK_CAPACITY:
        raise WalError(f"log record of {encoded_len} bytes exceeds block capacity")


class LogOp(enum.IntEnum):
    """Operation types recorded in the redo log."""

    PUT = 1
    DELETE = 2
    COMMIT = 3
    CHECKPOINT = 4
    #: LSM key-value separation: the value field is a 16-byte pointer into
    #: the value log, not the payload (the B-tree engines never emit this).
    PUT_VPTR = 5


@dataclass(frozen=True)
class LogRecord:
    """A decoded redo-log record."""

    lsn: int
    txid: int
    op: LogOp
    key: bytes
    value: bytes

    def encode(self) -> bytes:
        payload = (
            _PAYLOAD_HDR.pack(self.lsn, self.txid, int(self.op), len(self.key), len(self.value))
            + self.key
            + self.value
        )
        return _REC_HDR.pack(len(payload), zlib.crc32(payload)) + payload

    @classmethod
    def decode(cls, buf: bytes, offset: int) -> Optional[tuple["LogRecord", int]]:
        """Decode a record at ``offset``; None if the bytes are padding/corrupt."""
        if offset + _REC_HDR.size > len(buf):
            return None
        length, crc = _REC_HDR.unpack_from(buf, offset)
        if length == 0:
            return None  # zero padding: end of records in this block
        start = offset + _REC_HDR.size
        end = start + length
        if end > len(buf):
            return None
        payload = bytes(buf[start:end])
        if zlib.crc32(payload) != crc:
            return None
        lsn, txid, op, klen, vlen = _PAYLOAD_HDR.unpack_from(payload, 0)
        body = payload[_PAYLOAD_HDR.size :]
        if len(body) != klen + vlen:
            return None
        try:
            op_enum = LogOp(op)
        except ValueError:
            return None
        return cls(lsn, txid, op_enum, body[:klen], body[klen:]), end


@dataclass
class WalStats:
    """Log write-traffic counters (the paper's ``W_log`` category)."""

    records_appended: int = 0
    record_bytes: int = 0
    flushes: int = 0
    logical_bytes: int = 0
    physical_bytes: int = 0
    blocks_sealed: int = 0


@dataclass
class LogPosition:
    """A durable replay cursor (persisted in the meta page at checkpoints)."""

    block_index: int  # ring index
    sequence: int  # monotone block sequence number


class RedoLog:
    """The redo log writer/reader over a ring of device blocks."""

    def __init__(
        self,
        device: BlockDevice,
        start_block: int,
        num_blocks: int,
        sparse: bool = False,
    ) -> None:
        if num_blocks < 2:
            raise ConfigError("log region needs at least 2 blocks")
        if start_block < 0 or start_block + num_blocks > device.num_blocks:
            raise ConfigError("log region exceeds device span")
        self.device = device
        self.start_block = start_block
        self.num_blocks = num_blocks
        self.sparse = sparse
        self.stats = WalStats()
        self.fault_stats = FaultStats()
        self._sequence = 1  # sequence of the current (open) block
        self._ring_index = 0  # ring position of the current block
        self._block = bytearray(BLOCK_SIZE)
        _BLOCK_HDR.pack_into(self._block, 0, _BLOCK_MAGIC, self._sequence)
        self._used = _BLOCK_HDR.size
        self._pending_full: list[tuple[int, bytes]] = []  # sealed, unwritten blocks
        self._block_written_once = False
        self._flushed_used = self._used

    # ------------------------------------------------------------ appending

    def append(self, record: LogRecord) -> None:
        """Buffer a record in memory (durable only after :meth:`flush`)."""
        self.append_kv(record.lsn, record.txid, record.op, record.key, record.value)

    def append_kv(
        self, lsn: int, txid: int, op: LogOp, key: bytes, value: bytes
    ) -> None:
        """Append a record by packing it straight into the open block.

        Produces bytes identical to ``append(LogRecord(...))`` but without
        materialising the payload, the record, or the encoded form as
        intermediate ``bytes`` objects — the record is framed in place in
        ``self._block`` and the CRC is computed over a ``memoryview`` of the
        payload region.  This is the engine hot path: every put/delete of
        every engine funnels one record through here.
        """
        klen = len(key)
        vlen = len(value)
        payload_len = _PAYLOAD_HDR.size + klen + vlen
        encoded_len = _REC_HDR.size + payload_len
        if encoded_len > BLOCK_CAPACITY:
            raise WalError(
                f"log record of {encoded_len} bytes exceeds block capacity"
            )
        if self._used + encoded_len > BLOCK_SIZE:
            self._seal_block(already_durable=False)
        block = self._block
        start = self._used
        payload_start = start + _REC_HDR.size
        _PAYLOAD_HDR.pack_into(block, payload_start, lsn, txid, int(op), klen, vlen)
        key_off = payload_start + _PAYLOAD_HDR.size
        block[key_off : key_off + klen] = key
        block[key_off + klen : key_off + klen + vlen] = value
        crc = zlib.crc32(memoryview(block)[payload_start : payload_start + payload_len])
        _REC_HDR.pack_into(block, start, payload_len, crc)
        self._used = start + encoded_len
        self.stats.records_appended += 1
        self.stats.record_bytes += encoded_len

    def _seal_block(self, already_durable: bool) -> None:
        """Close the current block (tail stays zero) and open the next one.

        ``already_durable`` is True on the sparse-mode post-flush seal: the
        block was just written, so it must not be queued for another write.
        """
        if not already_durable:
            self._pending_full.append((self._ring_index, bytes(self._block)))
        self.stats.blocks_sealed += 1
        self._ring_index = (self._ring_index + 1) % self.num_blocks
        self._sequence += 1
        self._block = bytearray(BLOCK_SIZE)
        _BLOCK_HDR.pack_into(self._block, 0, _BLOCK_MAGIC, self._sequence)
        self._used = _BLOCK_HDR.size
        self._block_written_once = False

    # -------------------------------------------------------------- flushing

    def flush(self) -> None:
        """Persist all buffered records (one fsync).

        In sparse mode the current block is sealed afterwards so the next
        record opens a fresh block — the zero padding this leaves behind is
        what the in-storage compressor removes.
        """
        wrote = False
        for ring_index, image in self._pending_full:
            self._write_ring_block(ring_index, image)
            wrote = True
        self._pending_full.clear()
        if self._used > _BLOCK_HDR.size:
            if self.sparse or not self._block_written_once or self._dirty_tail():
                self._write_ring_block(self._ring_index, bytes(self._block))
                self._block_written_once = True
                wrote = True
        if wrote:
            self.device.flush()
            self.stats.flushes += 1
        if self.sparse and self._used > _BLOCK_HDR.size:
            # The paper's technique 3: the sealed block's zero tail is
            # the padding the in-storage compressor removes.
            self._seal_block(already_durable=True)
        self._flushed_used = self._used

    def _dirty_tail(self) -> bool:
        """True if records were appended to the current block since last flush."""
        return self._used != self._flushed_used

    def _write_ring_block(self, ring_index: int, image: bytes) -> None:
        physical = write_block_retrying(
            self.device, self.start_block + ring_index, image, self.fault_stats
        )
        self.stats.logical_bytes += BLOCK_SIZE
        self.stats.physical_bytes += physical

    def _read_ring_block(self, ring_index: int) -> bytes:
        return read_block_retrying(
            self.device, self.start_block + ring_index, self.fault_stats
        )

    # ------------------------------------------------------------- position

    def position(self) -> LogPosition:
        """Replay cursor for the *current* head (used at checkpoint time)."""
        return LogPosition(self._ring_index, self._sequence)

    # -------------------------------------------------------------- replay

    @staticmethod
    def _corrupt_tail(block: bytes, offset: int) -> bool:
        """Nonzero bytes where decode stopped = corruption, not padding.

        Fault-free, a block's bytes past its last record are always zero
        (blocks are zero-initialised and rewritten whole), so a decode
        failure over nonzero bytes can only be a corrupt record.
        """
        tail = block[offset:]
        return tail.count(0) != len(tail)

    def scan(self, since: LogPosition) -> tuple[list[LogRecord], LogPosition]:
        """Collect durable records from ``since`` and return the end position.

        The returned position addresses the block *after* the last valid one,
        with a sequence higher than anything on the ring — handing it to
        :meth:`reset_to` resumes logging without ambiguity.

        Corruption handling: a corrupt record amid nonzero bytes (or a
        nonzero block with a bad header) truncates the scan at that block.
        The records already collected are returned; the end position names
        the corrupt block with a sequence above everything on the ring, so
        the resumed writer's first flush overwrites — and thereby heals —
        the corrupt block.
        """
        records: list[LogRecord] = []
        ring_index = since.block_index
        expected_seq = since.sequence
        end = LogPosition(since.block_index, since.sequence)
        for _ in range(self.num_blocks):
            block = self._read_ring_block(ring_index)
            magic, sequence = _BLOCK_HDR.unpack_from(block, 0)
            if magic != _BLOCK_MAGIC:
                if block.count(0) != len(block):
                    return records, self._truncated_end(ring_index)
                break
            if sequence < expected_seq:
                break
            offset = _BLOCK_HDR.size
            while True:
                decoded = LogRecord.decode(block, offset)
                if decoded is None:
                    if self._corrupt_tail(block, offset):
                        return records, self._truncated_end(ring_index)
                    break
                record, offset = decoded
                records.append(record)
            end = LogPosition((ring_index + 1) % self.num_blocks, sequence + 1)
            ring_index = (ring_index + 1) % self.num_blocks
            expected_seq = sequence + 1
        return records, end

    def _truncated_end(self, corrupt_ring_index: int) -> LogPosition:
        """End position for a scan stopped by corruption.

        The writer must restart with a sequence strictly above every block
        still on the ring, or stale higher-sequence residue past the corrupt
        block would be replayed as if it followed the new records.  Probing
        all ring headers for the maximum sequence guarantees that.
        """
        self.fault_stats.wal_truncations += 1
        max_seq = 0
        for index in range(self.num_blocks):
            header = self._read_ring_block(index)[: _BLOCK_HDR.size]
            magic, sequence = _BLOCK_HDR.unpack_from(header, 0)
            if magic == _BLOCK_MAGIC:
                max_seq = max(max_seq, sequence)
        return LogPosition(corrupt_ring_index, max_seq + 1)

    def blocks_since(self, position: LogPosition) -> int:
        """Ring blocks consumed since ``position`` (checkpoint pacing input)."""
        return max(0, self._sequence - position.sequence)

    def reset_to(self, position: LogPosition) -> None:
        """Reposition the writer after recovery (start a fresh block there)."""
        self._ring_index = position.block_index
        self._sequence = position.sequence
        self._pending_full.clear()
        self._block = bytearray(BLOCK_SIZE)
        _BLOCK_HDR.pack_into(self._block, 0, _BLOCK_MAGIC, self._sequence)
        self._used = _BLOCK_HDR.size
        self._block_written_once = False
        self._flushed_used = self._used


def split_complete_groups(
    records: list[LogRecord],
) -> tuple[list[LogRecord], int]:
    """Split a scanned record stream at the last durable group boundary.

    Group-atomic engines (``config.group_atomic``) terminate every commit
    window with a :attr:`LogOp.COMMIT` marker.  A marker is appended *after*
    the window's records, so a durable marker proves the whole window is
    durable; records past the last marker belong to a window that was never
    acknowledged and must be rolled back, not replayed.

    Both engines draw one LSN per record, markers included, so the durable
    stream is dense; the scan stops at the first LSN gap.  A gap means a
    torn flush kept a later block but lost an earlier block's rewrite (the
    packed ring re-writes its open block), so a marker past the gap would
    seal a window whose first records are missing.

    Returns ``(replayable, discarded)``: the prefix up to and including the
    last COMMIT marker before any gap (recovery replays it; markers
    themselves are ignored by the replay loops), and the count of records
    after it that the caller must discard.  With no marker anywhere the
    whole scan is the in-flight window and nothing replays.
    """
    last_marker = -1
    for index, record in enumerate(records):
        if index and record.lsn != records[index - 1].lsn + 1:
            break
        if record.op == LogOp.COMMIT:
            last_marker = index
    replayable = records[: last_marker + 1]
    return replayable, len(records) - (last_marker + 1)
