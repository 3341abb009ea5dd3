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

The log also runs the commit protocol both engines share: it draws LSNs and
txids, seals group-atomic windows with a ``LogOp.COMMIT`` marker, applies
the commit/interval flush policy, keeps the replay cursor and its half-ring
pressure test, TRIMs the ring behind a durable cursor, and replays from a
cursor with group rollback.  With
``wal_mode="none"`` an engine gets a :class:`NullLog`: the same protocol,
no framing, no device command.
"""

from __future__ import annotations

import enum
import struct
import zlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.csd.faults import read_block_retrying, trim_retrying, write_block_retrying
from repro.errors import ConfigError, WalError
from repro.metrics.faults import FaultStats
from repro.sim.clock import SimClock

_BLOCK_MAGIC = 0x42474F4C  # "LOGB"
_BLOCK_HDR = struct.Struct("<II")  # magic, sequence
_REC_HDR = struct.Struct("<HI")  # length, crc
_PAYLOAD_HDR = struct.Struct("<QQBHI")  # lsn, txid, op, klen, vlen

#: Usable payload bytes per log block.
BLOCK_CAPACITY = BLOCK_SIZE - _BLOCK_HDR.size


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


def check_log_config(config, modes: tuple[str, ...] = ("packed", "sparse", "none")) -> None:
    """Check an engine config's five redo-log fields (``wal_mode`` among
    ``modes``, ``log_flush_policy``, ``log_flush_interval``, ``log_blocks``,
    ``group_atomic``)."""
    if config.wal_mode not in modes:
        raise ConfigError(f"unknown wal_mode {config.wal_mode!r}")
    if config.log_flush_policy not in ("commit", "interval"):
        raise ConfigError(f"unknown log_flush_policy {config.log_flush_policy!r}")
    if not config.log_flush_interval > 0:
        raise ConfigError("log_flush_interval must be positive")
    if config.log_blocks < 2:
        raise ConfigError("log region needs at least 2 blocks")
    if config.group_atomic and (
        config.wal_mode == "none" or config.log_flush_policy != "commit"
    ):
        # The marker must become durable with its window.
        raise ConfigError("group_atomic requires a WAL with log_flush_policy='commit'")


class RedoLog:
    """The redo log writer/reader over a ring of device blocks, and the
    commit protocol over it: ``lsn`` is the last LSN drawn, ``txid`` the
    open transaction's, and every record before the replay ``cursor`` is in
    the engine's durable state (pages or tables).
    """

    def __init__(
        self,
        device: BlockDevice,
        start_block: int,
        num_blocks: int,
        sparse: bool = False,
        *,
        flush_policy: str = "interval",
        flush_interval: float = 60.0,
        group_atomic: bool = False,
        clock: Optional[SimClock] = None,
    ) -> None:
        if num_blocks < 2:
            raise ConfigError("log region needs at least 2 blocks")
        if start_block < 0 or start_block + num_blocks > device.num_blocks:
            raise ConfigError("log region exceeds device span")
        self.device = device
        self.start_block = start_block
        self.num_blocks = num_blocks
        self.sparse = sparse
        self.flush_policy = flush_policy
        self.flush_interval = flush_interval
        self.group_atomic = group_atomic
        self.clock = clock or SimClock()
        self.clock.set_alarm("log_flush", flush_interval)
        self.stats = WalStats()
        self.fault_stats = FaultStats()
        self.lsn = 0
        self.txid = 0
        #: Records framed since the last COMMIT marker.
        self._unsealed = False
        self._sequence = 1  # sequence of the current (open) block
        self._ring_index = 0  # ring position of the current block
        self._block = bytearray(BLOCK_SIZE)
        _BLOCK_HDR.pack_into(self._block, 0, _BLOCK_MAGIC, self._sequence)
        self._used = _BLOCK_HDR.size
        self._pending_full: list[tuple[int, bytes]] = []  # sealed, unwritten blocks
        self._block_written_once = False
        self._flushed_used = self._used
        self.cursor = self.position()
        #: Where the next :meth:`release` starts: the cursor of the last one
        #: (or of the last replay).
        self._released = self.cursor

    @classmethod
    def for_config(
        cls, config, device: BlockDevice, start_block: int, clock: SimClock
    ) -> "RedoLog":
        """The log an engine config asks for (see :func:`check_log_config`)."""
        log_class = NullLog if config.wal_mode == "none" else cls
        return log_class(
            device, start_block, config.log_blocks,
            sparse=config.wal_mode == "sparse",
            flush_policy=config.log_flush_policy,
            flush_interval=config.log_flush_interval,
            group_atomic=config.group_atomic,
            clock=clock,
        )

    # ------------------------------------------------------ commit protocol

    def next_lsn(self) -> int:
        """Draw the next LSN (the B-tree's ``lsn_source``)."""
        self.lsn += 1
        return self.lsn

    def append_next(self, op: LogOp, key: bytes, value: bytes) -> None:
        """Draw the next LSN and frame one record at it."""
        self.lsn += 1
        self.append_kv(self.lsn, self.txid, op, key, value)
        self._unsealed = True

    def append_ahead(self, op: LogOp, items) -> None:
        """Frame one ``op`` record per ``(key, value)`` at the LSNs the
        caller's applier draws next, without drawing them (the B-tree frames
        a run, then its tree stamps pages with the same LSNs)."""
        append_kv = self.append_kv
        txid = self.txid
        lsn = self.lsn
        for key, value in items:
            lsn += 1
            append_kv(lsn, txid, op, key, value)
        self._unsealed = True

    def check_fits(self, key_len: int, value_len: int) -> None:
        """Raise :class:`WalError` if a record this size cannot be logged
        (records never span blocks).  Engines check a whole batch before
        framing it, so :meth:`append_kv` never rejects an item mid-batch."""
        encoded_len = _REC_HDR.size + _PAYLOAD_HDR.size + key_len + value_len
        if encoded_len > BLOCK_CAPACITY:
            raise WalError(f"log record of {encoded_len} bytes exceeds block capacity")

    @property
    def window_open(self) -> bool:
        """True inside a group-atomic window that has framed records: no
        state past the window's start may become durable until it seals."""
        return self.group_atomic and self._unsealed

    def _seal_group(self) -> None:
        """Append the COMMIT marker that makes the open window replayable."""
        # Every caller flushes right after: group_atomic implies "commit".
        self.append_kv(self.next_lsn(), self.txid, LogOp.COMMIT, b"", b"")  # repro: noqa[CRS008] durability deferred to the flush policy
        self._unsealed = False

    def seal(self) -> None:
        """Make every framed record durable, sealing an open window first."""
        if self.window_open:
            self._seal_group()
        self.flush()

    def commit(self) -> None:
        """Start a new txid; the ``commit`` policy seals and flushes."""
        self.txid += 1
        if self.flush_policy == "commit":
            self.seal()

    def tick(self) -> None:
        """The ``interval`` policy's periodic flush (the ``log_flush`` alarm)."""
        if self.flush_policy == "interval" and self.clock.alarm_due("log_flush"):
            self.flush()
            self.clock.set_alarm("log_flush", self.flush_interval)

    def advance_cursor(self) -> None:
        """Move the replay cursor to the head: everything logged so far is
        in the engine's durable state."""
        self.cursor = self.position()

    def release(self) -> None:
        """TRIM the dead ring blocks behind the replay cursor.

        Run only once the root naming ``cursor`` (meta page, manifest) is
        durable: replay never reads before the cursor's block again, so the
        blocks written since the last release up to it need not stay live
        on flash.  Never touches ``[cursor, head]``; a dead run that wraps
        the ring end takes two TRIMs.  A lost TRIM only leaves a stale
        block that scan stops at, as it stops at any block of a past lap.
        """
        cursor = self.cursor
        live = self._sequence - cursor.sequence + 1
        dead = min(cursor.sequence - self._released.sequence, self.num_blocks - live)
        self._released = cursor
        if dead <= 0:
            return
        first = (cursor.block_index - dead) % self.num_blocks
        run = min(dead, self.num_blocks - first)
        trim_retrying(self.device, self.start_block + first, run, self.fault_stats)
        if run < dead:
            trim_retrying(self.device, self.start_block, dead - run, self.fault_stats)

    def blocks_before_relief(self) -> int:
        """Blocks the writer may still seal before the ring is half consumed
        since the cursor (negative once it is)."""
        return self.num_blocks // 2 - self.blocks_since(self.cursor)

    def relief_due(self) -> bool:
        """True once over half the ring lies past the cursor and no window
        is open: the engine must make its logged state durable before the
        ring wraps over records replay still needs.  This is
        ``blocks_before_relief() < 0 and not window_open`` in one
        expression, as engines ask it at every commit and tick."""
        return self._sequence - self.cursor.sequence > self.num_blocks // 2 and not (
            self.group_atomic and self._unsealed
        )

    def replay(self, since: LogPosition, apply: Callable[[LogRecord], None]) -> int:
        """Pass every surviving durable record from ``since`` to ``apply``
        in LSN order (the LSN restored first), resume the txid above them
        and logging after them.

        Under ``group_atomic`` only marker-terminated windows survive; a
        rolled-back tail counts on ``fault_stats.group_rollbacks``.
        Returns the rolled-back record count: the engine must then advance
        the cursor past them, or a later marker would resurrect them.
        """
        self.cursor = self._released = since
        records, end = self.scan(since)
        discarded = 0
        if self.group_atomic:
            records, discarded = split_complete_groups(records)
            if discarded:
                self.fault_stats.group_rollbacks += 1
        for record in records:
            self.lsn = max(self.lsn, record.lsn)
            self.txid = max(self.txid, record.txid + 1)
            if record.op != LogOp.COMMIT:
                apply(record)
        self.reset_to(end)
        return discarded

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


class NullLog(RedoLog):
    """``wal_mode="none"``: the commit protocol without a log.

    LSNs, txids and the flush alarm behave as in :class:`RedoLog`, but no
    record is framed (so any size is accepted), flushes find nothing to
    write, replay reads nothing and, with no block ever sealed, release
    finds nothing behind the cursor to TRIM: no device command is ever
    issued.
    """

    def append_kv(self, lsn: int, txid: int, op: LogOp, key: bytes, value: bytes) -> None:
        pass

    def check_fits(self, key_len: int, value_len: int) -> None:
        pass

    def scan(self, since: LogPosition) -> tuple[list[LogRecord], LogPosition]:
        return [], since


def split_complete_groups(
    records: list[LogRecord],
) -> tuple[list[LogRecord], int]:
    """Split a scanned record stream at the last durable group boundary.

    Group-atomic engines (``config.group_atomic``) terminate every commit
    window with a :attr:`LogOp.COMMIT` marker.  A marker is appended *after*
    the window's records, so a durable marker proves the whole window is
    durable; records past the last marker belong to a window that was never
    acknowledged and must be rolled back, not replayed.

    Every record, marker included, has its own LSN, so the durable stream
    is dense and the split stops at the first LSN gap: a torn flush that
    kept a later block but lost an earlier block's rewrite, where a marker
    would seal a window whose first records are missing.

    Returns ``(replayable, discarded)``: the prefix up to and including the
    last COMMIT marker before any gap, and the count of records after it.
    With no marker anywhere nothing replays.
    """
    last_marker = -1
    for index, record in enumerate(records):
        if index and record.lsn != records[index - 1].lsn + 1:
            break
        if record.op == LogOp.COMMIT:
            last_marker = index
    replayable = records[: last_marker + 1]
    return replayable, len(records) - (last_marker + 1)
