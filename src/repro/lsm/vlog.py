"""WAL-time key-value separation: the value log (BVLSM / WiscKey style).

Values at least ``value_separation_threshold`` bytes long never enter the
compaction path.  At ``put`` time the engine appends ``key, value`` to an
append-only, CRC-framed region of the device — the *value log* — and
writes a fixed 16-byte :class:`ValueRef` through the normal WAL → memtable
→ SSTable pipeline instead.  Compaction then moves 16-byte pointers, not
payloads, which is the whole write-amplification argument: for a workload
of V-byte values the compaction traffic shrinks by roughly V/16 while the
value bytes are written exactly once (plus GC rewrites).

Layout.  The region is ``segments`` fixed-size slots of ``segment_blocks``
blocks each, between the WAL ring and the SSTable extent pool (the pool
start only moves when separation is enabled, keeping the disabled path
bit-identical to the pre-vlog engine).  One slot is the *head*; appends
fill it record by record (records never span slots) and overwrite only the
affected blocks, so durability rides the engine's existing WAL flush
barrier — a value record is durable exactly when the WAL record carrying
its pointer is.  Full slots are *sealed*; reclaimed slots are *free* and
TRIMmed.

Record framing: ``crc32 u32 | klen u16 | vlen u32 | key | value`` with the
CRC over the lengths and both payloads.  A :class:`ValueRef` packs
``magic, vlen, addr`` little-endian; ``addr`` is the byte offset of the
record header from the region start, so a pointer alone locates, sizes,
and (with the key) authenticates its record.

Garbage collection is a *re-put* protocol (see
``LSMEngine._gc_vlog_segment``): sweep the live view for pointers into the
victim slot, append each value to the head and re-put the new pointer
through the normal WAL+memtable path (newer records shadow the stale
pointers), persist the manifest — the commit point — and only then TRIM
the victim.  Every boundary is crash-idempotent: before the commit point
both copies exist and the newest pointer wins; after it the victim holds
only garbage and reopen re-TRIMs free slots.  Pointer validation during
WAL replay (:meth:`ValueLog.validate_record`) drops records whose value
bytes did not survive the crash — only in-flight appends can dangle.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import List, Optional

from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.errors import LsmError

#: ``b"FERV"`` on disk; spells VREF little-endian.
VREF_MAGIC = 0x56524546
_VREF = struct.Struct("<IIQ")  # magic, value length, region byte offset
VREF_SIZE = _VREF.size

_REC_HDR = struct.Struct("<IHI")  # crc32, klen, vlen

# Slot states (persisted in the manifest extension).
SLOT_FREE = 0
SLOT_HEAD = 1
SLOT_SEALED = 2

_STATE_HDR = struct.Struct("<IIQQ")  # segments, segment_blocks, next_seal_seq, head_offset
_STATE_SLOT = struct.Struct("<BQQ")  # state, seal_seq, data_bytes


class ValueRef(bytes):
    """A fixed-size (16-byte) pointer stored wherever a value would be.

    Subclassing ``bytes`` lets pointers flow through the memtable, WAL, and
    SSTable writer as ordinary values (accounting sees ``len() == 16``);
    the class identity — not the magic — is what readers dispatch on, the
    magic is an on-disk integrity check.
    """

    __slots__ = ()

    @classmethod
    def make(cls, addr: int, length: int) -> "ValueRef":
        return cls(_VREF.pack(VREF_MAGIC, length, addr))

    @classmethod
    def from_wire(cls, raw: bytes) -> "ValueRef":
        if len(raw) != VREF_SIZE:
            raise LsmError(f"value pointer must be {VREF_SIZE} bytes, got {len(raw)}")
        ref = cls(raw)
        magic, _, _ = _VREF.unpack(ref)
        if magic != VREF_MAGIC:
            raise LsmError(f"bad value-pointer magic {magic:#x}")
        return ref

    @property
    def addr(self) -> int:
        return _VREF.unpack(self)[2]

    @property
    def length(self) -> int:
        return _VREF.unpack(self)[1]


def _record_crc(key: bytes, value: bytes) -> int:
    crc = zlib.crc32(struct.pack("<HI", len(key), len(value)))
    return zlib.crc32(key, zlib.crc32(value, crc)) & 0xFFFFFFFF


@dataclass
class ValueLogStats:
    """Device traffic attributable to the value log (folded into the WAL
    lane of :class:`~repro.metrics.traffic.TrafficSnapshot` — separation
    happens at WAL time, so its bytes belong to W_log, not W_pg)."""

    logical_bytes: int = 0
    physical_bytes: int = 0
    appended_records: int = 0
    appended_value_bytes: int = 0
    gc_passes: int = 0
    gc_rewritten_records: int = 0
    gc_rewritten_bytes: int = 0
    segments_trimmed: int = 0


@dataclass
class _Slot:
    state: int = SLOT_FREE
    seal_seq: int = 0  # monotone; orders sealed slots oldest-first
    data_bytes: int = 0  # bytes appended (record frames, not padding)


class ValueLog:
    """The segmented value-log region (see module docstring)."""

    def __init__(
        self,
        device: BlockDevice,
        start_block: int,
        segment_blocks: int,
        segments: int,
    ) -> None:
        if segment_blocks < 1:
            raise LsmError("vlog segments need at least one block")
        if segments < 2:
            raise LsmError("vlog needs at least 2 segments (head + GC victim)")
        self.device = device
        self.start_block = start_block
        self.segment_blocks = segment_blocks
        self.segments = segments
        self.segment_bytes = segment_blocks * BLOCK_SIZE
        self.stats = ValueLogStats()
        self.slots: List[_Slot] = [_Slot() for _ in range(segments)]
        self._next_seal_seq = 1
        self._head: Optional[int] = None
        self._head_offset = 0
        #: In-memory image of the head slot; appends land here first and the
        #: dirty block span is written through in one request.
        self._head_image = bytearray(self.segment_bytes)

    # ------------------------------------------------------------- geometry

    @property
    def total_blocks(self) -> int:
        return self.segment_blocks * self.segments

    def slot_lba(self, slot: int) -> int:
        return self.start_block + slot * self.segment_blocks

    def slot_of(self, ref: ValueRef) -> int:
        return ref.addr // self.segment_bytes

    def record_size(self, key: bytes, length: int) -> int:
        return _REC_HDR.size + len(key) + length

    # -------------------------------------------------------------- appends

    def has_room(self, key_len: int, value_len: int) -> bool:
        """Whether an append fits without eating into the GC reserve.

        An append that fits in the current head is always fine; one that
        must *roll* the head into a free slot needs two free segments — one
        to roll into and one in reserve, so a later GC pass can always
        complete its rewrites (a victim's live bytes never exceed one
        segment).  ``False`` asks the engine to reclaim space first.
        """
        total = _REC_HDR.size + key_len + value_len
        if total > self.segment_bytes:
            return False
        if self._head is not None and self._head_offset + total <= self.segment_bytes:
            return True
        return self.free_segments() >= 2

    def append(self, key: bytes, value: bytes) -> ValueRef:
        """Append one record; durable at the next device flush (WAL flush)."""
        total = self.record_size(key, len(value))
        if total > self.segment_bytes:
            raise LsmError(
                f"value record of {total} bytes exceeds the "
                f"{self.segment_bytes}-byte vlog segment"
            )
        if self._head is None or self._head_offset + total > self.segment_bytes:
            self._roll_head()
        head = self._head
        assert head is not None
        offset = self._head_offset
        frame = _REC_HDR.pack(_record_crc(key, value), len(key), len(value))
        self._head_image[offset : offset + total] = frame + key + value
        first = offset // BLOCK_SIZE
        last = (offset + total - 1) // BLOCK_SIZE
        buf = self._head_image[first * BLOCK_SIZE : (last + 1) * BLOCK_SIZE]
        physical = self.device.write_blocks(self.slot_lba(head) + first, buf)
        self.stats.logical_bytes += len(buf)
        self.stats.physical_bytes += physical
        self.stats.appended_records += 1
        self.stats.appended_value_bytes += len(value)
        self._head_offset = offset + total
        self.slots[head].data_bytes = self._head_offset
        return ValueRef.make(head * self.segment_bytes + offset, len(value))

    def _roll_head(self) -> None:
        """Seal the current head (if any) and open a free slot."""
        if self._head is not None:
            slot = self.slots[self._head]
            slot.state = SLOT_SEALED
            slot.seal_seq = self._next_seal_seq
            self._next_seal_seq += 1
        for idx, slot in enumerate(self.slots):
            if slot.state == SLOT_FREE:
                self._head = idx
                self._head_offset = 0
                slot.state = SLOT_HEAD
                slot.seal_seq = 0
                slot.data_bytes = 0
                self._head_image = bytearray(self.segment_bytes)
                return
        raise LsmError("value log is full (no free segment to open)")

    # ---------------------------------------------------------------- reads

    def read(self, key: bytes, ref: ValueRef) -> bytes:
        value = self._load(key, ref)
        if value is None:
            raise LsmError(
                f"dangling value pointer for key {key!r} at addr {ref.addr}"
            )
        return value

    def validate_record(self, key: bytes, ref: ValueRef) -> bool:
        """Whether ``ref``'s record survived on disk (used by WAL replay)."""
        return self._load(key, ref) is not None

    def _load(self, key: bytes, ref: ValueRef) -> Optional[bytes]:
        total = self.record_size(key, ref.length)
        addr = ref.addr
        slot, offset = divmod(addr, self.segment_bytes)
        if not 0 <= slot < self.segments:
            return None
        if offset + total > self.segment_bytes:
            return None  # records never span slots
        first = offset // BLOCK_SIZE
        last = (offset + total - 1) // BLOCK_SIZE
        raw = self.device.read_blocks(
            self.slot_lba(slot) + first, last - first + 1
        )
        lo = offset - first * BLOCK_SIZE
        frame = raw[lo : lo + total]
        crc, klen, vlen = _REC_HDR.unpack_from(frame)
        if klen != len(key) or vlen != ref.length:
            return None
        rkey = frame[_REC_HDR.size : _REC_HDR.size + klen]
        value = frame[_REC_HDR.size + klen : _REC_HDR.size + klen + vlen]
        if rkey != key or _record_crc(rkey, value) != crc:
            return None
        return bytes(value)

    # ------------------------------------------------------------------- GC

    def free_segments(self) -> int:
        return sum(1 for s in self.slots if s.state == SLOT_FREE)

    def oldest_sealed_slot(self) -> Optional[int]:
        best: Optional[int] = None
        for idx, slot in enumerate(self.slots):
            if slot.state != SLOT_SEALED:
                continue
            if best is None or slot.seal_seq < self.slots[best].seal_seq:
                best = idx
        return best

    def retire(self, slot: int) -> None:
        """Mark ``slot`` free (in memory).  The caller persists the manifest
        — the GC commit point — and TRIMs the slot afterwards; until then a
        crash simply re-runs the pass."""
        if self.slots[slot].state != SLOT_SEALED:
            raise LsmError(f"vlog GC can only retire sealed slots, not {slot}")
        self.slots[slot] = _Slot()

    def trim_slot(self, slot: int) -> None:
        self.device.trim(self.slot_lba(slot), self.segment_blocks)
        self.stats.segments_trimmed += 1

    # ---------------------------------------------------------- persistence

    def encode_state(self) -> bytes:
        head_offset = self._head_offset if self._head is not None else 0
        parts = [
            _STATE_HDR.pack(
                self.segments, self.segment_blocks, self._next_seal_seq, head_offset
            )
        ]
        for slot in self.slots:
            parts.append(_STATE_SLOT.pack(slot.state, slot.seal_seq, slot.data_bytes))
        return b"".join(parts)

    def restore_state(self, blob: bytes) -> None:
        """Adopt persisted slot state and reload the head image from disk."""
        segments, segment_blocks, next_seal, head_offset = _STATE_HDR.unpack_from(blob)
        if segments != self.segments or segment_blocks != self.segment_blocks:
            raise LsmError(
                "persisted vlog geometry "
                f"({segments}x{segment_blocks} blocks) does not match the "
                f"configured one ({self.segments}x{self.segment_blocks})"
            )
        self._next_seal_seq = next_seal
        self._head = None
        self._head_offset = 0
        offset = _STATE_HDR.size
        for idx in range(segments):
            state, seal_seq, data_bytes = _STATE_SLOT.unpack_from(blob, offset)
            offset += _STATE_SLOT.size
            self.slots[idx] = _Slot(state, seal_seq, data_bytes)
            if state == SLOT_HEAD:
                self._head = idx
        if self._head is not None:
            self._head_offset = head_offset
            self._head_image = bytearray(
                self.device.read_blocks(self.slot_lba(self._head), self.segment_blocks)
            )

    def note_replayed(self, key: bytes, ref: ValueRef) -> None:
        """Re-discover appends made after the last manifest persist.

        WAL replay hands every surviving pointer record over in append
        (LSN) order; advancing the head high-water mark past each one — and
        replaying head *rolls* into what the stale manifest still calls a
        free slot — reconstructs the append cursor exactly, so post-crash
        appends overwrite only unacknowledged bytes.
        """
        slot = self.slot_of(ref)
        end = ref.addr % self.segment_bytes + self.record_size(key, ref.length)
        if slot != self._head and self.slots[slot].state == SLOT_FREE:
            # The crashed run rolled its head into this (then-free) slot.
            if self._head is not None:
                old = self.slots[self._head]
                old.state = SLOT_SEALED
                old.seal_seq = self._next_seal_seq
                self._next_seal_seq += 1
            self._head = slot
            self._head_offset = 0
            self.slots[slot].state = SLOT_HEAD
            self.slots[slot].seal_seq = 0
            self._head_image = bytearray(
                self.device.read_blocks(self.slot_lba(slot), self.segment_blocks)
            )
        if slot == self._head and end > self._head_offset:
            self._head_offset = end
            self.slots[slot].data_bytes = self._head_offset

    def scrub_free_slots(self) -> None:
        """Re-TRIM every free slot at reopen.

        Idempotent cleanup for the crash window between the GC commit point
        (manifest persist) and the victim TRIM: the slot is already free in
        the manifest, its contents are garbage, and TRIMming again is a
        no-op for already-trimmed blocks.
        """
        for idx, slot in enumerate(self.slots):
            if slot.state == SLOT_FREE:
                self.trim_slot(idx)

    # ------------------------------------------------------------ reporting

    def occupancy(self) -> dict:
        """Integer occupancy counters."""
        sealed = sum(1 for s in self.slots if s.state == SLOT_SEALED)
        data = sum(s.data_bytes for s in self.slots)
        return {
            "segments": self.segments,
            "segment_bytes": self.segment_bytes,
            "free_segments": self.free_segments(),
            "sealed_segments": sealed,
            "capacity_bytes": self.segments * self.segment_bytes,
            "data_bytes": data,
            "appended_records": self.stats.appended_records,
            "gc_passes": self.stats.gc_passes,
            "gc_rewritten_records": self.stats.gc_rewritten_records,
            "segments_trimmed": self.stats.segments_trimmed,
        }
