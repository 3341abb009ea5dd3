"""Shadowed manifest: the durable table-of-tables.

The manifest records, for every live SSTable, its level and extent, plus the
WAL replay cursor and the engine's extension (opaque bytes after the entry
array: strategy, separation threshold, value-log slots).  It is written as
a whole snapshot into one of two fixed regions (A/B) in alternation, each
write carrying a monotonically increasing generation number and a CRC; on
open, the valid region with the higher generation wins.  This is
deliberately the same ping-pong idea as the
paper's deterministic page shadowing, applied to a metadata structure.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Optional

from repro.btree.wal import LogPosition
from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.errors import LsmError

_MAGIC = b"MAN2"
# magic, generation, next_table_id, count, log_idx, log_seq, extension length
_HDR = struct.Struct("<4sQQIIII")
_ENTRY = struct.Struct("<BQII")  # level, table_id, start_block, num_blocks


@dataclass
class ManifestEntry:
    level: int
    table_id: int
    start_block: int
    num_blocks: int


@dataclass
class ManifestState:
    generation: int
    next_table_id: int
    log_pos: LogPosition
    entries: list[ManifestEntry]
    #: Opaque engine state (strategy name, threshold, vlog slots).
    extension: bytes


class Manifest:
    """Writer/reader of shadowed manifest snapshots."""

    def __init__(self, device: BlockDevice, start_block: int, region_blocks: int) -> None:
        if region_blocks < 1:
            raise LsmError("manifest region must be at least 1 block per copy")
        self.device = device
        self.start_block = start_block
        self.region_blocks = region_blocks  # per copy; total is 2x
        self._generation = 0
        self.logical_bytes = 0
        self.physical_bytes = 0

    @property
    def capacity_bytes(self) -> int:
        """Room for the entry array plus the extension."""
        return self.region_blocks * BLOCK_SIZE - _HDR.size - 4

    def total_blocks(self) -> int:
        return 2 * self.region_blocks

    # -------------------------------------------------------------- writing

    def persist(
        self,
        entries: list[ManifestEntry],
        next_table_id: int,
        log_pos: LogPosition,
        extension: bytes,
    ) -> None:
        if len(entries) * _ENTRY.size + len(extension) > self.capacity_bytes:
            raise LsmError(
                f"manifest overflow: {len(entries)} tables and a "
                f"{len(extension)}-byte extension exceed {self.capacity_bytes} bytes"
            )
        self._generation += 1
        payload = bytearray(self.region_blocks * BLOCK_SIZE)
        _HDR.pack_into(
            payload, 0, _MAGIC, self._generation, next_table_id, len(entries),
            log_pos.block_index, log_pos.sequence, len(extension),
        )
        offset = _HDR.size
        for entry in entries:
            _ENTRY.pack_into(
                payload, offset, entry.level, entry.table_id,
                entry.start_block, entry.num_blocks,
            )
            offset += _ENTRY.size
        payload[offset : offset + len(extension)] = extension
        struct.pack_into("<I", payload, len(payload) - 4, zlib.crc32(bytes(payload[:-4])))
        copy = self._generation % 2  # alternate A/B
        lba = self.start_block + copy * self.region_blocks
        physical = self.device.write_blocks(lba, bytes(payload))
        self.device.flush()
        self.logical_bytes += len(payload)
        self.physical_bytes += physical

    # -------------------------------------------------------------- reading

    def load(self) -> Optional[ManifestState]:
        """Read the newest valid snapshot; None if the device is fresh."""
        best: Optional[ManifestState] = None
        for copy in (0, 1):
            lba = self.start_block + copy * self.region_blocks
            raw = self.device.read_blocks(lba, self.region_blocks)
            state = self._decode(raw)
            if state is not None and (best is None or state.generation > best.generation):
                best = state
        if best is not None:
            self._generation = best.generation
        return best

    @staticmethod
    def _decode(raw: bytes) -> Optional[ManifestState]:
        if raw[:4] != _MAGIC:
            return None
        stored, = struct.unpack_from("<I", raw, len(raw) - 4)
        if zlib.crc32(raw[:-4]) != stored:
            return None
        _, generation, next_table_id, count, log_idx, log_seq, ext_len = _HDR.unpack_from(raw, 0)
        entries = []
        offset = _HDR.size
        for _ in range(count):
            entries.append(ManifestEntry(*_ENTRY.unpack_from(raw, offset)))
            offset += _ENTRY.size
        return ManifestState(
            generation, next_table_id, LogPosition(log_idx, log_seq),
            entries, raw[offset : offset + ext_len],
        )
