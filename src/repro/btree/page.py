"""Slotted B+-tree pages over raw byte buffers.

The in-memory representation of a page *is* its serialized form: a mutable
``bytearray`` manipulated in place, the way C storage engines (InnoDB,
WiredTiger) treat buffer-pool frames.  This matters for the reproduction
because the paper's localized page modification logging (§3.2) tracks which
*byte segments* of the page image changed; an object-graph page would have no
meaningful byte-level dirtiness.

Layout of a page of size ``l_pg``::

    [ header 32B | slot directory (2B/slot, grows up) ... free ...
      cell area (grows down) | trailer 8B ]

Header fields (little-endian):

    0:4    magic  b"BPG1"
    4:12   page id (u64)
    12:20  LSN (u64) — logical sequence number of the newest mutation
    20     page type (PageType)
    21     tree level (0 = leaf)
    22:24  slot count (u16)
    24:26  cell-area start offset (u16)
    26:28  dead (fragmented) bytes from deletes/updates (u16)
    28:32  CRC32 of the page with both checksum fields zeroed

Trailer fields:

    -8:-4  low 32 bits of the LSN (torn-write witness: a page whose first
           block persisted but last block did not will disagree with the
           header LSN or fail the CRC)
    -4:    copy of the header CRC

Dirty tracking: every mutation records the touched byte range at a fixed
64-byte grain in :attr:`Page.dirty_grains`.  The delta-logging layer converts
grains to its configured segment size (any multiple of 64).
"""

from __future__ import annotations

import enum
import struct
import zlib
from typing import Optional, Union

from repro.errors import ChecksumError, ConfigError, PageFormatError

PAGE_MAGIC = b"BPG1"
PAGE_HEADER_SIZE = 32
PAGE_TRAILER_SIZE = 8
SLOT_SIZE = 2

#: Granularity of runtime dirty tracking, in bytes.  Segment sizes used by the
#: delta-logging layer must be multiples of this grain.
DIRTY_GRAIN = 64

_HEADER = struct.Struct("<4sQQBBHHH4x")  # magic, id, lsn, type, level, nslots, cell_start, dead
#: Header offset of the page-type byte (descents test it straight from the buffer).
PAGE_TYPE_OFFSET = 20
_CRC_OFFSET = 28
_LSN_AND_CRC = struct.Struct("<12xQ8xI")  # the two header fields checksum_ok reads
_TRAILER = struct.Struct("<II")  # lsn_low, crc copy
_ZERO_CRC_FIELD = bytes(4)  # what a checksum field holds while the CRC is computed


class PageType(enum.IntEnum):
    """Discriminates page roles on storage."""

    FREE = 0
    LEAF = 1
    INTERNAL = 2
    META = 3


def _check_size(size: int) -> None:
    if size < 1024 or size % DIRTY_GRAIN != 0:
        raise PageFormatError(f"unsupported page size {size}")


class Page:
    """A fixed-size slotted page backed by a mutable byte buffer."""

    __slots__ = ("buf", "size", "dirty_grains", "routing_keys", "child_ids", "searched")

    def __init__(self, size: int, page_id: int = 0, page_type: PageType = PageType.LEAF,
                 level: int = 0) -> None:
        _check_size(size)
        self.size = size
        self.buf = bytearray(size)
        self.dirty_grains: set[int] = set()
        #: Decoded keys in slot order: filled by ``InternalNode.route`` on an
        #: internal page's first search and by ``LeafNode._search`` on a
        #: leaf's second.  Valid only while the slot directory is unchanged:
        #: :meth:`insert_slot`, :meth:`remove_slot` and :meth:`verify_image` —
        #: every way the slot-to-key mapping can move — drop it.
        self.routing_keys: Optional[list[bytes]] = None
        #: Decoded child ids in slot order (internal pages, filled by
        #: ``InternalNode.route``).  Dropped where :attr:`routing_keys` is, and
        #: by ``InternalNode.replace_child_at``, which changes ids, not keys.
        self.child_ids: Optional[list[int]] = None
        #: A leaf search ran since the views were last dropped, so the next
        #: one decodes :attr:`routing_keys`.
        self.searched = False
        self._format(page_id, page_type, level)

    # ----------------------------------------------------------- construction

    def _format(self, page_id: int, page_type: PageType, level: int) -> None:
        self.buf[0:PAGE_HEADER_SIZE] = _HEADER.pack(
            PAGE_MAGIC, page_id, 0, int(page_type), level, 0, self.size - PAGE_TRAILER_SIZE, 0
        )
        self.mark_dirty(0, self.size)

    @classmethod
    def from_bytes(cls, image: Union[bytes, bytearray, memoryview],
                   verify: bool = True) -> "Page":
        """Wrap a copy of an on-storage image; optionally verify its checksum."""
        size = len(image)
        _check_size(size)
        page = cls.__new__(cls)
        page.size = size
        page.buf = bytearray(image)
        page.dirty_grains = set()
        page.verify_image(verify)
        return page

    def verify_image(self, verify: bool = True) -> None:
        """Accept storage bytes that were just placed in :attr:`buf`.

        Run by :meth:`from_bytes` and again after a delta overlay rewrote
        segments of the buffer: checks the magic and (unless ``verify`` is
        false) the checksum, and drops the decoded views, which described
        the bytes that were there before.
        """
        self.drop_views()
        if self.buf[0:4] != PAGE_MAGIC:
            raise PageFormatError("bad page magic")
        if verify:
            self.verify_checksum()

    def drop_views(self) -> None:
        """Forget the decoded key and child lists and the leaf search mark."""
        self.routing_keys = self.child_ids = None
        self.searched = False

    # --------------------------------------------------------------- header

    @property
    def page_id(self) -> int:
        return struct.unpack_from("<Q", self.buf, 4)[0]

    @page_id.setter
    def page_id(self, value: int) -> None:
        struct.pack_into("<Q", self.buf, 4, value)
        self.mark_dirty(4, 12)

    @property
    def lsn(self) -> int:
        return struct.unpack_from("<Q", self.buf, 12)[0]

    @lsn.setter
    def lsn(self, value: int) -> None:
        struct.pack_into("<Q", self.buf, 12, value)
        self.mark_dirty(12, 20)

    @property
    def page_type(self) -> PageType:
        return PageType(self.buf[PAGE_TYPE_OFFSET])

    @property
    def level(self) -> int:
        return self.buf[21]

    @property
    def nslots(self) -> int:
        return struct.unpack_from("<H", self.buf, 22)[0]

    def _set_nslots(self, value: int) -> None:
        struct.pack_into("<H", self.buf, 22, value)
        self.mark_dirty(22, 24)

    @property
    def cell_start(self) -> int:
        return struct.unpack_from("<H", self.buf, 24)[0]

    def _set_cell_start(self, value: int) -> None:
        struct.pack_into("<H", self.buf, 24, value)
        self.mark_dirty(24, 26)

    @property
    def dead_bytes(self) -> int:
        return struct.unpack_from("<H", self.buf, 26)[0]

    def _set_dead_bytes(self, value: int) -> None:
        struct.pack_into("<H", self.buf, 26, value)
        self.mark_dirty(26, 28)

    # ----------------------------------------------------------- free space

    @property
    def slot_dir_end(self) -> int:
        return PAGE_HEADER_SIZE + self.nslots * SLOT_SIZE

    @property
    def free_space(self) -> int:
        """Contiguous free bytes between the slot directory and cell area."""
        return self.cell_start - self.slot_dir_end

    @property
    def reclaimable_space(self) -> int:
        """Free bytes available after compaction (contiguous + dead)."""
        return self.free_space + self.dead_bytes

    # ------------------------------------------------------------- slot ops

    def slot_offset(self, index: int) -> int:
        """Cell offset stored in slot ``index``."""
        if not 0 <= index < self.nslots:
            raise PageFormatError(f"slot {index} out of range (nslots={self.nslots})")
        return struct.unpack_from("<H", self.buf, PAGE_HEADER_SIZE + index * SLOT_SIZE)[0]

    def set_slot_offset(self, index: int, offset: int) -> None:
        struct.pack_into("<H", self.buf, PAGE_HEADER_SIZE + index * SLOT_SIZE, offset)
        start = PAGE_HEADER_SIZE + index * SLOT_SIZE
        self.mark_dirty(start, start + SLOT_SIZE)

    def insert_slot(self, index: int, offset: int) -> None:
        """Open slot ``index`` (shifting later slots right) pointing at ``offset``."""
        n = self.nslots
        if not 0 <= index <= n:
            raise PageFormatError(f"slot insert position {index} out of range")
        start = PAGE_HEADER_SIZE + index * SLOT_SIZE
        end = PAGE_HEADER_SIZE + n * SLOT_SIZE
        self.buf[start + SLOT_SIZE : end + SLOT_SIZE] = self.buf[start:end]
        struct.pack_into("<H", self.buf, start, offset)
        self.drop_views()
        self._set_nslots(n + 1)
        self.mark_dirty(start, end + SLOT_SIZE)

    def remove_slot(self, index: int) -> None:
        """Close slot ``index`` (shifting later slots left)."""
        n = self.nslots
        if not 0 <= index < n:
            raise PageFormatError(f"slot remove position {index} out of range")
        start = PAGE_HEADER_SIZE + index * SLOT_SIZE
        end = PAGE_HEADER_SIZE + n * SLOT_SIZE
        self.buf[start : end - SLOT_SIZE] = self.buf[start + SLOT_SIZE : end]
        self.drop_views()
        self._set_nslots(n - 1)
        self.mark_dirty(start, end)

    # ------------------------------------------------------------- cell ops

    def allocate_cell(self, size: int) -> int:
        """Reserve ``size`` bytes in the cell area; return the cell offset.

        The caller must have checked :attr:`free_space` (cells are reserved
        from contiguous free space only; compaction reclaims dead bytes).
        """
        if size > self.free_space:
            raise PageFormatError(
                f"cell of {size} bytes does not fit ({self.free_space} free)"
            )
        new_start = self.cell_start - size
        self._set_cell_start(new_start)
        return new_start

    def write_cell(self, offset: int, data: bytes) -> None:
        self.buf[offset : offset + len(data)] = data
        self.mark_dirty(offset, offset + len(data))

    def add_dead_bytes(self, count: int) -> None:
        self._set_dead_bytes(self.dead_bytes + count)

    # ---------------------------------------------------------------- dirty

    def mark_dirty(self, start: int, end: int) -> None:
        """Record that bytes ``[start, end)`` of the image were modified."""
        if start >= end:
            return
        self.dirty_grains.update(range(start // DIRTY_GRAIN, (end - 1) // DIRTY_GRAIN + 1))

    def mark_all_dirty(self) -> None:
        self.dirty_grains.update(range(self.size // DIRTY_GRAIN))

    def clear_dirty(self) -> None:
        self.dirty_grains.clear()

    def dirty_segments(self, segment_size: int) -> list[int]:
        """Dirty segment indices at ``segment_size`` granularity (sorted)."""
        if segment_size % DIRTY_GRAIN != 0 or segment_size <= 0:
            raise ConfigError(f"segment size must be a positive multiple of {DIRTY_GRAIN}")
        scale = segment_size // DIRTY_GRAIN
        return sorted({grain // scale for grain in self.dirty_grains})

    # ------------------------------------------------------------- checksum

    def finalize(self, lsn: int | None = None) -> None:
        """Stamp LSN/trailer and recompute the CRC before a storage write."""
        if lsn is not None:
            self.lsn = lsn
        struct.pack_into("<I", self.buf, _CRC_OFFSET, 0)
        struct.pack_into("<II", self.buf, self.size - PAGE_TRAILER_SIZE,
                         self.lsn & 0xFFFFFFFF, 0)
        crc = zlib.crc32(self.buf)
        struct.pack_into("<I", self.buf, _CRC_OFFSET, crc)
        struct.pack_into("<I", self.buf, self.size - 4, crc)
        self.mark_dirty(_CRC_OFFSET, _CRC_OFFSET + 4)
        self.mark_dirty(self.size - PAGE_TRAILER_SIZE, self.size)

    def checksum_ok(self) -> bool:
        """Return True if the stored CRC matches the page contents."""
        buf = self.buf
        lsn, stored_crc = _LSN_AND_CRC.unpack_from(buf, 0)
        trailer_lsn, trailer_crc = _TRAILER.unpack_from(buf, self.size - PAGE_TRAILER_SIZE)
        if stored_crc != trailer_crc or trailer_lsn != lsn & 0xFFFFFFFF:
            return False
        # The CRC of the image with both checksum fields zeroed, chained over
        # the spans around them instead of over a zeroed copy.
        crc32 = zlib.crc32
        with memoryview(buf) as view:
            crc = crc32(view[:_CRC_OFFSET])
            crc = crc32(_ZERO_CRC_FIELD, crc)
            crc = crc32(view[_CRC_OFFSET + 4 : self.size - 4], crc)
        return crc32(_ZERO_CRC_FIELD, crc) == stored_crc

    def verify_checksum(self) -> None:
        if not self.checksum_ok():
            raise ChecksumError(f"page {self.page_id} failed checksum verification")

    def image(self) -> bytes:
        """Immutable copy of the current page image."""
        return bytes(self.buf)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Page(id={self.page_id}, type={self.page_type.name}, lsn={self.lsn}, "
            f"nslots={self.nslots}, free={self.free_space})"
        )
