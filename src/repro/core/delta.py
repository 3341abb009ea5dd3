"""Localized page modification logging (the paper's technique 2, §3.2).

Every page owns a dedicated 4KB LBA block *between* its two shadow slots::

    [ slot 0 (l_pg) | delta block (4KB) | slot 1 (l_pg) ]

so whichever slot is valid, the page and its modification log are contiguous
and one read request of ``l_pg + 4KB`` fetches both — the paper's
single-read-request property (§3.2).

The page image is logically partitioned into ``k = l_pg / D_s`` segments.  A
k-bit vector ``f`` accumulates which segments have changed since the page was
last written *in full*; flushing the page writes ``[header, f, Δ, 0...]`` —
where Δ concatenates the dirty segments — into the delta block instead of
rewriting the whole page, as long as ``|Δ| = popcount(f)·D_s`` stays at or
under the threshold ``T``.  The zero padding compresses away inside the
drive, so the physical cost of a flush is roughly ``α·|Δ|`` instead of
``α·l_pg``.  Once ``|Δ|`` exceeds ``T``, the full up-to-date page is written
through the deterministic-shadowing path and the process resets.

Because each page's Δ lives at a fixed, per-page location, there is no
garbage collection and no Δ-chasing on reads: a single contiguous read
returns both shadow slots and the delta block, and reconstruction is a few
``memcpy``-equivalent slice assignments.

Crash safety: the delta block records the LSN of the base image it applies
to.  A delta that does not match the arbitrated valid slot's LSN is stale
residue (e.g. the TRIM after a full-page reset never became durable) and is
ignored; the redo log replays whatever the stale delta carried.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import Any, Optional, Sequence, Union

from repro.btree.page import DIRTY_GRAIN, Page
from repro.btree.pager import DeterministicShadowPager
from repro.csd.arena import ScratchArena
from repro.csd.device import BLOCK_SIZE
from repro.csd.faults import RETRY_ATTEMPTS
from repro.errors import ConfigError

DELTA_MAGIC = b"DLT1"
_HDR = struct.Struct("<4sQQQHHI")  # magic, page_id, base_lsn, lsn, seg_size, nsegs, crc
DELTA_HEADER_SIZE = _HDR.size
_CRC_OFFSET = _HDR.size - 4
_ZERO_CRC_FIELD = bytes(4)  # what the checksum field holds while the CRC is computed
_ZERO_BLOCK = bytes(BLOCK_SIZE)  # a trimmed delta block, for copy-free zero tests


def delta_capacity(page_size: int, segment_size: int) -> int:
    """Maximum ``|Δ|`` a delta block can carry for this page geometry."""
    return BLOCK_SIZE - _payload_offset(page_size, segment_size)


def _payload_offset(page_size: int, segment_size: int) -> int:
    """Byte offset of Δ in a delta block: the header, then the f-vector."""
    return DELTA_HEADER_SIZE + (page_size // segment_size + 7) // 8


@dataclass
class DeltaBlock:
    """A decoded page-modification log block."""

    page_id: int
    base_lsn: int
    lsn: int
    segment_size: int
    segments: list[int]
    payload: bytes  # the concatenated dirty segments, in index order

    def encode(self, page_size: int) -> bytes:
        k = page_size // self.segment_size
        bitmap = bytearray((k + 7) // 8)
        for seg in self.segments:
            bitmap[seg // 8] |= 1 << (seg % 8)
        block = bytearray(BLOCK_SIZE)
        _HDR.pack_into(
            block, 0, DELTA_MAGIC, self.page_id, self.base_lsn, self.lsn,
            self.segment_size, len(self.segments), 0,
        )
        offset = DELTA_HEADER_SIZE
        block[offset : offset + len(bitmap)] = bitmap
        offset += len(bitmap)
        if offset + len(self.payload) > BLOCK_SIZE:
            raise ConfigError("delta payload exceeds the 4KB logging block")
        block[offset : offset + len(self.payload)] = self.payload
        crc = zlib.crc32(block)
        struct.pack_into("<I", block, _CRC_OFFSET, crc)
        return bytes(block)

    @classmethod
    def decode(
        cls, block: Union[bytes, bytearray, memoryview], page_size: int
    ) -> Optional["DeltaBlock"]:
        """Decode; returns None for trimmed/garbage/corrupt blocks."""
        if len(block) != BLOCK_SIZE or block[:4] != DELTA_MAGIC:
            return None
        magic, page_id, base_lsn, lsn, seg_size, nsegs, crc = _HDR.unpack_from(block, 0)
        # The CRC of the block with its checksum field zeroed, chained over
        # the spans around the field instead of over a zeroed copy.
        with memoryview(block) as view:
            computed = zlib.crc32(view[:_CRC_OFFSET])
            computed = zlib.crc32(_ZERO_CRC_FIELD, computed)
            computed = zlib.crc32(view[DELTA_HEADER_SIZE:], computed)
        if computed != crc:
            return None
        if seg_size == 0 or page_size % seg_size != 0:
            return None
        k = page_size // seg_size
        offset = DELTA_HEADER_SIZE + (k + 7) // 8
        # Segment i is bit i of the little-endian f-vector: peel set bits
        # lowest first, which yields the indices in payload order.
        fvec = int.from_bytes(block[DELTA_HEADER_SIZE:offset], "little") & ((1 << k) - 1)
        segments: list[int] = []
        while fvec:
            lowest = fvec & -fvec
            segments.append(lowest.bit_length() - 1)
            fvec ^= lowest
        if len(segments) != nsegs:
            return None
        payload = bytes(block[offset : offset + nsegs * seg_size])
        return cls(page_id, base_lsn, lsn, seg_size, segments, payload)

    @staticmethod
    def encode_into(
        out: bytearray,
        page_size: int,
        page_id: int,
        base_lsn: int,
        lsn: int,
        segment_size: int,
        segments: list[int],
        source: "bytearray",
    ) -> None:
        """Encode a delta block straight into the zeroed 4KB slab ``out``.

        Byte-identical to ``DeltaBlock(...).encode(page_size)`` with a
        payload sliced from ``source`` (the live page buffer), but with zero
        intermediate allocations: the dirty segments are copied once, from
        the page buffer into the slab, through ``memoryview`` slices; the
        CRC runs over the slab itself.  ``segments`` must be sorted (payload
        order is index order) and ``out`` must arrive zero-filled — the
        zero tail is the compressible padding technique 2 relies on.
        """
        k = page_size // segment_size
        bitmap_bytes = (k + 7) // 8
        offset = DELTA_HEADER_SIZE + bitmap_bytes
        if offset + len(segments) * segment_size > BLOCK_SIZE:
            raise ConfigError("delta payload exceeds the 4KB logging block")
        _HDR.pack_into(
            out, 0, DELTA_MAGIC, page_id, base_lsn, lsn,
            segment_size, len(segments), 0,
        )
        src = memoryview(source)
        for seg in segments:
            out[DELTA_HEADER_SIZE + seg // 8] |= 1 << (seg % 8)
            out[offset : offset + segment_size] = src[
                seg * segment_size : (seg + 1) * segment_size
            ]
            offset += segment_size
        crc = zlib.crc32(out)
        struct.pack_into("<I", out, _CRC_OFFSET, crc)

    def overlay_onto(self, page: Page) -> None:
        """Reconstruct the up-to-date image inside ``page`` (the base image).

        Copies the logged segments over the page buffer in place, then has
        the page re-verify itself as a freshly read image: a delta that does
        not rebuild a page with a valid magic and checksum raises
        :class:`PageFormatError` / :class:`ChecksumError` and ``page`` must
        be discarded.
        """
        buf, size, payload = page.buf, self.segment_size, self.payload
        offset = 0
        for seg in self.segments:  # stored back to back in payload
            buf[seg * size : (seg + 1) * size] = payload[offset : offset + size]
            offset += size
        page.verify_image()


def _equal_outside(
    base: bytes, buf: bytearray, segments: Sequence[int], size: int
) -> bool:
    """Whether ``buf`` equals ``base`` everywhere outside the (sorted)
    segments: compares the gap runs between them in place, no copy."""
    view = memoryview(buf)
    start = 0
    for seg in segments:
        at = seg * size
        if at > start and not base.startswith(view[start:at], start):
            return False
        start = at + size
    return base.startswith(view[start:], start)


def _own_delta(
    raw: Union[bytes, memoryview], page_id: int, page_size: int
) -> Optional[DeltaBlock]:
    """``raw`` decoded as ``page_id``'s delta block, or ``None``."""
    delta = DeltaBlock.decode(raw, page_size)
    return delta if delta is not None and delta.page_id == page_id else None


class _VerifiedRead:
    """What the page's region holds as of the pager's last load or write of
    it: the base slot image, the delta block up to a point past which it is
    all zeros, and the base LSN the pager recorded.  About ``l_pg + |Δ|``
    bytes per page.

    Three events record one: a full-path load that wrote nothing (the
    bytes it read), a flip (the image written, no delta) and a delta flush
    (the kept base and the block written), each describing the region as
    it left it.

    ``page`` is the page itself once the buffer pool has evicted it
    (:meth:`DeltaShadowPager.keep_evicted`): the full path would rebuild
    exactly that page from a read of these bytes, so the next load whose
    read matches hands that object back.  It lives and dies with the entry,
    so whatever drops the entry drops the page.
    """

    __slots__ = ("base", "delta", "base_lsn", "page")

    def __init__(self, base: bytes, delta: bytes, base_lsn: int) -> None:
        self.base = base
        self.delta = delta
        self.base_lsn = base_lsn
        self.page: Optional[Page] = None

    def matches(self, raw: bytes, page_at: int, delta_at: int) -> bool:
        """Whether ``raw`` holds, byte for byte, the region this describes:
        the base image at ``page_at`` and the delta block at ``delta_at``."""
        zero_tail = memoryview(raw)[delta_at + len(self.delta) : delta_at + BLOCK_SIZE]
        return (
            raw.startswith(self.base, page_at)
            and raw.startswith(self.delta, delta_at)
            and _ZERO_BLOCK.startswith(zero_tail)
        )


class DeltaShadowPager(DeterministicShadowPager):
    """Deterministic shadowing + localized page modification logging.

    This pager *is* the B⁻-tree's I/O module: everything above it (tree,
    buffer pool, engine) is unchanged from the baseline.
    """

    aux_blocks_per_page = 1  # the dedicated 4KB modification-logging block

    def __init__(
        self,
        *args: Any,
        threshold: int = 2048,
        segment_size: int = 128,
        **kwargs: Any,
    ) -> None:
        super().__init__(*args, **kwargs)
        if segment_size <= 0 or segment_size % DIRTY_GRAIN != 0:
            raise ConfigError(
                f"segment size must be a positive multiple of {DIRTY_GRAIN}"
            )
        if self.page_size % segment_size != 0:
            raise ConfigError("page size must be a multiple of the segment size")
        capacity = delta_capacity(self.page_size, segment_size)
        if not 0 < threshold <= BLOCK_SIZE:
            raise ConfigError("threshold T must be in (0, 4KB]")
        #: Effective T: the paper allows T up to 4KB; the block header and
        #: f-vector shave off a few tens of bytes.
        self.threshold = min(threshold, capacity)
        self.segment_size = segment_size
        self._payload_at = _payload_offset(self.page_size, segment_size)
        self._fvec: dict[int, set[int]] = {}
        self._base_lsn: dict[int, int] = {}
        #: Per page, what its region holds as of the pager's last load or
        #: write of it (see :class:`_VerifiedRead`).  A write replaces the
        #: entry or drops it, and with it the page held in it.
        self._verified: dict[int, _VerifiedRead] = {}
        #: Recycled 4KB staging slabs for delta-block framing; each flush
        #: borrows one for the duration of a single device write.
        self._arena = ScratchArena(BLOCK_SIZE)

    # -------------------------------------------------------------- layout

    def _delta_lba(self, page_id: int) -> int:
        return self._page_base(page_id) + self.page_blocks

    # ------------------------------------------------------------- flushing

    def flush(self, page: Page) -> None:
        page_id = page.page_id
        page.finalize()  # stamps checksum/trailer; marks those segments dirty
        segments = set(page.dirty_segments(self.segment_size))
        segments |= self._fvec.get(page_id, set())
        base_lsn = self._base_lsn.get(page_id)
        delta_size = len(segments) * self.segment_size
        if base_lsn is None or delta_size > self.threshold:
            self._flip(page, page.image())
            return
        ordered = sorted(segments)
        kept = self._verified.pop(page_id, None)
        # Frame the delta block in a recycled slab: segments are copied
        # once, page buffer -> slab; the device journal takes the one
        # unavoidable snapshot at the write boundary.
        slab = self._arena.borrow()
        try:
            DeltaBlock.encode_into(
                slab, self.page_size, page_id, base_lsn, page.lsn,
                self.segment_size, ordered, page.buf,
            )
            physical = self._write_block(self._delta_lba(page_id), slab)
            # The region now reads as the kept base and this block.  That
            # rebuilds exactly this page only if the page equals the base
            # outside the logged segments; otherwise keep nothing.
            if (
                kept is not None
                and kept.base_lsn == base_lsn
                and _equal_outside(kept.base, page.buf, ordered, self.segment_size)
            ):
                self._verified[page_id] = _VerifiedRead(
                    kept.base, bytes(slab[: self._payload_at + delta_size]), base_lsn
                )
        finally:
            self._arena.release(slab)
        self.device.flush()
        self.stats.delta_flushes += 1
        self.stats.page_flushes += 1
        self.stats.page_logical_bytes += BLOCK_SIZE
        self.stats.page_physical_bytes += physical
        self._fvec[page_id] = segments
        page.clear_dirty()

    def _after_flip(self, page: Page, image: bytes) -> None:
        """A full image went out: drop its delta block, restart the log."""
        self._verified.pop(page.page_id, None)
        self._trim(self._delta_lba(page.page_id), 1)
        self._verified[page.page_id] = _VerifiedRead(image, b"", page.lsn)
        self.stats.full_flushes += 1
        self._fvec[page.page_id] = set()
        self._base_lsn[page.page_id] = page.lsn

    # -------------------------------------------------------------- loading

    def _read_page(self, page_id: int) -> Page:
        """Load a page plus its modification log in one read request.

        With the valid slot known, the request covers exactly ``l_pg + 4KB``
        (the slot and the adjacent delta block).  On the first load after a
        restart the request covers the whole region — the trimmed slot and
        the delta padding cost nothing physically; the extra volume is PCIe
        transfer only, exactly the trade the paper makes (§3.1).

        What the full path below makes of a read — verify the base, decode
        the delta, overlay, verify the result — is a pure function of the
        read's bytes whenever it writes nothing.  So a full-path load that
        wrote nothing keeps what it read (:class:`_VerifiedRead`), as do the
        pager's own flips and delta flushes, and the pool hands an evicted
        page to that entry.  A load has two outcomes:

        * the entry holds the evicted page and the known-slot read equals
          the kept bytes exactly: the load hands that very page back,
          decoded key and child lists included — no CRC pass, no decode;
        * anything else takes the full path, whose first read is that same
          read (or the one it issues itself), so the device sees the same
          command either way.

        The pager's per-page state (``_fvec``, ``_base_lsn``) already holds
        what the entry was recorded with: only a write or a full-path load
        changes it, and both replace or drop the entry.
        """
        slot = self._valid_slot.get(page_id)
        kept = self._verified.get(page_id)
        first: Optional[bytes] = None
        if kept is not None and kept.page is not None and slot is not None:
            lba, count, page_at, delta_at = self._slot_span(page_id, slot)
            first = self._read_blocks(lba, count)
            if kept.matches(first, page_at, delta_at):
                page = kept.page
                kept.page = None  # back in the pool's hands
                return page
        self._verified.pop(page_id, None)
        faults = self.fault_stats
        writes = faults.read_repairs + faults.delta_scrubs
        base_page, delta_raw = self._load_valid_slot(page_id, first)
        delta, delta_raw = self._read_delta(page_id, delta_raw)
        base = bytes(base_page.buf)
        segments: Sequence[int] = ()
        base_lsn = base_page.lsn
        if (
            delta is not None
            and delta.base_lsn == base_lsn
            and delta.segment_size == self.segment_size
        ):
            delta.overlay_onto(base_page)
            segments = delta.segments
        self._fvec[page_id] = set(segments)
        self._base_lsn[page_id] = base_lsn
        # A load that rewrote part of the region (a read-repair or a delta
        # scrub) read bytes the region no longer holds: keep nothing.
        if faults.read_repairs + faults.delta_scrubs == writes:
            self._verified[page_id] = _VerifiedRead(
                base, bytes(delta_raw).rstrip(b"\0"), base_lsn
            )
        return base_page

    def _read_delta(
        self, page_id: int, raw: memoryview
    ) -> tuple[Optional[DeltaBlock], memoryview]:
        """Decode the delta block read along with ``page_id``'s base image;
        returns the block (``None`` for a trimmed one) and the bytes it was
        decoded from.

        A nonzero block that is not this page's is read again, as
        :meth:`_verified_load` re-reads a base image: a clean re-read
        (transient bus corruption) counts a checksum failure and a heal, and
        the flushed updates it carries are applied.  Transit garbles each
        read afresh, so the re-reads go on while each returns other bytes
        than the read before it, up to
        :data:`~repro.csd.faults.RETRY_ATTEMPTS`.  A block that reads the
        same bytes twice (or fails every re-read) is latent corruption or a
        misdirected write: the load falls back to the full base image (any
        lost updates are the redo log's to replay) and scrubs the block so
        the rot does not linger.  The scrub TRIMs the block, so it must not
        meet a good block that transit garbled twice in a row.
        """
        delta = _own_delta(raw, page_id, self.page_size)
        if delta is not None or _ZERO_BLOCK.startswith(raw):
            return delta, raw
        for _ in range(RETRY_ATTEMPTS):
            previous, raw = raw, memoryview(self._read_block(self._delta_lba(page_id)))
            delta = _own_delta(raw, page_id, self.page_size)
            if delta is not None or _ZERO_BLOCK.startswith(raw):
                self.fault_stats.checksum_failures += 1
                self.fault_stats.reread_heals += 1
                return delta, raw
            if raw == previous:
                break  # the same bytes again: what fails is on the media
        self.fault_stats.delta_fallbacks += 1
        # Not a shadow flip: this trims a *corrupt* delta after the read
        # fell back to the base image — it publishes nothing (the base
        # was already authoritative).
        self._trim(self._delta_lba(page_id), 1)
        self.device.flush()
        self.fault_stats.delta_scrubs += 1
        return None, raw

    # ------------------------------------------------------------ bookkeeping

    def keep_evicted(self, page: Page) -> None:
        """Hold a page the pool evicted in the kept read of its region, for
        the next load whose read matches to hand back.  The entry describes
        the page's last load or write, so it is the page's own; a page
        with no entry (its last load or flush kept none) is let go."""
        kept = self._verified.get(page.page_id)
        if kept is not None:
            kept.page = page

    def release_host_caches(self) -> None:
        self._verified.clear()

    def _release_storage(self, page_id: int) -> None:
        super()._release_storage(page_id)
        self._fvec.pop(page_id, None)
        self._base_lsn.pop(page_id, None)
        self._verified.pop(page_id, None)

    # ------------------------------------------------------------- metrics

    def delta_bytes_live(self) -> int:
        """Σ|Δ_i| over all tracked pages (numerator of the paper's Eq. (4))."""
        return sum(len(segs) * self.segment_size for segs in self._fvec.values())

    def beta(self) -> float:
        """Average storage usage overhead factor β (paper Eq. (4))."""
        n_pages = len(self._base_lsn)
        if n_pages == 0:
            return 0.0
        return self.delta_bytes_live() / (n_pages * self.page_size)
