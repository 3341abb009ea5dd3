"""Page storage managers: where pages live on the device and how flushes
become atomic.

Three strategies from the paper's taxonomy (§2.4) are implemented:

* :class:`JournalPager` — in-place updates guarded by a double-write journal
  (MySQL's doublewrite buffer / PostgreSQL full-page writes).  Every flush
  writes the page twice: ``W_e = W_pg``.
* :class:`ShadowTablePager` — conventional copy-on-write: each flush goes to a
  freshly allocated slot and the page-table block mapping the page is
  persisted afterwards (the paper's baseline B-tree persists the table after
  each page flush).  ``W_e`` = one 4KB table write per flush.
* :class:`DeterministicShadowPager` — the paper's technique 1 (§3.1): two
  fixed slots per page used in a ping-pong manner, the stale slot TRIMmed
  after each flush, and a volatile bitmap tracking the valid slot.  No mapping
  state is ever persisted: ``W_e = 0``.  On a compressing device the trimmed
  slot costs no physical space, so doubling the logical footprint is free.

All pagers account their traffic in a :class:`PagerStats` so the harness can
report the paper's ``WA_pg`` / ``WA_e`` decomposition.

Fault hardening: all device I/O goes through the bounded-retry helpers of
:mod:`repro.csd.faults` (transient errors and torn writes are re-issued), and
every pager reads pages through one verified load
(:meth:`Pager._verified_load`): an image that fails its CRC is re-read once
(transient corruption), and only then does the pager's own fallback run —
the shadowing pagers arbitrate against the sibling slot and *read-repair*
the corrupt one (rewrite it from the surviving image); the journal pager
restores the in-place image from its double-write ring copy.  Every
detection and repair is counted in the pager's
:class:`~repro.metrics.faults.FaultStats`.  On a fault-free run none of
these paths activate and the write traffic is bit-identical to the
unhardened pager.
"""

from __future__ import annotations

import struct
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.btree.page import Page
from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.csd.faults import (
    RETRY_ATTEMPTS,
    read_block_retrying,
    read_blocks_retrying,
    trim_retrying,
    write_block_retrying,
    write_blocks_retrying,
)
from repro.errors import (
    ChecksumError,
    ConfigError,
    PageFormatError,
    ReadRepairError,
    RecoveryError,
    TransientIOError,
    TreeError,
)
from repro.metrics.faults import FaultStats


@dataclass
class PagerStats:
    """Write traffic split into the paper's page vs extra categories."""

    page_flushes: int = 0
    page_logical_bytes: int = 0
    page_physical_bytes: int = 0
    extra_logical_bytes: int = 0
    extra_physical_bytes: int = 0
    page_loads: int = 0
    delta_flushes: int = 0  # used by the B⁻-tree delta pager
    full_flushes: int = 0


class Pager(ABC):
    """Common allocator + layout machinery for all page storage managers."""

    def __init__(
        self,
        device: BlockDevice,
        page_size: int,
        max_pages: int,
        region_start: int,
    ) -> None:
        if page_size % BLOCK_SIZE != 0:
            raise ConfigError(f"page size must be a multiple of {BLOCK_SIZE}")
        if max_pages <= 0:
            raise ConfigError("max_pages must be positive")
        self.device = device
        self.page_size = page_size
        self.page_blocks = page_size // BLOCK_SIZE
        self.max_pages = max_pages
        self.region_start = region_start
        self.stats = PagerStats()
        self.fault_stats = FaultStats()
        self._next_page_id = 0
        self._free_ids: list[int] = []
        #: Ids of pages allocated but never yet persisted.  The engine uses
        #: this to order flushes (an internal page must not be written while
        #: pointing at a never-written child).
        self.never_flushed: set[int] = set()
        #: Flush-order constraints: before page ``k`` is written, every page
        #: in ``flush_after[k]`` must be durable.  Registered at split time —
        #: the shrunken left page must not reach storage before the parent
        #: holding the new separator does, or a crash would strand the moved
        #: records (see ``BTreeEngine._flush_with_dependencies``).
        self.flush_after: dict[int, set[int]] = {}
        #: Pages freed since the last checkpoint.  Their storage cannot be
        #: reclaimed (nor their ids reused) until the parents that dropped
        #: them are durable, i.e. until the next checkpoint.
        self._deferred_free: list[int] = []
        if region_start + self.region_blocks() > device.num_blocks:
            raise ConfigError(
                f"device too small: pager needs blocks "
                f"[{region_start}, {region_start + self.region_blocks()}), "
                f"device has {device.num_blocks}"
            )

    # ----------------------------------------------------------- allocator

    def allocate_page_id(self) -> int:
        if self._free_ids:
            page_id = self._free_ids.pop()
            self.never_flushed.add(page_id)
            return page_id
        if self._next_page_id >= self.max_pages:
            raise ConfigError(f"page budget of {self.max_pages} exhausted")
        page_id = self._next_page_id
        self._next_page_id += 1
        self.never_flushed.add(page_id)
        return page_id

    def free_page(self, page_id: int) -> None:
        """Mark a page free; storage release and id reuse wait for checkpoint."""
        self.never_flushed.discard(page_id)
        self.flush_after.pop(page_id, None)
        self._deferred_free.append(page_id)

    def apply_deferred_frees(self) -> list[int]:
        """Release storage of pages freed since the last checkpoint.

        Called by the engine during checkpoint, after all dirty pages (in
        particular the parents that unlinked these pages) are durable.
        Returns the page ids released.
        """
        released = self._deferred_free
        self._deferred_free = []
        for page_id in released:
            self._release_storage(page_id)
            self._free_ids.append(page_id)
        return released

    def require_flush_order(self, target_id: int, first_id: int) -> None:
        """Record that ``first_id`` must be durable before ``target_id``."""
        self.flush_after.setdefault(target_id, set()).add(first_id)

    def allocator_state(self) -> tuple[int, list[int]]:
        """State the engine persists in the meta page at checkpoints."""
        return self._next_page_id, list(self._free_ids)

    def restore_allocator_state(self, next_id: int, free_ids: list[int]) -> None:
        self._next_page_id = next_id
        self._free_ids = list(free_ids)

    # ------------------------------------------------------------ interface

    @abstractmethod
    def region_blocks(self) -> int:
        """Device blocks this pager needs from ``region_start``."""

    def load(self, page_id: int) -> Page:
        """Read a page from storage, verifying its checksum."""
        self.stats.page_loads += 1
        return self._read_page(page_id)

    @abstractmethod
    def _read_page(self, page_id: int) -> Page:
        """Read and verify ``page_id``'s image, falling back on corruption."""

    @abstractmethod
    def flush(self, page: Page) -> None:
        """Durably and atomically persist ``page``."""

    @abstractmethod
    def _release_storage(self, page_id: int) -> None:
        """Reclaim device space for a freed page."""

    def keep_evicted(self, page: Page) -> None:
        """Take a page the buffer pool evicted (after any write-back); a
        pager that can hand it back on the page's next load keeps it (the
        delta pager does)."""

    def release_host_caches(self) -> None:
        """Drop whatever the pager keeps in host memory to speed up later
        loads; run when the engine closes.  Changes no device state."""

    def recover(self) -> None:
        """Restart hook, run by the engine before it reopens the tree:
        rebuild or repair what the pager keeps beside its pages.  Nothing to
        do for a pager that rebuilds such state lazily on load."""

    # --------------------------------------------------------------- common

    # Retrying device I/O: transient faults are absorbed (and counted in
    # fault_stats) up to the bounded attempt budget; torn multi-block writes
    # are simply re-issued (block writes are idempotent).

    def _read_block(self, lba: int) -> bytes:
        return read_block_retrying(self.device, lba, self.fault_stats)

    def _read_blocks(self, lba: int, count: int) -> bytes:
        return read_blocks_retrying(self.device, lba, count, self.fault_stats)

    def _write_block(self, lba: int, data) -> int:
        return write_block_retrying(self.device, lba, data, self.fault_stats)

    def _write_blocks(self, lba: int, data) -> int:
        return write_blocks_retrying(self.device, lba, data, self.fault_stats)

    def _trim(self, lba: int, count: int) -> None:
        trim_retrying(self.device, lba, count, self.fault_stats)

    def _verified_load(
        self, lba: int, count: int, offset: int = 0, first: Optional[bytes] = None
    ) -> tuple[Optional[Page], memoryview]:
        """Read ``count`` blocks at ``lba`` and verify the page image at byte
        ``offset`` of the read; return the page and a view of the read.
        ``first`` is that read when the caller has already issued it.

        A failed verification counts a checksum failure and re-reads: a
        clean re-read (transient bus corruption) counts a heal.  Transit
        garbles each read afresh, so the re-reads go on while each returns
        other bytes than the read before it, up to
        :data:`~repro.csd.faults.RETRY_ATTEMPTS`.  If the image reads the
        same bytes twice (latent media corruption, a torn or misdirected
        write) or fails every re-read, the page is ``None`` and the caller
        picks its fallback.  Only verification failures are caught — any
        other error is a bug, not rot, and propagates.
        """
        end = offset + self.page_size
        raw = memoryview(first if first is not None else self._read_blocks(lba, count))
        try:
            return Page.from_bytes(raw[offset:end]), raw
        except (ChecksumError, PageFormatError):
            self.fault_stats.checksum_failures += 1
        for _ in range(RETRY_ATTEMPTS):
            previous, raw = raw, memoryview(self._read_blocks(lba, count))
            try:
                page = Page.from_bytes(raw[offset:end])
            except (ChecksumError, PageFormatError):
                if raw[offset:end] == previous[offset:end]:
                    break  # the same bytes again: what fails is on the media
                continue
            self.fault_stats.reread_heals += 1
            return page, raw
        return None, raw

    def _finalize(self, page: Page) -> bytes:
        page.finalize()
        return page.image()

    def _account_page_write(self, physical: int, page_id: int) -> None:
        self.stats.page_flushes += 1
        self.stats.page_logical_bytes += self.page_size
        self.stats.page_physical_bytes += physical
        self.never_flushed.discard(page_id)


class JournalPager(Pager):
    """In-place page updates with a double-write journal.

    Layout: ``[journal ring | page 0 | page 1 | ...]``.  A flush writes the
    page image to the journal ring first, syncs, then writes it in place.  A
    torn in-place write is repaired from the journal copy during recovery.
    """

    #: Journal ring capacity in page-size units.
    JOURNAL_PAGES = 16

    def region_blocks(self) -> int:
        return (self.JOURNAL_PAGES + self.max_pages) * self.page_blocks

    def _journal_lba(self, index: int) -> int:
        return self.region_start + index * self.page_blocks

    def _page_lba(self, page_id: int) -> int:
        return self.region_start + (self.JOURNAL_PAGES + page_id) * self.page_blocks

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._journal_cursor = 0

    def flush(self, page: Page) -> None:
        image = self._finalize(page)
        journal_physical = self._write_blocks(
            self._journal_lba(self._journal_cursor), image
        )
        self._journal_cursor = (self._journal_cursor + 1) % self.JOURNAL_PAGES
        self.device.flush()
        self.stats.extra_logical_bytes += self.page_size
        self.stats.extra_physical_bytes += journal_physical
        physical = self._write_blocks(self._page_lba(page.page_id), image)
        self.device.flush()
        self._account_page_write(physical, page.page_id)
        page.clear_dirty()

    def _read_page(self, page_id: int) -> Page:
        page, _ = self._verified_load(self._page_lba(page_id), self.page_blocks)
        return page if page is not None else self._restore_from_journal(page_id)

    def _ring(self) -> Iterator[tuple[Page, bytes]]:
        """Scan the journal ring: each entry that verifies, with its image."""
        for index in range(self.JOURNAL_PAGES):
            raw = self._read_blocks(self._journal_lba(index), self.page_blocks)
            try:
                entry = Page.from_bytes(raw)
            except (ChecksumError, PageFormatError):  # ring scan: stale/torn entries are expected
                continue
            yield entry, raw

    def _restore_from_journal(self, page_id: int) -> Page:
        """Self-heal a corrupt in-place image from its double-write ring copy.

        The ring holds the last :data:`JOURNAL_PAGES` flushed images, so only
        recently flushed pages are repairable this way — exactly the window
        the double-write journal is designed to protect.
        """
        best = None
        best_image = b""
        for candidate, raw in self._ring():
            if candidate.page_id != page_id:
                continue
            if best is None or candidate.lsn > best.lsn:
                best, best_image = candidate, raw
        if best is None:
            raise RecoveryError(
                f"page {page_id}: in-place image is corrupt and no journal "
                f"copy survives"
            )
        physical = self._write_blocks(self._page_lba(page_id), best_image)
        self.device.flush()
        self.stats.extra_logical_bytes += self.page_size
        self.stats.extra_physical_bytes += physical
        self.fault_stats.journal_repairs += 1
        return best

    def recover(self) -> None:
        """Rewrite each in-place image that is torn or older than its
        journal copy from that copy."""
        repaired = False
        for journal_page, image in self._ring():
            lba = self._page_lba(journal_page.page_id)
            current = self._read_blocks(lba, self.page_blocks)
            try:
                live = Page.from_bytes(current)
                if live.lsn >= journal_page.lsn:
                    continue
            except (ChecksumError, PageFormatError):  # torn image: healed below
                pass
            self._write_blocks(lba, image)
            self.fault_stats.journal_repairs += 1
            repaired = True
        if repaired:
            self.device.flush()

    def _release_storage(self, page_id: int) -> None:
        self._trim(self._page_lba(page_id), self.page_blocks)


class ShadowTablePager(Pager):
    """Conventional page shadowing with a persisted page table.

    Layout: ``[page table | slot 0 | slot 1 | ...]``.  Each flush allocates a
    fresh slot, writes the image there, then persists the 4KB page-table block
    holding the page's entry (this is the baseline the paper compares against,
    §4: "we persist the page table after each page flush").
    """

    _ENTRY = struct.Struct("<q")  # slot index, -1 = unmapped
    ENTRIES_PER_BLOCK = BLOCK_SIZE // 8

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        # One extra slot per page guarantees a free shadow destination even
        # when every page is live.
        self.num_slots = 2 * self.max_pages
        self._table: dict[int, int] = {}
        #: Images of the table blocks, by index, built on first write.
        self._table_block_cache: dict[int, bytearray] = {}
        self._free_slots: list[int] = list(range(self.num_slots - 1, -1, -1))

    def region_blocks(self) -> int:
        return self._table_blocks() + 2 * self.max_pages * self.page_blocks

    def _table_blocks(self) -> int:
        return -(-self.max_pages // self.ENTRIES_PER_BLOCK)

    def _slot_lba(self, slot: int) -> int:
        return self.region_start + self._table_blocks() + slot * self.page_blocks

    def flush(self, page: Page) -> None:
        image = self._finalize(page)
        if not self._free_slots:
            raise TreeError("shadow slot pool exhausted")
        new_slot = self._free_slots.pop()
        physical = self._write_blocks(self._slot_lba(new_slot), image)
        self.device.flush()
        self._account_page_write(physical, page.page_id)
        old_slot = self._table.get(page.page_id)
        self._table[page.page_id] = new_slot
        self._persist_table_entry(page.page_id)
        if old_slot is not None:
            self._trim(self._slot_lba(old_slot), self.page_blocks)
            self._free_slots.append(old_slot)
        page.clear_dirty()

    def _persist_table_entry(self, page_id: int) -> None:
        """Write the 4KB table block containing ``page_id``'s mapping."""
        block_index = page_id // self.ENTRIES_PER_BLOCK
        block = self._table_block_image(block_index)
        offset = (page_id % self.ENTRIES_PER_BLOCK) * 8
        self._ENTRY.pack_into(block, offset, self._table.get(page_id, -1))
        physical = self._write_block(self.region_start + block_index, bytes(block))
        self.device.flush()
        self.stats.extra_logical_bytes += BLOCK_SIZE
        self.stats.extra_physical_bytes += physical

    def _table_block_image(self, block_index: int) -> bytearray:
        """Cached in-memory image of one table block (mirrors the mapping)."""
        cache = self._table_block_cache
        block = cache.get(block_index)
        if block is None:
            block = bytearray(BLOCK_SIZE)
            base = block_index * self.ENTRIES_PER_BLOCK
            for i in range(self.ENTRIES_PER_BLOCK):
                self._ENTRY.pack_into(block, i * 8, self._table.get(base + i, -1))
            cache[block_index] = block
        return block

    def _read_page(self, page_id: int) -> Page:
        slot = self._table.get(page_id)
        if slot is None:
            raise RecoveryError(f"page {page_id} has no shadow-table mapping")
        page, raw = self._verified_load(self._slot_lba(slot), self.page_blocks)
        if page is None:
            # A shadow-table page has exactly one live copy, so the re-read
            # was the only healing available: parsing the re-read image once
            # more raises its verification error.
            page = Page.from_bytes(raw)
        return page

    def recover(self) -> None:
        """Reload the mapping from the persisted table region."""
        self._table.clear()
        self._table_block_cache = {}
        used = set()
        for block_index in range(self._table_blocks()):
            block = self._read_block(self.region_start + block_index)
            base = block_index * self.ENTRIES_PER_BLOCK
            for i in range(self.ENTRIES_PER_BLOCK):
                slot, = self._ENTRY.unpack_from(block, i * 8)
                if slot >= 0:
                    self._table[base + i] = slot
                    used.add(slot)
        self._free_slots = [s for s in range(self.num_slots - 1, -1, -1) if s not in used]

    def _release_storage(self, page_id: int) -> None:
        slot = self._table.pop(page_id, None)
        if slot is not None:
            self._trim(self._slot_lba(slot), self.page_blocks)
            self._free_slots.append(slot)
            self._persist_table_entry(page_id)


class DeterministicShadowPager(Pager):
    """The paper's deterministic page shadowing (technique 1, §3.1).

    Each page owns two fixed slots; flushes alternate between them and TRIM
    the other.  The slot choice lives only in a volatile map, rebuilt lazily
    on first load by reading *both* slots and arbitrating by checksum and LSN
    — the trimmed slot reads back as zeros, the torn slot fails its CRC, and
    when both verify the higher LSN wins.
    """

    #: Blocks reserved between the two slots of each page, which a load of
    #: either slot reads along with it: ``[slot 0 | aux | slot 1]``.  The
    #: B⁻-tree delta pager sets this to 1 for its modification-log block.
    aux_blocks_per_page = 0

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._valid_slot: dict[int, int] = {}
        self._region_stride = self._page_region_blocks()
        span = self.page_blocks + self.aux_blocks_per_page
        #: Per slot, the fixed part of :meth:`_slot_span`: the read's block
        #: offset in the page's region, its block count and the byte
        #: offsets of the page image and of the aux blocks in it.
        self._slot_spans = (
            (0, span, 0, self.page_size),
            (self.page_blocks, span, self.aux_blocks_per_page * BLOCK_SIZE, 0),
        )

    def region_blocks(self) -> int:
        return self.max_pages * self._page_region_blocks()

    def _page_region_blocks(self) -> int:
        return 2 * self.page_blocks + self.aux_blocks_per_page

    def _page_base(self, page_id: int) -> int:
        return self.region_start + page_id * self._region_stride

    def _slot_lba(self, page_id: int, slot: int) -> int:
        return self._page_base(page_id) + slot * (self.page_blocks + self.aux_blocks_per_page)

    # ------------------------------------------------------------- flushing

    def flush(self, page: Page) -> None:
        self._flip(page, self._finalize(page))

    def _flip(self, page: Page, image: bytes) -> None:
        """Publish ``image`` in the page's other slot: write it, flush, then
        TRIM the superseded sibling and record the new valid slot."""
        page_id = page.page_id
        target = 1 - self._valid_slot.get(page_id, 1)
        physical = self._write_blocks(self._slot_lba(page_id, target), image)
        self.device.flush()
        self._trim(self._slot_lba(page_id, 1 - target), self.page_blocks)
        self._valid_slot[page_id] = target
        self._account_page_write(physical, page_id)
        self._after_flip(page, image)
        page.clear_dirty()

    def _after_flip(self, page: Page, image: bytes) -> None:
        """Hook run inside the flip once ``image``, ``page``'s content, is
        published in its new slot."""

    # -------------------------------------------------------------- loading

    def _read_page(self, page_id: int) -> Page:
        return self._load_valid_slot(page_id)[0]

    def _slot_span(self, page_id: int, slot: int) -> tuple[int, int, int, int]:
        """A known-slot load reads the slot and the aux blocks beside it,
        ``[slot 0 | aux]`` or ``[aux | slot 1]``: returns its ``lba`` and
        block ``count`` and the byte offsets of the page image and of the
        aux blocks in the read."""
        offset, count, page_at, aux_at = self._slot_spans[slot]
        return (
            self.region_start + page_id * self._region_stride + offset,
            count,
            page_at,
            aux_at,
        )

    def _load_valid_slot(
        self, page_id: int, first: Optional[bytes] = None
    ) -> tuple[Page, memoryview]:
        """Load ``page_id`` from its valid slot; also return a view of the
        aux blocks read along with it.

        With the valid slot known, one verified load reads
        :meth:`_slot_span` (``first`` is that read when the caller has
        already issued it).  Otherwise — after a restart, or when that slot
        turns out latently corrupt — the page's whole region
        ``[slot 0 | aux | slot 1]`` is read and arbitrated.
        """
        aux_bytes = self.aux_blocks_per_page * BLOCK_SIZE
        slot = self._valid_slot.get(page_id)
        if slot is not None:
            lba, count, page_at, aux_at = self._slot_span(page_id, slot)
            page, raw = self._verified_load(lba, count, page_at, first)
            if page is not None:
                return page, raw[aux_at : aux_at + aux_bytes]
            # Latent corruption on the known-valid slot: fall back to full
            # arbitration, which can serve the sibling and scrub the rot.
            self.fault_stats.arbitration_fallbacks += 1
            del self._valid_slot[page_id]
        page, slot, region = self._arbitrate_slots(page_id, failed=slot)
        self._valid_slot[page_id] = slot
        return page, memoryview(region)[self.page_size : self.page_size + aux_bytes]

    def _arbitrate_slots(
        self, page_id: int, failed: Optional[int] = None
    ) -> tuple[Page, int, bytes]:
        """Read the page's whole region in one request and pick the valid,
        newest slot image; returns the page, its slot and the region read.

        While a slot reads nonzero but does not verify as this page, the
        region is read again, as :meth:`_verified_load` re-reads (``failed``
        names a slot whose verified load already failed that way: the known
        slot a fallback comes from), and each slot verified in any read is a
        candidate.  A slot that verifies in a re-read was garbled in transit
        (a checksum failure and a heal), and so was one that reads trimmed
        in a re-read, which drops out.  Transit garbles each read afresh, so
        the re-reads stop once a read returns the bytes of the one before
        it, or after :data:`~repro.csd.faults.RETRY_ATTEMPTS`.  A slot that
        fails every read (a torn write, latent rot or a misdirected write)
        is *read-repaired*: the surviving image is rewritten over it,
        healing the media in place.  Both slots then hold the served image,
        which the ping-pong flush protocol tolerates (the next flush
        overwrites one).  The repair may roll the page back to the older
        sibling, so it must not meet a good slot that transit garbled twice
        in a row.
        """
        base = self._page_base(page_id)
        count = self._page_region_blocks()
        region = self._read_blocks(base, count)
        images = self._slot_images(page_id, region)
        for _ in range(RETRY_ATTEMPTS):
            if all(page is not None or slot == failed for slot, page in images.items()):
                break
            previous, region = region, self._read_blocks(base, count)
            if region == previous:
                break  # the same bytes again: what fails is on the media
            again = self._slot_images(page_id, region)
            for slot, first in list(images.items()):
                page = again.get(slot)
                verified = page is not None or slot not in again  # or trimmed
                if (first is None) != verified:
                    continue  # the two reads agree
                if first is None:  # garbled before: a trimmed slot drops out
                    if page is None:
                        del images[slot]
                    else:
                        images[slot] = page
                self.fault_stats.checksum_failures += 1
                self.fault_stats.reread_heals += 1
        candidates = [(slot, page) for slot, page in images.items() if page is not None]
        if not candidates:
            raise RecoveryError(f"page {page_id}: neither slot holds a valid image")
        slot, page = max(candidates, key=lambda item: item[1].lsn)
        for bad_slot, bad in images.items():
            if bad is None:
                self._repair_slot(page_id, bad_slot, page.image())
        return page, slot, region

    def _slot_images(self, page_id: int, region: bytes) -> dict[int, Optional[Page]]:
        """Each non-trimmed slot of ``region``: its page, or ``None`` when it
        does not verify as ``page_id``'s image."""
        images: dict[int, Optional[Page]] = {}
        base = self._page_base(page_id)
        for slot in (0, 1):
            offset = (self._slot_lba(page_id, slot) - base) * BLOCK_SIZE
            image = region[offset : offset + self.page_size]
            if image.count(0) == len(image):
                continue  # trimmed slot
            try:
                candidate: Optional[Page] = Page.from_bytes(image)
            except (ChecksumError, PageFormatError):
                candidate = None  # torn write, rot, or garbled in transit
            if candidate is not None and candidate.page_id != page_id:
                candidate = None  # misdirected write landed here
            images[slot] = candidate
        return images

    def _repair_slot(self, page_id: int, slot: int, image: bytes) -> None:
        """Rewrite a corrupt slot from the surviving sibling's image."""
        self.fault_stats.checksum_failures += 1
        try:
            physical = self._write_blocks(self._slot_lba(page_id, slot), image)
            self.device.flush()
        except TransientIOError as exc:
            raise ReadRepairError(
                f"page {page_id}: slot {slot} is corrupt and rewriting it "
                f"from the sibling failed after bounded retries"
            ) from exc
        self.stats.extra_logical_bytes += self.page_size
        self.stats.extra_physical_bytes += physical
        self.fault_stats.read_repairs += 1

    def _release_storage(self, page_id: int) -> None:
        self._trim(self._page_base(page_id), self._page_region_blocks())
        self._valid_slot.pop(page_id, None)


PAGER_CLASSES = {
    "journal": JournalPager,
    "shadow-table": ShadowTablePager,
    "det-shadow": DeterministicShadowPager,
}


def make_pager(
    strategy: str,
    device: BlockDevice,
    page_size: int,
    max_pages: int,
    region_start: int,
) -> Pager:
    """Instantiate a pager by strategy name (see :data:`PAGER_CLASSES`)."""
    try:
        cls = PAGER_CLASSES[strategy]
    except KeyError:
        raise ConfigError(
            f"unknown atomicity strategy {strategy!r}; "
            f"choose from {sorted(PAGER_CLASSES)}"
        ) from None
    return cls(device, page_size, max_pages, region_start)
