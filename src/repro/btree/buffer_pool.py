"""Buffer pool: the in-memory page cache of the B+-tree engines.

An LRU cache of :class:`~repro.btree.page.Page` frames with pin counting.
Cache capacity is expressed in bytes (the paper's experiments are defined by
the cache-to-dataset ratio, e.g. 1GB cache over a 150GB dataset), translated
to a frame count at the configured page size.

Dirty pages are written back through a flush callback (the pager) when they
are evicted under cache pressure or when :meth:`flush_all` runs at a
checkpoint.  Eviction frequency relative to update frequency is what
determines the ``WA_pg`` term of Eq. (1): a page that absorbs ``k`` updates
while cached costs one page write per ``k`` user records.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.btree.page import Page
from repro.errors import ConfigError, TreeError


@dataclass
class PoolStats:
    """Cache behaviour counters."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    dirty_evictions: int = 0
    flushes: int = 0

    @property
    def hit_ratio(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class _Frame:
    """A resident page with its dirty flag and pin count."""

    __slots__ = ("page", "dirty", "pins")

    def __init__(self, page: Page, dirty: bool = False, pins: int = 0) -> None:
        self.page = page
        self.dirty = dirty
        self.pins = pins


class BufferPool:
    """LRU page cache with pin counts and write-back through a pager."""

    def __init__(
        self,
        capacity_bytes: int,
        page_size: int,
        loader: Callable[[int], Page],
        flusher: Callable[[Page], None],
        evicted: Optional[Callable[[Page], None]] = None,
    ) -> None:
        if capacity_bytes <= 0 or page_size <= 0:
            raise ConfigError("capacity and page size must be positive")
        #: Frame budget; a floor of 8 frames keeps root+path always cacheable.
        self.capacity_frames = max(8, capacity_bytes // page_size)
        self._loader = loader
        self._flusher = flusher
        #: Receives each victim once it has left the pool, a dirty one after
        #: its write-back succeeded (the pager may hand the object back on
        #: the page's next load).
        self._evicted = evicted
        self._frames: "OrderedDict[int, _Frame]" = OrderedDict()
        self.stats = PoolStats()

    def __len__(self) -> int:
        return len(self._frames)

    def __contains__(self, page_id: int) -> bool:
        return page_id in self._frames

    # ------------------------------------------------------------ fetching

    def get(self, page_id: int, pin: bool = False) -> Page:
        """Return the cached page, loading it through the pager on a miss."""
        frame = self._frames.get(page_id)
        if frame is not None:
            self.stats.hits += 1
            self._frames.move_to_end(page_id)
            if pin:
                frame.pins += 1
        else:
            self.stats.misses += 1
            page = self._loader(page_id)
            if page.page_id != page_id:
                raise TreeError(
                    f"pager returned page {page.page_id} for requested id {page_id}"
                )
            # Pin before evicting so the fresh frame can never be its own victim.
            frame = _Frame(page, pins=1 if pin else 0)
            self._frames[page_id] = frame
            self._evict_if_needed()
        return frame.page

    def add_new(self, page: Page, pin: bool = False) -> None:
        """Register a freshly created page (dirty by definition)."""
        if page.page_id in self._frames:
            raise TreeError(f"page {page.page_id} already cached")
        self._frames[page.page_id] = _Frame(page, dirty=True, pins=1 if pin else 0)
        self._evict_if_needed()

    # ------------------------------------------------------------- pinning

    def unpin(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None or frame.pins <= 0:
            raise TreeError(f"unbalanced unpin of page {page_id}")
        frame.pins -= 1

    # --------------------------------------------------------------- dirty

    def mark_dirty(self, page_id: int) -> None:
        frame = self._frames.get(page_id)
        if frame is None:
            raise TreeError(f"cannot dirty non-resident page {page_id}")
        frame.dirty = True

    def dirty_page_ids(self) -> list[int]:
        return [pid for pid, frame in self._frames.items() if frame.dirty]

    def flush_page(self, page_id: int) -> None:
        """Write one dirty page back through the pager."""
        frame = self._frames.get(page_id)
        if frame is None:
            raise TreeError(f"cannot flush non-resident page {page_id}")
        if frame.dirty:
            self._flusher(frame.page)
            frame.dirty = False
            self.stats.flushes += 1

    def flush_all(self) -> int:
        """Write back every dirty page (checkpoint); returns pages flushed."""
        flushed = 0
        for page_id in self.dirty_page_ids():
            self.flush_page(page_id)
            flushed += 1
        return flushed

    def drop(self, page_id: int) -> None:
        """Discard a page without write-back (used when freeing pages)."""
        frame = self._frames.get(page_id)
        if frame is not None and frame.pins > 0:
            raise TreeError(f"cannot drop pinned page {page_id}")
        self._frames.pop(page_id, None)

    def clear(self) -> None:
        """Drop every frame without write-back (simulated crash of the host)."""
        self._frames.clear()

    # ------------------------------------------------------------ eviction

    def _evict_if_needed(self) -> None:
        frames = self._frames
        while len(frames) > self.capacity_frames:
            for victim_id, frame in frames.items():  # LRU order
                if not frame.pins:
                    break
            else:
                return  # everything pinned; allow temporary overshoot
            if frame.dirty:
                self._flusher(frame.page)
                self.stats.flushes += 1
                self.stats.dirty_evictions += 1
            self.stats.evictions += 1
            del frames[victim_id]
            if self._evicted is not None:
                self._evicted(frame.page)

    def pages(self) -> Iterator[Page]:
        """Iterate resident pages (LRU -> MRU order)."""
        for frame in self._frames.values():
            yield frame.page
