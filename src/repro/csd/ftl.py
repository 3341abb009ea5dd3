"""Flash translation layer for variable-length compressed blocks.

Inside the drive, every 4KB logical block compresses to a variable-length
extent; the FTL maps LBAs to those extents and packs them tightly in flash
(this is what frees in-storage compression from the host's 4KB-alignment
constraint, paper §2.2).  For the reproduction we track, per LBA, the live
compressed size plus a fixed per-mapping metadata cost, which is enough to
answer the two questions the evaluation asks of the drive:

* how many post-compression bytes were physically written (``DeviceStats``),
* how many bytes of flash are live right now (physical storage usage,
  Table 1 / Fig 13).

Drive garbage collection is not modelled: the paper's WA counts only the
post-compression bytes the host's writes put on flash, which excludes GC
relocation by definition.
"""

from __future__ import annotations

from typing import Sequence

from repro.csd.stats import DeviceStats
from repro.errors import CapacityError, ConfigError

#: Per-LBA mapping metadata the FTL persists alongside each compressed extent.
MAPPING_ENTRY_COST = 8


class FlashTranslationLayer:
    """Tracks compressed extent sizes and physical space accounting.

    ``physical_capacity`` may be smaller than the logical span times the block
    size (thin provisioning); writing more *live compressed* data than the
    physical capacity raises :class:`CapacityError`, mirroring a real drive
    running out of flash despite free LBA space.
    """

    def __init__(
        self,
        physical_capacity: int,
        stats: DeviceStats,
        mapping_cost: int = MAPPING_ENTRY_COST,
    ) -> None:
        if physical_capacity <= 0:
            raise ConfigError("physical capacity must be positive")
        if mapping_cost < 0:
            raise ConfigError("mapping cost must be non-negative")
        self.physical_capacity = physical_capacity
        self.stats = stats
        self.mapping_cost = mapping_cost
        self._extent_size: dict[int, int] = {}
        self._live_bytes = 0

    @property
    def live_bytes(self) -> int:
        """Live post-compression bytes (physical storage usage)."""
        return self._live_bytes

    @property
    def mapped_lbas(self) -> int:
        """Number of LBAs with a live mapping."""
        return len(self._extent_size)

    def record_write(self, lba: int, compressed_size: int) -> int:
        """Account a host write of one block compressing to ``compressed_size``.

        Returns the total physical bytes charged for the write (extent +
        mapping metadata).
        """
        if compressed_size < 0:
            raise ConfigError("compressed size must be non-negative")
        previous = self._extent_size.get(lba, 0)
        new_live = self._live_bytes - previous + compressed_size
        if new_live > self.physical_capacity:
            raise CapacityError(
                f"physical capacity exhausted: {new_live} live bytes > "
                f"{self.physical_capacity} capacity"
            )
        self._extent_size[lba] = compressed_size
        self._live_bytes = new_live

        physical = compressed_size + self.mapping_cost
        self.stats.physical_bytes_written += physical
        return physical

    def record_writes(self, lba: int, sizes: Sequence[int]) -> int:
        """Batch-account a contiguous multi-block host write.

        Numerically identical to calling :meth:`record_write` once per block
        of ``sizes``, but with the per-block Python overhead hoisted: one
        pass, local bindings, and a single stats update for the whole
        request.  On
        :class:`CapacityError` the blocks preceding the failing one stay
        recorded — matching the per-block call sequence — and the stats
        accumulated so far are still flushed.

        Returns the total physical bytes charged (extents + mapping metadata).
        """
        extents = self._extent_size
        capacity = self.physical_capacity
        mapping = self.mapping_cost
        live = self._live_bytes
        total_physical = 0
        try:
            for offset, size in enumerate(sizes):
                if size < 0:
                    raise ConfigError("compressed size must be non-negative")
                key = lba + offset
                live = live - extents.get(key, 0) + size
                if live > capacity:
                    raise CapacityError(
                        f"physical capacity exhausted: {live} live bytes > "
                        f"{capacity} capacity"
                    )
                extents[key] = size
                self._live_bytes = live
                total_physical += size + mapping
        finally:
            self.stats.physical_bytes_written += total_physical
        return total_physical

    def record_trim(self, lba: int) -> None:
        """Drop the mapping for ``lba``; its flash space becomes reclaimable."""
        previous = self._extent_size.pop(lba, None)
        if previous is not None:
            self._live_bytes -= previous

    def extent_size(self, lba: int) -> int:
        """Live compressed size of ``lba`` (0 if unmapped/trimmed)."""
        return self._extent_size.get(lba, 0)

