"""Simulated block devices.

:class:`CompressedBlockDevice` models the paper's computational storage drive:
a 4KB-block device that transparently compresses each block on the write path,
packs the variable-length results through an FTL, supports TRIM (trimmed or
never-written blocks read back as zeros and occupy no flash), and can expose a
logical LBA span larger than its physical capacity (thin provisioning).

Durability semantics mirror what the three B⁻-tree techniques rely on:

* each 4KB block write is atomic (the protocol-level guarantee the paper
  builds on);
* writes become durable at the next :meth:`flush` (fsync);
* :meth:`simulate_crash` discards — or, for torn-write experiments, partially
  applies — all writes issued since the last flush.

Hot-path notes: every benchmark figure funnels through the write path here,
so it is engineered to avoid per-block copies.  Multi-block writes slice the
request buffer with ``memoryview`` (zero-copy; the compressor and the FTL
consume buffer slices directly) and batch their FTL accounting through
:meth:`FlashTranslationLayer.record_writes`.  The volatile write buffer is an
*ordered pending journal*: a rewrite of a pending LBA moves its entry to the
journal tail, so :meth:`flush` and :meth:`simulate_crash` replay pending
updates in last-write order, and the stale 4KB payloads of overwritten
entries are dropped without ever being materialised as ``bytes``.
"""

from __future__ import annotations

import random
from abc import ABC
from typing import Callable, Optional

from repro.csd.compression import BytesLike, Compressor, NullCompressor, ZlibCompressor
from repro.csd.ftl import MAPPING_ENTRY_COST, FlashTranslationLayer
from repro.csd.stats import DeviceStats
from repro.errors import (
    AlignmentError,
    ConfigError,
    FaultInjectionError,
    OutOfRangeError,
)

#: I/O unit of the simulated devices, matching the paper's 4KB LBA blocks.
BLOCK_SIZE = 4096

_ZERO_BLOCK = bytes(BLOCK_SIZE)

#: Sentinel stored in the volatile write buffer to mark an unflushed TRIM.
_TRIMMED = None


def _torn_survival(
    keep_torn: Optional[int], survives: Optional[Callable[[int], bool]]
) -> Optional[Callable[[int], bool]]:
    """Resolve ``simulate_crash``'s torn-write arguments into one predicate.

    ``keep_torn`` is a seed: each pending 4KB block independently survives
    with probability one half, drawn from ``random.Random(keep_torn)`` — the
    torn multi-block write the paper's deterministic shadowing defends
    against, made reproducible.  It is mutually exclusive with an explicit
    ``survives`` predicate.
    """
    if keep_torn is None:
        return survives
    if survives is not None:
        raise FaultInjectionError(
            "simulate_crash: pass either survives= or keep_torn=, not both"
        )
    rng = random.Random(keep_torn)
    return lambda lba: rng.random() < 0.5


def default_compressor() -> Compressor:
    """The drive's default engine: real zlib at level 1."""
    return ZlibCompressor()


class BlockDevice(ABC):
    """Common interface of the simulated devices.

    All addressing is in whole 4KB blocks; partial-block I/O raises
    :class:`AlignmentError` by construction of the API (callers pass block
    counts, never byte offsets).

    IOPS semantics: one call to any I/O method is one device command and
    charges exactly one ``write_ios`` / ``read_ios`` / ``trim_ios``,
    regardless of how many blocks it spans; per-block volume is charged to
    ``blocks_written`` / ``blocks_read`` (see :class:`DeviceStats`).
    """

    block_size = BLOCK_SIZE

    def __init__(
        self,
        num_blocks: int,
        compressor: Compressor,
        physical_capacity: Optional[int] = None,
        mapping_cost: int = MAPPING_ENTRY_COST,
    ) -> None:
        if num_blocks <= 0:
            raise ConfigError("device must have at least one block")
        self.num_blocks = num_blocks
        self.compressor = compressor
        self.stats = DeviceStats()
        capacity = physical_capacity if physical_capacity is not None else num_blocks * BLOCK_SIZE
        self.ftl = FlashTranslationLayer(capacity, self.stats, mapping_cost)
        self._stable: dict[int, bytes] = {}
        # Ordered pending journal: insertion order is (last-)write order; a
        # rewrite re-appends its entry at the tail (see _journal_put).
        self._pending: dict[int, Optional[bytes]] = {}

    # ------------------------------------------------------------------ I/O

    def write_block(self, lba: int, data: BytesLike) -> int:
        """Write one 4KB block atomically (one request, one block).

        Returns the post-compression bytes charged for the write, so callers
        can attribute physical write volume to traffic categories (the
        paper's ``W_log`` / ``W_pg`` / ``W_e`` decomposition).
        """
        if len(data) != BLOCK_SIZE:
            raise AlignmentError(
                f"block write must be exactly {BLOCK_SIZE} bytes, got {len(data)}"
            )
        self._check_range(lba, 1)
        if not isinstance(data, bytes):
            data = bytes(data)
        self.stats.write_ios += 1
        self.stats.blocks_written += 1
        self.stats.logical_bytes_written += BLOCK_SIZE
        physical = self.ftl.record_write(lba, self.compressor.compressed_size(data))
        self._journal_put(lba, data)
        return physical

    def write_blocks(self, lba: int, data: BytesLike) -> int:
        """Write a contiguous run of blocks as one request.

        Each 4KB block within the request is individually atomic (a crash can
        apply a prefix/subset — the torn multi-block write).  The request is
        one device command: one ``write_ios``, ``count`` ``blocks_written``.
        The buffer is sliced with ``memoryview`` — no per-block copies — the
        request's sizes come from one :meth:`Compressor.compressed_sizes`
        call, and FTL accounting is batched and in block order.  Returns the
        total post-compression bytes charged.
        """
        if len(data) % BLOCK_SIZE != 0:
            raise AlignmentError(
                f"multi-block write must be a multiple of {BLOCK_SIZE} bytes"
            )
        count = len(data) // BLOCK_SIZE
        self._check_range(lba, count)
        if not isinstance(data, bytes):
            data = bytes(data)
        view = memoryview(data)
        chunks = [
            view[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE] for i in range(count)
        ]
        sizes = self.compressor.compressed_sizes(chunks)
        self.stats.write_ios += 1
        self.stats.blocks_written += count
        self.stats.logical_bytes_written += count * BLOCK_SIZE
        physical = self.ftl.record_writes(lba, sizes)
        journal_put = self._journal_put
        for i, chunk in enumerate(chunks):
            journal_put(lba + i, chunk)
        return physical

    def read_block(self, lba: int) -> bytes:
        """Read one 4KB block; unwritten or trimmed blocks read as zeros."""
        self._check_range(lba, 1)
        stats = self.stats
        stats.read_ios += 1
        stats.blocks_read += 1
        stats.logical_bytes_read += BLOCK_SIZE
        # The drive internally fetches only the live compressed extent; a
        # trimmed/never-written block costs (almost) nothing to "read".
        stats.physical_bytes_read += self.ftl.extent_size(lba)
        pending = self._pending
        if lba in pending:
            data = pending[lba]
            if data is _TRIMMED:
                return _ZERO_BLOCK
            return data if isinstance(data, bytes) else bytes(data)
        return self._stable.get(lba, _ZERO_BLOCK)

    def read_blocks(self, lba: int, count: int) -> bytes:
        """Read ``count`` contiguous blocks as one request (one ``read_ios``).

        One pass over the blocks sums their live extents (what the drive
        fetches from flash) and collects their bytes, pending journal
        first, then stable store, else zeros; the request joins them once.
        """
        if count <= 0:
            raise ConfigError("read count must be positive")
        self._check_range(lba, count)
        extent_size = self.ftl.extent_size
        pending = self._pending
        stable = self._stable
        physical = 0
        blocks: list[bytes] = []
        for block in range(lba, lba + count):
            physical += extent_size(block)
            if block in pending:
                data = pending[block]
                blocks.append(_ZERO_BLOCK if data is _TRIMMED else data)
            else:
                blocks.append(stable.get(block, _ZERO_BLOCK))
        stats = self.stats
        stats.read_ios += 1
        stats.blocks_read += count
        stats.logical_bytes_read += count * BLOCK_SIZE
        stats.physical_bytes_read += physical
        return b"".join(blocks)

    def trim(self, lba: int, count: int = 1) -> None:
        """Deallocate ``count`` blocks; they read back as zeros afterwards."""
        if count <= 0:
            raise ConfigError("trim count must be positive")
        self._check_range(lba, count)
        self.stats.trim_ios += 1
        self.stats.bytes_trimmed += count * BLOCK_SIZE
        for i in range(count):
            self.ftl.record_trim(lba + i)
            self._journal_put(lba + i, _TRIMMED)

    def flush(self) -> None:
        """Durability barrier: make all buffered writes/TRIMs crash-safe.

        Replays the ordered pending journal (one entry per LBA, in last-write
        order); superseded intermediate payloads were already dropped at
        write time, so the walk is exactly one pass over the live entries.
        """
        self.stats.flush_ios += 1
        stable = self._stable
        for lba, data in self._pending.items():
            if data is _TRIMMED or data == _ZERO_BLOCK:
                stable.pop(lba, None)
            else:
                stable[lba] = data if isinstance(data, bytes) else bytes(data)
        self._pending.clear()

    # ------------------------------------------------------- crash testing

    def simulate_crash(
        self,
        survives: Optional[Callable[[int], bool]] = None,
        keep_torn: Optional[int] = None,
    ) -> list[int]:
        """Drop un-flushed writes, modelling a power failure.

        ``survives(lba)`` may let individual pending 4KB block writes reach
        stable storage anyway (each block is atomic, but a multi-block write
        can land partially — this is exactly the torn page write the paper's
        shadowing defends against).  ``keep_torn=<seed>`` is a shorthand for
        a seeded coin-flip predicate (each pending block survives with
        probability one half) — the reproducible torn-crash mode the
        fault-injection campaigns use.  Pending entries are considered in
        journal (last-write) order.  Returns the LBAs whose pending update
        was lost, and leaves the device ready for recovery reads.

        Note: FTL live-byte accounting is not rolled back for lost writes;
        crash simulations exercise recovery correctness, not space accounting.
        """
        survives = _torn_survival(keep_torn, survives)
        lost: list[int] = []
        for lba, data in list(self._pending.items()):
            if survives is not None and survives(lba):
                if data is _TRIMMED or data == _ZERO_BLOCK:
                    self._stable.pop(lba, None)
                else:
                    self._stable[lba] = data if isinstance(data, bytes) else bytes(data)
            else:
                lost.append(lba)
        self._pending.clear()
        return lost

    # --------------------------------------------------------- accounting

    @property
    def physical_bytes_used(self) -> int:
        """Live post-compression flash usage (the paper's "physical usage")."""
        return self.ftl.live_bytes

    @property
    def logical_bytes_used(self) -> int:
        """Mapped LBA span in bytes (the paper's "logical usage")."""
        return self.ftl.mapped_lbas * BLOCK_SIZE

    # ----------------------------------------------------------- internals

    def _journal_put(self, lba: int, data: Optional[bytes]) -> None:
        """Append an update to the ordered pending journal (last write wins).

        Re-writing a pending LBA removes its old entry and re-appends at the
        tail, keeping dict iteration order equal to last-write order while
        the superseded payload becomes garbage immediately.
        """
        pending = self._pending
        if lba in pending:
            del pending[lba]
        pending[lba] = data

    def _check_range(self, lba: int, count: int) -> None:
        if lba < 0 or lba + count > self.num_blocks:
            raise OutOfRangeError(
                f"I/O of {count} block(s) at LBA {lba} exceeds device span "
                f"of {self.num_blocks} blocks"
            )


class CompressedBlockDevice(BlockDevice):
    """The computational storage drive: transparent zlib per 4KB block.

    The default compressor is real zlib (:func:`default_compressor`); pass
    an explicit ``compressor`` to swap in one of the analytic models.
    """

    def __init__(
        self,
        num_blocks: int,
        compressor: Optional[Compressor] = None,
        physical_capacity: Optional[int] = None,
    ) -> None:
        super().__init__(
            num_blocks,
            compressor if compressor is not None else default_compressor(),
            physical_capacity,
        )


class PlainSSD(BlockDevice):
    """A conventional SSD: no in-storage compression, physical == logical.

    A plain SSD maps fixed-size 4KB blocks, so there is no variable-length
    extent metadata to charge per write (``mapping_cost=0``).
    """

    def __init__(self, num_blocks: int) -> None:
        super().__init__(num_blocks, NullCompressor(), mapping_cost=0)
