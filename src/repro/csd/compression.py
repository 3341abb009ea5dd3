"""Per-block compressor models for the in-storage compression engine.

The ScaleFlux drive compresses each 4KB block independently with a hardware
zlib engine.  :class:`ZlibCompressor` reproduces that behaviour exactly with
Python's zlib.  :class:`ZeroRunEstimator` is a fast analytic stand-in that
estimates the compressed size without running a real compressor; it is useful
for very large sweeps where zlib would dominate run time.  Both report sizes
through the common :class:`Compressor` interface, so the device and its
accounting are independent of which model is plugged in.

One fast path accelerates the write pipeline without giving up fidelity:
:class:`SizeCachingCompressor` wraps any compressor with a content-addressed
LRU cache of compressed sizes, keyed by a fast block digest.  Streams with
content repetition (all-zero blocks, repeated log padding, LSM compaction
re-emitting unchanged data blocks) skip the compressor entirely; streams
without it (LSN-stamped page images never repeat) trip an adaptive bypass so
hashing is not paid for nothing.  Cached sizes are bit-identical to uncached
ones.  Its hit rate on the repo benchmark's workloads is the exact-gated
``csd.compression.cache_hit_rate`` ledger line of ``perf/run.py --check``.

All compressors accept any bytes-like object (``bytes``, ``bytearray``,
``memoryview``) so the device's zero-copy write path can hand them buffer
slices directly.
"""

from __future__ import annotations

import hashlib
import zlib
from abc import ABC, abstractmethod
from collections import OrderedDict
from typing import Union

from repro.errors import ConfigError

#: Anything the device layer may hand a compressor: the write paths pass
#: ``bytes`` or zero-copy ``memoryview`` slices; tests may pass ``bytearray``.
BytesLike = Union[bytes, bytearray, memoryview]

#: Size of a compressed all-zero 4KB block, in bytes.  zlib reduces a 4KB zero
#: block to ~20 bytes; the drive additionally keeps a tiny mapping entry.  We
#: fold both into this constant.
ZERO_BLOCK_COST = 24

#: An all-zero block of the drive's block size — the length every write path
#: hands a compressor — for the all-zero test.
_ZEROS = bytes(4096)

#: Default entry bound of the compressed-size LRU cache.  Entries are a 16-byte
#: digest plus an int (~100 bytes each), so the default costs a few MB.
SIZE_CACHE_CAPACITY = 65536

#: Adaptive bypass: number of lookups the cache observes before deciding
#: whether the write stream repeats content at all.
SIZE_CACHE_PROBE_WINDOW = 2048

#: Adaptive bypass: minimum hit rate over the probe window.  Below it the
#: cache concludes the stream has no content repetition and stops hashing.
SIZE_CACHE_MIN_HIT_RATE = 0.02


class Compressor(ABC):
    """Models the drive's per-4KB-block hardware compression engine."""

    @abstractmethod
    def compressed_size(self, block: BytesLike) -> int:
        """Return the physical size, in bytes, of ``block`` after compression.

        ``block`` may be any bytes-like object.  The result is what the drive
        writes to flash for this block (excluding FTL metadata, which the
        device accounts separately).
        """

    def ratio(self, block: BytesLike) -> float:
        """Compression ratio (compressed/original) in the paper's (0, 1] sense."""
        if len(block) == 0:
            return 1.0
        return self.compressed_size(block) / len(block)


class ZlibCompressor(Compressor):
    """Real zlib compression, the same algorithm as the ScaleFlux engine.

    ``level`` trades fidelity for speed; the hardware engine's ratios are close
    to software zlib at its default level, but level 1 is materially faster in
    Python and nearly identical on the half-zero/half-random record contents
    the paper's workloads use.
    """

    def __init__(self, level: int = 1) -> None:
        if not 1 <= level <= 9:
            raise ConfigError(f"zlib level must be in [1, 9], got {level}")
        self.level = level

    def compressed_size(self, block: BytesLike) -> int:
        if len(block) == 0:
            return 0
        data = block if isinstance(block, bytes) else bytes(block)
        # All-zero test: a compare stops at the first non-zero byte and
        # copies nothing (rstrip copied every block that does not end in 0).
        if data == (_ZEROS if len(data) == len(_ZEROS) else bytes(len(data))):
            return ZERO_BLOCK_COST
        return min(len(data), len(zlib.compress(data, self.level)))


class ZeroRunEstimator(Compressor):
    """Analytic compressed-size model: zeros are free, other bytes cost ~1.

    Estimates ``header + incompressible_bytes * entropy_factor`` where
    ``entropy_factor`` models the residual compressibility of the non-zero
    payload (the paper's records are half random bytes, which zlib cannot
    shrink, so the default factor is 1.0).  This is an upper-bound-ish model
    that is ~50x faster than zlib and preserves the sparse-data property the
    three techniques exploit.
    """

    def __init__(self, entropy_factor: float = 1.0, header_cost: int = ZERO_BLOCK_COST) -> None:
        if not 0.0 < entropy_factor <= 1.0:
            raise ConfigError("entropy_factor must be in (0, 1]")
        if header_cost < 0:
            raise ConfigError("header_cost must be non-negative")
        self.entropy_factor = entropy_factor
        self.header_cost = header_cost

    def compressed_size(self, block: BytesLike) -> int:
        if len(block) == 0:
            return 0
        if not isinstance(block, (bytes, bytearray)):
            block = bytes(block)
        nonzero = len(block) - block.count(0)
        estimate = self.header_cost + int(nonzero * self.entropy_factor)
        return min(len(block), estimate)


class NullCompressor(Compressor):
    """No compression: models a conventional SSD without the zlib engine."""

    def compressed_size(self, block: BytesLike) -> int:
        return len(block)


class SizeCachingCompressor(Compressor):
    """Content-addressed LRU cache of compressed sizes around any compressor.

    The key is a fast 128-bit BLAKE2b digest of the block contents (~10x
    cheaper than zlib level 1 on a 4KB block), so repeated contents — all-zero
    blocks, re-flushed delta blocks, repeated log padding — skip the inner
    compressor entirely while returning exactly the size it would have
    produced.  Results are therefore bit-identical to the wrapped compressor;
    only wall-clock changes.

    Not every stream repeats content, though: the B-tree page format stamps
    the mutation LSN and CRC into both the page header and the trailer (the
    torn-write witness), so *every* 4KB block of *every* re-flushed page image
    differs from its previous version by design.  On such streams hashing is
    pure overhead, so the cache is **adaptive**: it observes ``probe_window``
    lookups, and if the hit rate stays below ``min_hit_rate`` it concludes the
    stream is repetition-free, drops its entries, and passes every later block
    straight to the inner compressor (the decision is sticky; ``clear()``
    re-arms it).  Pass ``probe_window=0`` to disable the bypass and always
    cache.

    ``hits`` / ``misses`` / ``evictions`` counters and the ``bypassed`` flag
    expose cache behaviour for tests and the ``perf/`` ledger.
    """

    def __init__(
        self,
        inner: Compressor,
        capacity: int = SIZE_CACHE_CAPACITY,
        probe_window: int = SIZE_CACHE_PROBE_WINDOW,
        min_hit_rate: float = SIZE_CACHE_MIN_HIT_RATE,
    ) -> None:
        if capacity < 1:
            raise ConfigError("cache capacity must be at least 1")
        if probe_window < 0:
            raise ConfigError("probe_window must be non-negative")
        if not 0.0 <= min_hit_rate <= 1.0:
            raise ConfigError("min_hit_rate must be in [0, 1]")
        self.inner = inner
        self.capacity = capacity
        self.probe_window = probe_window
        self.min_hit_rate = min_hit_rate
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.bypassed = False
        self._cache: "OrderedDict[bytes, int]" = OrderedDict()

    def compressed_size(self, block: BytesLike) -> int:
        if self.bypassed:
            return self.inner.compressed_size(block)
        key = hashlib.blake2b(block, digest_size=16).digest()
        cache = self._cache
        size = cache.get(key)
        if size is not None:
            cache.move_to_end(key)
            self.hits += 1
            return size
        self.misses += 1
        size = self.inner.compressed_size(block)
        cache[key] = size
        if len(cache) > self.capacity:
            cache.popitem(last=False)
            self.evictions += 1
        if self.probe_window and self.hits + self.misses >= self.probe_window:
            if self.hit_rate < self.min_hit_rate:
                # Repetition-free stream (e.g. LSN-stamped page images):
                # stop paying for digests, keep the counters for inspection.
                self.bypassed = True
                self._cache.clear()
        return size

    # ------------------------------------------------------------ inspection

    def __len__(self) -> int:
        return len(self._cache)

    @property
    def hit_rate(self) -> float:
        """Fraction of lookups served from the cache (0.0 when unused)."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def clear(self) -> None:
        """Drop all cached sizes, reset the counters, and re-arm the probe."""
        self._cache.clear()
        self.hits = self.misses = self.evictions = 0
        self.bypassed = False
