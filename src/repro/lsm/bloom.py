"""Bloom filter, RocksDB-style (double hashing, ~10 bits/key by default).

The paper configures RocksDB with a 10-bits-per-record bloom filter, which is
what "almost completely obviates the read amplification problem" for point
reads (§4.5).  The filter here uses Kirsch-Mitzenmacher double hashing: both
hashes come from one CRC-32 of the key, computed in C by ``zlib.crc32`` (RocksDB
and LevelDB hash with a Murmur-style 32-bit function instead; any well-mixed
32-bit hash keeps the promised ~1% false-positive rate at 10 bits/key).

In memory a filter holds one byte per bit (0 or 1), so a probe is a byte
load; it is packed into the usual bit array only when serialized, and
unpacked when loaded, so the bytes on storage are the packed bits.
"""

from __future__ import annotations

import math
import zlib
from typing import Iterable

from repro.errors import ConfigError, LsmError

#: The 64-bit golden-ratio multiplier (Fibonacci hashing) that derives the
#: double-hashing step from the base hash.
_STEP_MULTIPLIER = 0x9E3779B97F4A7C15
_MASK32 = 0xFFFFFFFF
#: ``_UNPACK[j]`` maps a packed byte to its bit ``j`` (0 or 1).
_UNPACK = [bytes((b >> j) & 1 for b in range(256)) for j in range(8)]


def probe_sequence(key: bytes) -> tuple[int, int]:
    """``key``'s double-hashing pair ``(h1, h2)``: ``h1`` is the CRC-32 of
    ``key`` and ``h2`` the high 32 bits of the 64-bit product
    ``h1 * 0x9E3779B97F4A7C15``, forced odd.  Probe ``i`` of an ``n``-bit
    filter is bit ``(h1 + i * h2) % n``.

    The pair is the same for every filter, so a point read computes it once
    and hands it to each candidate table's filter, whatever its probe
    count."""
    h1 = zlib.crc32(key)
    return h1, (h1 * _STEP_MULTIPLIER >> 32) & _MASK32 | 1


class BloomFilter:
    """A fixed-size bloom filter sized for ``expected_keys``."""

    def __init__(self, expected_keys: int, bits_per_key: float = 10.0) -> None:
        if expected_keys < 0:
            raise ConfigError("expected_keys must be non-negative")
        if bits_per_key <= 0:
            raise ConfigError("bits_per_key must be positive")
        self.bits_per_key = bits_per_key
        self.num_bits = max(64, int(expected_keys * bits_per_key))
        # Optimal probe count k = ln(2) * bits/key, clamped like RocksDB.
        self.num_probes = max(1, min(30, int(round(bits_per_key * math.log(2)))))
        #: Bit ``i`` as byte ``i`` (0 or 1), padded to whole packed bytes.
        self._bitmap = bytearray(8 * ((self.num_bits + 7) // 8))

    def add(self, key: bytes) -> None:
        """Set one key's probe bits."""
        self.add_all((key,))

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Set every key's probe bits; a table build adds thousands of keys
        at once.  Each key's :func:`probe_sequence` pair is computed inline,
        one ``zlib.crc32`` call per key and no Python call.  Both hashes are
        reduced modulo the filter size once, so each probe is an add and a
        conditional subtraction, not a modulo.

        At 7 probes (the count for 10 bits/key, the default) the probe loop
        is written out: every LSM compaction and flush fills its filters
        here, and the loop's own overhead was ~6% of ``lsm_insert``'s host
        rate (DESIGN.md §9)."""
        num_bits = self.num_bits
        bitmap = self._bitmap
        hashes = map(zlib.crc32, keys)
        if self.num_probes != 7:
            probes = range(self.num_probes)
            for h in hashes:
                delta = ((h * _STEP_MULTIPLIER >> 32) & _MASK32 | 1) % num_bits
                h %= num_bits
                for _ in probes:
                    bitmap[h] = 1
                    h += delta
                    if h >= num_bits:
                        h -= num_bits
            return
        for h in hashes:
            delta = ((h * _STEP_MULTIPLIER >> 32) & _MASK32 | 1) % num_bits
            h %= num_bits
            bitmap[h] = 1
            h += delta
            if h >= num_bits:
                h -= num_bits
            bitmap[h] = 1
            h += delta
            if h >= num_bits:
                h -= num_bits
            bitmap[h] = 1
            h += delta
            if h >= num_bits:
                h -= num_bits
            bitmap[h] = 1
            h += delta
            if h >= num_bits:
                h -= num_bits
            bitmap[h] = 1
            h += delta
            if h >= num_bits:
                h -= num_bits
            bitmap[h] = 1
            h += delta
            if h >= num_bits:
                h -= num_bits
            bitmap[h] = 1

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        return self.probe(probe_sequence(key))

    def probe(self, pair: tuple[int, int]) -> bool:
        """:meth:`may_contain` for a key whose :func:`probe_sequence` is
        ``pair``: one byte load per probe, up to the first 0."""
        h, delta = pair
        bitmap = self._bitmap
        num_bits = self.num_bits
        for _ in range(self.num_probes):
            if not bitmap[h % num_bits]:
                return False
            h += delta
        return True

    # --------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        """Header, then the bits packed eight to a byte: slice ``j`` of the
        bitmap (bits ``j, j + 8, …``) is bit ``j`` of every packed byte."""
        bitmap = self._bitmap
        packed = 0
        for j in range(8):
            packed |= int.from_bytes(bitmap[j::8], "little") << j
        header = self.num_bits.to_bytes(8, "little") + self.num_probes.to_bytes(2, "little")
        return header + packed.to_bytes(len(bitmap) // 8, "little")

    @classmethod
    def from_bytes(cls, data: bytes) -> "BloomFilter":
        """Rebuild a filter from :meth:`to_bytes` output; a payload that is
        cut short or whose header cannot be probed with is an
        :class:`~repro.errors.LsmError` here, not an ``IndexError`` or
        ``ZeroDivisionError`` at the first probe."""
        num_bits = int.from_bytes(data[0:8], "little")
        num_probes = int.from_bytes(data[8:10], "little")
        if (
            num_bits == 0
            or not 1 <= num_probes <= 30
            or len(data) < 10 + (num_bits + 7) // 8
        ):
            raise LsmError(
                f"corrupt or truncated bloom filter: {len(data)} bytes for "
                f"num_bits={num_bits}, num_probes={num_probes}"
            )
        packed = bytes(data[10 : 10 + (num_bits + 7) // 8])
        bitmap = bytearray(8 * len(packed))
        for j, unpack in enumerate(_UNPACK):
            bitmap[j::8] = packed.translate(unpack)
        filt = cls.__new__(cls)
        filt.bits_per_key = 0.0  # unknown after deserialization
        filt.num_bits = num_bits
        filt.num_probes = num_probes
        filt._bitmap = bitmap
        return filt

    def serialized_size(self) -> int:
        return 10 + len(self._bitmap) // 8
