"""Bloom filter, RocksDB-style (double hashing, ~10 bits/key by default).

The paper configures RocksDB with a 10-bits-per-record bloom filter, which is
what "almost completely obviates the read amplification problem" for point
reads (§4.5).  The filter here uses Kirsch-Mitzenmacher double hashing over a
64-bit FNV-1a base hash — the same construction RocksDB's legacy bloom uses.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigError, LsmError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


def base_hash(key: bytes) -> int:
    """The filter's base hash: 64-bit FNV-1a of ``key``.  Every probe
    position of every filter derives from it, so it is computed once per key
    however many filters the key is probed against."""
    h = _FNV_OFFSET
    for byte in key:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


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
        self._probes = range(self.num_probes)
        self._bits = bytearray((self.num_bits + 7) // 8)

    def add(self, key: bytes) -> None:
        """Set one key's probe bits."""
        self._set_bits(base_hash(key))

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Set every key's probe bits; a table build adds thousands of keys
        at once, in key order.  Sorted neighbours mostly differ in their last
        byte only, so the FNV-1a state after ``key[:-1]`` is carried from one
        key to the next and the hash restarts at byte 0 only when that prefix
        changes — same hash, any keys in any order.

        Each probe stores a 1 in a byte-per-bit scratch map, which is then
        packed into the filter with eight strided slices (slice ``j`` holds
        bits ``j, j + 8, …``, i.e. bit ``j`` of every filter byte) — the same
        bits as :meth:`add`, at one byte store per probe."""
        num_bits = self.num_bits
        probes = self._probes
        scratch = bytearray(num_bits)
        head, head_state = b"", _FNV_OFFSET
        for key in keys:
            if key[:-1] != head:
                head = key[:-1]
                head_state = base_hash(head)
            h = head_state
            if key:
                h = ((h ^ key[-1]) * _FNV_PRIME) & _MASK64
            delta = ((h >> 33) | (h << 31)) & _MASK64
            for _ in probes:
                scratch[h % num_bits] = 1
                h = (h + delta) & _MASK64
        packed = int.from_bytes(self._bits, "little")
        for j in range(8):
            packed |= int.from_bytes(scratch[j::8], "little") << j
        self._bits = bytearray(packed.to_bytes(len(self._bits), "little"))

    def _set_bits(self, h: int) -> None:
        bits = self._bits
        num_bits = self.num_bits
        delta = ((h >> 33) | (h << 31)) & _MASK64
        for _ in self._probes:
            pos = h % num_bits
            bits[pos >> 3] |= 1 << (pos & 7)
            h = (h + delta) & _MASK64

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        return self.probe(base_hash(key))

    def probe(self, h: int) -> bool:
        """:meth:`may_contain` for a key whose :func:`base_hash` is ``h`` —
        the filter's one probe loop.  A point read hashes its key once and
        probes every candidate table's filter with that hash."""
        bits = self._bits
        num_bits = self.num_bits
        delta = ((h >> 33) | (h << 31)) & _MASK64
        for _ in self._probes:
            pos = h % num_bits
            if not bits[pos >> 3] & (1 << (pos & 7)):
                return False
            h = (h + delta) & _MASK64
        return True

    # --------------------------------------------------------- serialization

    def to_bytes(self) -> bytes:
        header = self.num_bits.to_bytes(8, "little") + self.num_probes.to_bytes(2, "little")
        return header + bytes(self._bits)

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
        filt = cls.__new__(cls)
        filt.bits_per_key = 0.0  # unknown after deserialization
        filt.num_bits = num_bits
        filt.num_probes = num_probes
        filt._probes = range(num_probes)
        filt._bits = bytearray(data[10 : 10 + (num_bits + 7) // 8])
        return filt

    def serialized_size(self) -> int:
        return 10 + len(self._bits)
