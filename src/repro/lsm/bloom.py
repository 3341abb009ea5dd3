"""Bloom filter, RocksDB-style (double hashing, ~10 bits/key by default).

The paper configures RocksDB with a 10-bits-per-record bloom filter, which is
what "almost completely obviates the read amplification problem" for point
reads (§4.5).  The filter here uses Kirsch-Mitzenmacher double hashing over a
64-bit FNV-1a base hash — the same construction RocksDB's legacy bloom uses.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3


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
        self._bits = bytearray((self.num_bits + 7) // 8)

    def add(self, key: bytes) -> None:
        self.add_all((key,))

    def add_all(self, keys: Iterable[bytes]) -> None:
        """Set every key's probe bits (FNV-1a base hash, then double hashing);
        one loop with the hash inlined, because a table build adds thousands
        of keys at once."""
        bits = self._bits
        num_bits = self.num_bits
        probes = range(self.num_probes)
        for key in keys:
            h = _FNV_OFFSET
            for byte in key:
                h = ((h ^ byte) * _FNV_PRIME) & _MASK64
            delta = ((h >> 33) | (h << 31)) & _MASK64
            for _ in probes:
                pos = h % num_bits
                bits[pos >> 3] |= 1 << (pos & 7)
                h = (h + delta) & _MASK64

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        h = _FNV_OFFSET
        for byte in key:
            h = ((h ^ byte) * _FNV_PRIME) & _MASK64
        delta = ((h >> 33) | (h << 31)) & _MASK64
        bits = self._bits
        num_bits = self.num_bits
        for _ in range(self.num_probes):
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
        num_bits = int.from_bytes(data[0:8], "little")
        num_probes = int.from_bytes(data[8:10], "little")
        filt = cls.__new__(cls)
        filt.bits_per_key = 0.0  # unknown after deserialization
        filt.num_bits = num_bits
        filt.num_probes = num_probes
        filt._bits = bytearray(data[10 : 10 + (num_bits + 7) // 8])
        return filt

    def serialized_size(self) -> int:
        return 10 + len(self._bits)
