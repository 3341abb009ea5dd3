"""Bloom filter, RocksDB-style (double hashing, ~10 bits/key by default).

The paper configures RocksDB with a 10-bits-per-record bloom filter, which is
what "almost completely obviates the read amplification problem" for point
reads (§4.5).  The filter here uses Kirsch-Mitzenmacher double hashing over a
64-bit FNV-1a base hash — the same construction RocksDB's legacy bloom uses.

In memory a filter holds one byte per bit (0 or 1), so a probe is a byte
load; it is packed into the usual bit array only when serialized, and
unpacked when loaded, so the bytes on storage are the packed bits.
"""

from __future__ import annotations

import math
from typing import Iterable

from repro.errors import ConfigError, LsmError

_MASK64 = 0xFFFFFFFFFFFFFFFF
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
#: ``_UNPACK[j]`` maps a packed byte to its bit ``j`` (0 or 1).
_UNPACK = [bytes((b >> j) & 1 for b in range(256)) for j in range(8)]


def base_hash(key: bytes) -> int:
    """The filter's base hash: 64-bit FNV-1a of ``key``."""
    h = _FNV_OFFSET
    for byte in key:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK64
    return h


def probe_sequence(key: bytes) -> list[int]:
    """The start of ``key``'s double-hashing sequence: ``h_0`` is the base
    hash, ``h_{i+1} = h_i + delta mod 2**64`` with ``delta`` the 64-bit
    rotation of ``h_0`` by 31, and probe ``i`` of an ``n``-bit filter is
    bit ``h_i % n``.

    The sequence is the same for every filter, so a point read computes it
    once and hands it to each candidate table's filter; it holds ``h_0`` (the
    base hash) at first and :meth:`BloomFilter.probe` extends it in place to
    as many values as the filter has probes."""
    return [base_hash(key)]


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
        at once, in key order.  Sorted neighbours mostly differ in their last
        byte only, so the FNV-1a state after ``key[:-1]`` is carried from one
        key to the next and the hash restarts at byte 0 only when that prefix
        changes — same hash, any keys in any order."""
        num_bits = self.num_bits
        probes = range(self.num_probes)
        bitmap = self._bitmap
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
                bitmap[h % num_bits] = 1
                h = (h + delta) & _MASK64

    def may_contain(self, key: bytes) -> bool:
        """False means definitely absent; True means probably present."""
        return self.probe(probe_sequence(key))

    def probe(self, sequence: list[int]) -> bool:
        """:meth:`may_contain` for a key whose :func:`probe_sequence` is
        ``sequence``, extended here if it is shorter than this filter's
        probe count: one byte load per probe, up to the first 0."""
        k = self.num_probes
        if len(sequence) < k:
            first = sequence[0]
            delta = ((first >> 33) | (first << 31)) & _MASK64
            h = sequence[-1]
            while len(sequence) < k:
                h = (h + delta) & _MASK64
                sequence.append(h)
        bitmap = self._bitmap
        num_bits = self.num_bits
        for h in sequence if len(sequence) == k else sequence[:k]:
            if not bitmap[h % num_bits]:
                return False
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
