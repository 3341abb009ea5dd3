"""Unit tests for the bloom filter."""

import pytest

from repro.lsm.bloom import BloomFilter


def keys(start, n):
    return [i.to_bytes(8, "big") for i in range(start, start + n)]


def test_validation():
    with pytest.raises(ValueError):
        BloomFilter(-1)
    with pytest.raises(ValueError):
        BloomFilter(10, bits_per_key=0)


def test_no_false_negatives():
    filt = BloomFilter(1000, bits_per_key=10)
    for k in keys(0, 1000):
        filt.add(k)
    assert all(filt.may_contain(k) for k in keys(0, 1000))


def test_false_positive_rate_roughly_one_percent():
    """10 bits/key gives ~0.8-1.2% false positives (RocksDB's quoted rate)."""
    filt = BloomFilter(10_000, bits_per_key=10)
    for k in keys(0, 10_000):
        filt.add(k)
    false_positives = sum(filt.may_contain(k) for k in keys(1_000_000, 20_000))
    rate = false_positives / 20_000
    assert rate < 0.03


def test_fewer_bits_higher_fp_rate():
    dense = BloomFilter(5000, bits_per_key=10)
    sparse = BloomFilter(5000, bits_per_key=2)
    for k in keys(0, 5000):
        dense.add(k)
        sparse.add(k)
    probe = keys(1_000_000, 5000)
    fp_dense = sum(dense.may_contain(k) for k in probe)
    fp_sparse = sum(sparse.may_contain(k) for k in probe)
    assert fp_sparse > fp_dense * 3


def test_probe_count_follows_bits_per_key():
    assert BloomFilter(10, bits_per_key=10).num_probes == 7
    assert BloomFilter(10, bits_per_key=4).num_probes == 3


def test_empty_filter_rejects_everything():
    filt = BloomFilter(100)
    assert not filt.may_contain(b"anything")


def test_serialization_roundtrip():
    filt = BloomFilter(500, bits_per_key=10)
    for k in keys(0, 500):
        filt.add(k)
    restored = BloomFilter.from_bytes(filt.to_bytes())
    assert restored.num_bits == filt.num_bits
    assert restored.num_probes == filt.num_probes
    assert all(restored.may_contain(k) for k in keys(0, 500))


def test_serialized_size_matches():
    filt = BloomFilter(100)
    assert len(filt.to_bytes()) == filt.serialized_size()


def _reference_bits(filt: BloomFilter, key_list) -> bytes:
    """The filter's construction written out plainly: 64-bit FNV-1a, then
    Kirsch-Mitzenmacher double hashing."""
    mask = 0xFFFFFFFFFFFFFFFF
    bits = bytearray(len(filt.to_bytes()) - 10)
    for k in key_list:
        h = 0xCBF29CE484222325
        for byte in k:
            h ^= byte
            h = (h * 0x100000001B3) & mask
        delta = ((h >> 33) | (h << 31)) & mask
        for _ in range(filt.num_probes):
            pos = h % filt.num_bits
            bits[pos // 8] |= 1 << (pos % 8)
            h = (h + delta) & mask
    return bytes(bits)


def test_add_all_sets_the_same_bits_as_sequential_add():
    key_list = keys(0, 700) + [b"", b"\xff" * 40]
    bulk = BloomFilter(len(key_list))
    bulk.add_all(key_list)
    single = BloomFilter(len(key_list))
    for k in key_list:
        single.add(k)
    assert bulk.to_bytes() == single.to_bytes()
    assert bulk.to_bytes()[10:] == _reference_bits(bulk, key_list)
    assert all(bulk.may_contain(k) for k in key_list)
