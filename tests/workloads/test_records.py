"""Unit tests for record/key generation."""

import pytest

from repro.sim.rng import DeterministicRng
from repro.workloads.records import KeySpace, encode_key, record_value
from tests.workloads import decode_key


def test_key_roundtrip():
    assert decode_key(encode_key(12345)) == 12345


def test_keys_order_preserving():
    keys = [encode_key(i) for i in range(1000)]
    assert keys == sorted(keys)


def test_key_size():
    assert len(encode_key(0)) == 8
    assert len(encode_key(2**40)) == 8


def test_record_value_size():
    rng = DeterministicRng(1)
    assert len(record_value(rng, 128)) == 120
    assert len(record_value(rng, 16)) == 8


def test_record_value_half_zero(rng):
    value = record_value(rng, 128)
    zeros = value.count(0)
    # The trailing half is all zeros; the random half has a few zero bytes.
    assert zeros >= 60
    assert value[-60:] == bytes(60)


def test_record_value_random_half_differs(rng):
    a = record_value(rng, 128)
    b = record_value(rng, 128)
    assert a[:60] != b[:60]


def test_record_too_small_rejected(rng):
    with pytest.raises(ValueError):
        record_value(rng, 8)


def test_keyspace_basics():
    ks = KeySpace(1000, 128)
    assert ks.dataset_bytes == 128_000
    assert ks.value_size == 120
    assert ks.key(0) == encode_key(0)
    with pytest.raises(IndexError):
        ks.key(1000)


def test_keyspace_validation():
    with pytest.raises(ValueError):
        KeySpace(0, 128)
    with pytest.raises(ValueError):
        KeySpace(10, 8)


def test_keyspace_from_dataset():
    ks = KeySpace.from_dataset(150 << 20, 128)
    assert ks.n_records == (150 << 20) // 128
