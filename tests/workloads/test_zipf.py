"""Tests for the Zipfian workload extension."""

import itertools
from collections import Counter

import pytest

from repro.sim.rng import DeterministicRng
from repro.workloads.records import KeySpace
from repro.workloads.zipf import (
    ZipfGenerator,
    scattered_zipfian_write_ops,
    zipfian_write_ops,
)
from tests.workloads import decode_key


def test_parameter_validation():
    with pytest.raises(ValueError):
        ZipfGenerator(0)
    with pytest.raises(ValueError):
        ZipfGenerator(10, theta=1.0)
    with pytest.raises(ValueError):
        ZipfGenerator(10, theta=-0.1)


def test_samples_in_range():
    zipf = ZipfGenerator(1000, 0.99)
    rng = DeterministicRng(1)
    for _ in range(2000):
        assert 0 <= zipf.sample(rng) < 1000


class _LargestDraw:
    """An RNG stand-in whose every ``random()`` is the largest float below 1."""

    def random(self):
        return 1.0 - 2.0**-53


def test_sample_clamps_a_draw_that_rounds_up_to_n():
    # With eta < 0.5 the analytic formula rounds the largest draw up to
    # exactly 1.0, i.e. rank n; the sample is the coldest rank instead.
    zipf = ZipfGenerator(1000, 0.99)
    assert zipf._eta < 0.5
    assert zipf.sample(_LargestDraw()) == 999
    assert next(zipf.ranks(_LargestDraw())) == 999


def test_stream_arguments_checked_at_the_call():
    keyspace = KeySpace(100, 64)
    for stream in (zipfian_write_ops, scattered_zipfian_write_ops):
        with pytest.raises(ValueError):
            stream(keyspace, DeterministicRng(1), theta=1.0)


def test_skew_concentrates_on_head():
    zipf = ZipfGenerator(10_000, 0.99)
    rng = DeterministicRng(2)
    draws = Counter(zipf.sample(rng) for _ in range(20_000))
    hot_mass = sum(v for k, v in draws.items() if k < 100) / 20_000
    # YCSB zipf(0.99) puts well over a third of the mass on the top 1%.
    assert hot_mass > 0.35
    assert draws[0] > draws.get(5000, 0)


def test_theta_zero_is_nearly_uniform():
    zipf = ZipfGenerator(1000, 0.0)
    rng = DeterministicRng(3)
    draws = Counter(zipf.sample(rng) for _ in range(30_000))
    hot_mass = sum(v for k, v in draws.items() if k < 10) / 30_000
    assert hot_mass < 0.05  # ~1% expected under uniform


def test_higher_theta_more_skew():
    rng_a, rng_b = DeterministicRng(4), DeterministicRng(4)
    mild_zipf, harsh_zipf = ZipfGenerator(5000, 0.5), ZipfGenerator(5000, 0.95)
    mild = Counter(mild_zipf.sample(rng_a) for _ in range(10_000))
    harsh = Counter(harsh_zipf.sample(rng_b) for _ in range(10_000))
    assert harsh[0] > 2 * mild[0]


def test_head_mass_monotone():
    zipf = ZipfGenerator(1000, 0.9)
    assert 0 < zipf.head_mass(1) < zipf.head_mass(10) < zipf.head_mass(1000) <= 1.0001


def test_zipfian_write_ops_shape():
    keyspace = KeySpace(500, 128)
    ops = list(itertools.islice(
        zipfian_write_ops(keyspace, DeterministicRng(5)), 200))
    assert all(0 <= decode_key(op.key) < 500 for op in ops)
    assert all(len(op.value) == 120 for op in ops)


def test_scattered_variant_spreads_hot_keys():
    keyspace = KeySpace(10_000, 128)
    clustered = Counter(
        decode_key(op.key) for op in itertools.islice(
            zipfian_write_ops(keyspace, DeterministicRng(6)), 5000))
    scattered = Counter(
        decode_key(op.key) for op in itertools.islice(
            scattered_zipfian_write_ops(keyspace, DeterministicRng(6)), 5000))
    # Same skew (top key equally hot)...
    assert abs(max(clustered.values()) - max(scattered.values())) < 0.25 * max(
        clustered.values())
    # ...but the clustered variant's hot keys sit in the low key range while
    # the scattered variant's do not.
    hot_clustered = sorted(clustered, key=clustered.get, reverse=True)[:10]
    hot_scattered = sorted(scattered, key=scattered.get, reverse=True)[:10]
    assert max(hot_clustered) < 100
    assert max(hot_scattered) > 1000


def test_deterministic_streams():
    keyspace = KeySpace(100, 64)
    a = list(itertools.islice(zipfian_write_ops(keyspace, DeterministicRng(7)), 50))
    b = list(itertools.islice(zipfian_write_ops(keyspace, DeterministicRng(7)), 50))
    assert a == b
