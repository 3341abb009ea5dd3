"""Unit tests for workload op streams."""

import itertools

import pytest

from repro.sim.rng import DeterministicRng
from repro.workloads.generator import (
    Op,
    OpKind,
    mixed_ops,
    point_read_ops,
    random_write_ops,
    range_scan_ops,
)
from repro.workloads.records import KeySpace, record_value
from tests.workloads import decode_key


@pytest.fixture
def keyspace():
    return KeySpace(500, 128)


def take(stream, n):
    return list(itertools.islice(stream, n))


def test_write_ops_shape(keyspace, rng):
    ops = take(random_write_ops(keyspace, rng), 50)
    assert all(op.kind == OpKind.PUT for op in ops)
    assert all(len(op.value) == 120 for op in ops)
    assert all(0 <= decode_key(op.key) < 500 for op in ops)


def test_write_ops_deterministic(keyspace):
    a = take(random_write_ops(keyspace, DeterministicRng(5)), 20)
    b = take(random_write_ops(keyspace, DeterministicRng(5)), 20)
    assert a == b


def test_read_ops_shape(keyspace, rng):
    ops = take(point_read_ops(keyspace, rng), 50)
    assert all(op.kind == OpKind.READ and op.value is None for op in ops)


def test_scan_ops_shape(keyspace, rng):
    ops = take(range_scan_ops(keyspace, rng, scan_length=100), 50)
    assert all(op.kind == OpKind.SCAN and op.scan_length == 100 for op in ops)
    # Scan starts leave room for the scan inside the key space.
    assert all(decode_key(op.key) <= 500 - 100 for op in ops)


def test_scan_length_validation(keyspace, rng):
    # Raised by the call itself, before any op is drawn.
    with pytest.raises(ValueError):
        range_scan_ops(keyspace, rng, scan_length=0)


def test_mixed_ops_fractions(keyspace, rng):
    ops = take(mixed_ops(keyspace, rng, write_fraction=0.5, scan_fraction=0.2), 2000)
    kinds = [op.kind for op in ops]
    writes = kinds.count(OpKind.PUT) / len(kinds)
    scans = kinds.count(OpKind.SCAN) / len(kinds)
    assert 0.44 < writes < 0.56
    assert 0.15 < scans < 0.25


def test_mixed_ops_validation(keyspace, rng):
    with pytest.raises(ValueError):
        mixed_ops(keyspace, rng, write_fraction=0.8, scan_fraction=0.4)
    with pytest.raises(ValueError):
        mixed_ops(keyspace, rng, write_fraction=-0.1)
    with pytest.raises(ValueError):
        mixed_ops(keyspace, rng, scan_length=0)


def test_ops_are_immutable_tuples(keyspace, rng):
    op = next(random_write_ops(keyspace, rng))
    assert op == (OpKind.PUT, op.key, op.value, 0)
    with pytest.raises(AttributeError):
        op.key = b"x"
    assert Op(OpKind.READ, b"k") == Op(OpKind.READ, b"k", None, 0)


def test_write_values_match_record_value(keyspace):
    """A write stream's value is the one ``record_value`` draws after the key."""
    rng = DeterministicRng(11)
    op = next(random_write_ops(keyspace, rng))
    replay = DeterministicRng(11)
    assert op.key == keyspace.key(replay.randrange(keyspace.n_records))
    assert op.value == record_value(replay, keyspace.record_size)
    assert rng.getstate() == replay.getstate()
