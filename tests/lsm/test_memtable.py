"""Unit and property tests for the memtable (a dict plus a sorted key list)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.memtable import MemTable


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def test_empty():
    table = MemTable()
    assert len(table) == 0
    assert table.get(key(1)) == (False, None)
    assert list(table.items()) == []
    assert table.min_key() is None
    assert table.max_key() is None


def test_put_get():
    table = MemTable()
    table.put(key(1), b"one")
    assert table.get(key(1)) == (True, b"one")
    assert len(table) == 1


def test_empty_key_rejected():
    with pytest.raises(ValueError):
        MemTable().put(b"", b"v")


def test_update_in_place():
    table = MemTable()
    table.put(key(1), b"a")
    table.put(key(1), b"bb")
    assert table.get(key(1)) == (True, b"bb")
    assert len(table) == 1


def test_tombstone():
    table = MemTable()
    table.put(key(1), b"v")
    table.delete(key(1))
    assert table.get(key(1)) == (True, None)  # found, but a tombstone
    assert len(table) == 1  # tombstones occupy an entry


def test_blind_tombstone():
    table = MemTable()
    table.delete(key(9))
    assert table.get(key(9)) == (True, None)


def test_items_sorted():
    table = MemTable()
    for i in [5, 1, 9, 3, 7]:
        table.put(key(i), bytes([i]))
    assert [k for k, _ in table.items()] == [key(i) for i in [1, 3, 5, 7, 9]]


def test_items_from():
    table = MemTable()
    for i in range(0, 20, 2):
        table.put(key(i), b"v")
    assert [k for k, _ in table.items_from(key(7))] == [key(i) for i in range(8, 20, 2)]


def test_items_from_walks_the_keys_as_of_the_call():
    """A put behind or ahead of an open cursor neither repeats nor inserts a
    key; an update ahead of it is read when the cursor reaches the key."""
    table = MemTable()
    for i in range(0, 10, 2):
        table.put(key(i), b"old")
    cursor = table.items_from(key(3))
    assert next(cursor) == (key(4), b"old")
    table.put(key(1), b"new")
    table.put(key(5), b"new")
    table.put(key(8), b"updated")
    assert list(cursor) == [(key(6), b"old"), (key(8), b"updated")]
    assert [k for k, _ in table.items()] == [key(i) for i in (0, 1, 2, 4, 5, 6, 8)]


def test_min_max_keys():
    table = MemTable()
    for i in [4, 2, 8]:
        table.put(key(i), b"v")
    assert table.min_key() == key(2)
    assert table.max_key() == key(8)


def test_approximate_bytes_grows_and_adjusts():
    table = MemTable()
    table.put(key(1), b"x" * 100)
    first = table.approximate_bytes
    assert first >= 108
    table.put(key(1), b"x" * 10)  # shrinking update adjusts accounting
    assert table.approximate_bytes == first - 90


def test_large_insert_order_independent():
    import random

    rng = random.Random(42)
    table = MemTable()
    keys = rng.sample(range(100_000), 5000)
    for i in keys:
        table.put(key(i), str(i).encode())
    assert len(table) == 5000
    assert [k for k, _ in table.items()] == [key(i) for i in sorted(keys)]


@settings(max_examples=30, deadline=None)
@given(st.data())
def test_property_memtable_matches_dict(data):
    table = MemTable()
    reference: dict[bytes, bytes] = {}
    universe = [key(i) for i in range(64)]
    for _ in range(data.draw(st.integers(1, 150))):
        k = data.draw(st.sampled_from(universe))
        if data.draw(st.booleans()):
            v = data.draw(st.binary(max_size=20))
            table.put(k, v)
            reference[k] = v
        else:
            table.delete(k)
            reference[k] = None
    for k in universe:
        found, value = table.get(k)
        assert found == (k in reference)
        if found:
            assert value == reference[k]
    assert [k for k, _ in table.items()] == sorted(reference)
