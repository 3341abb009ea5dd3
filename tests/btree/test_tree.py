"""Unit and property tests for the B+-tree over a real pager + buffer pool."""

import random
from bisect import bisect_left
from itertools import count

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.buffer_pool import BufferPool
from repro.btree.pager import make_pager
from repro.btree.tree import BTree
from repro.core.delta import DeltaShadowPager
from repro.csd.device import CompressedBlockDevice
from repro.errors import KeyNotFoundError, TreeError
from tests.btree.test_recovery_scrub import reopened_over_split_residue
from tests.fuzz import FUZZ_SEED, report_seed


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


class TreeRig:
    """A tree with its supporting cast, on a fresh compressing device."""

    def __init__(self, strategy="det-shadow", page_size=4096, cache_pages=64,
                 max_pages=512):
        self.device = CompressedBlockDevice(num_blocks=max_pages * 8 + 64)
        self.pager = make_pager(strategy, self.device, page_size, max_pages, 1)
        self.pool = BufferPool(cache_pages * page_size, page_size,
                               self.pager.load, self.pager.flush)
        self._lsn = 0
        self.tree = BTree(self.pool, self.pager, page_size, self._next_lsn)

    def _next_lsn(self) -> int:
        self._lsn += 1
        return self._lsn


@pytest.fixture
def rig():
    return TreeRig()


def test_empty_tree(rig):
    assert rig.tree.get(key(1)) is None
    assert rig.tree.scan(b"", 10) == []
    assert rig.tree.depth() == 1
    rig.tree.check_invariants()


def test_put_get_single(rig):
    rig.tree.put(key(1), b"one")
    assert rig.tree.get(key(1)) == b"one"


def test_put_returns_insert_vs_update(rig):
    assert rig.tree.put(key(1), b"a") is True
    assert rig.tree.put(key(1), b"b") is False
    assert rig.tree.get(key(1)) == b"b"


def test_empty_key_rejected(rig):
    with pytest.raises(TreeError):
        rig.tree.put(b"", b"v")


def test_oversized_record_rejected(rig):
    with pytest.raises(TreeError):
        rig.tree.put(key(1), b"x" * 4096)


def test_delete_missing_raises(rig):
    with pytest.raises(KeyNotFoundError):
        rig.tree.delete(key(404))


def test_splits_grow_depth(rig):
    for i in range(2000):
        rig.tree.put(key(i), b"v" * 320)
    assert rig.tree.depth() >= 3
    rig.tree.check_invariants()
    for i in range(2000):
        assert rig.tree.get(key(i)) == b"v" * 320


def test_sequential_and_reverse_inserts(rig):
    for i in range(500):
        rig.tree.put(key(i), b"f")
    for i in range(1000, 500, -1):
        rig.tree.put(key(i), b"r")
    rig.tree.check_invariants()
    assert rig.tree.count_records() == 1000


def test_random_inserts_all_found():
    rig = TreeRig()
    rng = random.Random(11)
    keys = rng.sample(range(100_000), 1500)
    for i in keys:
        rig.tree.put(key(i), str(i).encode())
    rig.tree.check_invariants()
    for i in keys:
        assert rig.tree.get(key(i)) == str(i).encode()


def test_scan_ordered_subset(rig):
    for i in range(0, 400, 2):
        rig.tree.put(key(i), bytes([i % 256]))
    got = rig.tree.scan(key(100), 20)
    assert [k for k, _ in got] == [key(i) for i in range(100, 140, 2)]


def test_scan_starting_between_keys(rig):
    for i in range(0, 100, 10):
        rig.tree.put(key(i), b"v")
    got = rig.tree.scan(key(15), 3)
    assert [k for k, _ in got] == [key(20), key(30), key(40)]


def test_scan_past_end(rig):
    rig.tree.put(key(1), b"v")
    assert rig.tree.scan(key(2), 5) == []


def test_scan_more_than_exists(rig):
    for i in range(5):
        rig.tree.put(key(i), b"v")
    assert len(rig.tree.scan(b"", 100)) == 5


def test_scan_across_many_leaves(rig):
    for i in range(3000):
        rig.tree.put(key(i), b"w" * 16)
    got = rig.tree.scan(key(1234), 500)
    assert [k for k, _ in got] == [key(i) for i in range(1234, 1734)]


def test_items_full_iteration(rig):
    inserted = {}
    rng = random.Random(3)
    for i in rng.sample(range(10_000), 800):
        inserted[key(i)] = str(i).encode()
        rig.tree.put(key(i), inserted[key(i)])
    assert dict(rig.tree.items()) == inserted
    assert [k for k, _ in rig.tree.items()] == sorted(inserted)


def test_delete_then_reinsert(rig):
    for i in range(100):
        rig.tree.put(key(i), b"v")
    for i in range(0, 100, 2):
        rig.tree.delete(key(i))
    for i in range(0, 100, 2):
        assert rig.tree.get(key(i)) is None
        assert rig.tree.get(key(i + 1)) == b"v"
    for i in range(0, 100, 2):
        rig.tree.put(key(i), b"w")
    rig.tree.check_invariants()
    assert rig.tree.count_records() == 100


def test_mass_delete_shrinks_tree(rig):
    for i in range(3000):
        rig.tree.put(key(i), b"v" * 320)
    deep = rig.tree.depth()
    assert deep >= 3
    for i in range(3000):
        rig.tree.delete(key(i))
    rig.tree.check_invariants()
    assert rig.tree.count_records() == 0
    assert rig.tree.depth() < deep  # empty-page removal collapsed the root


def test_delete_everything_then_reuse(rig):
    for i in range(1000):
        rig.tree.put(key(i), b"v" * 16)
    for i in range(1000):
        rig.tree.delete(key(i))
    for i in range(500):
        rig.tree.put(key(i), b"again")
    rig.tree.check_invariants()
    assert rig.tree.count_records() == 500


def test_updates_do_not_split(rig):
    for i in range(50):
        rig.tree.put(key(i), b"a" * 32)
    depth = rig.tree.depth()
    for _ in range(20):
        for i in range(50):
            rig.tree.put(key(i), b"b" * 32)
    assert rig.tree.depth() == depth


def test_tiny_cache_still_correct():
    """With an 8-frame cache over hundreds of pages, eviction churn must not
    corrupt anything (exercises load/flush round-trips through the pager)."""
    rig = TreeRig(cache_pages=1)  # floor of 8 frames
    rng = random.Random(5)
    inserted = {}
    for i in rng.sample(range(50_000), 1200):
        rig.tree.put(key(i), str(i).encode() * 3)
        inserted[key(i)] = str(i).encode() * 3
    assert rig.pool.stats.evictions > 100
    rig.tree.check_invariants()
    assert dict(rig.tree.items()) == inserted


@pytest.mark.parametrize("strategy", ["journal", "shadow-table", "det-shadow"])
def test_all_pagers_support_the_tree(strategy):
    rig = TreeRig(strategy=strategy, cache_pages=4)
    for i in range(600):
        rig.tree.put(key(i), b"p" * 24)
    rig.tree.check_invariants()
    assert rig.tree.count_records() == 600


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_tree_matches_dict(data):
    rig = TreeRig(cache_pages=4)
    reference: dict[bytes, bytes] = {}
    universe = [key(i) for i in range(300)]
    for _ in range(data.draw(st.integers(50, 300))):
        action = data.draw(st.sampled_from(["put", "put", "put", "delete", "get", "scan"]))
        k = data.draw(st.sampled_from(universe))
        if action == "put":
            v = data.draw(st.binary(min_size=1, max_size=48))
            rig.tree.put(k, v)
            reference[k] = v
        elif action == "delete":
            if k in reference:
                rig.tree.delete(k)
                del reference[k]
        elif action == "get":
            assert rig.tree.get(k) == reference.get(k)
        else:
            n = data.draw(st.integers(1, 20))
            expect = sorted(kk for kk in reference if kk >= k)[:n]
            assert [kk for kk, _ in rig.tree.scan(k, n)] == expect
    rig.tree.check_invariants()
    assert dict(rig.tree.items()) == reference


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_property_interleaved_workload_with_eviction(seed):
    rng = random.Random(seed)
    rig = TreeRig(cache_pages=2, page_size=4096)
    reference = {}
    for _ in range(600):
        i = rng.randrange(2000)
        if rng.random() < 0.2 and reference:
            k = rng.choice(list(reference))
            rig.tree.delete(k)
            del reference[k]
        else:
            v = bytes(rng.randrange(256) for _ in range(rng.randrange(8, 64)))
            rig.tree.put(key(i), v)
            reference[key(i)] = v
    rig.tree.check_invariants()
    assert dict(rig.tree.items()) == reference


# ------------------------------------------------ scans against a sorted model


def _scan_starts(keys: list, rng: random.Random) -> list:
    """Scan starts before the first key, between keys, on keys and past the
    last key (keys are 8-byte big-endian, so ``k + b"\0"`` lies between
    ``k`` and its successor)."""
    starts = [b"", b"\0", keys[-1] + b"\0", key(2**63)]
    for k in rng.sample(keys, min(12, len(keys))):
        starts += [k, k + b"\0"]
    return starts


def _assert_scans_match(scan, items, model: dict, rng: random.Random) -> None:
    """``scan(start, n)`` and ``items()`` equal the sorted model; the
    counts run from one record to past the end, and 120 records (over 4KB
    leaves of records over 100 bytes) span at least 3 leaves."""
    keys = sorted(model)
    for start in _scan_starts(keys, rng):
        first = bisect_left(keys, start)
        for n in (1, 7, 120, len(keys) + 1):
            want = [(k, model[k]) for k in keys[first : first + n]]
            assert scan(start, n) == want, (start, n)
    assert list(items()) == [(k, model[k]) for k in keys]


SCAN_SEEDS = [5, 6, 7] + ([FUZZ_SEED] if FUZZ_SEED is not None else [])


@pytest.mark.parametrize("seed", SCAN_SEEDS)
def test_property_scans_match_sorted_model(seed):
    """Random puts and deletes through an 8-frame pool over the delta
    pager (so scans meet evicted, reloaded and held leaves), then every
    scan and a full ``items()`` walk against a sorted dict model."""
    with report_seed(seed):
        page_size, max_pages = 4096, 512
        device = CompressedBlockDevice(num_blocks=max_pages * 3 + 8)
        pager = DeltaShadowPager(device, page_size, max_pages, 1)
        pool = BufferPool(8 * page_size, page_size, pager.load, pager.flush,
                          pager.keep_evicted)
        lsns = count(1)
        tree = BTree(pool, pager, page_size, lambda: next(lsns))
        rng = random.Random(seed)
        model = {}
        for _ in range(3000):
            k = key(rng.randrange(1500))
            if model and rng.random() < 0.25:
                k = rng.choice(sorted(model))
                tree.delete(k)
                del model[k]
            else:
                model[k] = rng.randbytes(rng.randrange(100, 140))
                tree.put(k, model[k])
        tree.check_invariants()
        _assert_scans_match(tree.scan, tree.items, model, rng)


def test_scans_hide_split_residue_like_the_model():
    """The stale split residue a torn crash leaves behind (see
    ``reopened_over_split_residue``) never shows in a scan."""
    engine, model = reopened_over_split_residue()
    _assert_scans_match(engine.scan, engine.items, model, random.Random(3))
