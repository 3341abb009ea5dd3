"""Unit tests for the buffer pool."""

import pytest

from repro.btree.buffer_pool import BufferPool
from repro.btree.page import Page
from repro.errors import TreeError


class FakeBackend:
    """Dict-backed loader/flusher standing in for a pager."""

    def __init__(self, page_size=4096):
        self.page_size = page_size
        self.store: dict[int, bytes] = {}
        self.loads = 0
        self.flushes: list[int] = []

    def load(self, page_id: int) -> Page:
        self.loads += 1
        return Page.from_bytes(self.store[page_id], verify=False)

    def flush(self, page: Page) -> None:
        self.flushes.append(page.page_id)
        self.store[page.page_id] = page.image()

    def seed(self, page_id: int) -> None:
        page = Page(self.page_size, page_id)
        self.store[page_id] = page.image()


@pytest.fixture
def backend():
    backend = FakeBackend()
    for pid in range(64):
        backend.seed(pid)
    return backend


def make_pool(backend, frames=8):
    return BufferPool(frames * backend.page_size, backend.page_size,
                      backend.load, backend.flush)


def test_capacity_validation(backend):
    with pytest.raises(ValueError):
        BufferPool(0, 4096, backend.load, backend.flush)


def test_minimum_frame_floor(backend):
    pool = BufferPool(1, 4096, backend.load, backend.flush)
    assert pool.capacity_frames == 8


def test_miss_loads_then_hit(backend):
    pool = make_pool(backend)
    pool.get(3)
    assert backend.loads == 1
    pool.get(3)
    assert backend.loads == 1
    assert pool.stats.hits == 1
    assert pool.stats.misses == 1


def test_loader_id_mismatch_detected(backend):
    pool = make_pool(backend)
    backend.store[5] = Page(4096, page_id=99).image()
    with pytest.raises(TreeError):
        pool.get(5)


def test_lru_eviction_order(backend):
    pool = make_pool(backend, frames=8)
    for pid in range(8):
        pool.get(pid)
    pool.get(0)  # refresh page 0
    pool.get(8)  # evicts page 1 (LRU), not page 0
    assert 0 in pool
    assert 1 not in pool
    assert pool.stats.evictions == 1


def test_dirty_eviction_flushes(backend):
    pool = make_pool(backend, frames=8)
    pool.get(0)
    pool.mark_dirty(0)
    for pid in range(1, 9):
        pool.get(pid)
    assert backend.flushes == [0]
    assert pool.stats.dirty_evictions == 1


def test_clean_eviction_does_not_flush(backend):
    pool = make_pool(backend, frames=8)
    for pid in range(9):
        pool.get(pid)
    assert backend.flushes == []


def test_every_victim_leaves_the_pool_into_the_evicted_callback_after_write_back(backend):
    events = []
    flush = backend.flush
    backend.flush = lambda page: (events.append(("flush", page.page_id)), flush(page))
    pool = BufferPool(8 * backend.page_size, backend.page_size, backend.load,
                      backend.flush, evicted=lambda page: events.append(
                          ("evicted", page.page_id, page.page_id in pool)))
    pool.get(0)
    pool.mark_dirty(0)
    for pid in range(1, 10):
        pool.get(pid)
    # Page 0 was written back first, then handed over; page 1 left clean.
    assert events == [("flush", 0), ("evicted", 0, False), ("evicted", 1, False)]


def test_a_victim_whose_write_back_fails_stays_in_the_pool(backend):
    handed = []

    def failing(page):
        raise TreeError("write-back failed")

    pool = BufferPool(8 * backend.page_size, backend.page_size, backend.load,
                      failing, evicted=handed.append)
    pool.get(0)
    pool.mark_dirty(0)
    for pid in range(1, 8):
        pool.get(pid)
    with pytest.raises(TreeError):
        pool.get(8)
    assert 0 in pool and handed == []


def test_pinned_pages_survive_eviction(backend):
    pool = make_pool(backend, frames=8)
    pool.get(0, pin=True)
    for pid in range(1, 12):
        pool.get(pid)
    assert 0 in pool
    pool.unpin(0)


def test_all_pinned_overshoots_gracefully(backend):
    pool = make_pool(backend, frames=8)
    for pid in range(10):
        pool.get(pid, pin=True)
    assert len(pool) == 10  # over capacity, but nothing evictable
    for pid in range(10):
        pool.unpin(pid)


def test_unbalanced_unpin_rejected(backend):
    pool = make_pool(backend)
    pool.get(0)
    with pytest.raises(TreeError):
        pool.unpin(0)


def test_mark_dirty_requires_residency(backend):
    pool = make_pool(backend)
    with pytest.raises(TreeError):
        pool.mark_dirty(42)


def test_add_new_registers_dirty(backend):
    pool = make_pool(backend)
    page = Page(4096, page_id=100)
    pool.add_new(page)
    assert pool.dirty_page_ids() == [100]


def test_add_new_duplicate_rejected(backend):
    pool = make_pool(backend)
    pool.add_new(Page(4096, page_id=100))
    with pytest.raises(TreeError):
        pool.add_new(Page(4096, page_id=100))


def test_flush_all_writes_every_dirty_page(backend):
    pool = make_pool(backend, frames=8)
    for pid in range(4):
        pool.get(pid)
        pool.mark_dirty(pid)
    flushed = pool.flush_all()
    assert flushed == 4
    assert sorted(backend.flushes) == [0, 1, 2, 3]
    assert pool.dirty_page_ids() == []


def test_flush_page_is_idempotent(backend):
    pool = make_pool(backend)
    pool.get(0)
    pool.mark_dirty(0)
    pool.flush_page(0)
    pool.flush_page(0)
    assert backend.flushes == [0]


def test_drop_discards_without_flush(backend):
    pool = make_pool(backend)
    pool.get(0)
    pool.mark_dirty(0)
    pool.drop(0)
    assert 0 not in pool
    assert backend.flushes == []


def test_drop_pinned_rejected(backend):
    pool = make_pool(backend)
    pool.get(0, pin=True)
    with pytest.raises(TreeError):
        pool.drop(0)
    pool.unpin(0)


def test_clear_models_host_crash(backend):
    pool = make_pool(backend)
    pool.get(0)
    pool.mark_dirty(0)
    pool.clear()
    assert len(pool) == 0
    assert backend.flushes == []


def test_hit_ratio(backend):
    pool = make_pool(backend)
    pool.get(0)
    pool.get(0)
    pool.get(0)
    assert pool.stats.hit_ratio == pytest.approx(2 / 3)
