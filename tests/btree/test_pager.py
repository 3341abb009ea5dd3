"""Unit tests for the page-atomicity strategies: the three of
:mod:`repro.btree.pager` and the B⁻-tree's delta pager, which every
``bminus*`` system runs on."""

import pytest

from repro.btree.page import Page
from repro.btree.pager import (
    DeterministicShadowPager,
    JournalPager,
    ShadowTablePager,
    make_pager,
)
from repro.core.delta import DeltaShadowPager
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import ConfigError, RecoveryError

PAGE_SIZE = 8192
MAX_PAGES = 32


@pytest.fixture(params=["journal", "shadow-table", "det-shadow", "delta-shadow"])
def pager(request):
    device = CompressedBlockDevice(num_blocks=4096)
    if request.param == "delta-shadow":
        return DeltaShadowPager(device, PAGE_SIZE, MAX_PAGES, region_start=1)
    return make_pager(request.param, device, PAGE_SIZE, MAX_PAGES, region_start=1)


def make_page(pager, fill=b"payload"):
    page = Page(PAGE_SIZE, pager.allocate_page_id())
    offset = page.allocate_cell(len(fill))
    page.write_cell(offset, fill)
    page.insert_slot(0, offset)
    return page


# ------------------------------------------------------------------ generic


def test_unknown_strategy_rejected():
    device = CompressedBlockDevice(num_blocks=4096)
    with pytest.raises(ConfigError):
        make_pager("nope", device, PAGE_SIZE, MAX_PAGES, 1)


def test_misaligned_page_size_rejected():
    device = CompressedBlockDevice(num_blocks=4096)
    with pytest.raises(ConfigError):
        JournalPager(device, 5000, MAX_PAGES, 1)


def test_device_too_small_rejected():
    device = CompressedBlockDevice(num_blocks=8)
    with pytest.raises(ConfigError):
        DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)


def test_allocate_ids_monotone_then_reused(pager):
    a = pager.allocate_page_id()
    b = pager.allocate_page_id()
    assert b == a + 1
    # Frees are deferred: the id becomes reusable only once the engine
    # applies them at a checkpoint (after the unlinking parents are durable).
    pager.free_page(a)
    pager.apply_deferred_frees()
    assert pager.allocate_page_id() == a


def test_page_budget_enforced(pager):
    for _ in range(MAX_PAGES):
        pager.allocate_page_id()
    with pytest.raises(ConfigError):
        pager.allocate_page_id()


def test_flush_then_load_roundtrip(pager):
    page = make_page(pager)
    pager.flush(page)
    loaded = pager.load(page.page_id)
    assert loaded.image() == page.image()


def test_flush_clears_dirty_and_never_flushed(pager):
    page = make_page(pager)
    assert page.page_id in pager.never_flushed
    pager.flush(page)
    assert not page.dirty_grains
    assert page.page_id not in pager.never_flushed


def test_repeated_flushes_latest_wins(pager):
    page = make_page(pager)
    for lsn in range(1, 6):
        page.lsn = lsn
        pager.flush(page)
    assert pager.load(page.page_id).lsn == 5


def test_allocator_state_roundtrip(pager):
    a = pager.allocate_page_id()
    pager.allocate_page_id()
    pager.free_page(a)
    pager.apply_deferred_frees()
    next_id, free = pager.allocator_state()
    fresh = type(pager)(CompressedBlockDevice(num_blocks=4096), PAGE_SIZE, MAX_PAGES, 1)
    fresh.restore_allocator_state(next_id, free)
    assert fresh.allocate_page_id() == a


def test_page_write_accounting(pager):
    page = make_page(pager)
    pager.flush(page)
    assert pager.stats.page_flushes == 1
    assert pager.stats.page_logical_bytes == PAGE_SIZE
    assert 0 < pager.stats.page_physical_bytes < PAGE_SIZE


# ------------------------------------------------------ extra-write accounting


def test_journal_doubles_write_volume():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = JournalPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    pager.flush(page)
    assert pager.stats.extra_logical_bytes == PAGE_SIZE  # the journal copy


def test_shadow_table_pays_one_table_block_per_flush():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = ShadowTablePager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    pager.flush(page)
    pager.flush(page)
    assert pager.stats.extra_logical_bytes == 2 * BLOCK_SIZE


def test_det_shadow_has_zero_extra_writes():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    for _ in range(5):
        pager.flush(page)
    assert pager.stats.extra_logical_bytes == 0
    assert pager.stats.extra_physical_bytes == 0


def test_det_shadow_trims_stale_slot():
    """Only one slot's worth of physical space is ever live per page."""
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager, fill=b"z" * 2000)
    pager.flush(page)
    used_once = device.physical_bytes_used
    for _ in range(6):
        pager.flush(page)
    assert device.physical_bytes_used == pytest.approx(used_once, rel=0.05)


def test_det_shadow_alternates_slots():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    pager.flush(page)
    first = pager._valid_slot[page.page_id]
    pager.flush(page)
    assert pager._valid_slot[page.page_id] == 1 - first


# ----------------------------------------------------------- crash arbitration


def test_det_shadow_rebuilds_bitmap_after_restart():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    page.lsn = 10
    pager.flush(page)
    page.lsn = 20
    pager.flush(page)
    device.flush()
    restarted = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    loaded = restarted.load(page.page_id)
    assert loaded.lsn == 20


def test_det_shadow_survives_torn_second_flush():
    """Crash mid-way through writing the shadow slot: the old image wins."""
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    page.lsn = 10
    pager.flush(page)
    device.flush()
    target = 1 - pager._valid_slot[page.page_id]
    target_lba = pager._slot_lba(page.page_id, target)
    page.lsn = 20
    page.finalize()
    # Only the first 4KB of the 8KB shadow write lands before the crash.
    device.write_blocks(target_lba, page.image())
    device.simulate_crash(survives=lambda lba: lba == target_lba)
    restarted = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    loaded = restarted.load(page.page_id)
    assert loaded.lsn == 10  # torn lsn-20 image rejected by checksum


def test_det_shadow_both_slots_valid_higher_lsn_wins():
    """Crash after shadow write durable but before the TRIM: LSN arbitration."""
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    page.lsn = 10
    pager.flush(page)
    valid = pager._valid_slot[page.page_id]
    page.lsn = 20
    page.finalize()
    device.write_blocks(pager._slot_lba(page.page_id, 1 - valid), page.image())
    device.flush()  # both slots now hold valid images, no TRIM happened
    restarted = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    assert restarted.load(page.page_id).lsn == 20


def test_det_shadow_load_unwritten_page_fails():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = DeterministicShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
    pager.allocate_page_id()
    with pytest.raises(RecoveryError):
        pager.load(0)


def test_journal_repairs_torn_in_place_write():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = JournalPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    page.lsn = 5
    pager.flush(page)
    # Second flush: journal write + sync succeed, in-place write is torn.
    page.lsn = 6
    image = pager._finalize(page)
    device.write_blocks(pager._journal_lba(pager._journal_cursor), image)
    device.flush()
    lba = pager._page_lba(page.page_id)
    device.write_blocks(lba, image)
    device.simulate_crash(survives=lambda b: b == lba)  # half the page lands
    restarted = JournalPager(device, PAGE_SIZE, MAX_PAGES, 1)
    restarted.recover()
    assert restarted.fault_stats.journal_repairs >= 1
    assert restarted.load(page.page_id).lsn == 6


def test_journal_recovery_keeps_newer_in_place_image():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = JournalPager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    page.lsn = 5
    pager.flush(page)
    page.lsn = 9
    pager.flush(page)
    device.flush()
    restarted = JournalPager(device, PAGE_SIZE, MAX_PAGES, 1)
    restarted.recover()
    assert restarted.load(page.page_id).lsn == 9


def test_shadow_table_rebuild_after_restart():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = ShadowTablePager(device, PAGE_SIZE, MAX_PAGES, 1)
    pages = [make_page(pager) for _ in range(3)]
    for i, page in enumerate(pages):
        page.lsn = i + 1
        pager.flush(page)
    device.flush()
    restarted = ShadowTablePager(device, PAGE_SIZE, MAX_PAGES, 1)
    restarted.recover()
    for i, page in enumerate(pages):
        assert restarted.load(page.page_id).lsn == i + 1


def test_shadow_table_crash_before_table_persist_keeps_old_image():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = ShadowTablePager(device, PAGE_SIZE, MAX_PAGES, 1)
    page = make_page(pager)
    page.lsn = 5
    pager.flush(page)
    device.flush()
    # New image written to a fresh slot, but table persist lost in the crash.
    new_slot = pager._free_slots[-1]
    page.lsn = 6
    device.write_blocks(pager._slot_lba(new_slot), pager._finalize(page))
    device.simulate_crash()
    restarted = ShadowTablePager(device, PAGE_SIZE, MAX_PAGES, 1)
    restarted.recover()
    assert restarted.load(page.page_id).lsn == 5


def test_shadow_table_load_unmapped_page_fails():
    device = CompressedBlockDevice(num_blocks=4096)
    pager = ShadowTablePager(device, PAGE_SIZE, MAX_PAGES, 1)
    with pytest.raises(RecoveryError):
        pager.load(0)


def test_free_page_releases_physical_space(pager):
    page = make_page(pager, fill=b"q" * 3000)
    pager.flush(page)
    pager.device.flush()
    before = pager.device.physical_bytes_used
    pager.free_page(page.page_id)
    # Deferred until checkpoint: no space reclaimed yet.
    assert pager.device.physical_bytes_used == before
    assert pager.apply_deferred_frees() == [page.page_id]
    assert pager.device.physical_bytes_used < before
