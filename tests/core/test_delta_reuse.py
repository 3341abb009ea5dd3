"""Tests for the delta pager's reuse of a page's kept read.

A full-path load that writes nothing keeps what it read, and a flip or a
delta flush keeps what it wrote; once the pool evicts the page into that
entry, a later load whose device read returns exactly the kept bytes hands
the page back without the CRC passes and the delta decode.  A load has no
other way round the full path: an entry with no page in it costs the same
device read and runs the full path.  These tests pin that the reuse is
invisible: the same page, the same pager state, the same device commands
and fault counters as the full path, under faults too; that a flip and a
delta flush send the next load of an evicted page down the reuse path; and
that a load which rewrote part of the region (a read-repair, a delta scrub)
or a delta flush that would not rebuild the page keeps nothing, so the next
load takes the full path.
"""

import random
import zlib

import pytest

from repro.btree.page import Page
from repro.core.delta import DeltaBlock, DeltaShadowPager
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.csd.faults import FaultInjectingDevice, FaultPlan
from repro.errors import ChecksumError

PAGE_SIZE = 8192
MAX_PAGES = 16


def make_pager(device=None):
    device = device if device is not None else CompressedBlockDevice(num_blocks=1024)
    return DeltaShadowPager(device, PAGE_SIZE, MAX_PAGES, 1,
                            threshold=2048, segment_size=128)


def seeded_page(pager, seed=1):
    rng = random.Random(seed)
    page = Page(PAGE_SIZE, pager.allocate_page_id())
    payload = rng.randbytes(600)
    offset = page.allocate_cell(len(payload))
    page.write_cell(offset, payload)
    page.insert_slot(0, offset)
    return page


def mutate(page, rng, lsn):
    start = rng.randrange(64, PAGE_SIZE - 100)
    page.buf[start : start + 16] = rng.randbytes(16)
    page.mark_dirty(start, start + 16)
    page.lsn = lsn


@pytest.fixture
def decodes(monkeypatch):
    """Counts ``DeltaBlock.decode`` calls: every full-path load makes one."""
    calls = []
    decode = DeltaBlock.decode

    def counting(block, page_size):
        calls.append(1)
        return decode(block, page_size)

    monkeypatch.setattr(DeltaBlock, "decode", staticmethod(counting))
    return calls


def load_and_evict(pager, page_id):
    """Load, then hand the page to the pager as the pool does on eviction."""
    page = pager.load(page_id)
    pager.keep_evicted(page)
    return page


def full_path_taken(pager, page_id, decodes):
    before = len(decodes)
    load_and_evict(pager, page_id)
    return len(decodes) > before


def admitted(pager, page_id):
    """Load twice: whatever the first load found, the second is kept."""
    pager.load(page_id)
    pager.load(page_id)
    assert page_id in pager._verified
    return page_id


# ------------------------------------------------------- (a) the reuse path


@pytest.mark.parametrize("full_flushes", [1, 2], ids=["slot-0", "slot-1"])
@pytest.mark.parametrize("with_delta", [False, True], ids=["no-delta", "delta"])
def test_reload_of_an_unchanged_page_is_identical_and_runs_no_crc(
    monkeypatch, full_flushes, with_delta
):
    pager = make_pager()
    page = seeded_page(pager)
    rng = random.Random(7)
    for lsn in range(1, full_flushes + 1):
        page.mark_all_dirty()  # a full flush each time
        page.lsn = lsn
        pager.flush(page)
    if with_delta:
        mutate(page, rng, lsn=10)
        pager.flush(page)
        assert pager.stats.delta_flushes == 1
    assert pager._valid_slot[page.page_id] == full_flushes - 1
    page_id = page.page_id
    pager._verified.clear()  # forget the flush: the next load is a full-path load
    reference = load_and_evict(pager, page_id)  # ... is kept, and then held
    state = (set(pager._fvec[page_id]), pager._base_lsn[page_id])
    assert bool(pager._verified[page_id].delta) == with_delta

    crcs = []
    crc32 = zlib.crc32
    monkeypatch.setattr(zlib, "crc32", lambda *args: crcs.append(1) or crc32(*args))
    reads = pager.device.stats.read_ios
    reused = pager.load(page_id)
    assert crcs == []
    assert pager.device.stats.read_ios == reads + 1  # the read still happens
    assert reused is reference and reused.image() == page.image()
    assert (pager._fvec[page_id], pager._base_lsn[page_id]) == state


@pytest.mark.parametrize("full_flushes", [1, 2], ids=["slot-0", "slot-1"])
@pytest.mark.parametrize("with_delta", [False, True], ids=["no-delta", "delta"])
def test_a_kept_entry_without_a_held_page_takes_the_full_path_for_the_same_read(
    decodes, full_flushes, with_delta
):
    """The load of a page whose entry holds no evicted page issues the one
    device read a held hit issues, and runs the full path on it."""
    pager = make_pager()
    page = seeded_page(pager)
    for lsn in range(1, full_flushes + 1):
        page.mark_all_dirty()
        page.lsn = lsn
        pager.flush(page)
    if with_delta:
        mutate(page, random.Random(7), lsn=10)
        pager.flush(page)
    page_id = page.page_id
    stats = pager.device.stats
    commands = []
    for hold in (True, False):
        pager._verified.clear()
        loaded = pager.load(page_id)  # a full-path load, kept
        assert pager._verified[page_id].page is None
        if hold:
            pager.keep_evicted(loaded)
        reads, blocks, before = stats.read_ios, stats.blocks_read, len(decodes)
        again = pager.load(page_id)
        commands.append((stats.read_ios - reads, stats.blocks_read - blocks))
        assert (again is loaded) == hold
        assert (len(decodes) > before) != hold
        assert again.image() == loaded.image() == page.image()
    assert commands == [(1, pager.page_blocks + 1)] * 2


def test_reused_page_is_a_private_copy():
    """A full-path load keeps a copy of what it read, not the served page's
    buffer: a byte the served page then changes without mark_dirty makes
    its next delta flush keep nothing, so nothing is held either."""
    pager = make_pager()
    page = _flushed(pager)
    pager._verified.clear()
    served = pager.load(page.page_id)  # full path: the entry keeps a copy
    mutate(served, random.Random(3), lsn=2)
    served.buf[PAGE_SIZE - 200] ^= 0x01  # outside every logged segment
    assert (PAGE_SIZE - 200) // 128 not in served.dirty_segments(128)
    pager.flush(served)
    assert pager.stats.delta_flushes == 1
    assert page.page_id not in pager._verified
    pager.keep_evicted(served)
    assert page.page_id not in pager._verified


def test_rot_inside_the_kept_delta_is_a_miss():
    """One flipped header bit inside the delta's non-zero prefix: the read
    no longer matches, so the full path rejects the block and scrubs it."""
    pager = make_pager()
    page = _flushed(pager)
    base_image = page.image()
    mutate(page, random.Random(1), lsn=2)
    pager.flush(page)
    held = load_and_evict(pager, page.page_id)
    lba = pager._delta_lba(page.page_id)
    block = bytearray(pager.device.read_block(lba))
    block[20] ^= 1  # the delta's own LSN field, covered by its CRC
    pager.device.write_block(lba, bytes(block))
    served = pager.load(page.page_id)
    assert served is not held and served.image() == base_image
    assert pager.fault_stats.delta_scrubs == 1


def test_stale_kept_base_is_never_served():
    """Kept bytes that went stale without the pager seeing the write (as if
    an invalidation were missed) are not served: the slot's bytes differ,
    so the full path runs on the read."""
    pager = make_pager()
    page = _flushed(pager)
    held = load_and_evict(pager, page.page_id)
    stale = pager._verified[page.page_id]
    assert stale.page is held
    for lsn in (2, 3):  # two full flips: back in the kept slot, new bytes
        mutate(page, random.Random(lsn), lsn)
        page.mark_all_dirty()
        pager.flush(page)
    stale.page = held
    pager._verified[page.page_id] = stale
    served = pager.load(page.page_id)
    assert served is not held and served.image() == page.image()


# ------------------------------------------------ (b) differential, faulted


def _twin(seed):
    plan = FaultPlan(seed=seed, read_corruption_rate=0.04,
                     latent_corruption_rate=0.01, transient_read_rate=0.02,
                     dropped_trim_rate=0.5)
    return make_pager(FaultInjectingDevice(CompressedBlockDevice(1024), plan))


def _outcome(pager, page_id):
    """The image a load serves, or how it failed.  The page then goes back
    to the pager, as a pool would evict it."""
    try:
        page = pager.load(page_id)
    except Exception as exc:  # both twins must fail the same way
        return f"{type(exc).__name__}: {exc}"
    pager.keep_evicted(page)
    return page.image()


@pytest.mark.parametrize("seed", [3, 4, 5])  # runs that reach every healing path
def test_reuse_is_invisible_under_read_faults(decodes, seed):
    """A pager that holds every page it served and reuses verified reads,
    and a twin whose kept entries are emptied before every load, serve the
    same bytes and leave the same fault and device counters, under seeded
    read corruption, transient read errors, dropped TRIMs and latent
    corruption installed between loads, then on a scripted rot that both
    must read-repair from the older sibling."""
    pagers = (_twin(seed), _twin(seed))
    reuser, twin = pagers
    truth = {}
    for pager in pagers:
        for n in range(6):
            page = seeded_page(pager, seed=n)
            page.lsn = 1
            pager.flush(page)
            truth.setdefault(pager, []).append(page)
    rng = random.Random(seed)
    reuses = 0
    for step in range(600):
        page_id = rng.randrange(6)
        roll = rng.random()
        if roll < 0.12:
            for pager in pagers:
                mutate(truth[pager][page_id], random.Random(step), lsn=2 + step)
                pager.flush(truth[pager][page_id])
        elif roll < 0.16:
            lba = reuser._page_base(page_id) + rng.randrange(2 * reuser.page_blocks + 1)
            for pager in pagers:
                pager.device.corrupt_stable(lba)
        else:
            twin._verified.clear()
            before = len(decodes)
            served = _outcome(reuser, page_id)
            reuses += len(decodes) == before and isinstance(served, bytes)
            assert _outcome(twin, page_id) == served
            if not isinstance(served, bytes):  # the redo log would rewrite it
                for pager in pagers:
                    truth[pager][page_id].mark_all_dirty()
                    pager.flush(truth[pager][page_id])
        assert reuser.fault_stats == twin.fault_stats
        assert reuser.device.stats == twin.device.stats
        assert reuser.device.injected == twin.device.injected
        assert reuser.stats == twin.stats
    # Rot on a page's valid slot over the older image a dropped TRIM left in
    # its sibling: both twins serve the sibling and read-repair the slot.
    # (Transit garbling alone never gets that far: a slot is taken for rot
    # only once a re-read returns the same bytes.)
    for pager in pagers:
        page = truth[pager][0]
        page.lsn = 10_000
        page.mark_all_dirty()
        pager.flush(page)
        older, slot = page.image(), pager._valid_slot[page.page_id]
        mutate(page, random.Random(0), lsn=10_001)
        page.mark_all_dirty()
        pager.flush(page)
        pager.device.write_blocks(pager._slot_lba(page.page_id, slot), older)
        pager.device.corrupt_stable(pager._slot_lba(page.page_id, 1 - slot))
    twin._verified.clear()
    repairs = reuser.fault_stats.read_repairs
    served = _outcome(reuser, 0)
    assert served == older and _outcome(twin, 0) == served
    assert reuser.fault_stats.read_repairs == repairs + 1
    assert reuser.fault_stats == twin.fault_stats
    assert reuser.device.stats == twin.device.stats
    assert reuses > 50
    faults = reuser.fault_stats
    assert faults.checksum_failures and faults.reread_heals and faults.read_repairs
    assert faults.delta_scrubs and faults.transient_read_retries


# ------------------------------------------------ (c) invalidation by writes


def _flushed(pager, lsn=1):
    page = seeded_page(pager)
    page.lsn = lsn
    pager.flush(page)
    return page


def test_delta_flush_keeps_what_it_wrote_for_the_next_load(decodes):
    pager = make_pager()
    page = _flushed(pager)
    admitted(pager, page.page_id)
    rng = random.Random(1)
    for lsn in (2, 3):  # a second delta logs the first one's segments again
        mutate(page, rng, lsn)
        pager.flush(page)
        kept = pager._verified[page.page_id]
        block = pager.device.read_block(pager._delta_lba(page.page_id))
        assert kept.delta and block == kept.delta.ljust(BLOCK_SIZE, b"\0")
        assert kept.base_lsn == 1
        pager.keep_evicted(page)  # the pool evicts the page it wrote back
        assert not full_path_taken(pager, page.page_id, decodes)
        assert pager.load(page.page_id) is page
    assert pager.stats.delta_flushes == 2
    assert make_pager(pager.device).load(page.page_id).image() == page.image()


def test_full_flip_keeps_what_it_wrote_for_the_next_load(decodes):
    pager = make_pager()
    page = _flushed(pager)
    admitted(pager, page.page_id)
    mutate(page, random.Random(1), lsn=2)
    page.mark_all_dirty()
    pager.flush(page)
    assert pager.stats.full_flushes == 2
    kept = pager._verified[page.page_id]
    assert (kept.base, kept.delta, kept.base_lsn) == (page.image(), b"", 2)
    pager.keep_evicted(page)
    assert not full_path_taken(pager, page.page_id, decodes)
    assert pager.load(page.page_id) is page


def test_free_drops_the_kept_read():
    pager = make_pager()
    page = _flushed(pager)
    admitted(pager, page.page_id)
    pager.free_page(page.page_id)
    assert pager._verified[page.page_id] is not None  # storage not yet released
    pager.apply_deferred_frees()
    assert page.page_id not in pager._verified


def test_read_repair_sends_the_next_load_down_the_full_path(decodes):
    device = FaultInjectingDevice(CompressedBlockDevice(1024),
                                  FaultPlan(dropped_trim_rate=1.0))
    pager = make_pager(device)
    page = _flushed(pager)
    older = page.image()
    page.mark_all_dirty()
    page.lsn = 2
    pager.flush(page)  # the sibling's TRIM is dropped: both slots verify
    admitted(pager, page.page_id)
    device.corrupt_stable(pager._slot_lba(page.page_id, pager._valid_slot[page.page_id]),
                          pager.page_blocks)
    assert pager.load(page.page_id).image() == older  # arbitration + repair
    assert pager.fault_stats.read_repairs == 1
    assert page.page_id not in pager._verified
    assert full_path_taken(pager, page.page_id, decodes)
    assert not full_path_taken(pager, page.page_id, decodes)  # kept again


def test_delta_scrub_sends_the_next_load_down_the_full_path(decodes):
    pager = make_pager()
    page = _flushed(pager)
    admitted(pager, page.page_id)
    # Rot lands in the delta block behind the pager's back: the read no
    # longer matches, so the full path runs, falls back and scrubs.
    pager.device.write_block(pager._delta_lba(page.page_id), b"\x55" * BLOCK_SIZE)
    assert full_path_taken(pager, page.page_id, decodes)
    assert pager.fault_stats.delta_scrubs == 1
    assert page.page_id not in pager._verified
    assert full_path_taken(pager, page.page_id, decodes)
    assert pager.load(page.page_id).image() == page.image()


def test_a_byte_changed_without_mark_dirty_sends_the_next_load_down_the_full_path(
    decodes,
):
    pager = make_pager()
    page = _flushed(pager)
    admitted(pager, page.page_id)
    mutate(page, random.Random(3), lsn=2)
    page.buf[PAGE_SIZE - 200] ^= 0x01  # outside every logged segment
    assert (PAGE_SIZE - 200) // 128 not in page.dirty_segments(128)
    pager.flush(page)
    assert pager.stats.delta_flushes == 1
    assert page.page_id not in pager._verified
    before = len(decodes)
    with pytest.raises(ChecksumError):  # base + delta lacks the changed byte
        pager.load(page.page_id)
    assert len(decodes) > before
