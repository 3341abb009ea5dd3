"""Unit and property tests for localized page modification logging."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.node import InternalNode
from repro.btree.page import Page
from repro.btree.pager import make_pager as make_btree_pager
from repro.core.delta import (
    DELTA_HEADER_SIZE,
    DeltaBlock,
    DeltaShadowPager,
    delta_capacity,
)
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import ChecksumError, ConfigError
from repro.metrics.faults import FaultStats
from repro.sim.rng import DeterministicRng

PAGE_SIZE = 8192
MAX_PAGES = 64


def make_pager(threshold=2048, segment_size=128, device=None):
    device = device or CompressedBlockDevice(num_blocks=8192)
    return DeltaShadowPager(
        device, PAGE_SIZE, MAX_PAGES, 1,
        threshold=threshold, segment_size=segment_size,
    )


def dirty_page(pager, nonzero=512):
    rng = DeterministicRng(1)
    page = Page(PAGE_SIZE, pager.allocate_page_id())
    payload = rng.random_bytes(nonzero)
    offset = page.allocate_cell(len(payload))
    page.write_cell(offset, payload)
    page.insert_slot(0, offset)
    return page


# ---------------------------------------------------------------- codec


def test_delta_capacity_geometry():
    assert delta_capacity(8192, 128) == BLOCK_SIZE - DELTA_HEADER_SIZE - 8
    assert delta_capacity(16384, 256) == BLOCK_SIZE - DELTA_HEADER_SIZE - 8
    assert delta_capacity(8192, 256) == BLOCK_SIZE - DELTA_HEADER_SIZE - 4


def test_delta_block_roundtrip():
    block = DeltaBlock(
        page_id=7, base_lsn=10, lsn=12, segment_size=128,
        segments=[0, 3, 63], payload=b"x" * (3 * 128),
    )
    decoded = DeltaBlock.decode(block.encode(PAGE_SIZE), PAGE_SIZE)
    assert decoded is not None
    assert decoded.page_id == 7
    assert decoded.base_lsn == 10
    assert decoded.lsn == 12
    assert decoded.segments == [0, 3, 63]
    assert decoded.payload == b"x" * (3 * 128)


def test_delta_block_decode_rejects_garbage():
    assert DeltaBlock.decode(bytes(BLOCK_SIZE), PAGE_SIZE) is None
    assert DeltaBlock.decode(b"\xaa" * BLOCK_SIZE, PAGE_SIZE) is None


def test_delta_block_decode_rejects_bitflip():
    encoded = bytearray(
        DeltaBlock(1, 1, 2, 128, [0], b"y" * 128).encode(PAGE_SIZE)
    )
    encoded[100] ^= 1
    assert DeltaBlock.decode(bytes(encoded), PAGE_SIZE) is None


def test_delta_block_overflow_rejected():
    with pytest.raises(ConfigError):
        DeltaBlock(1, 1, 2, 128, list(range(40)), b"z" * (40 * 128)).encode(PAGE_SIZE)


def test_decode_rejects_block_of_wrong_length():
    """A short read must come back as "no delta", never as ``struct.error``."""
    assert DeltaBlock.decode(b"DLT1" + bytes(10), PAGE_SIZE) is None
    encoded = DeltaBlock(1, 1, 2, 128, [0], b"y" * 128).encode(PAGE_SIZE)
    assert DeltaBlock.decode(encoded + bytes(BLOCK_SIZE), PAGE_SIZE) is None
    assert DeltaBlock.decode(memoryview(encoded), PAGE_SIZE) is not None


def test_overlay_onto_reconstructs():
    base = Page(PAGE_SIZE, page_id=1)
    base.finalize(lsn=1)
    target = Page.from_bytes(base.image())
    target.buf[128:256] = b"\xaa" * 128
    target.buf[5 * 128 : 6 * 128] = b"\xbb" * 128
    target.mark_dirty(128, 256)
    target.mark_dirty(5 * 128, 6 * 128)
    target.finalize(lsn=2)
    segments = target.dirty_segments(128)
    assert segments == [0, 1, 5, 63]  # header, the two edits, trailer
    payload = b"".join(bytes(target.buf[s * 128 : (s + 1) * 128]) for s in segments)
    page = Page.from_bytes(base.image())
    DeltaBlock(1, 1, 2, 128, segments, payload).overlay_onto(page)
    assert page.image() == target.image()
    assert page.image()[256 : 5 * 128] == base.image()[256 : 5 * 128]


def test_overlay_onto_rejects_image_failing_page_checksum():
    base = Page(PAGE_SIZE, page_id=1)
    base.finalize(lsn=1)
    page = Page.from_bytes(base.image())
    with pytest.raises(ChecksumError):
        DeltaBlock(1, 1, 2, 128, [7], b"\xee" * 128).overlay_onto(page)


# ----------------------------------------------------------- configuration


def test_segment_size_validation():
    with pytest.raises(ConfigError):
        make_pager(segment_size=100)  # not a multiple of the dirty grain
    with pytest.raises(ConfigError):
        make_pager(segment_size=192 + 128)  # does not divide the page size


def test_threshold_validation():
    with pytest.raises(ConfigError):
        make_pager(threshold=0)
    with pytest.raises(ConfigError):
        make_pager(threshold=BLOCK_SIZE + 1)


def test_threshold_clamped_to_block_capacity():
    pager = make_pager(threshold=4096)
    assert pager.threshold == delta_capacity(PAGE_SIZE, 128)


# --------------------------------------------------------------- flushing


def test_first_flush_is_full():
    pager = make_pager()
    page = dirty_page(pager)
    pager.flush(page)
    assert pager.stats.full_flushes == 1
    assert pager.stats.delta_flushes == 0


def test_small_change_uses_delta_flush():
    pager = make_pager()
    page = dirty_page(pager)
    pager.flush(page)
    page.buf[4000:4010] = b"0123456789"
    page.mark_dirty(4000, 4010)
    page.lsn = 5
    pager.flush(page)
    assert pager.stats.delta_flushes == 1
    # A delta flush writes one 4KB block, not the whole page.
    assert pager.stats.page_logical_bytes == PAGE_SIZE + BLOCK_SIZE


def test_delta_flush_physical_volume_is_tiny():
    pager = make_pager()
    page = dirty_page(pager)
    pager.flush(page)
    before = pager.stats.page_physical_bytes
    page.buf[4000:4016] = b"A" * 16
    page.mark_dirty(4000, 4016)
    page.lsn = 5
    pager.flush(page)
    delta_cost = pager.stats.page_physical_bytes - before
    # header + trailer + one data segment, compressed: far below 4KB.
    assert delta_cost < 600


def test_load_reconstructs_from_base_plus_delta():
    pager = make_pager()
    page = dirty_page(pager)
    page.lsn = 1
    pager.flush(page)
    page.buf[4000:4010] = b"0123456789"
    page.mark_dirty(4000, 4010)
    page.lsn = 2
    pager.flush(page)
    loaded = pager_reload(pager).load(page.page_id)
    assert loaded.lsn == 2
    assert bytes(loaded.buf[4000:4010]) == b"0123456789"
    assert loaded.image() == page.image()


def pager_reload(pager):
    """A fresh pager over the same device (host restart)."""
    pager.device.flush()
    return DeltaShadowPager(
        pager.device, pager.page_size, pager.max_pages, pager.region_start,
        threshold=pager.threshold, segment_size=pager.segment_size,
    )


def test_deltas_accumulate_until_threshold():
    pager = make_pager(threshold=512, segment_size=128)
    page = dirty_page(pager)
    pager.flush(page)
    # Header + trailer already cost 2 segments; two more data segments keep
    # |delta| at 4*128 = 512 <= T, a fifth pushes past it.
    offsets = [1000, 2000, 3000]
    for i, offset in enumerate(offsets):
        page.buf[offset] ^= 0xFF
        page.mark_dirty(offset, offset + 1)
        page.lsn = 10 + i
        pager.flush(page)
    assert pager.stats.full_flushes >= 2  # initial + at least one reset


def test_full_reset_clears_fvec_and_trims_delta():
    pager = make_pager(threshold=256, segment_size=128)
    page = dirty_page(pager)
    pager.flush(page)
    page.buf[1000] ^= 1
    page.mark_dirty(1000, 1001)
    page.lsn = 2
    pager.flush(page)  # |delta| = header+trailer+1 > 256 -> full reset
    assert pager.stats.full_flushes == 2
    assert pager._fvec[page.page_id] == set()
    # The delta block was trimmed: reload sees the full image, no delta.
    loaded = pager_reload(pager).load(page.page_id)
    assert loaded.image() == page.image()


def test_stale_delta_ignored_when_base_lsn_mismatches():
    """Crash lost the delta-block TRIM of a full reset: the stale delta must
    not be applied to the newer base image."""
    pager = make_pager()
    page = dirty_page(pager)
    page.lsn = 1
    pager.flush(page)  # full
    page.buf[3000:3004] = b"OLD!"
    page.mark_dirty(3000, 3004)
    page.lsn = 2
    pager.flush(page)  # delta with base_lsn=1
    # Full reset whose delta TRIM is lost in the crash:
    page.buf[3000:3004] = b"NEW!"
    page.mark_dirty(3000, 3004)
    page.finalize(lsn=3)
    image = page.image()
    target = 1 - pager._valid_slot[page.page_id]
    pager.device.write_blocks(pager._slot_lba(page.page_id, target), image)
    # persist the new base but not the trim of slot/delta
    pager.device.flush()
    fresh = DeltaShadowPager(pager.device, PAGE_SIZE, MAX_PAGES, 1)
    loaded = fresh.load(page.page_id)
    assert loaded.lsn == 3
    assert bytes(loaded.buf[3000:3004]) == b"NEW!"


def test_torn_delta_write_falls_back_to_base():
    pager = make_pager()
    page = dirty_page(pager)
    page.lsn = 1
    pager.flush(page)
    base_image = page.image()
    # A corrupt (torn) delta block lands on storage.
    pager.device.write_block(pager._delta_lba(page.page_id), b"\x55" * BLOCK_SIZE)
    pager.device.flush()
    loaded = pager_reload(pager).load(page.page_id)
    assert loaded.image() == base_image


@pytest.mark.parametrize("restart", [False, True])
def test_self_consistent_delta_rebuilding_a_bad_image_is_rejected(restart):
    """The delta block's own CRC, page id, base LSN and segment size all
    match, but its payload does not rebuild a page that passes the page
    CRC: the load must raise, never hand out the reconstructed page."""
    pager = make_pager()
    page = dirty_page(pager)
    page.lsn = 1
    pager.flush(page)
    page.buf[4000:4010] = b"0123456789"
    page.mark_dirty(4000, 4010)
    page.lsn = 2
    pager.flush(page)
    genuine = DeltaBlock.decode(
        pager.device.read_block(pager._delta_lba(page.page_id)), PAGE_SIZE)
    assert genuine is not None and genuine.base_lsn == 1
    # One flipped bit in the logged copy of the edited segment: header,
    # trailer and magic of the rebuilt image stay intact, its CRC does not.
    payload = bytearray(genuine.payload)
    payload[genuine.segments.index(4000 // 128) * 128 + 4000 % 128] ^= 1
    forged = DeltaBlock(
        genuine.page_id, genuine.base_lsn, genuine.lsn, genuine.segment_size,
        genuine.segments, bytes(payload),
    ).encode(PAGE_SIZE)
    assert DeltaBlock.decode(forged, PAGE_SIZE) is not None  # own CRC is valid
    pager.device.write_block(pager._delta_lba(page.page_id), forged)
    loader = pager_reload(pager) if restart else pager
    with pytest.raises(ChecksumError):
        loader.load(page.page_id)
    assert loader.fault_stats.delta_fallbacks == 0  # not mistaken for a foreign block


def test_routing_cache_does_not_survive_a_delta_overlay():
    """An internal page rebuilt from base + delta routes by the rebuilt
    separators, also when the base page's routing cache was already warm."""
    def sep(i):
        return i.to_bytes(8, "big")

    pager = make_pager()
    node = InternalNode.create(PAGE_SIZE, pager.allocate_page_id(), level=1)
    node.add_first_child(1)
    for i in range(10, 100, 10):
        node.insert_separator(sep(i), i)
    page_id = node.page.page_id
    node.page.lsn = 1
    pager.flush(node.page)
    base = pager.load(page_id)
    assert InternalNode(base).child_for(sep(36)) == 30  # warms base's cache
    node.insert_separator(sep(35), 77)
    node.page.lsn = 2
    pager.flush(node.page)
    assert pager.stats.delta_flushes == 1

    for loader in (pager, pager_reload(pager)):
        rebuilt = InternalNode(loader.load(page_id))
        for probe in (b"", sep(1), sep(30), sep(34), sep(35), sep(36), sep(40), sep(99)):
            index, found = rebuilt._bisect(probe)
            assert rebuilt.route(probe)[0] == (index if found else index - 1)
        assert rebuilt.child_for(sep(36)) == 77

    delta = DeltaBlock.decode(pager.device.read_block(pager._delta_lba(page_id)), PAGE_SIZE)
    delta.overlay_onto(base)
    assert base.routing_keys is None and base.child_ids is None
    assert InternalNode(base).child_for(sep(36)) == 77


@pytest.mark.parametrize(
    "strategy", ["journal", "shadow-table", "det-shadow", "delta-shadow"])
def test_programming_error_in_page_parse_is_not_healed(monkeypatch, strategy):
    """Only verification failures are media corruption: in every pager,
    anything else that escapes ``Page.from_bytes`` propagates instead of
    being "re-read", on a known page and after a restart alike."""
    def open_pager(device):
        if strategy == "delta-shadow":
            return DeltaShadowPager(device, PAGE_SIZE, MAX_PAGES, 1)
        return make_btree_pager(strategy, device, PAGE_SIZE, MAX_PAGES, 1)

    pager = open_pager(CompressedBlockDevice(num_blocks=8192))
    page = dirty_page(pager)
    pager.flush(page)
    pager.device.flush()
    restarted = open_pager(pager.device)
    restarted.recover()

    def broken(image, verify=True):
        raise TypeError("bug, not rot")

    monkeypatch.setattr(Page, "from_bytes", broken)
    for loader in (pager, restarted):
        with pytest.raises(TypeError):
            loader.load(page.page_id)
        assert loader.fault_stats == FaultStats()


def test_free_page_clears_delta_state():
    pager = make_pager()
    page = dirty_page(pager)
    pager.flush(page)
    pager.free_page(page.page_id)
    pager.apply_deferred_frees()
    assert page.page_id not in pager._fvec
    assert page.page_id not in pager._base_lsn
    assert pager.device.ftl.extent_size(pager._delta_lba(page.page_id)) == 0


# ---------------------------------------------------------------- metrics


def test_beta_accounting():
    pager = make_pager()
    page = dirty_page(pager)
    pager.flush(page)
    assert pager.beta() == 0.0
    page.buf[2000] ^= 1
    page.mark_dirty(2000, 2001)
    page.lsn = 2
    pager.flush(page)
    expected = len(pager._fvec[page.page_id]) * 128 / PAGE_SIZE
    assert pager.beta() == pytest.approx(expected)
    assert pager.delta_bytes_live() == len(pager._fvec[page.page_id]) * 128


# --------------------------------------------------------------- property


@settings(max_examples=20, deadline=None)
@given(st.data())
def test_property_reconstruction_equals_in_memory_image(data):
    """After any sequence of mutations and flushes, a reload through the
    delta path reproduces the exact in-memory image."""
    seed = data.draw(st.integers(0, 2**32))
    rng = DeterministicRng(seed)
    pager = make_pager(threshold=data.draw(st.sampled_from([512, 1024, 2048])),
                       segment_size=data.draw(st.sampled_from([128, 256])))
    page = dirty_page(pager)
    lsn = 1
    page.lsn = lsn
    pager.flush(page)
    for _ in range(data.draw(st.integers(1, 12))):
        # Mutate a random range.
        start = rng.randrange(64, PAGE_SIZE - 200)
        length = rng.randrange(1, 150)
        page.buf[start : start + length] = rng.random_bytes(length)
        page.mark_dirty(start, start + length)
        lsn += 1
        page.lsn = lsn
        pager.flush(page)
        if rng.random() < 0.3:
            loaded = pager_reload(pager).load(page.page_id)
            assert loaded.image() == page.image()
    loaded = pager_reload(pager).load(page.page_id)
    assert loaded.image() == page.image()


@settings(max_examples=15, deadline=None)
@given(
    seg_size=st.sampled_from([64, 128, 256, 512]),
    nsegs=st.integers(0, 10),
)
def test_property_delta_codec_roundtrip(seg_size, nsegs):
    rng = DeterministicRng(nsegs)
    k = PAGE_SIZE // seg_size
    if nsegs * seg_size > delta_capacity(PAGE_SIZE, seg_size):
        return
    segments = sorted(rng.sample(range(k), nsegs))
    payload = rng.random_bytes(nsegs * seg_size)
    block = DeltaBlock(3, 9, 11, seg_size, segments, payload)
    decoded = DeltaBlock.decode(block.encode(PAGE_SIZE), PAGE_SIZE)
    assert decoded is not None
    assert decoded.segments == segments
    assert decoded.payload == payload
