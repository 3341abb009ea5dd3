"""Unit and property tests for the slotted page buffer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.page import (
    DIRTY_GRAIN,
    PAGE_HEADER_SIZE,
    PAGE_TRAILER_SIZE,
    Page,
    PageType,
)
from repro.errors import ChecksumError, PageFormatError


def test_fresh_page_header():
    page = Page(8192, page_id=7, page_type=PageType.LEAF)
    assert page.page_id == 7
    assert page.page_type == PageType.LEAF
    assert page.level == 0
    assert page.nslots == 0
    assert page.lsn == 0


def test_fresh_page_free_space():
    page = Page(8192)
    assert page.free_space == 8192 - PAGE_HEADER_SIZE - PAGE_TRAILER_SIZE


def test_unsupported_page_size_rejected():
    with pytest.raises(PageFormatError):
        Page(100)
    with pytest.raises(PageFormatError):
        Page(8192 + 1)


def test_internal_page_level():
    page = Page(4096, page_type=PageType.INTERNAL, level=2)
    assert page.level == 2
    assert page.page_type == PageType.INTERNAL


def test_lsn_roundtrip():
    page = Page(4096)
    page.lsn = 123456789
    assert page.lsn == 123456789


def test_slot_insert_and_lookup():
    page = Page(4096)
    page.insert_slot(0, 1000)
    page.insert_slot(1, 2000)
    page.insert_slot(1, 1500)  # shifts the old slot 1 to slot 2
    assert [page.slot_offset(i) for i in range(3)] == [1000, 1500, 2000]
    assert page.nslots == 3


def test_slot_remove_shifts_left():
    page = Page(4096)
    for i, offset in enumerate([100, 200, 300]):
        page.insert_slot(i, offset)
    page.remove_slot(1)
    assert [page.slot_offset(i) for i in range(2)] == [100, 300]


def test_slot_bounds_checked():
    page = Page(4096)
    with pytest.raises(PageFormatError):
        page.slot_offset(0)
    with pytest.raises(PageFormatError):
        page.insert_slot(1, 0)
    with pytest.raises(PageFormatError):
        page.remove_slot(0)


def test_allocate_cell_moves_cell_start_down():
    page = Page(4096)
    before = page.cell_start
    offset = page.allocate_cell(100)
    assert offset == before - 100
    assert page.cell_start == offset


def test_allocate_cell_overflow_rejected():
    page = Page(4096)
    with pytest.raises(PageFormatError):
        page.allocate_cell(page.free_space + 1)


def test_write_cell_roundtrip():
    page = Page(4096)
    offset = page.allocate_cell(5)
    page.write_cell(offset, b"hello")
    assert bytes(page.buf[offset : offset + 5]) == b"hello"


def test_dead_bytes_accounting():
    page = Page(4096)
    page.add_dead_bytes(64)
    page.add_dead_bytes(16)
    assert page.dead_bytes == 80
    assert page.reclaimable_space == page.free_space + 80


def test_finalize_then_checksum_ok():
    page = Page(4096, page_id=3)
    page.finalize(lsn=42)
    assert page.lsn == 42
    assert page.checksum_ok()


def test_corruption_detected():
    page = Page(4096)
    page.finalize(lsn=1)
    page.buf[2048] ^= 0xFF
    assert not page.checksum_ok()
    with pytest.raises(ChecksumError):
        page.verify_checksum()


def test_torn_write_detected_via_trailer():
    """Simulate the first 4KB of an 8KB page persisting without the second."""
    page = Page(8192, page_id=1)
    page.finalize(lsn=9)
    old = Page(8192, page_id=1)
    old.finalize(lsn=3)
    torn = page.image()[:4096] + old.image()[4096:]
    assert not Page.from_bytes(torn, verify=False).checksum_ok()


def test_from_bytes_roundtrip():
    page = Page(4096, page_id=11, page_type=PageType.INTERNAL, level=1)
    page.finalize(lsn=5)
    loaded = Page.from_bytes(page.image())
    assert loaded.page_id == 11
    assert loaded.page_type == PageType.INTERNAL
    assert loaded.lsn == 5


def test_from_bytes_rejects_bad_magic():
    with pytest.raises(PageFormatError):
        Page.from_bytes(b"\x00" * 4096)


def test_from_bytes_rejects_unsupported_size():
    """The size rule of ``Page.__init__``: a short image is a format error,
    not a ``struct.error`` from the header unpack."""
    for image in (b"BPG1", b"BPG1" + bytes(1020 + 32), bytes(512)):
        with pytest.raises(PageFormatError):
            Page.from_bytes(image)
        with pytest.raises(PageFormatError):
            Page.from_bytes(image, verify=False)


def test_from_bytes_rejects_corrupt_checksum():
    page = Page(4096)
    page.finalize(lsn=1)
    image = bytearray(page.image())
    image[1000] ^= 1
    with pytest.raises(ChecksumError):
        Page.from_bytes(bytes(image))


def test_fresh_page_fully_dirty():
    page = Page(4096)
    assert page.dirty_segments(256) == list(range(4096 // 256))


def test_dirty_tracking_localized():
    page = Page(4096)
    page.clear_dirty()
    page.write_cell(2048, b"x" * 10)
    segments = page.dirty_segments(256)
    assert segments == [2048 // 256]


def test_dirty_range_spanning_segments():
    page = Page(4096)
    page.clear_dirty()
    page.mark_dirty(250, 270)
    assert page.dirty_segments(256) == [0, 1]


def test_dirty_segment_size_validation():
    page = Page(4096)
    with pytest.raises(ValueError):
        page.dirty_segments(100)  # not a multiple of the grain
    with pytest.raises(ValueError):
        page.dirty_segments(0)


def test_finalize_dirties_header_and_trailer():
    page = Page(4096)
    page.clear_dirty()
    page.finalize(lsn=2)
    segments = page.dirty_segments(128)
    assert 0 in segments  # header segment
    assert (4096 // 128) - 1 in segments  # trailer segment


def test_mark_all_dirty():
    page = Page(4096)
    page.clear_dirty()
    page.mark_all_dirty()
    assert len(page.dirty_segments(DIRTY_GRAIN)) == 4096 // DIRTY_GRAIN


@settings(max_examples=50, deadline=None)
@given(
    start=st.integers(0, 4095),
    length=st.integers(1, 512),
)
def test_property_dirty_tracking_is_conservative(start, length):
    """Every modified byte must fall inside a dirty segment."""
    page = Page(4096)
    page.clear_dirty()
    end = min(start + length, 4096)
    page.mark_dirty(start, end)
    covered = set()
    for seg in page.dirty_segments(128):
        covered.update(range(seg * 128, (seg + 1) * 128))
    assert set(range(start, end)) <= covered


@settings(max_examples=30, deadline=None)
@given(lsn=st.integers(0, 2**64 - 1))
def test_property_finalize_checksum_roundtrip(lsn):
    page = Page(4096, page_id=1)
    page.finalize(lsn=lsn)
    assert Page.from_bytes(page.image()).lsn == lsn
