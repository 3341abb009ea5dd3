"""Unit tests for the flash translation layer."""

import pytest

from repro.csd.ftl import MAPPING_ENTRY_COST, FlashTranslationLayer
from repro.csd.stats import DeviceStats
from repro.errors import CapacityError


def make_ftl(capacity=1 << 20):
    return FlashTranslationLayer(capacity, DeviceStats())


def test_initial_state_empty():
    ftl = make_ftl()
    assert ftl.live_bytes == 0
    assert ftl.mapped_lbas == 0


def test_invalid_capacity_rejected():
    with pytest.raises(ValueError):
        FlashTranslationLayer(0, DeviceStats())


def test_record_write_tracks_live_bytes():
    ftl = make_ftl()
    ftl.record_write(0, 100)
    ftl.record_write(1, 200)
    assert ftl.live_bytes == 300
    assert ftl.mapped_lbas == 2


def test_overwrite_replaces_extent():
    ftl = make_ftl()
    ftl.record_write(0, 100)
    ftl.record_write(0, 50)
    assert ftl.live_bytes == 50
    assert ftl.mapped_lbas == 1


def test_trim_releases_space():
    ftl = make_ftl()
    ftl.record_write(0, 100)
    ftl.record_trim(0)
    assert ftl.live_bytes == 0
    assert ftl.extent_size(0) == 0


def test_trim_unmapped_lba_is_noop():
    ftl = make_ftl()
    ftl.record_trim(7)
    assert ftl.live_bytes == 0


def test_extent_size_lookup():
    ftl = make_ftl()
    ftl.record_write(3, 77)
    assert ftl.extent_size(3) == 77
    assert ftl.extent_size(4) == 0


def test_physical_write_counter_includes_metadata():
    stats = DeviceStats()
    ftl = FlashTranslationLayer(1 << 20, stats)
    charged = ftl.record_write(0, 100)
    assert charged == 100 + MAPPING_ENTRY_COST
    assert stats.physical_bytes_written == charged


def test_negative_size_rejected():
    with pytest.raises(ValueError):
        make_ftl().record_write(0, -1)


def test_capacity_exceeded_raises():
    ftl = make_ftl(capacity=150)
    ftl.record_write(0, 100)
    with pytest.raises(CapacityError):
        ftl.record_write(1, 100)


def test_capacity_freed_by_trim_is_reusable():
    ftl = make_ftl(capacity=150)
    ftl.record_write(0, 100)
    ftl.record_trim(0)
    ftl.record_write(1, 100)  # must not raise
    assert ftl.live_bytes == 100
