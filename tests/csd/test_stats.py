"""Unit tests for the device smart-log counters."""

from repro.csd.stats import DeviceStats


def test_default_counters_zero():
    stats = DeviceStats()
    assert stats.logical_bytes_written == 0
    assert stats.physical_bytes_written == 0
    assert stats.write_ios == 0


def test_snapshot_is_independent_copy():
    stats = DeviceStats(logical_bytes_written=10)
    snap = stats.snapshot()
    stats.logical_bytes_written += 5
    assert snap.logical_bytes_written == 10
    assert stats.logical_bytes_written == 15


def test_delta_subtracts_fieldwise():
    stats = DeviceStats()
    snap = stats.snapshot()
    stats.logical_bytes_written += 100
    stats.physical_bytes_written += 40
    stats.write_ios += 3
    delta = stats.delta(snap)
    assert delta.logical_bytes_written == 100
    assert delta.physical_bytes_written == 40
    assert delta.write_ios == 3
    assert delta.read_ios == 0


def test_compression_ratio():
    stats = DeviceStats(logical_bytes_written=1000, physical_bytes_written=250)
    assert stats.compression_ratio == 0.25


def test_compression_ratio_no_writes_is_one():
    assert DeviceStats().compression_ratio == 1.0


def test_block_counters_default_zero_and_combine():
    stats = DeviceStats()
    assert stats.blocks_written == 0
    assert stats.blocks_read == 0
    snap = stats.snapshot()
    stats.blocks_written += 4
    stats.blocks_read += 2
    delta = stats.delta(snap)
    assert delta.blocks_written == 4
    assert delta.blocks_read == 2
