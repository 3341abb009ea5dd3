"""Unit tests for the device latency/bandwidth model."""

import pytest

from repro.csd.device import BLOCK_SIZE
from repro.csd.latency import DeviceLatencyModel, HostCostModel
from repro.csd.stats import DeviceStats


def test_no_traffic_no_time():
    model = DeviceLatencyModel()
    assert model.busy_time(DeviceStats()) == 0.0


def test_write_time_scales_with_physical_bytes():
    """Better compression (smaller physical volume) must shrink busy time once
    the flash back end is the bottleneck."""
    model = DeviceLatencyModel()
    heavy = DeviceStats(
        logical_bytes_written=1 << 30, physical_bytes_written=1 << 30, write_ios=1
    )
    light = DeviceStats(
        logical_bytes_written=1 << 30, physical_bytes_written=1 << 28, write_ios=1
    )
    assert model.write_busy_time(light) < model.write_busy_time(heavy)


def test_write_time_iops_bound():
    model = DeviceLatencyModel()
    stats = DeviceStats(
        write_ios=int(model.sustained_write_iops), logical_bytes_written=BLOCK_SIZE
    )
    assert model.write_busy_time(stats) == pytest.approx(1.0, rel=0.05)


def test_write_time_interface_bound():
    """Incompressible data at full bandwidth is interface/flash limited."""
    model = DeviceLatencyModel()
    stats = DeviceStats(
        logical_bytes_written=int(3.2e9), physical_bytes_written=int(3.2e9), write_ios=1
    )
    busy = model.write_busy_time(stats)
    assert busy >= 1.0  # cannot beat the PCIe link


def test_read_time_cheap_for_trimmed_data():
    """Reading logically large but physically tiny data is interface-bound."""
    model = DeviceLatencyModel()
    sparse = DeviceStats(logical_bytes_read=1 << 30, physical_bytes_read=1 << 20, read_ios=1)
    dense = DeviceStats(logical_bytes_read=1 << 30, physical_bytes_read=1 << 30, read_ios=1)
    assert model.read_busy_time(sparse) <= model.read_busy_time(dense)


def test_flush_adds_latency():
    model = DeviceLatencyModel()
    stats = DeviceStats(flush_ios=100)
    expected = 100 * model.flush_latency / model.flush_parallelism
    assert model.write_busy_time(stats) == pytest.approx(expected)


def test_busy_time_sums_read_and_write():
    model = DeviceLatencyModel()
    stats = DeviceStats(
        logical_bytes_written=1 << 20,
        physical_bytes_written=1 << 20,
        logical_bytes_read=1 << 20,
        physical_bytes_read=1 << 20,
    )
    assert model.busy_time(stats) == pytest.approx(
        model.write_busy_time(stats) + model.read_busy_time(stats)
    )


def test_host_cost_model_defaults():
    host = HostCostModel()
    assert host.op_base > 0
    assert host.cpu_cores == 24


def test_host_costs_all_positive():
    host = HostCostModel()
    for cost in (host.per_record_scan, host.page_reconstruct_per_kb,
                 host.bloom_probe, host.memtable_probe, host.log_append):
        assert cost > 0


#: The drive's spec-sheet random 4KB write IOPS (fresh drive, pure writes),
#: as quoted in :mod:`repro.csd.latency`.
FRESH_DRIVE_WRITE_IOPS = 520_000


def test_sustained_iops_below_fresh_drive_spec():
    """Steady-state write throughput must be bound by the sustained figure,
    not the fresh-drive spec sheet number: a stream of small writes is
    charged ``write_ios / sustained_write_iops``, slower than the spec."""
    model = DeviceLatencyModel()
    many_small = DeviceStats(write_ios=100_000, logical_bytes_written=100_000)
    busy = model.write_busy_time(many_small)
    assert busy == pytest.approx(100_000 / model.sustained_write_iops)
    assert busy > 100_000 / FRESH_DRIVE_WRITE_IOPS


def test_write_busy_time_takes_slowest_limit():
    """Interface, IOPS and flash limits race; the max rules (plus fsync)."""
    model = DeviceLatencyModel()
    stats = DeviceStats(
        logical_bytes_written=1 << 30,
        physical_bytes_written=1 << 26,
        write_ios=10,
        flush_ios=8,
    )
    interface = stats.logical_bytes_written / model.interface_bandwidth
    fsync = 8 * model.flush_latency / model.flush_parallelism
    assert model.write_busy_time(stats) == pytest.approx(interface + fsync)


def test_read_busy_time_zero_for_no_reads():
    model = DeviceLatencyModel()
    write_only = DeviceStats(logical_bytes_written=1 << 20, write_ios=5)
    assert model.read_busy_time(write_only) == 0.0
    assert model.busy_time(write_only) == model.write_busy_time(write_only)


def test_busy_time_monotone_in_traffic():
    model = DeviceLatencyModel()
    small = DeviceStats(logical_bytes_written=1 << 20,
                        physical_bytes_written=1 << 20, write_ios=10)
    bigger = DeviceStats(logical_bytes_written=1 << 24,
                         physical_bytes_written=1 << 24, write_ios=1000)
    assert model.busy_time(bigger) > model.busy_time(small)
