"""Latency and bandwidth model for simulated-time TPS experiments.

The paper's speed results (Figs 15-17) come from a real server and drive; we
substitute a service-time model calibrated to the hardware parameters the
paper quotes for the ScaleFlux drive:

* PCIe Gen3 x4 interface, ~3.2 GB/s sequential throughput,
* 650K random 4KB read IOPS, 520K random 4KB write IOPS,
* TLC/QLC flash read latency ~80 µs, program latency ~1 ms.

The 520K write figure is a fresh drive taking pure writes; the model charges
write requests at a sustained rate instead (``sustained_write_iops``), the
steady state of a mixed load with a durability barrier per write.

How long the device is busy for a stream of requests is modelled from
bandwidth/IOPS limits applied to the appropriate byte counts — crucially, the
flash back-end limit applies to *post-compression* bytes, which is why lower
write amplification directly buys write TPS.  The closed-loop TPS estimate in
:mod:`repro.bench.speed` adds the two per-request latencies a client thread
waits on: ``flash_read_latency`` per read command and ``flush_latency`` per
fsync.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.csd.stats import DeviceStats

_US = 1e-6


@dataclass
class DeviceLatencyModel:
    """Service-time model of the computational storage drive."""

    interface_bandwidth: float = 3.2e9  # bytes/s over PCIe, either direction
    flash_read_bandwidth: float = 2.6e9  # bytes/s of post-compression reads
    flash_write_bandwidth: float = 2.1e9  # bytes/s of post-compression writes
    read_iops: float = 650_000.0
    #: Sustained random-write IOPS under a mixed read/write load with
    #: per-write durability barriers — far below the 520K fresh-drive spec,
    #: as on any SSD.  This is what steady-state write throughput is bound by.
    sustained_write_iops: float = 130_000.0
    flash_read_latency: float = 80 * _US  # first-byte latency of one flash read
    flush_latency: float = 5 * _US  # fsync round trip (power-loss-protected drive)
    #: Concurrent flush streams: the engines run 4 background write threads
    #: (paper §4), whose fsyncs overlap at the device.
    flush_parallelism: float = 4.0

    def write_busy_time(self, stats: DeviceStats) -> float:
        """Device busy time to absorb the write traffic in ``stats``.

        The drive is limited by whichever is slowest: moving logical bytes over
        the interface, sustaining the request rate, or programming the
        post-compression bytes into flash.
        """
        interface = stats.logical_bytes_written / self.interface_bandwidth
        iops = stats.write_ios / self.sustained_write_iops
        flash = stats.physical_bytes_written / self.flash_write_bandwidth
        fsync = stats.flush_ios * self.flush_latency / max(1.0, self.flush_parallelism)
        return max(interface, iops, flash) + fsync

    def read_busy_time(self, stats: DeviceStats) -> float:
        """Device busy time to serve the read traffic in ``stats``."""
        interface = stats.logical_bytes_read / self.interface_bandwidth
        iops = stats.read_ios / self.read_iops
        flash = stats.physical_bytes_read / self.flash_read_bandwidth
        return max(interface, iops, flash)

    def busy_time(self, stats: DeviceStats) -> float:
        """Total device busy time for the mixed traffic in ``stats``."""
        return self.write_busy_time(stats) + self.read_busy_time(stats)


@dataclass
class HostCostModel:
    """Per-operation host CPU costs, used alongside the device model.

    These are coarse constants chosen to reproduce the relative CPU weight of
    the engines (e.g. RocksDB's memtable + bloom probes on reads, B⁻-tree's
    page reconstruction on loads), not absolute instruction counts.
    """

    op_base: float = 2 * _US  # key comparison / tree or memtable descent
    per_record_scan: float = 0.2 * _US  # cursor step during range scans
    page_reconstruct_per_kb: float = 0.05 * _US  # memcpy to apply a delta
    bloom_probe: float = 0.5 * _US  # per-level filter check (LSM reads)
    memtable_probe: float = 1.0 * _US  # memtable lookup before table search
    log_append: float = 0.5 * _US  # format + copy one WAL record
    cpu_cores: int = 24  # matches the paper's 24-core test server
