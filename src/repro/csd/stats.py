"""Device counters ("smart log").

The paper computes write amplification from the drive-reported amount of
post-compression data physically written to NAND flash.  :class:`DeviceStats`
is our equivalent of that smart log: it accumulates logical (host-visible,
pre-compression) and physical (post-compression) byte counts plus I/O counts,
and supports snapshot/delta arithmetic so the harness can measure a single
workload phase in isolation.

IOPS semantics: the ``*_ios`` counters count device *commands* — one
multi-block read or write request is one I/O, exactly like an NVMe command
spanning several LBAs.  Per-block volume is tracked separately in
``blocks_written`` / ``blocks_read`` (and, in bytes, the ``logical_bytes_*``
counters), so request rate and transfer volume can be reasoned about
independently — the latency model's IOPS limits apply to requests, its
bandwidth limits to bytes.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class DeviceStats:
    """Cumulative device counters; all byte fields are in bytes.

    * ``write_ios`` / ``read_ios`` / ``trim_ios`` / ``flush_ios`` — device
      commands (one per request, however many blocks it spans).
    * ``blocks_written`` / ``blocks_read`` — 4KB blocks moved by those
      requests (per-block volume; ``blocks_written >= write_ios``).
    """

    logical_bytes_written: int = 0
    physical_bytes_written: int = 0
    logical_bytes_read: int = 0
    physical_bytes_read: int = 0
    bytes_trimmed: int = 0
    write_ios: int = 0
    read_ios: int = 0
    trim_ios: int = 0
    flush_ios: int = 0
    #: Always 0: drive GC is not modelled (see :mod:`repro.csd.ftl`).  Kept
    #: for the benchmark ledger's ``csd.ftl.gc_bytes_written`` line.
    gc_bytes_written: int = 0
    blocks_written: int = 0
    blocks_read: int = 0

    def snapshot(self) -> "DeviceStats":
        """Return an independent copy of the current counters."""
        return DeviceStats(**{f.name: getattr(self, f.name) for f in fields(self)})

    def delta(self, since: "DeviceStats") -> "DeviceStats":
        """Return counters accumulated since an earlier :meth:`snapshot`."""
        return DeviceStats(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    @property
    def compression_ratio(self) -> float:
        """Overall post/pre compression ratio of the write stream, in (0, 1]."""
        if self.logical_bytes_written == 0:
            return 1.0
        return self.physical_bytes_written / self.logical_bytes_written
