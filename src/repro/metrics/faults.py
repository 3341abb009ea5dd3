"""Fault detection/repair accounting (the self-healing "smart log").

While :mod:`repro.csd.faults` counts the faults a device *injects*,
:class:`FaultStats` counts what the storage-engine consumers *observed and
did about them*: transient-I/O retries, checksum failures caught on the read
path, shadow-slot read-repairs, journal-ring restores, corrupt-delta
fallbacks, and redo-log tail truncations.  Every pager and redo log owns one
instance; :attr:`repro.btree.engine.BTreeEngine.fault_stats` merges them into
a single per-engine surface, and ``repro faultcheck`` exports them in its
JSON report.

On a fault-free run every counter stays zero — the hardening paths only
activate on exceptions, so the paper-figure results are unaffected.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class FaultStats:
    """Cumulative fault detection and self-healing counters.

    Detection counters record faults *noticed* (a page image failing its CRC,
    a corrupt redo-log tail); repair counters record faults *fixed* (a slot
    rewritten from its sibling, a corrupt delta block scrubbed).  Retry
    counters record transient faults absorbed by the bounded-retry helpers.
    """

    #: Read requests re-issued after a :class:`~repro.errors.TransientIOError`.
    transient_read_retries: int = 0
    #: Write requests re-issued after a :class:`~repro.errors.TransientIOError`.
    transient_write_retries: int = 0
    #: Write requests re-issued after a :class:`~repro.errors.TornWriteError`.
    torn_write_retries: int = 0
    #: Page images that failed checksum/format verification when loaded,
    #: and delta blocks that failed to decode and then read back clean.
    checksum_failures: int = 0
    #: Corrupt-image or delta-block loads healed by simply re-reading
    #: (transient corruption).
    reread_heals: int = 0
    #: Loads served from the sibling shadow slot after the valid slot failed.
    arbitration_fallbacks: int = 0
    #: Corrupt shadow slots rewritten from the surviving sibling's image.
    read_repairs: int = 0
    #: In-place page images restored from a journal-ring copy.
    journal_repairs: int = 0
    #: Corrupt delta blocks ignored in favour of the full-page base image.
    delta_fallbacks: int = 0
    #: Corrupt delta blocks TRIMmed (scrubbed) after a fallback.
    delta_scrubs: int = 0
    #: Redo-log scans truncated at a corrupt (non-padding) tail record.
    wal_truncations: int = 0
    #: Unmarked commit-window tails rolled back during group-atomic recovery
    #: (the window crashed before its COMMIT marker became durable).
    group_rollbacks: int = 0

    @property
    def total_detected(self) -> int:
        """Faults noticed on the read path (independent of repair success)."""
        return self.checksum_failures + self.delta_fallbacks + self.wal_truncations

    @property
    def total_repaired(self) -> int:
        """Faults actively fixed (rewrites, restores, scrubs, re-read heals)."""
        return (
            self.read_repairs
            + self.journal_repairs
            + self.delta_scrubs
            + self.reread_heals
        )

    @property
    def total_retries(self) -> int:
        """Transient faults absorbed by bounded retry."""
        return (
            self.transient_read_retries
            + self.transient_write_retries
            + self.torn_write_retries
        )

    def __add__(self, other: "FaultStats") -> "FaultStats":
        return FaultStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in fields(self)
            }
        )

    def as_dict(self) -> dict:
        """Plain-dict view (for the ``repro faultcheck`` JSON report)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["total_detected"] = self.total_detected
        out["total_repaired"] = self.total_repaired
        out["total_retries"] = self.total_retries
        return out
