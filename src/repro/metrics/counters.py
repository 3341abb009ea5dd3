"""Write-amplification decomposition.

The paper splits B-tree write traffic into three categories (§2.4):

* ``W_log`` — redo-log writes,
* ``W_pg``  — page (and, for the B⁻-tree, page-delta) writes,
* ``W_e``   — extra writes for page-write atomicity (journal copies, page
  table persists, engine metadata).

and defines, per Eq. (1)/(2)::

    WA = α_log·WA_log + α_pg·WA_pg + α_e·WA_e,   WA_x = W_x / W_usr

where the α are post/pre compression ratios.  On the simulated drive we
measure the post-compression volumes directly, so each ``physical`` field
below *is* ``α_x · W_x`` and the decomposition sums exactly to the total.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class TrafficSnapshot:
    """Cumulative write traffic of one engine, split by category (bytes)."""

    user_bytes: int = 0
    log_logical: int = 0
    log_physical: int = 0
    page_logical: int = 0
    page_physical: int = 0
    extra_logical: int = 0
    extra_physical: int = 0
    operations: int = 0

    def delta(self, since: "TrafficSnapshot") -> "TrafficSnapshot":
        return TrafficSnapshot(
            **{
                f.name: getattr(self, f.name) - getattr(since, f.name)
                for f in fields(self)
            }
        )

    @property
    def total_logical(self) -> int:
        return self.log_logical + self.page_logical + self.extra_logical

    @property
    def total_physical(self) -> int:
        return self.log_physical + self.page_physical + self.extra_physical


@dataclass
class WaReport:
    """Write amplification, overall and per category.

    ``wa_*`` fields are physical (post-compression, the paper's headline
    metric); ``wa_*_logical`` are pre-compression for reference.
    """

    user_bytes: int
    wa_log: float
    wa_pg: float
    wa_e: float
    wa_total: float
    wa_log_logical: float
    wa_pg_logical: float
    wa_e_logical: float
    wa_total_logical: float

    def __str__(self) -> str:  # pragma: no cover - formatting aid
        return (
            f"WA={self.wa_total:.2f} "
            f"(log={self.wa_log:.2f}, pg={self.wa_pg:.2f}, e={self.wa_e:.2f}; "
            f"logical {self.wa_total_logical:.2f})"
        )


def compute_wa(traffic: TrafficSnapshot) -> WaReport:
    """Build a :class:`WaReport` from a traffic snapshot (or snapshot delta).

    With no user bytes written, all ratios are reported as 0 — an engine that
    wrote nothing amplified nothing.
    """
    usr = traffic.user_bytes
    if usr <= 0:
        return WaReport(0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    return WaReport(
        user_bytes=usr,
        wa_log=traffic.log_physical / usr,
        wa_pg=traffic.page_physical / usr,
        wa_e=traffic.extra_physical / usr,
        wa_total=traffic.total_physical / usr,
        wa_log_logical=traffic.log_logical / usr,
        wa_pg_logical=traffic.page_logical / usr,
        wa_e_logical=traffic.extra_logical / usr,
        wa_total_logical=traffic.total_logical / usr,
    )
