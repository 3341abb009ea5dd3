"""Tiered compaction (size-tiered / universal style).

Every level accumulates whole sorted runs; once a level holds ``trigger``
runs (``l0_compaction_trigger`` at L0, ``level_size_ratio`` rounded down —
at least 2 — below), *all* of them merge into a single new run one level
down, overlapping nothing there (``overlaps=[]``) and arriving as that
level's newest run — the runs already there came from earlier tiers, and
position is age (:meth:`~repro.lsm.version.VersionSet.newest_first`), so
leaving them out is safe.  Deep levels are allowed
to hold overlapping runs, which is exactly what buys tiering its lower
write amplification — each record is rewritten once per level instead of
once per level *per incoming run*.  The price is read fan-out (every run
per level is probed) and deferred tombstone reclamation: the engine only
drops tombstones when no excluded run overlaps the merged key range.
"""

from __future__ import annotations

from typing import List

from repro.lsm.strategy.base import CompactionStrategy
from repro.lsm.version import CompactionJob, VersionSet


def run_trigger(level: int, config) -> int:
    """Runs a level may hold before it must merge down."""
    if level == 0:
        return config.l0_compaction_trigger
    return max(2, int(config.level_size_ratio))


class TieredStrategy(CompactionStrategy):
    name = "tiered"
    overlapping_levels = True

    def plan(self, versions: VersionSet, config) -> List[CompactionJob]:
        for level in range(versions.max_levels - 1):
            runs = versions.levels[level]
            if len(runs) >= run_trigger(level, config):
                return [CompactionJob(level=level, inputs=list(runs), overlaps=[])]
        return []
