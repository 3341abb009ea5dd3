"""Leveled compaction — the engine's historical (and default) policy.

One sorted run per level below L0.  L0 compacts wholesale into L1 once it
accumulates ``l0_compaction_trigger`` tables; a deeper level that exceeds
its geometric byte budget (``level_base_bytes * level_size_ratio**(L-1)``)
contributes a single round-robin victim merged with its overlaps one level
down.  :func:`plan_leveled_job` is the pre-strategy engine's picking logic
verbatim (the round-robin cursor stays on the version set, where its
lifetime already matches the level state it indexes).
"""

from __future__ import annotations

from typing import List, Optional

from repro.lsm.strategy.base import CompactionStrategy
from repro.lsm.version import CompactionJob, VersionSet


def plan_leveled_job(
    versions: VersionSet,
    l0_trigger: int,
    level_base_bytes: int,
    size_ratio: float,
) -> Optional[CompactionJob]:
    """The single most urgent leveled job, or ``None`` when in shape."""
    if len(versions.levels[0]) >= l0_trigger:
        inputs = list(versions.levels[0])
        min_key = min(t.meta.min_key for t in inputs)
        max_key = max(t.meta.max_key for t in inputs)
        overlaps = versions.overlapping(1, min_key, max_key)
        return CompactionJob(level=0, inputs=inputs, overlaps=overlaps)

    for level in range(1, versions.max_levels - 1):
        target = level_base_bytes * (size_ratio ** (level - 1))
        if versions.level_bytes(level) <= target:
            continue
        victim = versions.round_robin_victim(level)
        if victim is None:
            continue
        overlaps = versions.overlapping(
            level + 1, victim.meta.min_key, victim.meta.max_key
        )
        return CompactionJob(level=level, inputs=[victim], overlaps=overlaps)
    return None


class LeveledStrategy(CompactionStrategy):
    name = "leveled"
    overlapping_levels = False

    def plan(self, versions: VersionSet, config) -> List[CompactionJob]:
        job = plan_leveled_job(
            versions,
            config.l0_compaction_trigger,
            config.level_base_bytes,
            config.level_size_ratio,
        )
        return [job] if job is not None else []
