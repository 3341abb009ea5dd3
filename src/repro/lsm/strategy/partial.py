"""Partial compaction — one overlapping-range slice per job.

Leveled level shape (one sorted run per deep level), but work is metered:
instead of folding *all* of L0 into L1 at once, each job takes only the
``partial_slice_tables`` **oldest** L0 tables plus their L1 overlaps.
Taking the oldest slice is what makes this sound — the output lands in L1,
below every remaining (newer) L0 table, so the survivors keep shadowing it
(see the contract in :mod:`repro.lsm.strategy.base`).
Deeper levels already compact one round-robin victim at a time, i.e. the
leveled policy below L0 *is* partial; it is reused verbatim here.

The payoff is bounded job size (smaller compaction bursts, shorter stalls
at a given trigger) at the cost of more manifest churn per byte moved.
"""

from __future__ import annotations

from typing import List

from repro.lsm.strategy.base import CompactionStrategy
from repro.lsm.strategy.leveled import plan_leveled_job
from repro.lsm.version import CompactionJob, VersionSet


class PartialStrategy(CompactionStrategy):
    name = "partial"
    overlapping_levels = False

    def plan(self, versions: VersionSet, config) -> List[CompactionJob]:
        if len(versions.levels[0]) >= config.l0_compaction_trigger:
            # L0 is kept oldest-first; slice from the front.
            inputs = list(versions.levels[0][: config.partial_slice_tables])
            min_key = min(r.meta.min_key for r in inputs)
            max_key = max(r.meta.max_key for r in inputs)
            overlaps = versions.overlapping(1, min_key, max_key)
            return [CompactionJob(level=0, inputs=inputs, overlaps=overlaps)]

        for level in range(1, versions.max_levels - 1):
            target = config.level_base_bytes * (config.level_size_ratio ** (level - 1))
            if versions.level_bytes(level) <= target:
                continue
            victim = versions.round_robin_victim(level)
            if victim is None:
                continue
            overlaps = versions.overlapping(
                level + 1, victim.meta.min_key, victim.meta.max_key
            )
            return [CompactionJob(level=level, inputs=[victim], overlaps=overlaps)]
        return []
