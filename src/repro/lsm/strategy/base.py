"""The compaction-policy interface.

A :class:`CompactionStrategy` decides *which* tables merge and *where* the
output lands; the engine's :meth:`~repro.lsm.engine.LSMEngine._execute`
owns the mechanics (merge, write, trim, manifest).  The contract:

* :meth:`plan` returns the jobs that should run *now* given the current
  level shape; the engine executes them and re-plans until the strategy
  returns an empty list, so a strategy never needs to anticipate the shape
  its own jobs produce.
* Every job's ``output_level`` is ``level + 1``; a job's ``inputs`` live at
  ``level`` and its ``overlaps`` at the output level.  Age is position
  (:meth:`~repro.lsm.version.VersionSet.newest_first`), and the output is
  added to ``level + 1`` as its newest member, so a job that takes only
  some tables of an overlapping level (L0, or any level under tiering) must
  take the *oldest* ones — those left behind at ``level`` keep outranking
  the output.  A job into a disjoint (leveled) level must list every table
  there that the merged key range overlaps; the version set raises
  :class:`~repro.errors.CompactionError` otherwise.
* :attr:`overlapping_levels` declares whether deep levels may hold
  overlapping sorted runs (tiering).  The :class:`~repro.lsm.version.
  VersionSet` relaxes its disjointness invariant, probes every matching run
  per level on reads, and the engine only drops tombstones when no
  excluded same-level run overlaps the merged key range.

Strategies are stateless policy objects; all level state lives in the
version set (including the leveled round-robin cursor, which must survive
exactly as long as the version set does — and no longer — to stay
bit-identical with the pre-strategy engine).
"""

from __future__ import annotations

from typing import List

from repro.lsm.version import CompactionJob, VersionSet


class CompactionStrategy:
    """Base class for compaction policies (see module docstring)."""

    #: Registry key (``LSMConfig.compaction_strategy``).
    name: str = "?"
    #: Whether levels >= 1 may hold overlapping sorted runs.
    overlapping_levels: bool = False

    def plan(self, versions: VersionSet, config) -> List[CompactionJob]:
        """Jobs to run now; empty when the shape is healthy."""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"
