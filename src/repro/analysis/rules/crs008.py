"""CRS008 — crash-consistency ordering: commit points are flush-dominated.

Scope: the storage protocols (``btree/``, ``core/``, ``lsm/``, ``service/``,
and fixture files under an ``engine`` segment).

The paper's WA parity rests on three crash-safe publication protocols, and
each has exactly one *commit point* — the durable write whose persistence
makes the new state the one recovery will choose:

* the WAL ``LogOp.COMMIT`` marker (group boundary in the redo ring),
* the shadow-flip trim (discarding the superseded page image publishes the
  new slot — ``DeterministicShadowPager._flip``),
* the meta-page write (root pointer).

Writing a commit point while earlier data may still sit in a volatile
device cache is the classic crash-consistency bug: after a crash the commit
record is durable but the data it commits is not, and recovery happily
replays garbage.  The rule therefore demands that on **every path** from an
entry function to a commit-point write, a flush barrier on the device
executes first.  Both sides are interprocedural: the barrier may live in a
helper (``RedoLog.flush`` flushes the device after draining the ring), and
the commit point may be buried several calls deep (``commit →
_persist_root → _write_meta``), so the check runs over the
:mod:`repro.analysis.summaries` fixpoint — a call to a *may-flush* callee
counts as a barrier (the tree's flush helpers no-op exactly when nothing
preceded the commit point), while **unknown callees conservatively count as
no barrier**.

A commit point that reaches an entry function undominated is reported once,
anchored at the write itself, with the worst call chain as a witness.
Protocols whose ordering is real but statically invisible (the
``group_atomic ⇒ log_flush_policy='commit'`` config invariant; a bootstrap
record that commits an empty table) carry a justified ``# repro:
noqa[CRS008]`` at the anchor line.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

from repro.analysis.framework import FileContext, Finding, ProjectRule, register

#: Path segments inside which commit points are reported.
PROTOCOL_SEGMENTS = ("btree", "core", "lsm", "service", "engine")

#: Path segments whose commit-point *look-alikes* are device internals or
#: probes, not protocols (the FTL trims freely; faultcheck writes garbage).
EXEMPT_SEGMENTS = ("csd", "bench", "obs", "analysis", "workloads", "metrics")


@register
class CrashConsistencyOrdering(ProjectRule):
    id = "CRS008"
    title = "commit-point write not flush-dominated on all paths"
    severity = "error"
    invariant = (
        "Every durable commit-point write (WAL COMMIT marker, shadow-flip "
        "trim, meta-page write) is preceded by a device "
        "flush barrier on every path from every entry point, so recovery "
        "never sees a commit record that outlived the data it commits."
    )

    def check_project(
        self, project, contexts: Sequence[FileContext]
    ) -> Iterable[Finding]:
        from repro.analysis.summaries import entry_functions

        summaries = project.summaries or {}
        entries = entry_functions(project)
        by_path = {ctx.path: ctx for ctx in contexts}

        #: (kind, path, line, col) → (desc, chain, entry qualname); first
        #: wins, so each commit-point site yields at most one finding no
        #: matter how many entries reach it.
        reported: Dict[Tuple[str, str, int, int], Tuple[str, Tuple[str, ...], str]] = {}
        for fid in sorted(entries):
            summary = summaries.get(fid)
            if summary is None:
                continue
            entry_qual = project.functions[fid].qualname
            for undom in summary.undominated:
                point = undom.point
                ctx = by_path.get(point.path)
                if ctx is None or not self._in_scope(ctx):
                    continue
                key = (point.kind, point.path, point.line, point.col)
                reported.setdefault(key, (point.desc, undom.chain, entry_qual))

        findings: List[Finding] = []
        for key in sorted(reported):
            kind, path, line, col = key
            desc, chain, entry_qual = reported[key]
            witness = " -> ".join(reversed(chain))
            findings.append(
                Finding(
                    path=path, line=line, col=col, rule=self.id,
                    severity=self.severity,
                    message=(
                        f"{desc} ({kind}) is reachable from entry "
                        f"`{entry_qual}` without a device flush barrier on "
                        f"some path (witness: {witness}); flush the device "
                        f"before publishing the commit point"
                    ),
                )
            )
        return findings

    def _in_scope(self, ctx: FileContext) -> bool:
        # Test fixtures live under tests/analysis/fixtures/<segment>/ — the
        # "analysis" exemption must not swallow them, so fixture trees scope
        # purely by their protocol segment.
        if ctx.has_path_segment("fixtures"):
            return ctx.has_path_segment("engine")
        if ctx.has_path_segment(*EXEMPT_SEGMENTS):
            return False
        return ctx.has_path_segment(*PROTOCOL_SEGMENTS)
