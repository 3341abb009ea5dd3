"""ERR010 — exception contracts: public APIs leak only ReproError subclasses.

Scope: the public engine/service facades — files named ``engine.py``,
``bminus.py`` or ``server.py`` (outside ``csd/``).

Callers of :class:`~repro.core.bminus.BMinusTree`, the engines and the
serving layer are promised a single exception taxonomy:
everything the reproduction raises derives from
:class:`~repro.errors.ReproError`, so ``except ReproError`` is a complete
guard and typed subfamilies (``DeviceError``, ``ServiceError``…) are
meaningful.  A helper that lets a bare ``ValueError`` or ``struct.error``
escape through a public method silently breaks that contract — exactly the
kind of cross-function property a per-file rule cannot see.

The rule takes each public method of each public class in a scoped file and
checks its interprocedural raises-set (explicit ``raise`` statements,
propagated through resolved callees, filtered by enclosing handlers — see
:mod:`repro.analysis.summaries`).  Any escaping class that is neither a
``ReproError`` subclass nor on the allow-list is reported at the method
definition with the origin site as a witness.  Unknown callees are treated
*optimistically* (no raises) — the rule bounds what *our* code throws, not
what the standard library might.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence

from repro.analysis.framework import FileContext, Finding, ProjectRule, register

#: File basenames whose public classes form the supported API surface.
API_BASENAMES = ("engine.py", "bminus.py", "server.py")

#: Escapes that are part of Python's own protocol, not the error taxonomy.
ALLOWED_ESCAPES = frozenset(
    {"AssertionError", "NotImplementedError", "StopIteration", "KeyboardInterrupt"}
)


def _is_public_method(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


@register
class ExceptionContracts(ProjectRule):
    id = "ERR010"
    title = "public API method can leak a non-ReproError"
    severity = "error"
    invariant = (
        "Public engine/service methods raise only ReproError "
        "subclasses: `except ReproError` is a complete guard for callers "
        "and the typed error families stay meaningful."
    )

    def check_project(
        self, project, contexts: Sequence[FileContext]
    ) -> Iterable[Finding]:
        from repro.analysis.summaries import exc_ancestors

        summaries = project.summaries or {}
        findings: List[Finding] = []
        for ctx in contexts:
            if not self._in_scope(ctx):
                continue
            for cls in project.classes.values():
                if cls.path != ctx.path or cls.name.startswith("_"):
                    continue
                for method_name in sorted(cls.methods):
                    if not _is_public_method(method_name):
                        continue
                    info = cls.methods[method_name]
                    summary = summaries.get(info.fid)
                    if summary is None:
                        continue
                    leaks = []
                    for exc_name in sorted(summary.raises):
                        ancestors = exc_ancestors(exc_name, project)
                        if "ReproError" in ancestors:
                            continue
                        if exc_name in ALLOWED_ESCAPES:
                            continue
                        leaks.append((exc_name, summary.raises[exc_name]))
                    for exc_name, (origin_path, origin_line) in leaks:
                        findings.append(
                            Finding(
                                path=ctx.path,
                                line=getattr(info.node, "lineno", 1),
                                col=getattr(info.node, "col_offset", 0) + 1,
                                rule=self.id,
                                severity=self.severity,
                                message=(
                                    f"public method `{cls.name}.{method_name}` "
                                    f"can leak `{exc_name}` (raised at "
                                    f"{project.display_path(origin_path)}:"
                                    f"{origin_line}); wrap it in "
                                    f"a ReproError subclass at the boundary"
                                ),
                            )
                        )
        return findings

    def _in_scope(self, ctx: FileContext) -> bool:
        if ctx.has_path_segment("csd"):
            return False
        return ctx.parts[-1] in API_BASENAMES
