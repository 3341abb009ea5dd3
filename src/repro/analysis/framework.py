"""The analysis framework: rule registry, AST walk, findings, suppressions.

A *rule* is a plugin: a subclass of :class:`Rule` registered with the
:func:`register` decorator.  Each rule declares an ``id`` (``EXC004``), a
``severity``, a one-line ``title``, and implements :meth:`Rule.check` over a
parsed module.  The framework owns everything rules should not re-implement:

* file discovery and per-file parsing (one :func:`ast.parse` per file,
  shared by every rule),
* parent links on the tree (``parent_of`` / ``ancestors``) so rules can
  reason about enclosing guards, handlers, and functions,
* ``# repro: noqa[RULE]`` inline suppressions, including the
  *unused-suppression* check (``NQA000``): a suppression that matches no
  finding is itself a finding, so stale escapes cannot accumulate,
* deterministic ordering and the JSON / human output formats.

Rules are pure functions of the AST plus the file's path parts — no I/O, no
imports of the code under analysis — so the linter can safely run over
fixture files containing deliberate violations.
"""

from __future__ import annotations

import ast
import re
import tokenize
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple, Type

from repro.errors import ConfigError

#: Rule id for the unused-suppression meta check.
UNUSED_SUPPRESSION_ID = "NQA000"

#: Rule id reported when a file does not parse.
PARSE_ERROR_ID = "AST000"

_NOQA_RE = re.compile(
    r"#\s*repro:\s*noqa(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?", re.IGNORECASE
)


@dataclass(frozen=True)
class Finding:
    """One rule violation, anchored to a source location."""

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str

    def sort_key(self) -> Tuple[str, int, int, str]:
        return (self.path, self.line, self.col, self.rule)

    def as_dict(self) -> Dict[str, object]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "rule": self.rule,
            "severity": self.severity,
            "message": self.message,
        }


class FileContext:
    """Everything a rule may consult about the file under analysis."""

    def __init__(self, path: str, source: str, tree: ast.Module) -> None:
        self.path = path
        self.source = source
        self.tree = tree
        self.lines = source.splitlines()
        #: Path components, used for scope decisions (e.g. "inside csd/").
        self.parts: Tuple[str, ...] = Path(path).parts
        #: Whole-program view (:class:`repro.analysis.project.ProjectIndex`),
        #: attached by the drivers before rules run.  Single-file analyses
        #: get a project built over just that file, so rules can rely on it.
        self.project = None
        self._parents: Dict[int, ast.AST] = {}
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                self._parents[id(child)] = node

    # ------------------------------------------------------------ tree nav

    def parent_of(self, node: ast.AST) -> Optional[ast.AST]:
        return self._parents.get(id(node))

    def ancestors(self, node: ast.AST) -> Iterator[ast.AST]:
        """Yield enclosing nodes from the immediate parent up to the module."""
        current = self.parent_of(node)
        while current is not None:
            yield current
            current = self.parent_of(current)

    def enclosing_function(
        self, node: ast.AST
    ) -> Optional[ast.AST]:
        """The innermost function/async-function containing ``node``."""
        for anc in self.ancestors(node):
            if isinstance(anc, (ast.FunctionDef, ast.AsyncFunctionDef)):
                return anc
        return None

    def has_path_segment(self, *segments: str) -> bool:
        """True if any directory/file component of the path is in ``segments``."""
        return any(part in segments for part in self.parts)

    # ------------------------------------------------------------ findings

    def finding(self, rule: "Rule", node: ast.AST, message: str) -> Finding:
        return Finding(
            path=self.path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1,
            rule=rule.id,
            severity=rule.severity,
            message=message,
        )


class Rule:
    """Base class for checkers.  Subclass, set the metadata, implement check.

    ``id`` is the stable identifier used in output, ``--rules`` filters and
    ``# repro: noqa[ID]`` suppressions.  ``invariant`` is the paper-level
    contract the rule protects (documented in DESIGN.md §12).
    """

    id: str = ""
    title: str = ""
    severity: str = "error"
    invariant: str = ""

    def applies_to(self, ctx: FileContext) -> bool:
        """Scope hook: return False to skip this file entirely."""
        return True

    def check(self, ctx: FileContext) -> Iterable[Finding]:
        raise NotImplementedError

    def make(self, ctx: FileContext, node: ast.AST, message: str) -> Finding:
        return ctx.finding(self, node, message)


class ProjectRule(Rule):
    """A rule over the whole program rather than one file.

    Project rules run once per analysis, after every file is parsed and the
    interprocedural summaries are computed; their findings are merged into
    the per-file streams *before* suppressions apply, so ``# repro: noqa``
    markers work identically for both rule kinds.
    """

    def check(self, ctx: FileContext) -> Iterable[Finding]:  # pragma: no cover
        return ()

    def check_project(
        self, project, contexts: Sequence[FileContext]
    ) -> Iterable[Finding]:
        raise NotImplementedError


_REGISTRY: Dict[str, Rule] = {}


def register(cls: Type[Rule]) -> Type[Rule]:
    """Class decorator: instantiate and add a rule to the global registry."""
    rule = cls()
    if not rule.id:
        raise ConfigError(f"rule {cls.__name__} has no id")
    if rule.id in _REGISTRY:
        raise ConfigError(f"duplicate rule id {rule.id}")
    _REGISTRY[rule.id] = rule
    return cls


def _ensure_rules_loaded() -> None:
    # Import for the registration side effect only; deferred to avoid a
    # circular import (rule modules import this framework).
    from repro.analysis import rules as _rules  # noqa: F401


def all_rules() -> List[Rule]:
    """Every registered rule, in id order."""
    _ensure_rules_loaded()
    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def rule_ids() -> List[str]:
    _ensure_rules_loaded()
    return sorted(_REGISTRY)


def get_rule(rule_id: str) -> Rule:
    _ensure_rules_loaded()
    try:
        return _REGISTRY[rule_id]
    except KeyError:
        raise ConfigError(
            f"unknown rule id {rule_id!r}; known rules: {', '.join(sorted(_REGISTRY))}"
        ) from None


def select_rules(spec: Optional[str]) -> List[Rule]:
    """Resolve a ``--rules`` CSV filter (``None``/empty means every rule)."""
    if not spec:
        return all_rules()
    return [get_rule(token.strip().upper()) for token in spec.split(",") if token.strip()]


# --------------------------------------------------------------------------
# Suppressions
# --------------------------------------------------------------------------


@dataclass
class _Suppression:
    line: int
    col: int
    rules: Optional[Tuple[str, ...]]  # None = a blanket marker with no [RULES]
    used: bool = False
    unknown: Tuple[str, ...] = field(default_factory=tuple)

    def matches(self, finding: Finding) -> bool:
        if finding.line != self.line:
            return False
        return self.rules is None or finding.rule in self.rules


def _parse_suppressions(source: str, known_ids: Sequence[str]) -> List[_Suppression]:
    """Collect ``# repro: noqa[...]`` markers from real comment tokens.

    Tokenising (rather than regexing raw lines) keeps markers inside string
    literals from acting as suppressions.
    """
    suppressions: List[_Suppression] = []
    known = set(known_ids)
    try:
        tokens = tokenize.generate_tokens(iter(source.splitlines(True)).__next__)
        comments = [t for t in tokens if t.type == tokenize.COMMENT]
    except (tokenize.TokenError, IndentationError):  # pragma: no cover - defensive
        comments = []
    for tok in comments:
        match = _NOQA_RE.search(tok.string)
        if match is None:
            continue
        raw = match.group("rules")
        if raw is None:
            rules: Optional[Tuple[str, ...]] = None
            unknown: Tuple[str, ...] = ()
        else:
            ids = tuple(token.strip().upper() for token in raw.split(",") if token.strip())
            rules = ids
            unknown = tuple(rule_id for rule_id in ids if rule_id not in known)
        suppressions.append(
            _Suppression(line=tok.start[0], col=tok.start[1] + 1, rules=rules, unknown=unknown)
        )
    return suppressions


# --------------------------------------------------------------------------
# Analysis drivers
# --------------------------------------------------------------------------


def _parse_error_finding(path: str, exc: SyntaxError) -> Finding:
    return Finding(
        path=path,
        line=exc.lineno or 1,
        col=(exc.offset or 1),
        rule=PARSE_ERROR_ID,
        severity="error",
        message=f"file does not parse: {exc.msg}",
    )


def _run_file_rules(ctx: FileContext, rules: Sequence[Rule]) -> List[Finding]:
    """Run the per-file rules (everything but :class:`ProjectRule`)."""
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            continue
        if not rule.applies_to(ctx):
            continue
        raw.extend(rule.check(ctx))
    return raw


def _apply_suppressions(
    path: str, source: str, raw: Sequence[Finding], selected_ids: Sequence[str]
) -> List[Finding]:
    """Apply ``# repro: noqa`` markers; unused markers become ``NQA000``."""
    _ensure_rules_loaded()
    selected = set(selected_ids)
    # Unknown-id validation is against the full registry: a suppression for a
    # rule that simply wasn't selected this run is not a typo.
    suppressions = _parse_suppressions(source, sorted(_REGISTRY))
    kept: List[Finding] = []
    for finding in raw:
        suppressed = False
        for sup in suppressions:
            if sup.matches(finding):
                sup.used = True
                suppressed = True
        if not suppressed:
            kept.append(finding)
    for sup in suppressions:
        if not sup.used and not sup.unknown:
            # Usage is only decidable when every rule the marker names (or,
            # for a blanket marker, every rule) actually ran.
            names_unselected = (
                sup.rules is None and selected != set(_REGISTRY)
            ) or (
                sup.rules is not None and not set(sup.rules) <= selected
            )
            if names_unselected:
                continue
        if sup.unknown:
            kept.append(
                Finding(
                    path=path,
                    line=sup.line,
                    col=sup.col,
                    rule=UNUSED_SUPPRESSION_ID,
                    severity="error",
                    message=(
                        "suppression names unknown rule id(s): "
                        + ", ".join(sup.unknown)
                    ),
                )
            )
        elif not sup.used:
            kept.append(
                Finding(
                    path=path,
                    line=sup.line,
                    col=sup.col,
                    rule=UNUSED_SUPPRESSION_ID,
                    severity="error",
                    message="unused suppression: no finding matches this noqa",
                )
            )
    return kept


def _build_project(contexts: Sequence[FileContext], roots: Sequence[str] = ()):
    """Build the whole-program index + summaries and attach to contexts."""
    from repro.analysis.project import build_project
    from repro.analysis.summaries import compute_summaries

    project = build_project(contexts)
    project.roots = tuple(roots)
    compute_summaries(project, {ctx.path: ctx.tree for ctx in contexts})
    for ctx in contexts:
        ctx.project = project
    return project


def _run_project_rules(
    project, contexts: Sequence[FileContext], rules: Sequence[Rule]
) -> List[Finding]:
    raw: List[Finding] = []
    for rule in rules:
        if isinstance(rule, ProjectRule):
            raw.extend(rule.check_project(project, contexts))
    return raw


def analyze_source(
    source: str,
    path: str,
    rules: Optional[Sequence[Rule]] = None,
) -> List[Finding]:
    """Run ``rules`` over one in-memory module; returns sorted findings.

    The module is analyzed as a one-file project, so interprocedural rules
    see same-file helpers.
    Inline ``# repro: noqa[RULE]`` suppressions are applied here, and any
    suppression that matched nothing is reported as ``NQA000`` — an unused
    escape hatch is treated as lint debt, exactly like a violation.
    """
    if rules is None:
        rules = all_rules()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as exc:
        return [_parse_error_finding(path, exc)]
    ctx = FileContext(path, source, tree)
    project = _build_project([ctx])
    raw = _run_file_rules(ctx, rules)
    raw.extend(_run_project_rules(project, [ctx], rules))
    kept = _apply_suppressions(path, source, raw, [rule.id for rule in rules])
    return sorted(kept, key=Finding.sort_key)


def analyze_file(path: str, rules: Optional[Sequence[Rule]] = None) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    return analyze_source(source, path, rules)


def iter_python_files(paths: Sequence[str]) -> List[str]:
    """Expand files/directories into a sorted, de-duplicated ``.py`` list."""
    seen = {}
    for entry in paths:
        root = Path(entry)
        if root.is_dir():
            candidates = sorted(root.rglob("*.py"))
        elif root.suffix == ".py":
            candidates = [root]
        else:
            raise ConfigError(f"not a Python file or directory: {entry}")
        for candidate in candidates:
            if "__pycache__" in candidate.parts:
                continue
            seen[str(candidate)] = True
    return sorted(seen)


def analyze_paths(
    paths: Sequence[str],
    rules: Optional[Sequence[Rule]] = None,
) -> Tuple[List[Finding], int]:
    """Analyze every ``.py`` under ``paths``; returns (findings, files_scanned).

    One project index is built over the full file set and shared by every
    rule (summaries are computed once), and the merged output is sorted.
    """
    if rules is None:
        rules = all_rules()
    files = iter_python_files(paths)

    contexts: List[FileContext] = []
    parse_errors: List[Finding] = []
    for path in files:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            parse_errors.append(_parse_error_finding(path, exc))
            continue
        contexts.append(FileContext(path, source, tree))

    project = _build_project(contexts, [p for p in paths if Path(p).is_dir()])
    raw_by_path: Dict[str, List[Finding]] = {
        ctx.path: _run_file_rules(ctx, rules) for ctx in contexts
    }
    for finding in _run_project_rules(project, contexts, rules):
        raw_by_path.setdefault(finding.path, []).append(finding)

    selected_ids = [rule.id for rule in rules]
    findings: List[Finding] = list(parse_errors)
    for ctx in contexts:
        findings.extend(
            _apply_suppressions(ctx.path, ctx.source, raw_by_path[ctx.path], selected_ids)
        )
    return sorted(findings, key=Finding.sort_key), len(files)


# --------------------------------------------------------------------------
# Output
# --------------------------------------------------------------------------


def format_findings(findings: Sequence[Finding], files_scanned: int) -> str:
    """Human-readable report, one ``path:line:col`` finding per line."""
    lines = [
        f"{f.path}:{f.line}:{f.col}: {f.rule} [{f.severity}] {f.message}"
        for f in findings
    ]
    noun = "file" if files_scanned == 1 else "files"
    if findings:
        lines.append(f"{len(findings)} finding(s) in {files_scanned} {noun}")
    else:
        lines.append(f"clean: 0 findings in {files_scanned} {noun}")
    return "\n".join(lines)


def findings_to_json(findings: Sequence[Finding], files_scanned: int) -> Dict[str, object]:
    """JSON-safe report payload (stable field order, sorted findings)."""
    by_rule: Dict[str, int] = {}
    for finding in findings:
        by_rule[finding.rule] = by_rule.get(finding.rule, 0) + 1
    return {
        "version": 1,
        "files_scanned": files_scanned,
        "finding_count": len(findings),
        "findings_by_rule": dict(sorted(by_rule.items())),
        "findings": [f.as_dict() for f in findings],
    }
