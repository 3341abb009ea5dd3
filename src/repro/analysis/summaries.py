"""Bottom-up per-function summaries over the project call graph.

For every function the project knows, this module computes a
:class:`FunctionSummary` — the function's externally visible effects,
closed over its resolved callees:

``raises``
    Exception class names that can *escape* the function: explicit
    ``raise`` statements plus callee raise-sets, filtered through the
    enclosing ``try``/``except`` structure (a handler that catches the
    class absorbs it unless it re-raises).
``may_flush`` / ``writes_device``
    Whether the function can issue a device flush barrier / durable write,
    directly (``<device>.flush()``, ``write_block[s][_retrying]``) or via a
    callee.  *May*-flush, not must: the tree's flush helpers legitimately
    no-op when there is nothing to write (``RedoLog.flush`` flushes only
    ``if wrote``), and that vacuous case needs no barrier — so a call to a
    may-flush helper counts as a barrier for CRS008.
``mutations``
    Direct module-level state mutations (for PUR009's transitive check).
``commit_points`` / ``undominated``
    Durable commit-point writes found in the body, each classified as
    flush-dominated or not, plus undominated points *inherited* from
    callees whose call sites are themselves not dominated — the propagation
    CRS008 reports at entry functions.

Summaries are computed callee-first over Tarjan SCCs; each cycle iterates
to a fixpoint (every component of the summary is a monotone set/flag, so
the iteration terminates).

The dominance walk is a path-insensitive abstract interpretation with one
bit of state ("a barrier has definitely executed"): branches AND-merge,
loop bodies are analyzed at the loop-entry state, exception handlers start
at the ``try``-entry state, and calls inside lambdas / comprehensions /
ternaries never *establish* a barrier (they may not execute) though commit
points found there are still reported (they *may* execute).
"""

from __future__ import annotations

import ast
import builtins
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.analysis.project import (
    DEVICE_NAME_HINTS,
    FunctionInfo,
    ProjectIndex,
    strongly_connected_components,
)
from repro.analysis.rules._common import dotted_name, exception_names, root_name

#: Functions whose call is a durable write to a device.
WRITE_PRIMITIVES = frozenset(
    {"write_block", "write_blocks", "write_block_retrying", "write_blocks_retrying"}
)

#: Functions whose call discards blocks (the visible half of a shadow flip).
TRIM_PRIMITIVES = frozenset({"trim", "trim_retrying"})

#: Commit-point kinds (stable strings used in findings and tests).
KIND_WAL_MARKER = "wal-commit-marker"
KIND_SHADOW_FLIP = "shadow-flip-trim"
KIND_META_WRITE = "meta-page-write"


@dataclass(frozen=True)
class CommitPoint:
    """One durable commit-point write, anchored to its source location."""

    kind: str
    path: str
    line: int
    col: int
    desc: str


@dataclass(frozen=True)
class UndominatedCommit:
    """A commit point not yet proven flush-dominated, with its call chain."""

    point: CommitPoint
    chain: Tuple[str, ...]  #: qualnames from the origin function outward


@dataclass(frozen=True)
class MutationSite:
    """One direct module-level mutation (for PUR009)."""

    path: str
    line: int
    col: int
    name: str
    desc: str


@dataclass
class FunctionSummary:
    """Externally visible effects of one function, closed over callees."""

    raises: Dict[str, Tuple[str, int]] = field(default_factory=dict)
    may_flush: bool = False
    #: A flush barrier executes on *every* normal return path.
    must_flush: bool = False
    writes_device: bool = False
    mutations: Tuple[MutationSite, ...] = ()
    commit_points: Tuple[CommitPoint, ...] = ()
    undominated: Tuple[UndominatedCommit, ...] = ()

    def fingerprint(self) -> Tuple:
        return (
            tuple(sorted(self.raises)),
            self.may_flush, self.must_flush, self.writes_device,
            len(self.commit_points),
            tuple(sorted(
                (u.point.kind, u.point.path, u.point.line, u.point.col)
                for u in self.undominated
            )),
        )


# --------------------------------------------------------------------------
# Exception hierarchy
# --------------------------------------------------------------------------


def exc_ancestors(name: str, project: ProjectIndex) -> Set[str]:
    """Ancestor class names of an exception, project classes then builtins."""
    out: Set[str] = set()
    stack = [name]
    while stack:
        current = stack.pop()
        if current in out:
            continue
        out.add(current)
        classes = project.classes_by_name.get(current, [])
        if classes:
            for cls in classes:
                stack.extend(cls.bases)
            continue
        builtin = getattr(builtins, current, None)
        if isinstance(builtin, type) and issubclass(builtin, BaseException):
            out.update(base.__name__ for base in builtin.__mro__)
    return out


def handler_catches(caught: Sequence[str], raised: str, project: ProjectIndex) -> bool:
    """Does a handler naming ``caught`` classes absorb exception ``raised``?"""
    if "" in caught:  # bare except:
        return True
    ancestors = exc_ancestors(raised, project)
    return any(name in ancestors for name in caught)


# --------------------------------------------------------------------------
# Per-statement effect extraction
# --------------------------------------------------------------------------


def _receiver_is_device(func: ast.Attribute, project: ProjectIndex) -> bool:
    """``X.flush()`` / ``X.write_block(...)``: is X a block device?

    Matched by naming idiom (any component of the dotted receiver contains
    ``device``/``dev``) — the tree consistently holds devices under
    ``self.device`` / ``dst_device`` / ``self.devices[sid]`` names.
    """
    root = root_name(func.value)
    dotted = dotted_name(func.value) or root or ""
    haystack = dotted.lower()
    return any(hint in haystack for hint in DEVICE_NAME_HINTS)


def _call_name(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_flush_primitive(call: ast.Call, project: ProjectIndex) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "flush"
        and _receiver_is_device(func, project)
    )


def _is_write_primitive(call: ast.Call) -> bool:
    return _call_name(call) in WRITE_PRIMITIVES


def _is_trim_primitive(call: ast.Call) -> bool:
    name = _call_name(call)
    return name in TRIM_PRIMITIVES or name == "_trim"


def _references(node: ast.AST, needle: str) -> bool:
    """Does any Name/attribute inside ``node`` mention ``needle``?"""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name) and needle in sub.id:
            return True
        if isinstance(sub, ast.Attribute) and needle in sub.attr:
            return True
    return False


# --------------------------------------------------------------------------
# The dominance walk
# --------------------------------------------------------------------------


class _BodyWalker:
    """One pass over a function body: effects + flush-dominance states.

    ``state`` is a single boolean — "a flush barrier has definitely executed
    on every path reaching this statement".  The walk returns the end state
    and whether every path through the statements terminated (return/raise).
    """

    def __init__(
        self,
        info: FunctionInfo,
        project: ProjectIndex,
        summaries: Dict[str, FunctionSummary],
    ) -> None:
        self.info = info
        self.project = project
        self.summaries = summaries
        self.raises: Dict[str, Tuple[str, int]] = {}
        self.may_flush = False
        self.writes_device = False
        #: Barrier state at each normal exit (returns + implicit fallthrough).
        self.exit_states: List[bool] = []
        self.commit_points: List[CommitPoint] = []
        self.undominated: Dict[Tuple[str, str, int, int], UndominatedCommit] = {}
        #: Try frames: (caught name tuples of each handler, handler re-raises)
        self.try_stack: List[List[Tuple[Tuple[str, ...], bool]]] = []
        #: True once a durable write ran earlier in this body (flip detection).
        self.wrote_earlier = False
        #: Call ids nested inside an already-classified commit point — only
        #: the outermost matching call reports (``append(LogRecord(...,
        #: LogOp.COMMIT, ...))`` is one commit point, not two).
        self._covered: Set[int] = set()

    # ------------------------------------------------------------- helpers

    def _callee_summaries(self, call: ast.Call) -> List[Tuple[FunctionInfo, FunctionSummary]]:
        out = []
        for info in self.project.resolve_call(call):
            summary = self.summaries.get(info.fid)
            if summary is not None:
                out.append((info, summary))
        return out

    def _point(self, kind: str, node: ast.AST, desc: str) -> CommitPoint:
        return CommitPoint(
            kind=kind, path=self.info.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1, desc=desc,
        )

    def _add_undominated(self, undom: UndominatedCommit) -> None:
        key = (undom.point.kind, undom.point.path, undom.point.line, undom.point.col)
        self.undominated.setdefault(key, undom)

    # ----------------------------------------------------- call inspection

    def _detect_commit_point(self, call: ast.Call) -> Optional[CommitPoint]:
        """Classify a call as a durable commit-point write, if it is one."""
        # (a) WAL commit marker: LogOp.COMMIT flows into the call's args.
        for arg in list(call.args) + [kw.value for kw in call.keywords]:
            for sub in ast.walk(arg):
                if (
                    isinstance(sub, ast.Attribute)
                    and sub.attr == "COMMIT"
                    and isinstance(sub.value, ast.Name)
                    and sub.value.id == "LogOp"
                ):
                    return self._point(
                        KIND_WAL_MARKER, call,
                        "WAL COMMIT marker append",
                    )
        # (b) meta-page write: a durable write whose LBA names a META block.
        if _is_write_primitive(call):
            lba_args = list(call.args) + [kw.value for kw in call.keywords]
            if any(_references(arg, "META") for arg in lba_args):
                return self._point(
                    KIND_META_WRITE, call,
                    "meta-page durable write",
                )
        # (c) shadow flip: a trim after a durable write in the same body —
        # trimming the previous image publishes the new one.
        if _is_trim_primitive(call) and self.wrote_earlier:
            return self._point(
                KIND_SHADOW_FLIP, call,
                "shadow-flip trim of the superseded image",
            )
        return None

    def _inspect_call(self, call: ast.Call, state: bool, definite: bool) -> bool:
        """Process one call: effects, commit points, propagation.

        Returns the post-call barrier state (only ``definite`` calls can
        establish a barrier).
        """
        callees = self._callee_summaries(call)

        # Effects.
        if _is_flush_primitive(call, self.project):
            self.may_flush = True
        if _is_write_primitive(call):
            self.writes_device = True
        # Barrier credit is stricter than the may-flush *effect*: a callee
        # whose flush is incidental and conditional (``put`` checkpointing
        # under log pressure) must not dominate a later commit point.  A
        # call is a barrier iff it is a direct device flush, a callee that
        # flushes on every return path, or a may-flush callee that *is* a
        # flush helper by name (``RedoLog.flush`` no-ops exactly when
        # nothing preceded the commit point).
        barrier_call = _is_flush_primitive(call, self.project)
        for info, summary in callees:
            if summary.may_flush:
                self.may_flush = True
                if summary.must_flush or "flush" in info.name.lower():
                    barrier_call = True
            if summary.writes_device:
                self.writes_device = True
            for name, origin in summary.raises.items():
                self._record_raise(name, origin)
            # Propagate the callee's unresolved commit points through this
            # call site: a barrier before the call dominates them; otherwise
            # they become this function's problem, chain extended.
            for undom in summary.undominated:
                if not state:
                    self._add_undominated(
                        UndominatedCommit(
                            point=undom.point,
                            chain=undom.chain + (self.info.qualname,),
                        )
                    )

        # Commit-point classification for this call itself.
        point = None if id(call) in self._covered else self._detect_commit_point(call)
        if point is not None:
            self.commit_points.append(point)
            if not state:
                self._add_undominated(
                    UndominatedCommit(point=point, chain=(self.info.qualname,))
                )

        if _is_write_primitive(call) or (callees and any(s.writes_device for _, s in callees)):
            self.wrote_earlier = True

        if definite and barrier_call:
            return True
        return state

    def _record_raise(self, name: str, origin: Tuple[str, int]) -> None:
        """Record an escaping exception unless an enclosing handler absorbs it."""
        for frame in reversed(self.try_stack):
            for caught, reraises in frame:
                if handler_catches(caught, name, self.project):
                    if not reraises:
                        return
        self.raises.setdefault(name, origin)

    # ---------------------------------------------------- expression scan

    def _scan_expression(self, node: ast.AST, state: bool) -> bool:
        """Visit calls in an expression; returns the post-expression state.

        Calls nested under lambdas / comprehensions / ternaries are visited
        for detection but cannot establish a barrier (they may not run).
        """
        return self._scan(node, state, definite=True)

    def _scan(self, node: ast.AST, state: bool, definite: bool) -> bool:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            # A nested def's body runs at some later call with unknown prior
            # barrier state.  The call graph attributes its edges to the
            # enclosing function, so scan the body pessimistically: commit
            # points and callee propagation are kept, but nothing inside can
            # establish a barrier out here.
            for inner in node.body:
                self._scan(inner, False, definite=False)
            return state
        if isinstance(node, ast.ClassDef):
            return state
        if isinstance(node, ast.Lambda):
            self._scan(node.body, False, definite=False)
            return state
        nested_conditional = isinstance(
            node, (ast.IfExp, ast.BoolOp, ast.ListComp, ast.SetComp, ast.DictComp,
                   ast.GeneratorExp)
        )
        if isinstance(node, ast.Call):
            # If this call syntactically matches a marker/record/meta commit
            # point, nested calls in its arguments are part of the same
            # publication — cover them so only the outermost call reports.
            if id(node) not in self._covered and self._detect_commit_point(node):
                for sub in ast.walk(node):
                    if isinstance(sub, ast.Call) and sub is not node:
                        self._covered.add(id(sub))
            # Evaluate arguments first (they run before the call).
            for child in ast.iter_child_nodes(node):
                state = self._scan(child, state, definite and not nested_conditional)
            return self._inspect_call(node, state, definite)
        for child in ast.iter_child_nodes(node):
            state = self._scan(child, state, definite and not nested_conditional)
        return state

    # ------------------------------------------------------ statement walk

    def walk(self, stmts: Sequence[ast.stmt], state: bool) -> Tuple[bool, bool]:
        """Walk statements; returns (end_state, all_paths_terminated)."""
        terminated = False
        for stmt in stmts:
            if terminated:
                # Unreachable; still scan for detection at a pessimistic state.
                self._scan_unreachable(stmt)
                continue
            state, terminated = self._walk_stmt(stmt, state)
        return state, terminated

    def _scan_unreachable(self, stmt: ast.stmt) -> None:
        self._scan(stmt, False, definite=False)

    def _walk_stmt(self, stmt: ast.stmt, state: bool) -> Tuple[bool, bool]:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            self._scan(stmt, state, definite=False)
            return state, False
        if isinstance(stmt, ast.If):
            cond_state = self._scan_expression(stmt.test, state)
            body_state, body_term = self.walk(stmt.body, cond_state)
            else_state, else_term = self.walk(stmt.orelse, cond_state)
            if body_term and else_term:
                return cond_state, True
            if body_term:
                return else_state, False
            if else_term:
                return body_state, False
            return body_state and else_state, False
        if isinstance(stmt, (ast.For, ast.AsyncFor)):
            state = self._scan_expression(stmt.iter, state)
            self.walk(stmt.body, state)  # body may run zero times
            self.walk(stmt.orelse, state)
            return state, False
        if isinstance(stmt, ast.While):
            state = self._scan_expression(stmt.test, state)
            self.walk(stmt.body, state)
            self.walk(stmt.orelse, state)
            return state, False
        if isinstance(stmt, ast.Try):
            frame = []
            for handler in stmt.handlers:
                frame.append((exception_names(handler), _handler_reraises(handler)))
            self.try_stack.append(frame)
            body_state, body_term = self.walk(stmt.body, state)
            self.try_stack.pop()
            # The success path continues into orelse.
            success_state, success_term = body_state, body_term
            if stmt.orelse and not success_term:
                success_state, success_term = self.walk(stmt.orelse, success_state)
            # Every handler starts with only the try-entry guarantees (the
            # exception may have fired before any barrier in the body).
            live_states: List[bool] = []
            all_handlers_term = True
            for handler in stmt.handlers:
                h_state, h_term = self.walk(handler.body, state)
                if not h_term:
                    live_states.append(h_state)
                    all_handlers_term = False
            if not success_term:
                live_states.append(success_state)
            if live_states:
                merged = all(live_states)
                terminated = False
            else:
                merged = state
                terminated = success_term and all_handlers_term
            if stmt.finalbody:
                merged, final_term = self.walk(stmt.finalbody, merged)
                terminated = terminated or final_term
            return merged, terminated
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            for item in stmt.items:
                state = self._scan_expression(item.context_expr, state)
            return self.walk(stmt.body, state)
        if isinstance(stmt, ast.Return):
            if stmt.value is not None:
                state = self._scan_expression(stmt.value, state)
            self.exit_states.append(state)
            return state, True
        if isinstance(stmt, ast.Raise):
            if stmt.exc is not None:
                self._scan_expression(stmt.exc, state)
            self._handle_raise(stmt)
            return state, True
        if isinstance(stmt, (ast.Break, ast.Continue)):
            return state, True
        if isinstance(stmt, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            value = stmt.value
            if value is not None:
                state = self._scan_expression(value, state)
            return state, False
        if isinstance(stmt, ast.Expr):
            state = self._scan_expression(stmt.value, state)
            return state, False
        if isinstance(stmt, ast.Assert):
            state = self._scan_expression(stmt.test, state)
            return state, False
        if isinstance(stmt, (ast.Global, ast.Nonlocal, ast.Pass, ast.Delete)):
            return state, False
        # Fallback: scan every expression child for detection.
        state = self._scan(stmt, state, definite=True)
        return state, False

    # ---------------------------------------------------------- raise/etc

    def _handle_raise(self, stmt: ast.Raise) -> None:
        exc = stmt.exc
        origin = (self.info.path, stmt.lineno)
        if exc is None:
            # Bare re-raise: the caught classes of the innermost handler
            # escape; modelled at the try-frame level (reraises=True), so
            # nothing to record here.
            return
        name: Optional[str] = None
        if isinstance(exc, ast.Call):
            target = exc.func
            if isinstance(target, ast.Name):
                name = target.id
            elif isinstance(target, ast.Attribute):
                name = target.attr
        elif isinstance(exc, ast.Name):
            name = exc.id if exc.id[:1].isupper() else None
        elif isinstance(exc, ast.Attribute):
            name = exc.attr
        if name is not None and name[:1].isupper():
            self._record_raise(name, origin)


def _handler_reraises(handler: ast.ExceptHandler) -> bool:
    """Does the handler re-raise the *caught* exception (bare ``raise`` or
    ``raise e`` of the bound name)?  Raising a different class is a
    conversion, not a re-raise — the caught class is absorbed."""
    for node in ast.walk(handler):
        if not isinstance(node, ast.Raise):
            continue
        if node.exc is None:
            return True
        if (
            handler.name
            and isinstance(node.exc, ast.Name)
            and node.exc.id == handler.name
        ):
            return True
    return False


# --------------------------------------------------------------------------
# Direct module-level mutations (per function, module-scope aware)
# --------------------------------------------------------------------------

_MUTATOR_METHODS = frozenset(
    {
        "append", "extend", "insert", "add", "update", "pop", "popitem",
        "remove", "discard", "clear", "setdefault", "sort", "appendleft",
        "extendleft",
    }
)


def _module_level_names(tree: ast.Module) -> Set[str]:
    names: Set[str] = set()
    for stmt in tree.body:
        targets: List[ast.AST] = []
        if isinstance(stmt, ast.Assign):
            targets = list(stmt.targets)
        elif isinstance(stmt, (ast.AnnAssign, ast.AugAssign)):
            targets = [stmt.target]
        for target in targets:
            if isinstance(target, ast.Name):
                names.add(target.id)
            elif isinstance(target, ast.Tuple):
                names.update(e.id for e in target.elts if isinstance(e, ast.Name))
    return names


def _assigned_names(func: ast.AST) -> Set[str]:
    """Names bound inside the function (params, stores, loops, withs)."""
    names: Set[str] = set()
    args = func.args
    for arg in (
        list(getattr(args, "posonlyargs", [])) + list(args.args)
        + list(args.kwonlyargs)
    ):
        names.add(arg.arg)
    if args.vararg:
        names.add(args.vararg.arg)
    if args.kwarg:
        names.add(args.kwarg.arg)
    for node in ast.walk(func):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
        elif isinstance(node, ast.ExceptHandler) and node.name:
            names.add(node.name)
    return names


def compute_direct_mutations(
    info: FunctionInfo, module_tree: ast.Module
) -> Tuple[MutationSite, ...]:
    """Direct module-level mutations in one function body."""
    module_names = _module_level_names(module_tree)
    if not module_names:
        return ()
    shadow = _assigned_names(info.node)
    declared_global: Set[str] = set()
    sites: List[MutationSite] = []

    def site(node: ast.AST, name: str, desc: str) -> MutationSite:
        return MutationSite(
            path=info.path, line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0) + 1, name=name, desc=desc,
        )

    for node in ast.walk(info.node):
        if isinstance(node, ast.Global):
            declared_global.update(node.names)
            for name in node.names:
                sites.append(site(node, name, f"declares global {name}"))
        elif isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, (ast.Subscript, ast.Attribute)):
                    root = root_name(target)
                    if root in module_names and root not in shadow:
                        sites.append(site(target, root, f"stores into module-level `{root}`"))
                elif isinstance(target, ast.Name) and target.id in declared_global:
                    sites.append(site(target, target.id, f"rebinds global `{target.id}`"))
        elif isinstance(node, ast.Call):
            func = node.func
            if (
                isinstance(func, ast.Attribute)
                and func.attr in _MUTATOR_METHODS
                and isinstance(func.value, ast.Name)
                and func.value.id in module_names
                and func.value.id not in shadow
            ):
                sites.append(
                    site(node, func.value.id,
                         f"calls `{func.value.id}.{func.attr}(...)` on module state")
                )
    return tuple(sites)


# --------------------------------------------------------------------------
# The fixpoint driver
# --------------------------------------------------------------------------


def compute_summaries(
    project: ProjectIndex, trees: Dict[str, ast.Module]
) -> Dict[str, FunctionSummary]:
    """Compute every function's summary, callee-first, cycles to fixpoint."""
    summaries: Dict[str, FunctionSummary] = {
        fid: FunctionSummary() for fid in project.functions
    }

    def analyze(fid: str) -> FunctionSummary:
        info = project.functions[fid]
        walker = _BodyWalker(info, project, summaries)
        end_state, terminated = walker.walk(info.node.body, state=False)
        if not terminated:
            walker.exit_states.append(end_state)
        must_flush = bool(walker.exit_states) and all(walker.exit_states)
        mutations = compute_direct_mutations(info, trees[info.path])
        return FunctionSummary(
            raises=walker.raises,
            may_flush=walker.may_flush,
            must_flush=must_flush,
            writes_device=walker.writes_device,
            mutations=mutations,
            commit_points=tuple(walker.commit_points),
            undominated=tuple(
                walker.undominated[k] for k in sorted(walker.undominated)
            ),
        )

    for scc in strongly_connected_components(project):
        for _round in range(len(scc) + 2):
            changed = False
            for fid in scc:
                new = analyze(fid)
                if new.fingerprint() != summaries[fid].fingerprint():
                    changed = True
                summaries[fid] = new
            if not changed:
                break

    project.summaries = summaries
    return summaries


def entry_functions(project: ProjectIndex) -> Set[str]:
    """Functions reachable from outside the analyzed set.

    A function is an *entry* if no analyzed call site resolves to it, or if
    its value escapes as a callback (stored/passed, so an untracked caller
    may invoke it at any point).
    """
    entries: Set[str] = set()
    for fid in project.functions:
        if not project.callers.get(fid):
            entries.add(fid)
    entries |= set(project.escaping) & set(project.functions)
    return entries
