"""PUR009 — worker purity: a pool worker and its whole call closure are pure.

Scope: the whole tree.

``bench/parallel`` fans experiment points across a ``ProcessPoolExecutor``
and promises results bit-identical to a serial run.  That only holds if a
worker function is a pure function of its arguments: mutating module-level
state (caches, accumulators, ``global`` rebinding) works by accident in a
forked worker — each process sees its own copy — and then silently
diverges from the serial path, or breaks under a spawn start method.  A
worker that stays textually clean while calling a helper that bumps a
module-level cache diverges just the same; the mutation merely moved one
frame down.

The rule finds every pool worker in the project (``pool.submit``/
``pool.map`` on a ``ProcessPoolExecutor``, ``run_specs``/``run_grid``
positionally or via ``runner=``, including
``functools.partial(f, ...)`` wrappers, dispatcher parameter *defaults*,
and workers imported from another module), walks the worker body and its
full resolved call closure, and reports every module-level mutation
(``global`` declarations and rebinding, subscript/attribute stores, calls
of mutating container methods) found there.

Unknown callees are treated *optimistically* (no mutations): the rule
bounds what resolvable project code does, and the conservative alternative
would flag every worker that calls a builtin.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.analysis.framework import FileContext, Finding, ProjectRule, register

#: Entry points that take a worker callable.
POOL_DISPATCHERS = frozenset({"run_specs", "run_grid"})

#: Keyword name those dispatchers accept the callable under.
WORKER_KEYWORD = "runner"


def _pool_names(tree: ast.Module) -> Set[str]:
    """Names bound to ProcessPoolExecutor instances (assign or with-item)."""

    def is_pool_call(node: ast.AST) -> bool:
        if not isinstance(node, ast.Call):
            return False
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        return name == "ProcessPoolExecutor"

    pools: Set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and is_pool_call(node.value):
            pools.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            for item in node.items:
                if is_pool_call(item.context_expr) and isinstance(
                    item.optional_vars, ast.Name
                ):
                    pools.add(item.optional_vars.id)
    return pools


def _unwrap_worker_expr(node: ast.AST) -> Optional[str]:
    """The worker name in ``f``, ``partial(f, ...)``, ``functools.partial(f, ...)``."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Call):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "partial" and node.args and isinstance(node.args[0], ast.Name):
            return node.args[0].id
    return None


@register
class WorkerPurity(ProjectRule):
    id = "PUR009"
    title = "pool worker or its callee mutates module-level state"
    severity = "error"
    invariant = (
        "Parallel figure runs are bit-identical to serial runs: a pool "
        "worker's body and its entire call closure are a pure function of "
        "the submitted arguments."
    )

    def check_project(
        self, project, contexts: Sequence[FileContext]
    ) -> Iterable[Finding]:
        summaries = project.summaries or {}
        workers = self._find_workers(project, contexts)

        #: mutation site key → finding; first (sorted) worker wins.
        findings: Dict[Tuple[str, int, int], Finding] = {}
        for worker_fid in sorted(workers):
            worker_qual = project.functions[worker_fid].qualname
            for fid, chain in self._closure(project, worker_fid):
                info = project.functions[fid]
                summary = summaries.get(fid)
                if summary is None:
                    continue
                for site in summary.mutations:
                    key = (site.path, site.line, site.col)
                    if key in findings:
                        continue
                    if fid == worker_fid:
                        message = (
                            f"pool worker `{worker_qual}` {site.desc}; workers "
                            f"must be pure functions of their arguments"
                        )
                    else:
                        message = (
                            f"helper `{info.qualname}` {site.desc}, and is "
                            f"reached from pool worker `{worker_qual}` "
                            f"(via {' -> '.join(chain)}); the worker's whole "
                            f"call closure must be pure"
                        )
                    findings[key] = Finding(
                        path=site.path, line=site.line, col=site.col,
                        rule=self.id, severity=self.severity, message=message,
                    )
        return [findings[key] for key in sorted(findings)]

    # ----------------------------------------------------------- discovery

    def _find_workers(
        self, project, contexts: Sequence[FileContext]
    ) -> Set[str]:
        workers: Set[str] = set()
        for ctx in contexts:
            pools = _pool_names(ctx.tree)
            for node in ast.walk(ctx.tree):
                if isinstance(node, ast.FunctionDef) and node.name in POOL_DISPATCHERS:
                    # Dispatcher *defaults*: def run_specs(specs, runner=f).
                    args = node.args
                    named = list(args.args) + list(args.kwonlyargs)
                    defaults = (
                        [None] * (len(args.args) - len(args.defaults))
                        + list(args.defaults) + list(args.kw_defaults)
                    )
                    for arg, default in zip(named, defaults):
                        if arg.arg == WORKER_KEYWORD and default is not None:
                            name = _unwrap_worker_expr(default)
                            if name:
                                self._add_worker(project, ctx, name, workers)
                    continue
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                if (
                    isinstance(func, ast.Attribute)
                    and func.attr in ("submit", "map")
                    and isinstance(func.value, ast.Name)
                    and func.value.id in pools
                    and node.args
                ):
                    name = _unwrap_worker_expr(node.args[0])
                    if name:
                        self._add_worker(project, ctx, name, workers)
                dispatcher = (
                    func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
                )
                if dispatcher in POOL_DISPATCHERS:
                    for arg in node.args[1:2]:
                        name = _unwrap_worker_expr(arg)
                        if name:
                            self._add_worker(project, ctx, name, workers)
                    for kw in node.keywords:
                        if kw.arg == WORKER_KEYWORD:
                            name = _unwrap_worker_expr(kw.value)
                            if name:
                                self._add_worker(project, ctx, name, workers)
        return workers

    def _add_worker(
        self, project, ctx: FileContext, name: str, workers: Set[str]
    ) -> None:
        """Resolve a worker name: same-file def first, then the import map."""
        local = project.module_functions.get(ctx.path, {}).get(name)
        if local is not None:
            workers.add(local.fid)
            return
        imported = project.imports.get(ctx.path, {}).get(name)
        if imported is not None:
            module, symbol = imported
            target_path = project.module_paths.get(module)
            if target_path is not None and symbol is not None:
                target = project.module_functions.get(target_path, {}).get(symbol)
                if target is not None:
                    workers.add(target.fid)

    # ------------------------------------------------------------- closure

    def _closure(
        self, project, worker_fid: str
    ) -> Iterable[Tuple[str, Tuple[str, ...]]]:
        """The worker itself, then every reachable callee, with call chains."""
        worker_chain = (project.functions[worker_fid].qualname,)
        yield worker_fid, worker_chain
        seen: Set[str] = {worker_fid}
        queue: List[Tuple[str, Tuple[str, ...]]] = [(worker_fid, worker_chain)]
        while queue:
            fid, chain = queue.pop(0)
            for callee in sorted(project.edges.get(fid, ())):
                if callee in seen or callee not in project.functions:
                    continue
                seen.add(callee)
                callee_chain = chain + (project.functions[callee].qualname,)
                yield callee, callee_chain
                queue.append((callee, callee_chain))
