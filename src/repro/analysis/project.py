"""Whole-program symbol table and call graph for the analysis layer.

Per-file AST rules (PR 4) cannot see across function boundaries: whether a
commit-point write is preceded by a flush, whether a public method can leak
a non-:class:`~repro.errors.ReproError`, or whether a pool worker's *callees*
mutate module state are all properties of the call graph, not of any single
function body.  This module builds the project-wide structures those rules
need:

* a **symbol table** over every analyzed file: module-level functions,
  classes (with base-class links and methods), and per-file import maps so
  ``from repro.x.y import f`` resolves to the defining module;
* lightweight **type inference** for call receivers: parameter annotations,
  ``x = ClassName(...)`` locals, ``self.attr = ClassName(...)`` instance
  attributes (including ``X(...) if cond else None`` arms), and ``cls(...)``
  inside classmethods;
* a **call graph** with edges only for *resolved* callees.  ``self.m(...)``
  dispatches through the receiver class's MRO **and** every subclass
  override (virtual dispatch is modelled conservatively as "any override
  may run").  Anything else — untyped receivers, dynamic callables,
  builtins — becomes an *unknown* edge.  There is deliberately no
  name-based fallback for untyped attribute calls: ``items.append(...)`` on
  a plain list must not resolve to ``RoutingManifest.append`` just because
  the method names collide;
* **Tarjan SCCs** in reverse-topological (callee-first) order, so the
  summary computation (:mod:`repro.analysis.summaries`) can run bottom-up
  and iterate each cycle to a fixpoint.

The polarity of the unknown-callee fallback is per-client: CRS008 treats
unknown callees *conservatively* (an unknown call is never a flush barrier),
while ERR010/PUR009 treat them *optimistically* (an unknown call raises
nothing and mutates nothing) — pinned in ``tests/analysis/test_framework.py``.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

#: Attribute names under which engines/pagers hold their block device; a
#: ``.flush()``/write call through one of these is treated as targeting a
#: device even when the attribute's class cannot be inferred.
DEVICE_NAME_HINTS = ("device", "dev")


def _func_defs(node: ast.AST) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))


def _annotation_class(node: Optional[ast.AST]) -> Optional[str]:
    """Best-effort class name out of an annotation expression.

    Handles ``X``, ``"X"``, ``m.X``, ``Optional[X]``, and ``Optional["X"]``;
    anything fancier returns None.
    """
    if node is None:
        return None
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        name = node.value.strip()
        name = name.split("[")[-1].rstrip("]")
        return name.split(".")[-1].strip("\"' ") or None
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        base = node.value
        base_name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", "")
        if base_name in ("Optional", "Union"):
            inner = node.slice
            if isinstance(inner, ast.Index):  # pragma: no cover - py38 compat
                inner = inner.value
            if isinstance(inner, ast.Tuple):
                for elt in inner.elts:
                    got = _annotation_class(elt)
                    if got and got != "None":
                        return got
                return None
            return _annotation_class(inner)
    return None


@dataclass
class FunctionInfo:
    """One function or method definition in the project."""

    fid: str  #: stable id: ``"<path>::<qualname>"``
    path: str
    qualname: str  #: ``"flush"`` or ``"RedoLog.flush"``
    name: str
    node: ast.AST  #: the FunctionDef / AsyncFunctionDef
    class_name: Optional[str] = None
    decorators: Tuple[str, ...] = ()

    @property
    def is_method(self) -> bool:
        return self.class_name is not None


@dataclass
class ClassInfo:
    """One class definition: bases, methods, and inferred attribute types."""

    key: str  #: stable id: ``"<path>::<name>"``
    path: str
    name: str
    bases: Tuple[str, ...] = ()
    methods: Dict[str, FunctionInfo] = field(default_factory=dict)
    #: ``self.attr`` → candidate class *names* (resolved lazily).
    attr_types: Dict[str, Set[str]] = field(default_factory=dict)


@dataclass
class CallSite:
    """One resolved-or-unknown call expression inside a function."""

    node: ast.Call
    callees: Tuple[str, ...]  #: resolved callee fids (empty = unknown)

    @property
    def resolved(self) -> bool:
        return bool(self.callees)


class ProjectIndex:
    """Symbol table + call graph over a set of parsed files.

    Build with :func:`build_project`; rules reach it through
    ``FileContext.project``.
    """

    def __init__(self) -> None:
        self.functions: Dict[str, FunctionInfo] = {}
        self.classes: Dict[str, ClassInfo] = {}
        self.classes_by_name: Dict[str, List[ClassInfo]] = {}
        self.module_functions: Dict[str, Dict[str, FunctionInfo]] = {}
        #: dotted module name (``repro.btree.wal``) → path, for import maps.
        self.module_paths: Dict[str, str] = {}
        self.imports: Dict[str, Dict[str, Tuple[str, Optional[str]]]] = {}
        #: fid → resolved callee fids.
        self.edges: Dict[str, Set[str]] = {}
        #: fid → caller fids (resolved only).
        self.callers: Dict[str, Set[str]] = {}
        #: fids whose *value* escapes (stored/passed as a callback).
        self.escaping: Set[str] = set()
        #: id(ast.Call) → CallSite, for per-node lookups by rules.
        self._site_by_node: Dict[int, CallSite] = {}
        #: fid → call sites in source order.
        self.sites: Dict[str, List[CallSite]] = {}
        #: populated lazily by :mod:`repro.analysis.summaries`.
        self.summaries: Optional[Dict[str, object]] = None
        #: The directories the scan was asked to walk (see
        #: :meth:`display_path`); empty for single-file analysis.
        self.roots: Tuple[str, ...] = ()

    # ------------------------------------------------------------- lookups

    def display_path(self, path: str) -> str:
        """``path`` relative to the scanned directory that contains it.

        For paths quoted inside a finding's message, so the report reads the
        same wherever the tree is checked out.
        """
        for root in self.roots:
            if Path(path).is_relative_to(root):
                return Path(path).relative_to(root).as_posix()
        return path

    def function(self, fid: str) -> FunctionInfo:
        return self.functions[fid]

    def resolve_call(self, call: ast.Call) -> List[FunctionInfo]:
        """Resolved callees of a specific Call node (empty = unknown)."""
        site = self._site_by_node.get(id(call))
        if site is None:
            return []
        return [self.functions[fid] for fid in site.callees]

    def class_mro(self, cls: ClassInfo) -> List[ClassInfo]:
        """The class plus project-resolvable ancestors, nearest first."""
        out: List[ClassInfo] = []
        seen: Set[str] = set()
        stack = [cls]
        while stack:
            current = stack.pop(0)
            if current.key in seen:
                continue
            seen.add(current.key)
            out.append(current)
            for base in current.bases:
                stack.extend(self._classes_named(base, current.path))
        return out

    def subclasses_of(self, cls: ClassInfo) -> List[ClassInfo]:
        """Transitive subclasses (excluding ``cls`` itself)."""
        out: List[ClassInfo] = []
        for candidate in self.classes.values():
            if candidate.key == cls.key:
                continue
            if any(c.key == cls.key for c in self.class_mro(candidate)[1:]):
                out.append(candidate)
        return out

    def lookup_method(self, cls: ClassInfo, name: str) -> List[FunctionInfo]:
        """Virtual dispatch: ``name`` on ``cls``'s MRO plus subclass overrides."""
        found: List[FunctionInfo] = []
        for ancestor in self.class_mro(cls):
            if name in ancestor.methods:
                found.append(ancestor.methods[name])
                break
        for sub in self.subclasses_of(cls):
            if name in sub.methods:
                found.append(sub.methods[name])
        return found

    def _classes_named(self, name: str, from_path: str) -> List[ClassInfo]:
        """Candidate classes for a bare name, preferring the same file."""
        candidates = self.classes_by_name.get(name, [])
        local = [c for c in candidates if c.path == from_path]
        if local:
            return local
        imported = self.imports.get(from_path, {}).get(name)
        if imported is not None:
            module, symbol = imported
            target = self.module_paths.get(module)
            if target is not None:
                scoped = [c for c in candidates if c.path == target and c.name == (symbol or name)]
                if scoped:
                    return scoped
        return candidates

    # ------------------------------------------------------------ builders

    def _add_function(self, info: FunctionInfo) -> None:
        self.functions[info.fid] = info
        self.edges.setdefault(info.fid, set())
        self.callers.setdefault(info.fid, set())
        self.sites.setdefault(info.fid, [])


def _module_name(path: str) -> str:
    """Dotted module name; anchored at the innermost ``repro`` segment when present.

    Innermost, so the name does not depend on where the checkout lives
    (``.../repro/src/repro/bench/parallel.py`` is ``repro.bench.parallel``).
    """
    parts = list(Path(path).with_suffix("").parts)
    if "repro" in parts:
        parts = parts[len(parts) - 1 - parts[::-1].index("repro"):]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


def _collect_imports(tree: ast.Module) -> Dict[str, Tuple[str, Optional[str]]]:
    """Local name → (dotted module, symbol-or-None)."""
    mapping: Dict[str, Tuple[str, Optional[str]]] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                mapping[alias.asname or alias.name.split(".")[0]] = (alias.name, None)
        elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
            for alias in node.names:
                mapping[alias.asname or alias.name] = (node.module, alias.name)
    return mapping


def _decorator_names(node: ast.AST) -> Tuple[str, ...]:
    names = []
    for dec in getattr(node, "decorator_list", []):
        target = dec.func if isinstance(dec, ast.Call) else dec
        if isinstance(target, ast.Name):
            names.append(target.id)
        elif isinstance(target, ast.Attribute):
            names.append(target.attr)
    return tuple(names)


def _base_names(node: ast.ClassDef) -> Tuple[str, ...]:
    names = []
    for base in node.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return tuple(names)


def _rhs_class_names(value: ast.AST) -> Set[str]:
    """Class names a RHS expression may construct (``A(...)``, ternary arms)."""
    out: Set[str] = set()
    if isinstance(value, ast.IfExp):
        out |= _rhs_class_names(value.body)
        out |= _rhs_class_names(value.orelse)
        return out
    if isinstance(value, ast.Call):
        func = value.func
        if isinstance(func, ast.Name) and func.id[:1].isupper():
            out.add(func.id)
        elif isinstance(func, ast.Attribute) and func.attr[:1].isupper():
            out.add(func.attr)
    return out


def build_project(contexts: Sequence[object]) -> "ProjectIndex":
    """Build the symbol table and call graph over ``FileContext``-likes.

    Each context needs ``.path`` and ``.tree``.  Two passes: collect every
    definition (so forward and cross-file references resolve), then walk
    every function body resolving call sites.
    """
    project = ProjectIndex()

    # ---- pass 1: definitions ------------------------------------------
    for ctx in contexts:
        path, tree = ctx.path, ctx.tree
        project.module_paths[_module_name(path)] = path
        project.imports[path] = _collect_imports(tree)
        project.module_functions.setdefault(path, {})
        for node in tree.body:
            if _func_defs(node):
                info = FunctionInfo(
                    fid=f"{path}::{node.name}", path=path, qualname=node.name,
                    name=node.name, node=node, decorators=_decorator_names(node),
                )
                project._add_function(info)
                project.module_functions[path][node.name] = info
            elif isinstance(node, ast.ClassDef):
                cls = ClassInfo(
                    key=f"{path}::{node.name}", path=path, name=node.name,
                    bases=_base_names(node),
                )
                for item in node.body:
                    if _func_defs(item):
                        info = FunctionInfo(
                            fid=f"{path}::{node.name}.{item.name}", path=path,
                            qualname=f"{node.name}.{item.name}", name=item.name,
                            node=item, class_name=node.name,
                            decorators=_decorator_names(item),
                        )
                        project._add_function(info)
                        cls.methods[item.name] = info
                    elif isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        got = _annotation_class(item.annotation)
                        if got:
                            cls.attr_types.setdefault(item.target.id, set()).add(got)
                project.classes[cls.key] = cls
                project.classes_by_name.setdefault(cls.name, []).append(cls)

    # ---- pass 1b: instance attribute types ----------------------------
    for cls in project.classes.values():
        for method in cls.methods.values():
            ann_params = {
                arg.arg: _annotation_class(arg.annotation)
                for arg in _all_args(method.node)
            }
            for node in ast.walk(method.node):
                if not isinstance(node, ast.Assign):
                    continue
                for target in node.targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"
                    ):
                        names = _rhs_class_names(node.value)
                        if isinstance(node.value, ast.Name):
                            got = ann_params.get(node.value.id)
                            if got:
                                names.add(got)
                        if names:
                            cls.attr_types.setdefault(target.attr, set()).update(names)

    # ---- pass 2: call sites -------------------------------------------
    for ctx in contexts:
        resolver = _Resolver(project, ctx.path, ctx.tree)
        resolver.run()

    return project


def _all_args(node: ast.AST) -> List[ast.arg]:
    args = node.args
    return list(getattr(args, "posonlyargs", [])) + list(args.args) + list(args.kwonlyargs)


class _Resolver:
    """Pass 2 worker: resolve every call inside one file's functions."""

    def __init__(self, project: ProjectIndex, path: str, tree: ast.Module) -> None:
        self.project = project
        self.path = path
        self.tree = tree

    def run(self) -> None:
        for node in self.tree.body:
            if _func_defs(node):
                self._resolve_function(node, class_info=None)
            elif isinstance(node, ast.ClassDef):
                cls = self.project.classes[f"{self.path}::{node.name}"]
                for item in node.body:
                    if _func_defs(item):
                        self._resolve_function(item, class_info=cls)

    # -------------------------------------------------------------- types

    def _local_types(self, func: ast.AST, cls: Optional[ClassInfo]) -> Dict[str, Set[str]]:
        """Candidate class names for each local/param name."""
        types: Dict[str, Set[str]] = {}
        for arg in _all_args(func):
            got = _annotation_class(arg.annotation)
            if got:
                types.setdefault(arg.arg, set()).add(got)
        for node in ast.walk(func):
            if isinstance(node, ast.Assign):
                names = _rhs_class_names(node.value)
                if names:
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            types.setdefault(target.id, set()).update(names)
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                got = _annotation_class(node.annotation)
                if got:
                    types.setdefault(node.target.id, set()).add(got)
        if cls is not None and any(d in ("classmethod",) for d in _decorator_names(func)):
            types.setdefault("cls", set()).add(cls.name)
        return types

    def _classes_for(self, names: Iterable[str]) -> List[ClassInfo]:
        out: List[ClassInfo] = []
        for name in names:
            out.extend(self.project._classes_named(name, self.path))
        return out

    # ------------------------------------------------------------ resolve

    def _resolve_function(self, func: ast.AST, class_info: Optional[ClassInfo]) -> None:
        qual = func.name if class_info is None else f"{class_info.name}.{func.name}"
        fid = f"{self.path}::{qual}"
        info = self.project.functions[fid]
        local_types = self._local_types(func, class_info)
        call_position = {
            id(n.func) for n in ast.walk(func) if isinstance(n, ast.Call)
        }

        for node in ast.walk(func):
            if isinstance(node, ast.Call):
                callees = self._resolve_call(node, class_info, local_types)
                site = CallSite(node=node, callees=tuple(c.fid for c in callees))
                self.project.sites[fid].append(site)
                self.project._site_by_node[id(node)] = site
                for callee in callees:
                    self.project.edges[fid].add(callee.fid)
                    self.project.callers[callee.fid].add(fid)
            elif (
                isinstance(node, (ast.Name, ast.Attribute))
                and isinstance(getattr(node, "ctx", None), ast.Load)
                and id(node) not in call_position
            ):
                self._record_escape(node, class_info)

    def _record_escape(self, node: ast.AST, class_info: Optional[ClassInfo]) -> None:
        """A function referenced as a value (not called) escapes as a callback."""
        if isinstance(node, ast.Attribute):
            if isinstance(node.value, ast.Name) and node.value.id in ("self", "cls"):
                if class_info is not None:
                    for target in self.project.lookup_method(class_info, node.attr):
                        self.project.escaping.add(target.fid)
            return
        if isinstance(node, ast.Name):
            target = self.project.module_functions.get(self.path, {}).get(node.id)
            if target is not None:
                self.project.escaping.add(target.fid)

    def _resolve_call(
        self,
        call: ast.Call,
        class_info: Optional[ClassInfo],
        local_types: Dict[str, Set[str]],
    ) -> List[FunctionInfo]:
        func = call.func

        # f(...) — local def, imported def, or class constructor.
        if isinstance(func, ast.Name):
            name = func.id
            local = self.project.module_functions.get(self.path, {}).get(name)
            if local is not None:
                return [local]
            for cls in self.project._classes_named(name, self.path):
                ctor = self.project.lookup_method(cls, "__init__")
                if ctor:
                    return ctor[:1]
            imported = self.project.imports.get(self.path, {}).get(name)
            if imported is not None:
                module, symbol = imported
                target_path = self.project.module_paths.get(module)
                if target_path is not None and symbol is not None:
                    target = self.project.module_functions.get(target_path, {}).get(symbol)
                    if target is not None:
                        return [target]
            if name == "cls" and class_info is not None:
                ctor = self.project.lookup_method(class_info, "__init__")
                if ctor:
                    return ctor[:1]
            return []

        if not isinstance(func, ast.Attribute):
            return []
        method = func.attr
        receiver = func.value

        # self.m(...) / cls.m(...)
        if isinstance(receiver, ast.Name) and receiver.id in ("self", "cls"):
            if class_info is not None:
                return self.project.lookup_method(class_info, method)
            return []

        # Class.m(...) or module.f(...)
        if isinstance(receiver, ast.Name):
            for cls in self.project._classes_named(receiver.id, self.path):
                found = self.project.lookup_method(cls, method)
                if found:
                    return found
            imported = self.project.imports.get(self.path, {}).get(receiver.id)
            if imported is not None and imported[1] is None:
                target_path = self.project.module_paths.get(imported[0])
                if target_path is not None:
                    target = self.project.module_functions.get(target_path, {}).get(method)
                    if target is not None:
                        return [target]
            # typed local / param: obj.m(...)
            type_names = local_types.get(receiver.id, set())
            return self._dispatch_types(type_names, method)

        # self.attr.m(...) — inferred instance-attribute types.
        if (
            isinstance(receiver, ast.Attribute)
            and isinstance(receiver.value, ast.Name)
            and receiver.value.id == "self"
            and class_info is not None
        ):
            type_names: Set[str] = set()
            for ancestor in self.project.class_mro(class_info):
                type_names |= ancestor.attr_types.get(receiver.attr, set())
            return self._dispatch_types(type_names, method)

        return []

    def _dispatch_types(self, type_names: Set[str], method: str) -> List[FunctionInfo]:
        found: Dict[str, FunctionInfo] = {}
        for cls in self._classes_for(type_names):
            for info in self.project.lookup_method(cls, method):
                found[info.fid] = info
        return list(found.values())


# --------------------------------------------------------------------------
# SCC condensation (iterative Tarjan)
# --------------------------------------------------------------------------


def strongly_connected_components(project: ProjectIndex) -> List[List[str]]:
    """SCCs of the resolved call graph in reverse topological order.

    The returned order is callee-first: every edge leaving an SCC points to
    an SCC that appears *earlier* in the list, which is exactly the order a
    bottom-up summary computation wants.
    """
    index_counter = [0]
    stack: List[str] = []
    lowlink: Dict[str, int] = {}
    index: Dict[str, int] = {}
    on_stack: Dict[str, bool] = {}
    result: List[List[str]] = []

    for root in sorted(project.functions):
        if root in index:
            continue
        work: List[Tuple[str, int]] = [(root, 0)]
        while work:
            node, child_i = work[-1]
            if child_i == 0:
                index[node] = lowlink[node] = index_counter[0]
                index_counter[0] += 1
                stack.append(node)
                on_stack[node] = True
            advanced = False
            children = sorted(project.edges.get(node, ()))
            for i in range(child_i, len(children)):
                child = children[i]
                if child not in project.functions:
                    continue
                if child not in index:
                    work[-1] = (node, i + 1)
                    work.append((child, 0))
                    advanced = True
                    break
                if on_stack.get(child):
                    lowlink[node] = min(lowlink[node], index[child])
            if advanced:
                continue
            work.pop()
            if lowlink[node] == index[node]:
                scc: List[str] = []
                while True:
                    member = stack.pop()
                    on_stack[member] = False
                    scc.append(member)
                    if member == node:
                        break
                result.append(sorted(scc))
            if work:
                parent = work[-1][0]
                lowlink[parent] = min(lowlink[parent], lowlink[node])
    return result
