"""Small AST helpers shared by the rule plugins."""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Tuple


def dotted_name(node: ast.AST) -> Optional[str]:
    """Render ``a.b.c`` attribute/name chains; None for anything else."""
    parts = []
    current = node
    while isinstance(current, ast.Attribute):
        parts.append(current.attr)
        current = current.value
    if not isinstance(current, ast.Name):
        return None
    parts.append(current.id)
    return ".".join(reversed(parts))


def root_name(node: ast.AST) -> Optional[str]:
    """The leftmost ``Name`` of an attribute/subscript chain (``a`` in ``a.b[0].c``)."""
    current = node
    while isinstance(current, (ast.Attribute, ast.Subscript)):
        current = current.value
    if isinstance(current, ast.Name):
        return current.id
    return None


def walk_body(stmts) -> Iterator[ast.AST]:
    """Walk every node under a list of statements."""
    for stmt in stmts:
        yield from ast.walk(stmt)


def exception_names(handler: ast.ExceptHandler) -> Tuple[str, ...]:
    """The caught exception names of a handler ('' for a bare ``except:``).

    Dotted types (``errors.TransientIOError``) report their final component.
    """
    node = handler.type
    if node is None:
        return ("",)
    elements = node.elts if isinstance(node, ast.Tuple) else [node]
    names = []
    for element in elements:
        if isinstance(element, ast.Name):
            names.append(element.id)
        elif isinstance(element, ast.Attribute):
            names.append(element.attr)
    return tuple(names)
