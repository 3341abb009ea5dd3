"""PUR009 fixture: a pool worker that ``engine/pur009_bad.py`` imports.

It sits under a ``repro`` directory so its dotted name,
``repro.pur009_imported``, resolves wherever the fixture tree lives.
"""

_REGISTRY = {}


def imported_worker(point: int) -> int:
    _REGISTRY[point] = point  # PUR009: worker body, dispatched from another module
    return point
