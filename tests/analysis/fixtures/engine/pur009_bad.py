"""PUR009 fixture: pool workers whose body or *helpers* mutate module state.

``work`` and ``work_partial`` are textually pure, but their helpers bump
module-level caches; the workers below ``_pure_shape`` mutate state in their
own body, behind a ``partial``, a default, a ``runner=`` keyword, an import.
``clean_worker`` exercises the sanctioned shape: a pure helper.
"""

from functools import partial

_SHAPE_CACHE = {}
_SEEN = []
_TOTAL = 0


def work(point: int) -> int:
    # Direct body is pure; the helper is not (PUR009 walks the closure).
    return _cached_shape(point)


def work_partial(scale: int, point: int) -> int:
    # Submitted via functools.partial(work_partial, 2) below.
    return _tally(point * scale)


def clean_worker(point: int) -> int:
    return _pure_shape(point)


def _cached_shape(point: int) -> int:
    _SHAPE_CACHE[point] = point * 2  # PUR009: reached from worker `work`
    _SEEN.append(point)  # PUR009: module-level mutator call
    return _SHAPE_CACHE[point]


def _tally(value: int) -> int:
    global _TOTAL
    _TOTAL += value  # PUR009: reached via the partial-wrapped worker
    return _TOTAL


def _pure_shape(point: int) -> int:
    local = {point: point * 2}
    return local[point]


def partial_direct(scale: int, point: int) -> int:
    _SHAPE_CACHE[point] = point * scale  # PUR009: worker body, behind partial
    return point * scale


def default_direct(point: int) -> int:
    _SEEN.append(point)  # PUR009: worker body, named only as a default
    return point


def run_grid(specs, runner=default_direct):
    return [runner(spec) for spec in specs]


def keyword_direct(point: int) -> int:
    _SHAPE_CACHE[point] = point  # PUR009: worker body, passed as runner=
    return point


def fan_out(points):
    from repro.pur009_imported import imported_worker

    mapped = run_specs(points, work)
    scaled = run_specs(points, runner=partial(work_partial, 2))
    clean = run_specs(points, clean_worker)
    direct = run_specs(points, runner=partial(partial_direct, 3))
    imported = run_specs(points, imported_worker)
    keyed = run_specs(points, runner=keyword_direct, jobs=4)
    return mapped, scaled, clean, direct, imported, keyed
