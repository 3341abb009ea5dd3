"""PUR009 fixture: pool workers mutating module state in their own body."""

from concurrent.futures import ProcessPoolExecutor

CACHE = {}
RESULTS = []
TOTAL = 0


def work(point: int) -> int:
    CACHE[point] = point * 2  # PUR009: module-level subscript store
    RESULTS.append(point)  # PUR009: module-level mutator call
    return point * 2


def work_global(point: int) -> int:
    global TOTAL  # PUR009: global declaration in a worker
    TOTAL += point  # PUR009: rebinding the global
    return point


def pure_worker(point: int) -> int:
    local = {point: point * 2}
    return local[point]


def fan_out(points):
    with ProcessPoolExecutor() as pool:
        mapped = list(pool.map(work, points))
        futures = [pool.submit(work_global, p) for p in points]
        clean = list(pool.map(pure_worker, points))
    return mapped, futures, clean
