"""Steady host-side timing on a shared host: allocator warm-up and drift correction.

Two things made identical work read differently from run to run here, and
neither says anything about the commit under test.

**Allocator state.**  ``zlib.compress`` allocates its ~256 KB state on every
call.  In a fresh process glibc serves that with mmap and the call page-
faults its way through it (~80 us per 4 KB block); once the process has
freed one large block, glibc raises its mmap threshold for good and the same
call costs ~33 us.  A run's first seconds would differ from the rest of it,
and zlib is a third of the write workloads.  Any process that has run for a while is
past that point, so :func:`pin_allocator` puts the process there before
anything is timed.

**Host-speed drift.**  The same single-threaded pure-Python loop was measured
up to 1.8x slower for seconds to minutes at a time, in spells of ~100 ms and
up, with nothing else running in the machine, and CPU time drifts with wall
time, so the cause is contention the guest cannot see.  Every timed stretch
is therefore cut into chunks of ~60 ms, and a fixed 5 ms pure-Python
*reference kernel* is timed before the first chunk, between chunks and after
the last.  A chunk's wall seconds are scaled by ``NOMINAL_S`` over the mean
of the two reference timings around it.  The result is in *reference
seconds*: seconds on a host where the reference kernel takes ``NOMINAL_S``.
On a quiet host of this class the two agree.  One long measured phase per run
does not make this unnecessary: over ten seeds per workload, ops per wall
second spread 8-35% (quartile distance over median) and ops per reference
second 1.5-5.3%.

The reference kernel defines the unit of every host-side metric.  Changing
it or ``NOMINAL_S`` re-bases all of them: re-record the baseline if you do.
"""

from __future__ import annotations

import ctypes
from time import perf_counter
from typing import Any, Callable, Iterable

#: What the reference kernel takes on a quiet host of the class the baseline
#: was recorded on.
NOMINAL_S = 0.005

_M_TRIM_THRESHOLD = -1  # <malloc.h>
_M_MMAP_THRESHOLD = -3


def pin_allocator() -> bool:
    """Put glibc malloc in the state a long-running process reaches anyway:
    mmap threshold at its 32 MB maximum, freed memory kept for reuse.
    Returns False (and changes nothing) where there is no glibc ``mallopt``."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    return bool(mallopt(_M_MMAP_THRESHOLD, 32 << 20) and mallopt(_M_TRIM_THRESHOLD, 512 << 20))


def reference_kernel() -> float:
    """Run the fixed reference work; returns its wall seconds."""
    start = perf_counter()
    table: dict[int, int] = {}
    h = 0
    for i in range(30_000):
        h = (h * 31 + i) & 0xFFFFFFFF
        table[h & 4095] = i
    return perf_counter() - start


def run_chunks(chunks: Iterable[Callable[[], None]]) -> tuple[float, float]:
    """Run ``chunks`` in order, timing the reference kernel around each.

    Returns ``(wall seconds, reference seconds)`` of the chunks alone; the
    reference kernel's own time is in neither.
    """
    wall = corrected = 0.0
    before = reference_kernel()
    for chunk in chunks:
        start = perf_counter()
        chunk()
        elapsed = perf_counter() - start
        after = reference_kernel()
        wall += elapsed
        corrected += elapsed * NOMINAL_S / ((before + after) / 2.0)
        before = after
    return wall, corrected


def timed_call(fn: Callable[[], Any]) -> tuple[Any, float]:
    """Call ``fn`` as one chunk; returns ``(its result, reference seconds)``."""
    result = []
    _, corrected = run_chunks([lambda: result.append(fn())])
    return result[0], corrected
