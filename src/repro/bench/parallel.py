"""Parallel execution of independent experiment points.

Every figure of the paper's evaluation is a grid of independent
:class:`~repro.bench.harness.ExperimentSpec` points; each point is a fully
deterministic, self-contained simulation (its own device, engine, clock, and
seeded RNG).  That makes a figure embarrassingly parallel: this module fans
the points across worker processes with :class:`ProcessPoolExecutor` and
merges results back in *spec order*, so the output is deterministic
regardless of which worker finishes first and is identical, point for point,
to a serial run.

Job count resolution, in priority order:

1. the explicit ``jobs`` argument,
2. the ``REPRO_JOBS`` environment variable (a positive integer; anything
   else is a :class:`~repro.errors.ConfigError`),
3. 1 (serial — no worker processes, results keep their live engine objects).

Results returned from worker processes are *detached*: ``engine``,
``device``, and ``clock`` are ``None``, because live engine objects are not
worth pickling across the process boundary and every numeric quantity the
figures plot is already materialised on the result dataclass.  Callers that
need the engine (the simulated-TPS figures) should run serially.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Dict, Iterable, List, Optional

from repro.bench.harness import (
    ExperimentResult,
    ExperimentSpec,
    default_jobs,
    run_experiment,
)


def detach_result(result: ExperimentResult) -> ExperimentResult:
    """Strip live simulation objects so the result is cheap to pickle.

    Only the live handles are dropped; every materialised field survives the
    process boundary, including the JSON-safe ``obs`` summary (per-op latency
    histograms and the windowed WA series), which workers can therefore
    produce and the parent can merge.
    """
    result.engine = None
    result.device = None
    result.clock = None
    return result


def _run_point(job) -> ExperimentResult:
    """Worker entry point: run one spec and return a detached result."""
    runner, spec = job
    return detach_result(runner(spec))


def run_specs(
    specs: Iterable[ExperimentSpec],
    runner: Callable[[ExperimentSpec], ExperimentResult] = run_experiment,
    jobs: Optional[int] = None,
) -> List[ExperimentResult]:
    """Run every spec and return results in the same order as ``specs``.

    With ``jobs <= 1`` (the default unless ``REPRO_JOBS`` says otherwise) the
    points run serially in-process and results keep their engine/device/clock
    handles.  With ``jobs > 1`` the points fan out over that many worker
    processes (capped at the point count); per-point results are bit-identical
    to a serial run because each point is an isolated deterministic
    simulation, and the merge order is the spec order, not completion order.

    ``runner`` must be a module-level callable (picklable by reference), e.g.
    :func:`run_experiment`.
    """
    spec_list = list(specs)
    if jobs is None:
        jobs = default_jobs()
    if jobs <= 1 or len(spec_list) <= 1:
        return [runner(spec) for spec in spec_list]
    workers = min(jobs, len(spec_list))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(_run_point, [(runner, spec) for spec in spec_list]))


def run_grid(
    keyed_specs: Dict,
    runner: Callable[[ExperimentSpec], ExperimentResult] = run_experiment,
    jobs: Optional[int] = None,
) -> Dict:
    """Run a ``{key: spec}`` grid; returns ``{key: result}``, keys preserved.

    This is the shape the figure benchmarks use: build the whole grid up
    front, fan it out, then index results by the grid key.  Merging is
    deterministic — the result dict iterates in the same order as
    ``keyed_specs``.
    """
    keys = list(keyed_specs)
    results = run_specs([keyed_specs[key] for key in keys], runner, jobs)
    return dict(zip(keys, results))
