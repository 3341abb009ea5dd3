"""Benchmark harness: one entry point per paper table/figure."""

from repro.bench.harness import (
    ExperimentResult,
    ExperimentSpec,
    build_engine,
    default_jobs,
    run_experiment,
)
from repro.bench.parallel import run_grid, run_specs
from repro.bench.reporting import format_series, format_table
from repro.bench.speed import SpeedModel

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "SpeedModel",
    "build_engine",
    "default_jobs",
    "format_series",
    "format_table",
    "run_experiment",
    "run_grid",
    "run_specs",
]
