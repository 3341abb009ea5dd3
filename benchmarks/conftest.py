"""Shared helpers for the paper-figure benchmarks.

Each benchmark file regenerates one table or figure of the paper's
evaluation: it runs the scaled experiments, prints a fixed-width table with
measured values next to the paper's reported values, writes the same text to
``benchmarks/results/<name>.txt``, and makes *shape* assertions (who wins,
rough factors) rather than absolute-value assertions.

Environment knobs:

* ``REPRO_FULL=1``  — expand grids to the paper's full sweeps (slow).
* ``REPRO_FAST=1``  — use the calibrated zero-run compressor model instead
  of real zlib (~3x faster, within ~6% on WA).
* ``REPRO_SCALE=<float>`` — multiply default record counts (default 1.0;
  must be a positive number).
* ``REPRO_JOBS=<int>`` — worker processes for the figure grids (default 1).

A malformed value of any of them is a ``ConfigError`` naming the variable.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.bench.harness import record_scale

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


def scaled(n: int) -> int:
    return max(2000, int(n * record_scale()))


def emit(name: str, text: str) -> None:
    """Print a report and persist it under benchmarks/results/."""
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
    print(text)


@pytest.fixture
def once(benchmark):
    """Run the experiment exactly once under pytest-benchmark timing."""

    def run(fn, *args, **kwargs):
        return benchmark.pedantic(fn, args=args, kwargs=kwargs,
                                  rounds=1, iterations=1, warmup_rounds=0)

    return run
