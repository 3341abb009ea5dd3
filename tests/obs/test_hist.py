"""Property tests for the log-bucketed histogram and the windowed series."""

import math
import random

import pytest
from hypothesis import given

from repro.obs.hist import LatencyHistogram, WindowedSeries

from tests.fuzz import fuzz_settings, report_seed, seed_strategy


def _latency_stream(rng: random.Random, n: int) -> list:
    """Latencies spanning the realistic sub-µs .. seconds dynamic range."""
    return [rng.uniform(0.0, 10.0 ** rng.randrange(-7, 1)) for _ in range(n)]


# ----------------------------------------------------------- bucket basics


def test_small_values_are_exact():
    hist = LatencyHistogram(min_unit=1.0, sub_bits=7)
    for value in range(1 << 7):
        assert hist.value_at(hist._index(value)) == value


def test_relative_error_bound_exhaustive():
    hist = LatencyHistogram(min_unit=1.0, sub_bits=4)
    for units in range(1, 1 << 14):
        approx = hist.value_at(hist._index(units))
        assert abs(approx - units) <= units * hist.relative_error


def test_record_rejects_bad_inputs():
    hist = LatencyHistogram()
    with pytest.raises(ValueError):
        hist.record(-1e-9)
    with pytest.raises(ValueError):
        hist.record(1e-6, count=0)
    with pytest.raises(ValueError):
        LatencyHistogram(min_unit=0.0)
    with pytest.raises(ValueError):
        LatencyHistogram(sub_bits=0)
    with pytest.raises(ValueError):
        hist.quantile(1.5)


def test_empty_histogram():
    hist = LatencyHistogram()
    assert hist.n == 0
    assert hist.mean == 0.0
    assert hist.quantile(0.5) == 0.0
    assert hist.summary() == {
        "n": 0, "mean": 0.0, "p50": 0.0, "p90": 0.0, "p99": 0.0, "max": 0.0}


def test_mean_min_max_are_exact():
    hist = LatencyHistogram()
    hist.record(1e-3)
    hist.record(3e-3, count=3)
    assert hist.n == 4
    assert hist.mean == pytest.approx(2.5e-3)
    assert hist.min_value == 1e-3
    assert hist.max_value == 3e-3


# ------------------------------------------------------------- properties


@fuzz_settings(max_examples=40, deadline=None)
@given(seed=seed_strategy())
def test_property_quantiles_within_resolution(seed):
    """Estimated quantiles stay within the documented relative error of the
    true (sorted-stream) quantiles, up to the min_unit quantisation floor."""
    rng = random.Random(seed)
    values = _latency_stream(rng, rng.randrange(1, 300))
    hist = LatencyHistogram()
    for value in values:
        hist.record(value)
    ordered = sorted(values)
    with report_seed(seed):
        for q in (0.01, 0.5, 0.9, 0.99, 1.0):
            # Same rank definition as LatencyHistogram.quantile.
            rank = min(len(ordered), max(1, math.ceil(q * len(ordered))))
            true = ordered[rank - 1]
            estimate = hist.quantile(q)
            assert abs(estimate - true) <= true * hist.relative_error + 2 * hist.min_unit


# --------------------------------------------------------- windowed series


def test_windowed_series_exact_sums_with_idle_gaps():
    closed = []
    series = WindowedSeries(1.0, on_window=closed.append)
    series.sample(0.0, {"x": 100})
    series.sample(0.4, {"x": 130})
    series.sample(0.9, {"x": 150})
    # Idle gap: nothing lands between t=1 and t=3.
    series.sample(3.2, {"x": 160})
    series.finish(3.5, {"x": 200})
    assert [w["start"] for w in series.windows] == [0.0, 1.0, 2.0, 3.0]
    # The delta spanning the idle gap lands in the window containing its
    # sample time (t=3.2); the skipped windows are emitted as zero rows.
    assert [w["x"] for w in series.windows] == [50, 0, 0, 50]
    assert series.totals() == {"x": 100}  # == last - first exactly
    assert closed == series.windows


def test_windowed_series_boundary_sample_lands_in_next_window():
    series = WindowedSeries(1.0)
    series.sample(0.0, {"x": 0})
    series.sample(1.0, {"x": 7})  # exactly on the boundary
    series.finish(1.0, {"x": 7})
    assert [w["x"] for w in series.windows] == [0, 7]


def test_windowed_series_finish_is_idempotent_and_guards_sampling():
    series = WindowedSeries(0.5)
    series.finish(1.0, {"x": 1})  # finish before any sample: no-op
    assert series.windows == []
    series.sample(0.0, {"x": 1})
    series.finish(0.2, {"x": 4})
    assert series.totals() == {"x": 3}
    series.finish(0.9, {"x": 9})  # already finished: no-op
    assert series.totals() == {"x": 3}
    with pytest.raises(ValueError):
        series.sample(1.0, {"x": 10})


def test_windowed_series_rejects_bad_width():
    with pytest.raises(ValueError):
        WindowedSeries(0.0)


@fuzz_settings(max_examples=40, deadline=None)
@given(seed=seed_strategy())
def test_property_windows_sum_to_totals_exactly(seed):
    """Integer-exact invariant: window sums == final - first sample."""
    rng = random.Random(seed)
    series = WindowedSeries(rng.choice([0.1, 0.5, 1.0, 2.0]))
    t = 0.0
    cum = {"a": 0, "b": 1000}
    series.sample(t, cum)  # the baseline sample defines the origin
    first = dict(cum)
    for _ in range(rng.randrange(2, 120)):
        t += rng.uniform(0.0, 1.5)
        cum["a"] += rng.randrange(0, 10_000)
        cum["b"] += rng.randrange(0, 3)
        series.sample(t, cum)
    series.finish(t, cum)
    with report_seed(seed):
        assert series.totals() == {k: cum[k] - first[k] for k in cum}
        for window in series.windows:
            assert window["end"] >= window["start"]
