"""Tests for the MetricsHub: per-op latency + windowed WA integration."""

import json

import pytest

from repro.bench.harness import ExperimentSpec, run_experiment
from repro.csd.stats import DeviceStats
from repro.obs.metrics import WINDOW_FIELDS, MetricsHub


def _small_spec(**kwargs):
    base = dict(system="bminus", n_records=1500, steady_ops=800)
    base.update(kwargs)
    return ExperimentSpec(**base)


def test_record_op_fills_per_kind_histograms():
    hub = MetricsHub()
    hub.record_batch("put", 1, DeviceStats(
        logical_bytes_written=4096, physical_bytes_written=2048, write_ios=1))
    hub.record_batch("put", 1, DeviceStats())
    hub.record_batch("read", 1, DeviceStats(
        logical_bytes_read=4096, physical_bytes_read=4096, read_ios=1))
    assert hub.op_latency["put"].n == 2
    assert hub.op_latency["read"].n == 1
    # Even a no-I/O op costs the host op base.
    assert hub.op_latency["put"].min_value == hub.host_model.op_base


def test_windows_sum_exactly_to_phase_traffic():
    """The tentpole invariant: the windowed series sums to the end-of-run
    totals exactly, field by field, for a real experiment."""
    hub = MetricsHub(window_seconds=0.05)
    result = run_experiment(_small_spec(), hub=hub)
    totals = hub.series.totals()
    expected = {
        "user_bytes": result.populate.traffic.user_bytes
        + result.steady.traffic.user_bytes,
        "log_physical": result.populate.traffic.log_physical
        + result.steady.traffic.log_physical,
        "page_physical": result.populate.traffic.page_physical
        + result.steady.traffic.page_physical,
        "extra_physical": result.populate.traffic.extra_physical
        + result.steady.traffic.extra_physical,
        "total_logical": result.populate.traffic.total_logical
        + result.steady.traffic.total_logical,
        "operations": result.populate.traffic.operations
        + result.steady.traffic.operations,
        "write_ios": result.populate.device.write_ios
        + result.steady.device.write_ios,
        "read_ios": result.populate.device.read_ios
        + result.steady.device.read_ios,
        "flush_ios": result.populate.device.flush_ios
        + result.steady.device.flush_ios,
    }
    assert set(totals) == set(WINDOW_FIELDS)
    assert totals == expected
    # And the per-op histograms saw every operation.
    assert sum(h.n for h in hub.op_latency.values()) == (
        result.populate.ops + result.steady.ops)


def test_result_obs_summary_attached():
    hub = MetricsHub(window_seconds=0.1)
    result = run_experiment(_small_spec(), hub=hub)
    obs = result.obs
    assert obs is not None
    assert obs["window_seconds"] == 0.1
    assert "put" in obs["op_latency"]
    assert obs["wa_windows"], "expected at least one window"
    json.dumps(obs)  # must be JSON-safe (survives detach/pickle)


def test_no_hub_means_no_obs():
    assert run_experiment(_small_spec()).obs is None


def test_wa_windows_decomposition_consistent():
    hub = MetricsHub(window_seconds=0.05)
    run_experiment(_small_spec(), hub=hub)
    for window in hub.wa_windows():
        if window["user_bytes"] > 0:
            assert window["wa_total"] == pytest.approx(
                window["wa_log"] + window["wa_pg"] + window["wa_e"])
        else:
            assert window["wa_total"] == 0.0


def test_on_window_streams_in_order():
    seen = []
    hub = MetricsHub(window_seconds=0.05, on_window=seen.append)
    run_experiment(_small_spec(), hub=hub)
    assert seen == hub.series.windows
    starts = [w["start"] for w in seen]
    assert starts == sorted(starts)
