"""MetricsHub serving-layer extensions: batch recording, service series.

The service surface is strictly additive — a hub that never sees a service
sample must summarise and serialise exactly as before.
"""

from repro.csd.device import DeviceStats
from repro.obs.metrics import MetricsHub


def _delta(reads=0, writes=0):
    return DeviceStats(logical_bytes_written=writes * 4096,
                       physical_bytes_written=writes * 2048,
                       blocks_written=writes, blocks_read=reads)


def _counters(completed, shed=0):
    return {"completed": completed, "shed_overload": shed}


def test_record_batch_charges_even_shares_into_op_histograms():
    hub = MetricsHub(window_seconds=0.05)
    hub.record_batch("put", 4, _delta(writes=8))
    hub.record_batch("put", 1, _delta(writes=8))
    summary = hub.summary()["op_latency"]["put"]
    assert summary["n"] == 5
    # Each batch op is charged 1/4 of the batch's busy time, so the lone
    # op that paid for 8 writes alone dominates the distribution.
    assert summary["max"] > summary["p50"]


def test_service_series_windows_deltas_and_queue_gauge():
    hub = MetricsHub(window_seconds=0.1)
    hub.sample_service(0.0, _counters(0), queue_depth=0)
    hub.sample_service(0.05, _counters(3), queue_depth=4)
    hub.sample_service(0.15, _counters(9, shed=2), queue_depth=8)
    hub.finish_service(0.2, _counters(10, shed=2))
    obs = hub.summary()["service"]
    assert obs["totals"]["completed"] == 10
    assert obs["totals"]["shed_overload"] == 2
    assert [w["completed"] for w in obs["windows"]] == [3, 6, 1]
    assert obs["queue_depth"]["n"] == 3
    assert obs["queue_depth"]["max"] >= 8
    assert "p999" in obs["queue_depth"]


def test_hub_without_service_samples_keeps_the_legacy_summary():
    hub = MetricsHub(window_seconds=0.05)
    hub.record_batch("put", 1, _delta(writes=1))
    obs = hub.summary()
    assert "service" not in obs
    payload = hub.to_dict()
    assert "service_series" not in payload
