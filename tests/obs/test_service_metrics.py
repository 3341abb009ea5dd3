"""MetricsHub serving-layer extensions: batch recording, service series.

The service surface is strictly additive — a hub that never sees a service
sample must summarise, merge, and serialise exactly as before (backward
compatibility with pre-serving payloads is part of the contract).
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
    # A pre-serving payload round-trips without the new keys.
    restored = MetricsHub.from_dict(payload)
    assert restored.summary() == obs


def test_service_series_round_trips_through_serialisation():
    hub = MetricsHub(window_seconds=0.1)
    hub.sample_service(0.0, _counters(0), queue_depth=1)
    hub.sample_service(0.25, _counters(7, shed=1), queue_depth=5)
    hub.finish_service(0.3, _counters(8, shed=1))
    restored = MetricsHub.from_dict(hub.to_dict())
    assert restored.summary() == hub.summary()


def test_merge_folds_service_series_and_queue_histogram():
    left = MetricsHub(window_seconds=0.1)
    left.sample_service(0.0, _counters(0), queue_depth=2)
    left.finish_service(0.1, _counters(4))
    right = MetricsHub(window_seconds=0.1)
    right.sample_service(0.0, _counters(0), queue_depth=6)
    right.finish_service(0.1, _counters(3, shed=1))
    merged = left.merge(right)
    obs = merged.summary()["service"]
    assert obs["totals"]["completed"] == 7
    assert obs["totals"]["shed_overload"] == 1
    assert obs["queue_depth"]["n"] == 2
    # Merging into a service-free hub lazily grows the service side.
    plain = MetricsHub(window_seconds=0.1)
    grown = plain.merge(right)
    assert grown.summary()["service"]["totals"]["completed"] == 3
