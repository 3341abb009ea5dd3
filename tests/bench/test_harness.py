"""Integration tests for the benchmark harness (small scales)."""

import pytest

from repro.bench.harness import (
    SYSTEMS,
    WORKLOADS,
    ExperimentSpec,
    _compressor,
    build_engine,
    fast_mode,
    full_mode,
    record_scale,
    run_experiment,
)
from repro.bench.reporting import format_series, format_table, ratio
from repro.bench.speed import SpeedModel, engine_kind
from repro.core.bminus import BMinusTree
from repro.csd.compression import ZLIB_LEVEL, ZeroRunEstimator, ZlibCompressor
from repro.csd.device import CompressedBlockDevice, PlainSSD
from repro.errors import ConfigError
from repro.lsm.engine import LSMEngine
from repro.sim.rng import DeterministicRng
from repro.workloads.runner import WorkloadRunner


def small_spec(**overrides):
    base = dict(n_records=4000, record_size=128, steady_ops=3000)
    base.update(overrides)
    return ExperimentSpec(**base)


def test_unknown_system_rejected():
    with pytest.raises(ConfigError):
        build_engine(small_spec(system="leveldb"))


def test_unknown_device_kind_rejected():
    """A typo must not silently build the compressing drive."""
    with pytest.raises(ConfigError, match="unknown device_kind"):
        build_engine(small_spec(device_kind="plian"))


@pytest.mark.parametrize("system", ["rocksdb", "wiredtiger", "bminus"])
def test_plain_device_kind_builds_the_plain_ssd(system):
    _, device, _ = build_engine(small_spec(system=system, device_kind="plain"))
    assert type(device) is PlainSSD


def test_build_each_system():
    for system in ("rocksdb", "wiredtiger", "bminus"):
        engine, device, clock = build_engine(small_spec(system=system))
        engine.put(b"keykey01", b"v" * 16)
        assert engine.get(b"keykey01") == b"v" * 16


@pytest.mark.parametrize("system", ["rocksdb", "bminus", "wiredtiger"])
def test_scan_count_is_an_upper_bound_on_every_engine(system):
    """``scan(start, count)`` returns at most ``count`` records; a count of
    zero or less returns none and reads no block."""
    engine, device, _ = build_engine(small_spec(system=system))
    keys = [b"key%05d" % i for i in range(1000)]
    for k in keys:
        engine.put(k, b"v" * 120)
    engine.commit()
    for count in (0, -3):
        before = device.stats.blocks_read
        assert engine.scan(keys[10], count) == []
        assert device.stats.blocks_read == before
    assert engine.scan(keys[10], 2) == [(keys[10], b"v" * 120), (keys[11], b"v" * 120)]


def test_build_bminus_returns_facade():
    engine, _, _ = build_engine(small_spec(system="bminus"))
    assert isinstance(engine, BMinusTree)
    assert engine_kind(engine) == "bminus"


def test_build_rocksdb_returns_lsm():
    engine, _, _ = build_engine(small_spec(system="rocksdb"))
    assert isinstance(engine, LSMEngine)
    assert engine_kind(engine) == "lsm"


def test_harness_and_bare_device_share_the_default_compressor():
    """One definition of the default: plain zlib at level 1."""
    _, device, _ = build_engine(small_spec(system="bminus"))
    bare = CompressedBlockDevice(8).compressor
    assert type(device.compressor) is type(bare) is ZlibCompressor
    assert ZLIB_LEVEL == 1  # the one level every ZlibCompressor uses


def test_zero_run_estimator_is_not_wrapped_in_fast_mode(monkeypatch):
    """REPRO_FAST must hand back a plain ZeroRunEstimator instance."""
    monkeypatch.setenv("REPRO_FAST", "1")
    compressor = _compressor()
    assert type(compressor) is ZeroRunEstimator
    assert compressor.entropy_factor == pytest.approx(0.98)


@pytest.mark.parametrize("switch, name", [(fast_mode, "REPRO_FAST"),
                                          (full_mode, "REPRO_FULL")])
def test_env_switches_are_strict(monkeypatch, switch, name):
    """Unset or 0 is off and 1 is on; any other value is a ConfigError, so
    ``REPRO_FULL=true`` cannot quietly run the reduced grid."""
    monkeypatch.delenv(name, raising=False)
    assert switch() is False
    monkeypatch.setenv(name, "0")
    assert switch() is False
    monkeypatch.setenv(name, "1")
    assert switch() is True
    for raw in ("true", "yes", "2", "on"):
        monkeypatch.setenv(name, raw)
        with pytest.raises(ConfigError, match=name):
            switch()


def test_repro_scale_is_strict(monkeypatch):
    """A positive finite float; anything else is a ConfigError naming the
    variable, never a raw ValueError or a silent floor on the record count."""
    monkeypatch.delenv("REPRO_SCALE", raising=False)
    assert record_scale() == 1.0
    monkeypatch.setenv("REPRO_SCALE", "0.25")
    assert record_scale() == 0.25
    for raw in ("abc", "nan", "inf", "0", "-1"):
        monkeypatch.setenv("REPRO_SCALE", raw)
        with pytest.raises(ConfigError, match="REPRO_SCALE"):
            record_scale()


def test_spec_properties():
    spec = small_spec(cache_fraction=0.1)
    assert spec.dataset_bytes == 4000 * 128
    assert spec.cache_bytes >= 64 << 10
    assert "bminus" in spec.label()


def test_run_wa_experiment_end_to_end():
    result = run_experiment(small_spec(system="bminus"))
    assert result.populate.ops == 4000
    assert result.steady.ops == 3000
    assert result.wa.wa_total > 0
    assert result.logical_usage > 0
    assert result.physical_usage > 0
    assert 0 <= result.beta < 1


def test_run_wa_experiment_deterministic():
    a = run_experiment(small_spec(system="bminus"))
    b = run_experiment(small_spec(system="bminus"))
    assert a.wa.wa_total == b.wa.wa_total
    assert a.physical_usage == b.physical_usage


@pytest.mark.parametrize("system", SYSTEMS)
def test_engine_ledger_closes_on_the_device_counters(system):
    """Every byte the device was asked to write is on the engine's ledger,
    and nothing else is: the WA numerators are the device's own counts."""
    result = run_experiment(small_spec(system=system, n_records=1000,
                                       steady_ops=1000))
    snap = result.engine.traffic_snapshot()
    stats = result.device.stats
    assert snap.total_physical == stats.physical_bytes_written
    assert snap.total_logical == stats.logical_bytes_written


def test_wa_ordering_bminus_vs_baseline():
    bm = run_experiment(small_spec(system="bminus"))
    base = run_experiment(small_spec(system="wiredtiger"))
    assert bm.wa.wa_total < base.wa.wa_total


def test_run_experiment_workloads():
    model = SpeedModel()
    for workload in WORKLOADS:
        result = run_experiment(small_spec(system="bminus", n_records=1500,
                                           steady_ops=300, workload=workload))
        assert result.steady.ops == 300
        assert model.tps(result.steady, result.engine, 1) > 0


def _by_hand(spec):
    """Populate and run the spec's phase straight on the runner, with the
    RNG split labels every committed figure row was recorded with."""
    engine, device, clock = build_engine(spec)
    rng = DeterministicRng(spec.seed)
    runner = WorkloadRunner(engine, device, clock, n_threads=spec.n_threads)
    runner.populate(spec.keyspace, rng.split("populate"))
    n = spec.steady_op_count
    if spec.workload == "write":
        return runner.run_random_writes(spec.keyspace, n, rng.split("steady"))
    if spec.workload == "read":
        return runner.run_point_reads(spec.keyspace, n, rng.split("reads"))
    if spec.workload == "scan":
        return runner.run_range_scans(spec.keyspace, n, rng.split("scans"),
                                      spec.scan_length)
    return runner.run_zipfian_writes(
        spec.keyspace, n, rng.split("steady"), theta=spec.theta,
        scattered=spec.workload == "zipf-scattered")


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_run_experiment_matches_the_runner_by_hand(workload):
    spec = small_spec(system="bminus", n_records=1500, steady_ops=400,
                      n_threads=2, workload=workload, theta=0.9,
                      scan_length=20)
    phase = _by_hand(spec)
    result = run_experiment(spec)
    assert result.steady == phase
    assert result.wa == phase.wa()


def test_run_speed_unknown_workload():
    with pytest.raises(ConfigError, match="unknown workload"):
        run_experiment(small_spec(workload="mixed"))


def test_speed_model_scales_with_threads():
    model = SpeedModel()
    result = run_experiment(
        small_spec(system="wiredtiger", steady_ops=800, n_threads=1,
                   workload="read"))
    one = model.tps(result.steady, result.engine, 1)
    result16 = run_experiment(
        small_spec(system="wiredtiger", steady_ops=800, n_threads=16,
                   workload="read"))
    sixteen = model.tps(result16.steady, result16.engine, 16)
    assert sixteen > 2 * one


def test_format_table_renders():
    text = format_table("Title", ["a", "b"], [[1, 2.5], ["x", 10_000.0]],
                        note="hello")
    assert "Title" in text
    assert "2.50" in text
    assert "10,000" in text
    assert "note: hello" in text


def test_format_series_renders():
    text = format_series("Fig", "x", [1, 2], {"s1": [10.0, 20.0], "s2": [1.0]})
    assert "Fig" in text
    assert "s1" in text
    assert "20.0" in text


def test_ratio_helper():
    assert ratio(10, 5) == "2.00x"
    assert ratio(1, 0) == "n/a"
