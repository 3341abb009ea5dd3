"""Integration tests for the B+-tree engine: durability, recovery, accounting."""

import random

import pytest

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.btree.wal import LogPosition, RedoLog
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import ConfigError, KeyNotFoundError
from repro.metrics.counters import compute_wa
from repro.sim.clock import SimClock


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def make_config(**overrides) -> BTreeConfig:
    base = dict(
        page_size=8192,
        cache_bytes=1 << 20,
        max_pages=2048,
        log_blocks=512,
        atomicity="det-shadow",
        wal_mode="packed",
        log_flush_policy="commit",
    )
    base.update(overrides)
    return BTreeConfig(**base)


def make_engine(device=None, **overrides):
    device = device or CompressedBlockDevice(num_blocks=200_000)
    return BTreeEngine(device, make_config(**overrides)), device


# ---------------------------------------------------------------- config


def test_config_validation():
    with pytest.raises(ConfigError):
        BTreeConfig(page_size=5000).validate()
    with pytest.raises(ConfigError):
        BTreeConfig(wal_mode="bogus").validate()
    with pytest.raises(ConfigError):
        BTreeConfig(log_flush_policy="bogus").validate()
    with pytest.raises(ConfigError):
        BTreeConfig(cache_bytes=0).validate()
    with pytest.raises(ConfigError):
        BTreeConfig(log_blocks=1).validate()
    with pytest.raises(ConfigError):
        BTreeConfig(log_flush_interval=-1.0).validate()


# ------------------------------------------------------------------ basics


def test_put_get_delete_roundtrip():
    engine, _ = make_engine()
    engine.put(key(1), b"hello")
    engine.commit()
    assert engine.get(key(1)) == b"hello"
    engine.delete(key(1))
    engine.commit()
    assert engine.get(key(1)) is None


def test_delete_missing_raises():
    engine, _ = make_engine()
    with pytest.raises(KeyNotFoundError):
        engine.delete(key(9))


def test_scan_and_items():
    engine, _ = make_engine()
    for i in range(100):
        engine.put(key(i), bytes([i]))
    engine.commit()
    assert [k for k, _ in engine.scan(key(10), 5)] == [key(i) for i in range(10, 15)]
    assert len(list(engine.items())) == 100


def test_user_bytes_accounting():
    engine, _ = make_engine()
    engine.put(key(1), b"x" * 120)  # 8B key + 120B value
    assert engine.user_bytes == 128
    engine.delete(key(1))
    assert engine.user_bytes == 136


# ------------------------------------------------------------- durability


def test_reopen_after_clean_close():
    engine, device = make_engine()
    expected = {}
    for i in range(2000):
        engine.put(key(i), str(i).encode())
        expected[key(i)] = str(i).encode()
    engine.commit()
    engine.close()
    reopened = BTreeEngine.open(device, make_config())
    assert dict(reopened.items()) == expected


def test_crash_recovery_commit_policy_loses_nothing():
    engine, device = make_engine()
    expected = {}
    rng = random.Random(1)
    for i in range(3000):
        k = key(rng.randrange(800))
        v = rng.randbytes(rng.randrange(8, 100))
        engine.put(k, v)
        expected[k] = v
        engine.commit()
    device.simulate_crash()
    recovered = BTreeEngine.open(device, make_config())
    assert dict(recovered.items()) == expected
    recovered.tree.check_invariants()


def test_reopen_resumes_txids_above_every_replayed_one():
    engine, device = make_engine()
    for i in range(3):
        engine.put(key(i), b"v")
        engine.commit()
    device.simulate_crash()
    # Read what recovery will replay first: its checkpoint TRIMs the ring
    # behind the new cursor.
    crashed_log = RedoLog(device, BTreeEngine.LOG_START, make_config().log_blocks)
    head = LogPosition(0, 1)  # the creation checkpoint's cursor
    replayed, _ = crashed_log.scan(head)
    assert len(replayed) == 3
    reopened = BTreeEngine.open(device, make_config())
    cursor = reopened.wal.cursor
    reopened.put(key(9), b"v")
    reopened.wal.flush()
    records, _ = reopened.wal.scan(cursor)
    assert records[0].key == key(9)
    assert records[0].txid > max(r.txid for r in replayed)


def test_crash_recovery_with_deletes():
    engine, device = make_engine()
    expected = {}
    rng = random.Random(2)
    for i in range(2000):
        if rng.random() < 0.3 and expected:
            k = rng.choice(list(expected))
            engine.delete(k)
            del expected[k]
        else:
            k = key(rng.randrange(500))
            v = rng.randbytes(50)
            engine.put(k, v)
            expected[k] = v
        engine.commit()
    device.simulate_crash()
    recovered = BTreeEngine.open(device, make_config())
    assert dict(recovered.items()) == expected


def test_crash_mid_uncommitted_batch_rolls_back_to_commit_point():
    engine, device = make_engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"uncommitted")  # never committed/flushed
    device.simulate_crash()
    recovered = BTreeEngine.open(device, make_config())
    assert recovered.get(key(1)) == b"committed"
    assert recovered.get(key(2)) is None


def test_interval_policy_bounded_loss():
    """Under log-flush-per-minute, work before the last flush survives."""
    clock = SimClock()
    device = CompressedBlockDevice(num_blocks=200_000)
    config = make_config(log_flush_policy="interval", log_flush_interval=60.0)
    engine = BTreeEngine(device, config, clock=clock)
    for i in range(100):
        engine.put(key(i), b"early")
        engine.commit()
    clock.advance(61)
    engine.tick()  # interval flush makes the first 100 durable
    for i in range(100, 120):
        engine.put(key(i), b"late")
        engine.commit()  # interval policy: not flushed
    device.simulate_crash()
    recovered = BTreeEngine.open(device, make_config())
    for i in range(100):
        assert recovered.get(key(i)) == b"early", i
    assert all(recovered.get(key(i)) is None for i in range(100, 120))


def test_recovery_after_post_checkpoint_splits():
    """Splits after the last checkpoint must replay correctly (allocator and
    structure are rebuilt by walking the on-storage tree)."""
    engine, device = make_engine(cache_bytes=1 << 16)  # tiny cache forces flushes
    expected = {}
    for i in range(500):
        engine.put(key(i), b"v" * 100)
        expected[key(i)] = b"v" * 100
        engine.commit()
    engine.checkpoint()
    for i in range(500, 1500):  # plenty of splits after the checkpoint
        engine.put(key(i), b"w" * 100)
        expected[key(i)] = b"w" * 100
        engine.commit()
    device.simulate_crash()
    recovered = BTreeEngine.open(device, make_config(cache_bytes=1 << 16))
    assert dict(recovered.items()) == expected
    recovered.tree.check_invariants()


def test_repeated_crashes():
    device = CompressedBlockDevice(num_blocks=200_000)
    expected = {}
    rng = random.Random(9)
    engine = BTreeEngine(device, make_config())
    for round_no in range(4):
        for _ in range(400):
            k = key(rng.randrange(300))
            v = rng.randbytes(40)
            engine.put(k, v)
            expected[k] = v
            engine.commit()
        device.simulate_crash()
        engine = BTreeEngine.open(device, make_config())
        assert dict(engine.items()) == expected, f"round {round_no}"


def test_open_fresh_device_creates_store():
    device = CompressedBlockDevice(num_blocks=200_000)
    engine = BTreeEngine.open(device, make_config())
    engine.put(key(1), b"v")
    assert engine.get(key(1)) == b"v"


def test_page_size_mismatch_detected():
    engine, device = make_engine()
    engine.close()
    with pytest.raises(Exception):
        BTreeEngine.open(device, make_config(page_size=16384))


# ----------------------------------------------------------- WAL modes


def test_wal_none_mode_skips_logging():
    engine, _ = make_engine(wal_mode="none")
    for i in range(100):
        engine.put(key(i), b"v")
        engine.commit()
    snap = engine.traffic_snapshot()
    assert snap.log_logical == 0


def test_sparse_wal_reduces_log_physical_volume():
    results = {}
    for mode in ("packed", "sparse"):
        engine, _ = make_engine(wal_mode=mode)
        rng = random.Random(4)
        for i in range(500):
            engine.put(key(i), rng.randbytes(64))
            engine.commit()
        results[mode] = engine.traffic_snapshot()
    assert results["sparse"].log_physical < 0.4 * results["packed"].log_physical


@pytest.mark.parametrize("system", ["bminus", "wiredtiger"])
def test_checkpoint_trims_the_log_ring_behind_its_cursor(system):
    """Sparse (``bminus``) and packed (``wiredtiger``) logs: once the meta
    page naming the new cursor is flushed, every ring block before the
    cursor's block is unmapped and reads back as zeros."""
    device = CompressedBlockDevice(num_blocks=200_000)
    if system == "bminus":
        store = BMinusTree(device, BMinusConfig(
            log_blocks=512, max_pages=2048, log_flush_policy="commit",
        ))
        wal = store.engine.wal
    else:
        store = BTreeEngine(device, make_config(atomicity="shadow-table"))
        wal = store.wal
    rng = random.Random(5)
    expected = {}
    for i in range(300):
        expected[key(i)] = rng.randbytes(100)
        store.put(key(i), expected[key(i)])
        store.commit()
    store.checkpoint()
    assert wal.cursor.block_index > 8
    dead = range(wal.start_block, wal.start_block + wal.cursor.block_index)
    assert all(device.ftl.extent_size(lba) == 0 for lba in dead)
    assert all(device.read_block(lba) == bytes(BLOCK_SIZE) for lba in dead)
    device.simulate_crash()
    assert dict(type(store).open(device, store.config).items()) == expected


# ------------------------------------------------------------- accounting


def test_traffic_decomposition_sums():
    engine, device = make_engine(atomicity="shadow-table")
    rng = random.Random(5)
    for i in range(800):
        engine.put(key(rng.randrange(400)), rng.randbytes(64))
        engine.commit()
    engine.close()
    snap = engine.traffic_snapshot()
    assert snap.total_physical == (
        snap.log_physical + snap.page_physical + snap.extra_physical
    )
    # The engine's ledger is exactly what the device counted.
    assert device.stats.physical_bytes_written == snap.total_physical


def test_det_shadow_has_no_extra_traffic_beyond_meta():
    engine, _ = make_engine(atomicity="det-shadow")
    for i in range(500):
        engine.put(key(i), b"v" * 64)
        engine.commit()
    engine.close()
    snap = engine.traffic_snapshot()
    assert snap.extra_logical == engine.meta_logical_bytes  # meta page only


def test_wa_ordering_of_strategies():
    """W_e: journal > shadow-table > det-shadow (the paper's motivation)."""
    extras = {}
    for strategy in ("journal", "shadow-table", "det-shadow"):
        engine, _ = make_engine(atomicity=strategy, cache_bytes=1 << 16)
        rng = random.Random(6)
        for i in range(600):
            engine.put(key(rng.randrange(2000)), rng.randbytes(56))
            engine.commit()
        engine.close()
        snap = engine.traffic_snapshot()
        extras[strategy] = snap.extra_physical - engine.meta_physical_bytes
    assert extras["journal"] > extras["shadow-table"] > extras["det-shadow"] == 0


def test_compute_wa_report():
    engine, _ = make_engine(cache_bytes=1 << 16)
    rng = random.Random(7)
    for i in range(500):
        engine.put(key(rng.randrange(1000)), rng.randbytes(120))
        engine.commit()
    engine.close()
    report = compute_wa(engine.traffic_snapshot())
    assert report.wa_total > 1.0
    assert report.wa_total == pytest.approx(
        report.wa_log + report.wa_pg + report.wa_e
    )
    # On a compressing device physical WA is below logical WA.
    assert report.wa_total < report.wa_total_logical
