"""Unit + engine-integration tests for WAL-time key-value separation."""

import pytest

from repro.csd.device import CompressedBlockDevice
from repro.errors import LsmError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.vlog import VREF_SIZE, ValueLog, ValueRef


def vlog_config(**overrides) -> LSMConfig:
    options = dict(
        memtable_bytes=4 * 1024,
        log_blocks=512,
        log_flush_policy="commit",
        value_separation_threshold=100,
        vlog_segment_blocks=2,
        vlog_segments=6,
        vlog_gc_free_segments=2,
    )
    options.update(overrides)
    return LSMConfig(**options)


def big(i: int, length: int = 300) -> bytes:
    return (b"big%05d-" % i) * (length // 9 + 1)


# ---------------------------------------------------------------- ValueRef


def test_value_ref_round_trip():
    ref = ValueRef.make(12345, 678)
    assert len(ref) == VREF_SIZE
    parsed = ValueRef.from_wire(bytes(ref))
    assert parsed.addr == 12345
    assert parsed.length == 678


def test_value_ref_rejects_garbage():
    with pytest.raises(LsmError):
        ValueRef.from_wire(b"short")
    with pytest.raises(LsmError):
        ValueRef.from_wire(bytes(VREF_SIZE))  # zero magic


# ---------------------------------------------------------- ValueLog plain


def make_vlog(segment_blocks: int = 2, segments: int = 6):
    device = CompressedBlockDevice(num_blocks=1 << 12)
    vlog = ValueLog(device, start_block=16, segment_blocks=segment_blocks,
                    segments=segments)
    return device, vlog


def test_append_read_round_trip():
    _, vlog = make_vlog()
    refs = {}
    for i in range(10):
        key = b"k%03d" % i
        refs[key] = vlog.append(key, big(i, 200))
    for i, (key, ref) in enumerate(sorted(refs.items())):
        assert vlog.read(key, ref) == big(i, 200)
        assert vlog.validate_record(key, ref)


def test_corrupt_record_fails_validation():
    device, vlog = make_vlog()
    key = b"victim"
    ref = vlog.append(key, big(1, 200))
    device.flush()
    lba = vlog.slot_lba(vlog.slot_of(ref))
    raw = bytearray(device.read_blocks(lba, 1))
    raw[40] ^= 0xFF  # flip a payload byte
    device.write_block(lba, bytes(raw))
    device.flush()
    # The in-memory head image still has the good bytes; reload from device.
    state = vlog.encode_state()
    vlog.restore_state(state)
    assert not vlog.validate_record(key, ref)
    with pytest.raises(LsmError):
        vlog.read(key, ref)


def test_head_rolls_and_reserve():
    _, vlog = make_vlog(segment_blocks=1, segments=4)
    # Fill until the 2-free-segment GC reserve blocks further rolls.
    appended = 0
    while vlog.has_room(8, 900):
        vlog.append(b"k%06d" % appended, b"x" * 900)
        appended += 1
    assert appended > 0
    assert vlog.free_segments() <= 2
    assert vlog.oldest_sealed_slot() is not None


def test_state_round_trip_and_geometry_check():
    device, vlog = make_vlog()
    refs = [(b"k%03d" % i, vlog.append(b"k%03d" % i, big(i))) for i in range(8)]
    device.flush()
    blob = vlog.encode_state()
    clone = ValueLog(device, start_block=16, segment_blocks=2, segments=6)
    clone.restore_state(blob)
    for i, (key, ref) in enumerate(refs):
        assert clone.read(key, ref) == big(i)
    mismatched = ValueLog(device, start_block=16, segment_blocks=4, segments=6)
    with pytest.raises(LsmError):
        mismatched.restore_state(blob)


# ------------------------------------------------------- engine integration


def test_separation_threshold_routes_values():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, vlog_config())
    engine.put(b"small", b"x" * 40)     # below the threshold: inline
    engine.put(b"large", b"y" * 300)    # separated
    engine.commit()
    assert engine.vlog.stats.appended_records == 1
    assert engine.get(b"small") == b"x" * 40
    assert engine.get(b"large") == b"y" * 300
    assert dict(engine.items())[b"large"] == b"y" * 300
    engine.close()


def test_separated_values_survive_reopen():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, vlog_config())
    expected = {}
    for i in range(60):
        key = b"key%04d" % i
        value = big(i, 250) if i % 2 else b"s%d" % i
        engine.put(key, value)
        expected[key] = value
        if i % 8 == 7:
            engine.commit()
    engine.commit()
    engine.close()
    reopened = LSMEngine.open(device, vlog_config())
    assert dict(reopened.items()) == expected
    assert reopened.get(b"key0031") == expected[b"key0031"]
    reopened.close()


def test_gc_reclaims_segments_under_churn():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, vlog_config(vlog_segment_blocks=1))
    expected = {}
    for generation in range(8):
        for i in range(20):
            key = b"key%04d" % i
            value = (b"g%d-" % generation) + big(i, 220)
            engine.put(key, value)
            expected[key] = value
            if i % 5 == 4:
                engine.commit()
        engine.commit()
    assert engine.vlog.stats.gc_passes > 0
    assert engine.vlog.stats.segments_trimmed > 0
    assert dict(engine.items()) == expected
    engine.close()
    reopened = LSMEngine.open(device, vlog_config(vlog_segment_blocks=1))
    assert dict(reopened.items()) == expected
    reopened.close()


def test_vlog_occupancy_is_integer_exact():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, vlog_config())
    for i in range(30):
        engine.put(b"key%04d" % i, big(i, 250))
        if i % 8 == 7:
            engine.commit()
    engine.commit()
    occ = engine.vlog_occupancy()
    for field, value in occ.items():
        assert isinstance(value, int), field
    assert occ["live_records"] == 30
    assert 0 < occ["live_bytes"] <= occ["data_bytes"]
    assert occ["capacity_bytes"] >= occ["data_bytes"]
    engine.close()


def test_occupancy_none_without_separation():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, LSMConfig(memtable_bytes=4 * 1024))
    assert engine.vlog_occupancy() is None
    engine.close()


def test_vlog_traffic_lands_in_log_lane():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, vlog_config())
    engine.put(b"large", b"y" * 400)
    engine.commit()
    traffic = engine.traffic_snapshot()
    assert engine.vlog.stats.logical_bytes > 0
    assert traffic.log_logical >= engine.vlog.stats.logical_bytes
    engine.close()


def test_group_atomic_composes_with_separation():
    device = CompressedBlockDevice(num_blocks=1 << 14)
    config = vlog_config(group_atomic=True, vlog_segment_blocks=1,
                         vlog_segments=8)
    engine = LSMEngine(device, config)
    expected = {}
    for generation in range(6):
        for i in range(16):
            key = b"key%04d" % i
            value = (b"g%d-" % generation) + big(i, 200)
            engine.put(key, value)
            expected[key] = value
            if i % 4 == 3:
                engine.commit()
        engine.commit()
    assert dict(engine.items()) == expected
    assert engine.vlog.stats.gc_passes > 0
    engine.close()
    reopened = LSMEngine.open(device, config)
    assert dict(reopened.items()) == expected
    reopened.close()
