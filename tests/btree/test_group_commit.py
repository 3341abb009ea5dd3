"""Group-atomic commit windows on the B-tree/B⁻-tree WAL.

The protocol: in ``group_atomic`` mode every commit window is sealed with a
``LogOp.COMMIT`` marker appended *after* the window's records, so a durable
marker proves the whole window is durable.  Recovery replays only the prefix
up to the last marker; any durable-but-unmarked tail is an unacknowledged
in-flight window and is rolled back (counted on ``group_rollbacks``).
"""

import pytest

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.btree.wal import LogOp, LogRecord, split_complete_groups
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from repro.errors import ConfigError
from repro.sim.clock import SimClock


def _config(**over):
    base = dict(cache_bytes=1 << 16, max_pages=2048, log_blocks=512,
                log_flush_policy="commit", group_atomic=True)
    base.update(over)
    return BTreeConfig(**base)


def _engine(device=None):
    device = device or CompressedBlockDevice(num_blocks=20_000)
    return device, BTreeEngine(device, _config(), SimClock())


def key(i):
    return i.to_bytes(8, "big")


# ---------------------------------------------------------- configuration


def test_group_atomic_requires_commit_flush_policy():
    with pytest.raises(ConfigError, match="group_atomic"):
        _config(log_flush_policy="interval").validate()
    with pytest.raises(ConfigError, match="group_atomic"):
        # BMinusConfig defaults to the interval flush policy.
        BMinusTree(CompressedBlockDevice(num_blocks=4096),
                   BMinusConfig(group_atomic=True), SimClock())


# ------------------------------------------------------- marker filtering


def _stream(*ops):
    """Records as the engines log them: one LSN each, markers included."""
    return [LogRecord(lsn, 0, op, key(lsn), b"v") for lsn, op in enumerate(ops, 1)]


def test_split_complete_groups_keeps_marked_prefix_only():
    records = _stream(
        LogOp.PUT, LogOp.PUT, LogOp.COMMIT,
        LogOp.PUT, LogOp.COMMIT,
        LogOp.PUT, LogOp.PUT,  # in-flight tail
    )
    replayable, discarded = split_complete_groups(records)
    assert replayable == records[:5]
    assert discarded == 2


def test_split_complete_groups_without_any_marker_discards_everything():
    records = _stream(LogOp.PUT, LogOp.PUT)
    assert split_complete_groups(records) == ([], 2)
    assert split_complete_groups([]) == ([], 0)


def test_split_complete_groups_stops_at_the_first_lsn_gap():
    """A torn flush that kept a later ring block but lost the rewrite of the
    block before it leaves an LSN gap; the marker past the gap seals a
    window whose first records are gone, so it must not replay."""
    records = _stream(
        LogOp.PUT, LogOp.COMMIT,
        LogOp.DELETE, LogOp.PUT, LogOp.PUT, LogOp.COMMIT,
    )
    torn = records[:2] + records[4:]  # the window's first two records lost
    assert split_complete_groups(torn) == (records[:2], 2)


# ----------------------------------------------------------- crash/recover


def test_crash_inside_open_window_rolls_the_window_back():
    device, engine = _engine()
    engine.put(key(1), b"committed")
    engine.commit()
    # Open a new window and make its records durable *without* the marker —
    # the worst crash point (durable unmarked tail, must not replay).
    engine.put(key(2), b"inflight")
    engine.put(key(3), b"inflight")
    engine.wal.flush()
    device.flush()
    recovered = BTreeEngine.open(device, _config(), SimClock())
    assert recovered.get(key(1)) == b"committed"
    assert recovered.get(key(2)) is None
    assert recovered.get(key(3)) is None
    assert recovered.fault_stats.group_rollbacks == 1


def test_crash_before_any_durability_loses_the_window_cleanly():
    device, engine = _engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"inflight")  # buffered only, commit policy
    device.simulate_crash()
    recovered = BTreeEngine.open(device, _config(), SimClock())
    assert recovered.get(key(1)) == b"committed"
    assert recovered.get(key(2)) is None
    # Nothing durable to roll back: this is loss, not rollback.
    assert recovered.fault_stats.group_rollbacks == 0


def test_committed_window_replays_whole():
    device, engine = _engine()
    items = [(key(i), b"v%d" % i) for i in range(32)]
    engine.put_batch(items)
    engine.commit()
    device.simulate_crash()  # anything past the commit flush is dropped
    recovered = BTreeEngine.open(device, _config(), SimClock())
    for k, v in items:
        assert recovered.get(k) == v
    assert recovered.fault_stats.group_rollbacks == 0


def test_rolled_back_window_stays_dead_across_another_crash_cycle():
    """No ghost resurrection: after a rollback, a later commit + second
    recovery must not bring the discarded records back."""
    device, engine = _engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"ghost")
    engine.wal.flush()
    device.flush()

    second = BTreeEngine.open(device, _config(), SimClock())
    assert second.get(key(2)) is None
    second.put(key(3), b"later")
    second.commit()
    device.flush()

    third = BTreeEngine.open(device, _config(), SimClock())
    assert third.get(key(1)) == b"committed"
    assert third.get(key(2)) is None, "rolled-back record resurrected"
    assert third.get(key(3)) == b"later"


def test_clean_close_seals_the_open_window():
    device, engine = _engine()
    engine.put(key(7), b"sealed")
    engine.close()
    device.flush()
    recovered = BTreeEngine.open(device, _config(), SimClock())
    assert recovered.get(key(7)) == b"sealed"
    assert recovered.fault_stats.group_rollbacks == 0


# ---------------------------------------------------------------- facade


def test_bminus_facade_exposes_the_group_stall_surface():
    device = CompressedBlockDevice(num_blocks=20_000)
    tree = BMinusTree(device,
                      BMinusConfig(cache_bytes=1 << 16, max_pages=2048,
                                   log_blocks=512, log_flush_policy="commit",
                                   group_atomic=True),
                      SimClock())
    assert tree.write_stalled is False
    assert tree.stall_relief_at() >= 0.0
    assert tree.device is device
    tree.put(key(1), b"v")
    tree.commit()
    assert tree.get(key(1)) == b"v"
