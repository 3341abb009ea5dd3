"""LSM group-atomic mode: COMMIT markers, frozen-memtable handoff, stalls.

In ``group_atomic`` mode the LSM defers all memtable lifecycle decisions to
commit boundaries: ``commit()`` seals the window with a marker and flushes
the WAL, then (between windows) flushes a due frozen memtable, guards the
WAL ring, and freezes a full active memtable.  The write-stall state machine
mirrors RocksDB: a full active memtable with the frozen backlog at its limit
stalls writers until the oldest frozen table's background flush is due.
"""

import pytest

from repro.csd.device import CompressedBlockDevice
from repro.errors import ConfigError, SimulatedCrashError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.sim.clock import SimClock


def _config(**over):
    base = dict(memtable_bytes=2 << 10, level_base_bytes=32 << 10,
                table_target_bytes=8 << 10, log_blocks=512,
                log_flush_policy="commit", group_atomic=True,
                flush_latency=0.01, max_frozen_memtables=2)
    base.update(over)
    return LSMConfig(**base)


def _engine(device=None, clock=None, **over):
    device = device or CompressedBlockDevice(num_blocks=20_000)
    clock = clock or SimClock()
    return device, clock, LSMEngine(device, _config(**over), clock)


def key(i):
    return i.to_bytes(8, "big")


def _fill_one_memtable(engine, base=0, per_commit=8):
    """Put (with commits) until the active memtable has been swapped once."""
    i = base
    freezes = engine.memtable_freezes
    while engine.memtable_freezes == freezes:
        for _ in range(per_commit):
            engine.put(key(i), b"v" * 48)
            i += 1
        engine.commit()
        assert i < base + 10_000, "memtable never froze"
    return i


# ---------------------------------------------------------- configuration


def test_group_atomic_requires_commit_policy_wal():
    with pytest.raises(ConfigError, match="group_atomic"):
        _config(log_flush_policy="interval").validate()
    with pytest.raises(ConfigError, match="group_atomic"):
        _config(wal_mode="none").validate()


# ---------------------------------------------------- freeze/flush handoff


def test_full_memtable_freezes_at_commit_boundary_not_mid_window():
    device, clock, engine = _engine()
    next_key = _fill_one_memtable(engine)
    assert len(engine.frozen) == 1
    # Frozen tables keep serving reads until their background flush.
    assert engine.get(key(0)) == b"v" * 48
    assert engine.stall_relief_at() == pytest.approx(clock.now + 0.01)


def test_frozen_table_flushes_when_due_and_cursor_advances():
    device, clock, engine = _engine(max_frozen_memtables=4)
    _fill_one_memtable(engine)
    flushes = engine.memtable_flushes
    clock.advance(0.02)  # past flush_latency
    engine.tick()
    assert engine.memtable_flushes == flushes + 1
    assert not engine.frozen
    assert engine.get(key(0)) == b"v" * 48  # now from the level-0 table


def test_write_stall_engages_and_clears():
    device, clock, engine = _engine(max_frozen_memtables=1,
                                    flush_latency=0.05)
    next_key = _fill_one_memtable(engine)
    assert not engine.write_stalled  # backlog full but active table empty
    # Fill the active memtable while the backlog is at its limit.
    i = next_key
    while not engine.write_stalled:
        for _ in range(8):
            engine.put(key(i), b"v" * 48)
            i += 1
        engine.commit()
        assert i < next_key + 10_000, "stall never engaged"
    relief = engine.stall_relief_at()
    assert relief > clock.now
    clock.advance_to(relief)
    engine.tick()  # flushes the due frozen table
    engine.commit()  # boundary maintenance freezes the full active table
    assert not engine.write_stalled


# ----------------------------------------------------------- crash/recover


def test_committed_window_replays_uncommitted_tail_rolls_back():
    device, clock, engine = _engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"ghost")
    engine.wal.flush()  # durable but unmarked: the worst crash point
    device.flush()
    recovered = LSMEngine.open(device, _config(), SimClock())
    assert recovered.get(key(1)) == b"committed"
    assert recovered.get(key(2)) is None


def test_rolled_back_window_is_counted():
    """The LSM counts a rollback where the B-tree does (its
    ``test_crash_inside_open_window_rolls_the_window_back``)."""
    device, clock, engine = _engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"ghost")
    engine.wal.flush()
    device.flush()
    recovered = LSMEngine.open(device, _config(), SimClock())
    assert recovered.fault_stats.group_rollbacks == 1
    assert LSMEngine.open(device, _config(), SimClock()).fault_stats.group_rollbacks == 0


def test_rolled_back_records_stay_dead_across_second_recovery():
    device, clock, engine = _engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"ghost")
    engine.wal.flush()
    device.flush()

    second = LSMEngine.open(device, _config(), SimClock())
    assert second.get(key(2)) is None
    second.put(key(3), b"later")
    second.commit()
    device.flush()

    third = LSMEngine.open(device, _config(), SimClock())
    assert third.get(key(1)) == b"committed"
    assert third.get(key(2)) is None, "rolled-back record resurrected"
    assert third.get(key(3)) == b"later"


def test_frozen_memtable_records_survive_a_crash_before_flush():
    """Freeze is not durability-relevant: frozen records stay WAL-covered
    until tabled, so a crash between freeze and flush replays them."""
    device, clock, engine = _engine()
    next_key = _fill_one_memtable(engine)
    assert engine.frozen
    device.simulate_crash()
    recovered = LSMEngine.open(device, _config(), SimClock())
    for i in range(next_key):
        assert recovered.get(key(i)) == b"v" * 48, i


class _TornFlushDevice(CompressedBlockDevice):
    """Cuts power at the next flush once armed; only the pending writes to
    the ``keep`` LBAs reach stable storage."""

    keep = None

    def flush(self):
        if self.keep is None:
            return super().flush()
        keep, self.keep = self.keep, None
        self.simulate_crash(survives=lambda lba: lba in keep)
        raise SimulatedCrashError("power cut at flush")


def test_torn_window_across_ring_blocks_rolls_back_whole():
    """A window that spills from ring block N into N+1 is committed by one
    flush that rewrites N and writes N+1 (with the marker).  A torn cut that
    keeps N+1 but loses N's rewrite leaves a valid old N, then the marker:
    the LSN gap must stop replay, or the window replays minus its head."""
    device = _TornFlushDevice(num_blocks=20_000)
    engine = LSMEngine(device, _config(memtable_bytes=64 << 10), SimClock())
    engine.put(key(0), b"doomed")
    engine.commit()
    first = engine.wal.position().block_index
    engine.delete(key(0))  # the window's head stays in block N
    i = 1
    while engine.wal.position().block_index == first:
        engine.put(key(i), b"w" * 200)
        i += 1
    device.keep = {engine.wal.start_block + first + 1}
    with pytest.raises(SimulatedCrashError):
        engine.commit()
    recovered = LSMEngine.open(device, _config(memtable_bytes=64 << 10), SimClock())
    window = {key(j): b"w" * 200 for j in range(1, i)}
    assert dict(recovered.items()) in ({key(0): b"doomed"}, window)


def test_clean_close_seals_the_open_window():
    device, clock, engine = _engine()
    engine.put(key(9), b"sealed")
    engine.close()
    device.flush()
    recovered = LSMEngine.open(device, _config(), SimClock())
    assert recovered.get(key(9)) == b"sealed"
