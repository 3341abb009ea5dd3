"""Unit tests for the redo log: packed vs sparse layouts, replay, wrap-around."""

import pytest

from repro.btree.wal import (
    BLOCK_CAPACITY,
    LogOp,
    LogPosition,
    LogRecord,
    NullLog,
    RedoLog,
)
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import ConfigError, WalError


@pytest.fixture
def log_device():
    return CompressedBlockDevice(num_blocks=256)


def make_log(device, sparse=False, num_blocks=64):
    return RedoLog(device, start_block=0, num_blocks=num_blocks, sparse=sparse)


def record(lsn, key=b"k", value=b"v" * 16, op=LogOp.PUT, txid=0):
    return LogRecord(lsn, txid, op, key, value)


# ------------------------------------------------------------------ records


def test_record_encode_decode_roundtrip():
    rec = record(7, key=b"alpha", value=b"beta", op=LogOp.DELETE, txid=3)
    encoded = rec.encode()
    decoded, consumed = LogRecord.decode(encoded, 0)
    assert decoded == rec
    assert consumed == len(encoded)


def test_record_decode_rejects_corruption():
    encoded = bytearray(record(1).encode())
    encoded[-1] ^= 0xFF
    assert LogRecord.decode(bytes(encoded), 0) is None


def test_record_decode_zero_padding_is_none():
    assert LogRecord.decode(bytes(64), 0) is None


def test_record_decode_truncated_is_none():
    encoded = record(1).encode()
    assert LogRecord.decode(encoded[: len(encoded) - 3], 0) is None


def test_oversized_record_rejected(log_device):
    log = make_log(log_device)
    with pytest.raises(WalError):
        log.append(record(1, value=b"x" * BLOCK_CAPACITY))


# ------------------------------------------------------------------- config


def test_log_region_validation(log_device):
    with pytest.raises(ConfigError):
        RedoLog(log_device, 0, 1)
    with pytest.raises(ConfigError):
        RedoLog(log_device, 250, 10)


# ----------------------------------------------------------------- flushing


def test_append_is_not_durable_until_flush(log_device):
    log = make_log(log_device)
    log.append(record(1))
    assert log.stats.logical_bytes == 0
    log.flush()
    assert log.stats.logical_bytes == BLOCK_SIZE
    assert log.stats.flushes == 1


def test_flush_without_new_records_writes_nothing(log_device):
    log = make_log(log_device)
    log.append(record(1))
    log.flush()
    before = log.stats.logical_bytes
    log.flush()
    assert log.stats.logical_bytes == before


def test_packed_mode_rewrites_same_block(log_device):
    """Conventional logging: consecutive flushes hit the same LBA (Fig. 7)."""
    log = make_log(log_device, sparse=False)
    for lsn in range(1, 4):
        log.append(record(lsn))
        log.flush()
    assert log.stats.logical_bytes == 3 * BLOCK_SIZE
    # All three flushes rewrote ring block 0: only one block is mapped.
    assert log_device.logical_bytes_used == BLOCK_SIZE


def test_sparse_mode_uses_fresh_block_per_flush(log_device):
    """Sparse logging: each flush seals the block and opens a new LBA (Fig. 8)."""
    log = make_log(log_device, sparse=True)
    for lsn in range(1, 4):
        log.append(record(lsn))
        log.flush()
    assert log.stats.logical_bytes == 3 * BLOCK_SIZE
    assert log_device.logical_bytes_used == 3 * BLOCK_SIZE


def test_sparse_mode_improves_physical_compression(log_device):
    """The whole point of technique 3: same logical volume, less physical."""
    import random

    devices = {}
    for sparse in (False, True):
        device = CompressedBlockDevice(num_blocks=4096)
        log = RedoLog(device, 0, 4096, sparse=sparse)
        rng2 = random.Random(7)
        for lsn in range(1, 200):
            payload = bytes(rng2.randrange(256) for _ in range(64))
            log.append(record(lsn, value=payload))
            log.flush()
        devices[sparse] = log.stats
    # W_log stays (essentially) the same: one 4KB write per flush either way.
    assert devices[True].logical_bytes <= devices[False].logical_bytes
    assert devices[True].logical_bytes >= 0.95 * devices[False].logical_bytes
    # The physical volume drops by far more than the paper's headline factor.
    assert devices[True].physical_bytes < 0.3 * devices[False].physical_bytes


def test_block_overflow_seals_and_continues(log_device):
    log = make_log(log_device)
    big = b"x" * 1500
    for lsn in range(1, 5):  # 4 x ~1.5KB > one 4KB block
        log.append(record(lsn, value=big))
    log.flush()
    records, _ = log.scan(LogPosition(0, 1))
    assert [r.lsn for r in records] == [1, 2, 3, 4]


# ------------------------------------------------------------------- replay


def test_scan_returns_records_in_order(log_device):
    log = make_log(log_device)
    for lsn in range(1, 20):
        log.append(record(lsn, key=str(lsn).encode()))
    log.flush()
    records, end = log.scan(LogPosition(0, 1))
    assert [r.lsn for r in records] == list(range(1, 20))
    assert end.sequence > 1


def test_scan_from_midpoint(log_device):
    log = make_log(log_device, sparse=True)
    for lsn in range(1, 6):
        log.append(record(lsn))
        log.flush()
    midpoint = log.position()
    for lsn in range(6, 9):
        log.append(record(lsn))
        log.flush()
    records, _ = log.scan(midpoint)
    assert [r.lsn for r in records] == [6, 7, 8]


def test_scan_ignores_unflushed_tail(log_device):
    log = make_log(log_device)
    log.append(record(1))
    log.flush()
    log.append(record(2))  # never flushed
    records, _ = log.scan(LogPosition(0, 1))
    assert [r.lsn for r in records] == [1]


def test_scan_stops_at_stale_ring_blocks(log_device):
    """After wrap-around, old blocks with lower sequence end the scan."""
    log = make_log(log_device, sparse=True, num_blocks=8)
    for lsn in range(1, 20):  # wraps the 8-block ring twice
        log.append(record(lsn))
        log.flush()
    start_seq = log.position().sequence - 7
    start = LogPosition((start_seq - 1) % 8, start_seq)
    records, _ = log.scan(start)
    assert [r.lsn for r in records] == list(range(start_seq, 20))


def test_replay_iterator_matches_scan(log_device):
    log = make_log(log_device)
    for lsn in range(1, 10):
        log.append(record(lsn))
    log.flush()
    assert [r.lsn for r in log.scan(LogPosition(0, 1))[0]] == list(range(1, 10))


def test_reset_to_resumes_after_recovery(log_device):
    log = make_log(log_device)
    for lsn in range(1, 5):
        log.append(record(lsn))
    log.flush()
    _, end = log.scan(LogPosition(0, 1))
    fresh = make_log(log_device)
    fresh.reset_to(end)
    fresh.append(record(100))
    fresh.flush()
    records, _ = fresh.scan(end)
    assert [r.lsn for r in records] == [100]


def test_crash_loses_only_unflushed_records(log_device):
    log = make_log(log_device)
    log.append(record(1))
    log.flush()
    log.append(record(2))
    log_device.simulate_crash()
    records, _ = log.scan(LogPosition(0, 1))
    assert [r.lsn for r in records] == [1]


def test_blocks_since_counts_sealed_blocks(log_device):
    log = make_log(log_device, sparse=True)
    start = log.position()
    for lsn in range(1, 4):
        log.append(record(lsn))
        log.flush()
    assert log.blocks_since(start) == 3


# ------------------------------------------------------------------ release


class TrimRecordingDevice(CompressedBlockDevice):
    """Records every TRIM command as ``(lba, count)``."""

    def __init__(self, num_blocks: int) -> None:
        super().__init__(num_blocks=num_blocks)
        self.trims: list[tuple[int, int]] = []

    def trim(self, lba: int, count: int = 1) -> None:
        super().trim(lba, count)
        self.trims.append((lba, count))


def flush_blocks(log, lsns):
    """One sparse flush per LSN: each seals one ring block."""
    for lsn in lsns:
        log.append(record(lsn))
        log.flush()


def test_release_trims_the_dead_run_behind_the_cursor_only():
    device = TrimRecordingDevice(num_blocks=64)
    log = RedoLog(device, start_block=10, num_blocks=16, sparse=True)
    flush_blocks(log, range(1, 6))  # ring blocks 0-4
    log.advance_cursor()  # block 5
    flush_blocks(log, range(6, 9))  # blocks 5-7: [cursor, head] stays live
    log.release()
    assert device.trims == [(10, 5)]
    for lba in range(10, 15):
        assert device.ftl.extent_size(lba) == 0
        assert device.read_block(lba) == bytes(BLOCK_SIZE)
    assert all(device.ftl.extent_size(lba) for lba in range(15, 18))
    assert [r.lsn for r in log.scan(log.cursor)[0]] == [6, 7, 8]
    log.release()  # nothing new behind the cursor
    assert device.trims == [(10, 5)]


def test_release_of_a_run_wrapping_the_ring_end_takes_two_trims():
    device = TrimRecordingDevice(num_blocks=64)
    log = RedoLog(device, start_block=10, num_blocks=8, sparse=True)
    flush_blocks(log, range(1, 7))  # blocks 0-5
    log.advance_cursor()  # block 6
    log.release()
    flush_blocks(log, range(7, 12))  # blocks 6, 7, 0, 1, 2
    log.advance_cursor()  # block 3
    flush_blocks(log, range(12, 14))  # blocks 3, 4
    device.trims.clear()
    log.release()
    # Dead: 6, 7, 0, 1, 2; live: 3, 4 and the open block 5.
    assert device.trims == [(16, 2), (10, 3)]
    assert [r.lsn for r in log.scan(log.cursor)[0]] == [12, 13]


def test_release_never_trims_past_a_lapped_cursor():
    """A cursor laps ahead of the release mark: every block but
    ``[cursor, head]`` is dead, and only those are trimmed."""
    device = TrimRecordingDevice(num_blocks=64)
    log = RedoLog(device, start_block=0, num_blocks=8, sparse=True)
    flush_blocks(log, range(1, 21))  # 20 blocks: two and a half laps
    log.advance_cursor()  # block 4, sequence 21
    flush_blocks(log, [21])  # block 4: the cursor block, live
    log.release()
    assert device.trims == [(6, 2), (0, 4)]  # every block but 4 and 5
    assert [r.lsn for r in log.scan(log.cursor)[0]] == [21]


def test_replay_resets_the_release_mark_to_its_cursor():
    device = TrimRecordingDevice(num_blocks=64)
    log = RedoLog(device, start_block=0, num_blocks=16, sparse=True)
    flush_blocks(log, range(1, 7))  # blocks 0-5
    since = log.position()  # block 6
    flush_blocks(log, range(7, 10))  # blocks 6-8
    reopened = RedoLog(device, start_block=0, num_blocks=16, sparse=True)
    replayed = []
    reopened.replay(since, replayed.append)
    assert [r.lsn for r in replayed] == [7, 8, 9]
    reopened.advance_cursor()  # block 9
    reopened.release()
    # Only the blocks replay read: those before ``since`` may be gone already.
    assert device.trims == [(6, 3)]


# ----------------------------------------------------------------- no WAL


def test_null_log_runs_the_protocol_without_a_device_command(log_device):
    """``wal_mode="none"``: LSNs and txids advance, nothing is framed, any
    record size is accepted, and no write, read, flush or TRIM reaches the
    drive."""
    log = NullLog(log_device, 0, 64, flush_policy="commit")
    log.check_fits(10, BLOCK_CAPACITY)
    log.append_next(LogOp.PUT, b"k", b"v" * BLOCK_CAPACITY)
    log.append_ahead(LogOp.PUT, [(b"a", b"1"), (b"b", b"2")])
    log.commit()
    log.seal()
    assert (log.lsn, log.txid) == (1, 1)
    assert log.replay(LogPosition(0, 1), pytest.fail) == 0
    log.advance_cursor()
    log.release()
    assert log.stats.records_appended == 0 and log.stats.flushes == 0
    stats = log_device.stats
    assert stats.write_ios == stats.read_ios == stats.flush_ios == stats.trim_ios == 0
