"""Unit and property tests for the simulated block devices."""

import random
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.csd.compression import ZlibCompressor
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.csd.stats import DeviceStats
from repro.errors import AlignmentError, CapacityError, FaultInjectionError, OutOfRangeError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.sim.rng import DeterministicRng


def make_block(rng, nonzero_bytes=BLOCK_SIZE):
    return rng.random_bytes(nonzero_bytes) + bytes(BLOCK_SIZE - nonzero_bytes)


def test_unwritten_block_reads_zero(device):
    assert device.read_block(7) == bytes(BLOCK_SIZE)


def test_read_after_write(device, rng):
    block = make_block(rng)
    device.write_block(3, block)
    assert device.read_block(3) == block


def test_multi_block_roundtrip(device, rng):
    data = rng.random_bytes(3 * BLOCK_SIZE)
    device.write_blocks(10, data)
    assert device.read_blocks(10, 3) == data


def test_overwrite_replaces(device, rng):
    device.write_block(0, make_block(rng))
    second = make_block(rng)
    device.write_block(0, second)
    assert device.read_block(0) == second


def test_trim_reads_as_zero(device, rng):
    device.write_block(5, make_block(rng))
    device.trim(5)
    assert device.read_block(5) == bytes(BLOCK_SIZE)


def test_trim_range(device, rng):
    for i in range(4):
        device.write_block(i, make_block(rng))
    device.trim(1, 2)
    assert device.read_block(0) != bytes(BLOCK_SIZE)
    assert device.read_block(1) == bytes(BLOCK_SIZE)
    assert device.read_block(2) == bytes(BLOCK_SIZE)
    assert device.read_block(3) != bytes(BLOCK_SIZE)


def test_misaligned_write_rejected(device):
    with pytest.raises(AlignmentError):
        device.write_block(0, b"short")
    with pytest.raises(AlignmentError):
        device.write_blocks(0, b"x" * (BLOCK_SIZE + 1))


def test_out_of_range_io_rejected(device):
    with pytest.raises(OutOfRangeError):
        device.read_block(device.num_blocks)
    with pytest.raises(OutOfRangeError):
        device.write_block(-1, bytes(BLOCK_SIZE))
    with pytest.raises(OutOfRangeError):
        device.write_blocks(device.num_blocks - 1, bytes(2 * BLOCK_SIZE))


def test_logical_write_accounting(device, rng):
    device.write_block(0, make_block(rng))
    device.write_blocks(1, rng.random_bytes(2 * BLOCK_SIZE))
    assert device.stats.logical_bytes_written == 3 * BLOCK_SIZE
    assert device.stats.write_ios == 2


def test_physical_write_accounting_compresses(device, rng):
    """A half-zero block should cost roughly half its logical size physically."""
    device.write_block(0, make_block(rng, nonzero_bytes=BLOCK_SIZE // 2))
    physical = device.stats.physical_bytes_written
    assert 0.3 * BLOCK_SIZE < physical < 0.7 * BLOCK_SIZE


def test_all_zero_block_nearly_free(device):
    device.write_block(0, bytes(BLOCK_SIZE))
    assert device.stats.physical_bytes_written < 64


def test_physical_usage_tracks_live_data(device, rng):
    device.write_block(0, make_block(rng))
    used_after_write = device.physical_bytes_used
    assert used_after_write > 0.9 * BLOCK_SIZE
    device.trim(0)
    assert device.physical_bytes_used == 0


def test_overwrite_does_not_leak_usage(device, rng):
    device.write_block(0, make_block(rng))
    first = device.physical_bytes_used
    device.write_block(0, make_block(rng))
    assert device.physical_bytes_used == pytest.approx(first, rel=0.1)


def test_logical_usage_counts_mapped_lbas(device, rng):
    device.write_block(0, make_block(rng))
    device.write_block(9, make_block(rng))
    assert device.logical_bytes_used == 2 * BLOCK_SIZE
    device.trim(9)
    assert device.logical_bytes_used == BLOCK_SIZE


def test_read_accounting_physical_vs_logical(device, rng):
    device.write_block(0, make_block(rng, nonzero_bytes=256))
    device.read_block(0)  # live, small extent
    device.read_block(1)  # never written: free physically
    assert device.stats.logical_bytes_read == 2 * BLOCK_SIZE
    assert device.stats.physical_bytes_read < 1024


def test_thin_provisioning_capacity_enforced(rng):
    device = CompressedBlockDevice(
        num_blocks=64, physical_capacity=BLOCK_SIZE + BLOCK_SIZE // 2
    )
    device.write_block(0, make_block(rng))
    with pytest.raises(CapacityError):
        device.write_block(1, make_block(rng))


def test_thin_provisioning_sparse_data_fits(rng):
    """Many mostly-zero logical blocks fit into little physical space."""
    device = CompressedBlockDevice(num_blocks=64, physical_capacity=2 * BLOCK_SIZE)
    for lba in range(32):
        device.write_block(lba, make_block(rng, nonzero_bytes=64))
    assert device.logical_bytes_used == 32 * BLOCK_SIZE
    assert device.physical_bytes_used < 2 * BLOCK_SIZE


def test_plain_ssd_physical_equals_logical(plain_ssd, rng):
    plain_ssd.write_block(0, bytes(BLOCK_SIZE))  # even zeros cost full size
    assert plain_ssd.stats.physical_bytes_written == BLOCK_SIZE


def test_crash_discards_unflushed_writes(device, rng):
    block = make_block(rng)
    device.write_block(0, block)
    device.flush()
    device.write_block(0, make_block(rng))
    lost = device.simulate_crash()
    assert lost == [0]
    assert device.read_block(0) == block


def test_crash_preserves_flushed_writes(device, rng):
    block = make_block(rng)
    device.write_block(4, block)
    device.flush()
    device.simulate_crash()
    assert device.read_block(4) == block


def test_crash_partial_survival_models_torn_multiblock_write(device, rng):
    """A two-block write where only the first block survives the crash."""
    data = rng.random_bytes(2 * BLOCK_SIZE)
    device.write_blocks(0, data)
    device.simulate_crash(survives=lambda lba: lba == 0)
    assert device.read_block(0) == data[:BLOCK_SIZE]
    assert device.read_block(1) == bytes(BLOCK_SIZE)


def test_keep_torn_applies_seeded_subset(rng):
    """simulate_crash(keep_torn=s) keeps a seeded random subset of writes."""
    blocks = {lba: make_block(rng) for lba in range(40)}
    device = CompressedBlockDevice(num_blocks=64)
    for lba, data in blocks.items():
        device.write_block(lba, data)
    lost = device.simulate_crash(keep_torn=123)
    kept = sorted(set(blocks) - set(lost))
    assert 0 < len(kept) < len(blocks)  # strict subset: genuinely torn
    for lba in kept:
        assert device.read_block(lba) == blocks[lba]
    for lba in lost:
        assert device.read_block(lba) == bytes(BLOCK_SIZE)
    # The survival pattern is a pure function of the seed.
    again = CompressedBlockDevice(num_blocks=64)
    for lba, data in blocks.items():
        again.write_block(lba, data)
    assert again.simulate_crash(keep_torn=123) == lost


def test_keep_torn_and_survives_are_exclusive(device):
    """Passing both crash selectors is a usage error."""
    device.write_block(0, bytes(BLOCK_SIZE))
    with pytest.raises(FaultInjectionError):
        device.simulate_crash(survives=lambda lba: True, keep_torn=1)


def test_crash_unflushed_trim_can_be_lost(device, rng):
    block = make_block(rng)
    device.write_block(2, block)
    device.flush()
    device.trim(2)
    device.simulate_crash()  # trim never became durable
    assert device.read_block(2) == block


def test_flush_persists_trim(device, rng):
    device.write_block(2, make_block(rng))
    device.trim(2)
    device.flush()
    device.simulate_crash()
    assert device.read_block(2) == bytes(BLOCK_SIZE)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_property_device_matches_reference_model(data):
    """Random write/trim/flush sequences agree with a dict reference model."""
    rng = DeterministicRng(data.draw(st.integers(0, 2**32)))
    device = CompressedBlockDevice(num_blocks=16, compressor=ZlibCompressor())
    reference: dict = {}
    for _ in range(data.draw(st.integers(1, 60))):
        action = data.draw(st.sampled_from(["write", "trim", "flush", "read"]))
        lba = data.draw(st.integers(0, 15))
        if action == "write":
            block = make_block(rng, nonzero_bytes=data.draw(st.integers(0, BLOCK_SIZE)))
            device.write_block(lba, block)
            reference[lba] = block
        elif action == "trim":
            device.trim(lba)
            reference.pop(lba, None)
        elif action == "flush":
            device.flush()
        else:
            assert device.read_block(lba) == reference.get(lba, bytes(BLOCK_SIZE))
    for lba in range(16):
        assert device.read_block(lba) == reference.get(lba, bytes(BLOCK_SIZE))


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), n_ops=st.integers(1, 40))
def test_property_physical_writes_monotone(seed, n_ops):
    rng = DeterministicRng(seed)
    device = CompressedBlockDevice(num_blocks=32)
    last = 0
    for i in range(n_ops):
        device.write_block(i % 32, make_block(rng, nonzero_bytes=rng.randrange(BLOCK_SIZE)))
        now = device.stats.physical_bytes_written
        assert now >= last
        last = now


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_property_live_bytes_never_exceed_physical_writes(seed):
    rng = DeterministicRng(seed)
    device = CompressedBlockDevice(num_blocks=32)
    for i in range(40):
        if rng.random() < 0.7:
            lba = rng.randrange(32)
            block = make_block(rng, nonzero_bytes=rng.randrange(BLOCK_SIZE))
            device.write_block(lba, block)
        else:
            device.trim(rng.randrange(32))
        assert device.physical_bytes_used <= device.stats.physical_bytes_written


# --------------------------------------------------------------- IOPS semantics


def test_multi_block_write_is_one_io(device, rng):
    """One write command = one I/O, however many blocks it spans."""
    device.write_blocks(0, rng.random_bytes(4 * BLOCK_SIZE))
    assert device.stats.write_ios == 1
    assert device.stats.blocks_written == 4


def test_multi_block_read_is_one_io(device, rng):
    device.write_blocks(0, rng.random_bytes(3 * BLOCK_SIZE))
    snap = device.stats.snapshot()
    device.read_blocks(0, 3)
    delta = device.stats.delta(snap)
    assert delta.read_ios == 1
    assert delta.blocks_read == 3


#: One block in each state a read can meet, by LBA (see _read_path_device).
_READ_STATES = (
    "never written", "pending", "pending-trimmed", "all-zero pending",
    "stable", "stable, pending TRIM", "stable, pending rewrite",
    "pending multi-block write", "pending multi-block write",
    "never written",
)


def _read_path_device(phase: str) -> CompressedBlockDevice:
    """A device whose LBAs ``0..9`` hold :data:`_READ_STATES`, as built
    (``phase="built"``), after ``flush`` or after ``simulate_crash``."""
    rng = DeterministicRng(7)
    device = CompressedBlockDevice(num_blocks=len(_READ_STATES), compressor=ZlibCompressor())
    for lba in (4, 5, 6):  # stable first
        device.write_block(lba, make_block(rng, 1000))
    device.flush()
    device.write_block(1, make_block(rng, 1000))
    device.write_block(2, make_block(rng, 1000))
    device.trim(2)
    device.write_block(3, bytes(BLOCK_SIZE))
    device.trim(5)
    device.write_block(6, make_block(rng, 1000))
    device.write_blocks(7, rng.random_bytes(2 * BLOCK_SIZE))  # memoryview chunks
    if phase == "flush":
        device.flush()
    elif phase == "crash":
        device.simulate_crash(survives=lambda lba: lba % 2 == 1)
    return device


def _reference_read(device: CompressedBlockDevice, lba: int, count: int):
    """The per-block fetch rule: each block charges 4KB logical and its
    live extent physical, and reads its pending journal entry (a TRIM
    reads zeros), else its stable bytes, else zeros."""
    blocks = []
    physical = 0
    for block in range(lba, lba + count):
        physical += device.ftl.extent_size(block)
        if block in device._pending:
            data = device._pending[block]
            blocks.append(bytes(BLOCK_SIZE) if data is None else bytes(data))
        else:
            blocks.append(device._stable.get(block, bytes(BLOCK_SIZE)))
    stats = DeviceStats(
        read_ios=1, blocks_read=count,
        logical_bytes_read=count * BLOCK_SIZE, physical_bytes_read=physical,
    )
    return b"".join(blocks), stats


@pytest.mark.parametrize("phase", ["built", "flush", "crash"])
def test_read_path_matches_per_block_fetch_rule(phase):
    """``read_block`` and ``read_blocks`` (counts 1-4) return the bytes and
    charge every counter exactly as the per-block rule does, on blocks in
    every state: never written, pending, pending-trimmed, all-zero
    pending, stable, stable under a pending TRIM or rewrite."""
    device = _read_path_device(phase)
    reads = [(lba, None) for lba in range(device.num_blocks)]
    reads += [
        (lba, count)
        for count in range(1, 5)
        for lba in range(device.num_blocks - count + 1)
    ]
    for lba, count in reads:
        expected, expected_stats = _reference_read(device, lba, count or 1)
        before = device.stats.snapshot()
        got = device.read_block(lba) if count is None else device.read_blocks(lba, count)
        assert type(got) is bytes
        assert got == expected, (phase, lba, count)
        assert device.stats.delta(before) == expected_stats, (phase, lba, count)


def test_single_block_io_counts_one_block(device, rng):
    device.write_block(2, make_block(rng))
    device.read_block(2)
    assert device.stats.write_ios == 1
    assert device.stats.blocks_written == 1
    assert device.stats.read_ios == 1
    assert device.stats.blocks_read == 1


def test_block_counters_accumulate_across_commands(device, rng):
    device.write_blocks(0, rng.random_bytes(2 * BLOCK_SIZE))
    device.write_block(8, make_block(rng))
    device.read_blocks(0, 2)
    device.read_block(8)
    assert device.stats.write_ios == 2
    assert device.stats.blocks_written == 3
    assert device.stats.read_ios == 2
    assert device.stats.blocks_read == 3


# ------------------------------------------------------ two-thread sizing


class SerialZlib(ZlibCompressor):
    """zlib sizing every request one block at a time on the calling thread."""

    def compressed_sizes(self, blocks):
        return [self.compressed_size(block) for block in blocks]


class FailOnMarkedBlock(ZlibCompressor):
    """zlib that raises on a block starting with ``FAIL`` and records the
    thread that was sizing it."""

    def __init__(self):
        super().__init__()
        self.failed_on = None

    def compressed_size(self, block):
        if bytes(block[:4]) == b"FAIL":
            self.failed_on = threading.get_ident()
            raise ValueError("injected sizing failure")
        return super().compressed_size(block)


def test_worker_sizing_error_surfaces_before_any_accounting(rng):
    """The worker sizes blocks 3-5 of a 6-block request; the error it hits
    on block 4 is raised by write_blocks on the calling thread.  Sizing
    precedes every counter, FTL extent and journal entry of the request, so
    by then none of them has moved, and the next request sizes normally."""
    compressor = FailOnMarkedBlock()
    device = CompressedBlockDevice(num_blocks=64, compressor=compressor)
    device.write_blocks(0, b"".join(make_block(rng, 2048) for _ in range(6)))
    stats, live = device.stats.snapshot(), device.ftl.live_bytes
    blocks = [make_block(rng, 2048) for _ in range(6)]
    blocks[4] = b"FAIL" + blocks[4][4:]
    with pytest.raises(ValueError, match="injected sizing failure"):
        device.write_blocks(16, b"".join(blocks))
    assert compressor.failed_on not in (None, threading.get_ident())
    assert device.stats == stats
    assert (device.ftl.live_bytes, device.ftl.mapped_lbas) == (live, 6)
    assert not any(lba in device._pending for lba in range(16, 22))
    retry = b"".join(make_block(rng, 2048) for _ in range(6))
    device.write_blocks(16, retry)
    assert device.ftl.mapped_lbas == 12
    assert device.read_blocks(16, 6) == retry


def test_two_thread_sizing_leaves_the_device_as_serial_sizing():
    """One LSM run (flushes, compactions, manifest writes) fed to a device
    sizing serially and to one sizing on two threads ends with the same
    counters, FTL extents and stable bytes."""
    pick = random.Random(7)
    items = [
        (pick.randrange(1 << 40).to_bytes(8, "big"), pick.randbytes(60) + bytes(60))
        for _ in range(3000)
    ]
    config = LSMConfig(
        memtable_bytes=16 << 10,
        level_base_bytes=64 << 10,
        table_target_bytes=16 << 10,
        log_blocks=1024,
    )
    serial = CompressedBlockDevice(num_blocks=20_000, compressor=SerialZlib())
    split = CompressedBlockDevice(num_blocks=20_000, compressor=ZlibCompressor())
    for device in (serial, split):
        engine = LSMEngine(device, config)
        for key, value in items:
            engine.put(key, value)
        engine.close()
        device.flush()
        assert engine.compactions_run > 0
    assert split.compressor._worker is not None  # it did split requests
    assert split.stats == serial.stats
    assert split.ftl._extent_size == serial.ftl._extent_size
    assert split._stable == serial._stable
