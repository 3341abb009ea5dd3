"""Integration tests for the workload runner over real engines."""

import pytest

from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.records import KeySpace
from repro.workloads.runner import WorkloadRunner


def make_bminus(n_threads=1, policy="interval"):
    device = CompressedBlockDevice(num_blocks=200_000)
    clock = SimClock()
    engine = BMinusTree(device, BMinusConfig(
        cache_bytes=1 << 17, max_pages=4096, log_blocks=1024,
        log_flush_policy=policy,
    ), clock=clock)
    return WorkloadRunner(engine, device, clock, n_threads=n_threads), engine, device


def test_thread_count_validation():
    runner, _, _ = make_bminus()
    with pytest.raises(ValueError):
        WorkloadRunner(runner.engine, runner.device, runner.clock, n_threads=0)


def test_populate_inserts_every_key(rng):
    runner, engine, _ = make_bminus()
    keyspace = KeySpace(2000, 64)
    stats = runner.populate(keyspace, rng)
    assert stats.ops == 2000
    assert stats.puts == 2000
    assert sum(1 for _ in engine.items()) == 2000
    assert stats.traffic.user_bytes == keyspace.dataset_bytes


def test_populate_is_deterministic():
    usages = []
    for _ in range(2):
        runner, engine, device = make_bminus()
        runner.populate(KeySpace(1500, 128), DeterministicRng(7))
        usages.append(device.stats.physical_bytes_written)
    assert usages[0] == usages[1]


def test_steady_phase_measures_only_itself(rng):
    runner, engine, _ = make_bminus()
    keyspace = KeySpace(2000, 64)
    runner.populate(keyspace, rng.split("p"))
    stats = runner.run_random_writes(keyspace, 500, rng.split("s"))
    assert stats.ops == 500
    assert stats.traffic.user_bytes == 500 * 64
    assert stats.traffic.total_physical > 0


def test_point_read_phase(rng):
    runner, engine, _ = make_bminus()
    keyspace = KeySpace(8000, 64)  # larger than the cache, so reads miss
    runner.populate(keyspace, rng.split("p"))
    stats = runner.run_point_reads(keyspace, 300, rng.split("r"))
    assert stats.reads == 300
    assert stats.traffic.user_bytes == 0  # reads write nothing
    assert stats.device.logical_bytes_read > 0


def test_scan_phase_counts_records(rng):
    runner, engine, _ = make_bminus()
    keyspace = KeySpace(1000, 64)
    runner.populate(keyspace, rng.split("p"))
    stats = runner.run_range_scans(keyspace, 20, rng.split("s"), scan_length=50)
    assert stats.scans == 20
    assert stats.records_scanned == 20 * 50


def test_clock_advances_per_round_not_per_op(rng):
    keyspace = KeySpace(1000, 64)
    elapsed = {}
    for threads in (1, 4):
        runner, _, _ = make_bminus(n_threads=threads)
        runner.populate(keyspace, rng.split("p", threads))
        stats = runner.run_random_writes(keyspace, 400, rng.split("s", threads))
        elapsed[threads] = stats.elapsed_seconds
    # 4 threads complete the same op count in ~1/4 the simulated time.
    assert elapsed[4] == pytest.approx(elapsed[1] / 4, rel=0.05)


def test_group_commit_batches_log_flushes(rng):
    keyspace = KeySpace(1000, 64)
    flushes = {}
    for threads in (1, 8):
        runner, engine, _ = make_bminus(n_threads=threads, policy="commit")
        runner.populate(keyspace, rng.split("p", threads))
        before = engine.engine.wal.stats.flushes
        runner.run_random_writes(keyspace, 800, rng.split("s", threads))
        flushes[threads] = engine.engine.wal.stats.flushes - before
    # 8 client threads share each commit flush.
    assert flushes[8] < flushes[1] / 4


def test_runner_works_with_lsm_engine(rng):
    device = CompressedBlockDevice(num_blocks=200_000)
    clock = SimClock()
    engine = LSMEngine(device, LSMConfig(
        memtable_bytes=16 << 10, level_base_bytes=64 << 10,
        table_target_bytes=16 << 10, log_blocks=1024,
    ), clock=clock)
    runner = WorkloadRunner(engine, device, clock, n_threads=2)
    keyspace = KeySpace(3000, 64)
    runner.populate(keyspace, rng.split("p"))
    stats = runner.run_random_writes(keyspace, 1000, rng.split("s"))
    assert stats.ops == 1000
    assert sum(1 for _ in engine.items()) == 3000



def test_hub_leaves_run_bit_identical():
    from repro.obs.metrics import MetricsHub

    def measured_run(hub):
        device = CompressedBlockDevice(num_blocks=200_000)
        clock = SimClock()
        engine = BMinusTree(device, BMinusConfig(
            cache_bytes=1 << 17, max_pages=4096, log_blocks=1024,
            log_flush_policy="commit",
        ), clock=clock)
        runner = WorkloadRunner(engine, device, clock, n_threads=4, hub=hub)
        keyspace = KeySpace(2000, 64)
        runner.populate(keyspace, DeterministicRng(11))
        runner.run_random_writes(keyspace, 600, DeterministicRng(12))
        runner.run_point_reads(keyspace, 200, DeterministicRng(13))
        return device

    hub = MetricsHub(window_seconds=0.05)
    bare, observed = measured_run(None), measured_run(hub)
    assert observed._stable == bare._stable
    assert observed.stats == bare.stats
    obs = hub.summary()
    assert obs["op_latency"]["put"]["n"] == 2000 + 600
    assert obs["op_latency"]["read"]["n"] == 200


@pytest.mark.parametrize("phase", [
    lambda runner, ks, rng: runner.run_range_scans(ks, 0, rng, scan_length=0),
    lambda runner, ks, rng: runner.run_zipfian_writes(ks, 0, rng, theta=1.5),
    lambda runner, ks, rng: runner.run_zipfian_writes(ks, 0, rng, theta=1.0, scattered=True),
], ids=["scan_length=0", "theta=1.5", "scattered-theta=1.0"])
def test_bad_stream_arguments_fail_the_phase(phase, rng):
    """Even a phase of 0 ops rejects the arguments of its op streams."""
    runner, _, _ = make_bminus()
    with pytest.raises(ValueError):
        phase(runner, KeySpace(100, 64), rng)
