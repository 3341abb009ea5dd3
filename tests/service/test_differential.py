"""Serving-layer differentials: multi-session runs vs a single caller.

The crash-safety and WA claims of the serving layer rest on one property:
multiplexing N client sessions through the group-commit front-end performs
*exactly* the engine work a single sequential caller would, just coalesced.
The service records its engine-visible schedule; replaying it op by op
through a fresh engine must leave bit-identical device bytes, device stats,
and WA counters (the batch-vs-single half of this equivalence is proved by
``tests/test_differential.py``).
"""

import pytest

from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from repro.csd.faults import FaultInjectingDevice, FaultPlan
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.service import ServiceConfig, StorageService, make_sessions
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.records import KeySpace

KS = KeySpace(n_records=300, record_size=64)

_ENGINES = {
    "bminus": lambda device, clock: BMinusTree(
        device,
        BMinusConfig(cache_bytes=1 << 16, max_pages=2048, log_blocks=512,
                     log_flush_policy="commit", group_atomic=True),
        clock,
    ),
    "lsm": lambda device, clock: LSMEngine(
        device,
        LSMConfig(memtable_bytes=8 << 10, level_base_bytes=32 << 10,
                  table_target_bytes=8 << 10, log_blocks=512,
                  log_flush_policy="commit", group_atomic=True),
        clock,
    ),
}


def _service_run(name, seed, n_sessions=8, ops=25):
    clock = SimClock()
    device = CompressedBlockDevice(num_blocks=30_000)
    engine = _ENGINES[name](device, clock)
    service = StorageService(engine, clock, ServiceConfig(),
                             record_schedule=True)
    sessions = make_sessions(n_sessions, ops, KS, DeterministicRng(seed),
                             arrival_interval=0.001)
    report = service.serve(sessions)
    device.flush()
    return device, engine, service, report


def replay_schedule(engine, clock, schedule):
    """Replay a recorded service schedule through a single sequential caller.

    Batches are applied op by op: how a put stream is cut into calls
    changes no device byte (``tests/test_differential.py`` holds a batch
    against batches of one), so a service run and this replay must leave
    identical device bytes on a fault-free run.
    """
    for event in schedule:
        tag = event[0]
        if tag == "put_batch":
            for key, value in event[1]:
                engine.put(key, value)
        elif tag == "get_batch":
            for key in event[1]:
                engine.get(key)
        elif tag == "scan":
            engine.scan(event[1], event[2])
        elif tag == "commit":
            engine.commit()
        elif tag == "tick":
            engine.tick()
        elif tag == "advance":
            clock.advance(event[1])
        elif tag == "advance_to":
            clock.advance_to(event[1])
        else:
            raise AssertionError(f"unknown schedule event {tag!r}")


def _replay_run(name, schedule):
    clock = SimClock()
    device = CompressedBlockDevice(num_blocks=30_000)
    engine = _ENGINES[name](device, clock)
    replay_schedule(engine, clock, schedule)
    device.flush()
    return device, engine


def _assert_identical(served, replayed, label):
    s_device, s_engine = served
    r_device, r_engine = replayed
    assert r_device._stable == s_device._stable, f"{label}: device bytes"
    assert r_device.stats == s_device.stats, f"{label}: device stats"
    assert r_device.physical_bytes_used == s_device.physical_bytes_used, label
    assert r_engine.traffic_snapshot() == s_engine.traffic_snapshot(), (
        f"{label}: WA counters"
    )


@pytest.mark.parametrize("name", sorted(_ENGINES))
def test_multi_session_serve_bit_identical_to_sequential_replay(name):
    device, engine, service, report = _service_run(name, seed=2022)
    assert service.stats.completed == 200
    assert service.stats.unaccounted() == 0
    assert service.schedule, "schedule was not recorded"
    replayed = _replay_run(name, service.schedule)
    _assert_identical((device, engine), replayed, name)


@pytest.mark.parametrize("name", sorted(_ENGINES))
@pytest.mark.parametrize("seed", [0, 1, 7])
def test_fuzz_session_interleavings_replay_identically(name, seed):
    """Different seeds change arrival interleavings, batch shapes, and
    window boundaries; the equivalence must hold for all of them."""
    device, engine, service, _ = _service_run(name, seed=seed, n_sessions=5,
                                              ops=12)
    replayed = _replay_run(name, service.schedule)
    _assert_identical((device, engine), replayed, f"{name}/seed={seed}")


@pytest.mark.parametrize("seed", [3, 11])
def test_fuzz_serving_under_transient_faults_never_drops_silently(seed):
    """Probabilistic transient faults under a multi-session load: whatever
    the engine's internal retries absorb or escalate, the service ledger
    must stay closed and every session op must reach a typed outcome."""
    clock = SimClock()
    device = FaultInjectingDevice(
        CompressedBlockDevice(num_blocks=30_000),
        FaultPlan(seed=seed, transient_read_rate=0.02,
                  transient_write_rate=0.01, max_faults=25),
    )
    engine = BMinusTree(
        device,
        BMinusConfig(cache_bytes=1 << 16, max_pages=2048, log_blocks=512,
                     log_flush_policy="commit", group_atomic=True),
        clock,
    )
    service = StorageService(engine, clock, ServiceConfig(deadline=10.0))
    sessions = make_sessions(6, 20, KS, DeterministicRng(seed),
                             arrival_interval=0.0005, write_fraction=0.5)
    service.serve(sessions)
    stats = service.stats
    assert stats.submitted == 120
    assert stats.unaccounted() == 0
    for session in sessions:
        assert session.stats.resolved == 20
    # The engine survived and still serves reads after the fault burst.
    assert engine.scan(KS.key(0), 5) is not None
