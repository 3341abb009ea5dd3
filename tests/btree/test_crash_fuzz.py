"""Crash-injection fuzzing across all page-atomicity strategies.

Each scenario runs a random workload with per-commit log flushing, crashes at
a random point with *random per-block survival* of unflushed writes (modelling
arbitrarily torn multi-block page writes), recovers, and asserts that the
committed prefix of the history is visible exactly; puts issued after the last
commit may or may not be (without ``group_atomic`` the redo log has no COMMIT
markers, so a sealed WAL block or an evicted page that wins the survival
lottery is replayed — the engine's documented contract).  A second set runs
on a 16-block ring, where relief checkpoints TRIM the ring behind their
cursor many times before the crash, and also crashes with every unflushed
write dropped.

Set ``REPRO_FUZZ_SEED=<n>`` to replay one scenario; failures print the seed
to replay (see ``tests/fuzz.py``).
"""

import random

import pytest
from hypothesis import example, given

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from tests.fuzz import fuzz_settings, report_seed, seed_strategy


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def config(strategy: str) -> BTreeConfig:
    return BTreeConfig(
        page_size=8192,
        cache_bytes=1 << 16,  # tiny cache: constant eviction churn
        max_pages=1024,
        log_blocks=512,
        atomicity=strategy,
        wal_mode="packed",
        log_flush_policy="commit",
    )


@pytest.mark.parametrize("strategy", ["journal", "shadow-table", "det-shadow"])
@fuzz_settings(max_examples=6, deadline=None)
@given(seed=seed_strategy())
@example(seed=4194303)  # the three un-acked puts seal a WAL block that survives
@example(seed=1057)  # their dirty pages are evicted and survive
def test_random_crash_point_recovers_committed_state(strategy, seed):
    rng = random.Random(seed)
    device = CompressedBlockDevice(num_blocks=200_000)
    engine = BTreeEngine(device, config(strategy))
    crash_at = rng.randrange(50, 600)
    # Crash with random per-4KB-block survival: any multi-block page write in
    # flight may tear in any pattern.
    committed, unacked = _run_to_crash(
        engine, device, rng, crash_at, 120, survives=lambda lba: rng.random() < 0.5
    )
    with report_seed(seed):
        recovered = BTreeEngine.open(device, config(strategy))
        _check_recovered(recovered, recovered.tree, committed, unacked, seed)


#: A small ring: relief checkpoints, each TRIMming the ring behind its
#: cursor, fire many times before the crash, wrapping the ring end.
_SMALL_RING = 16


def _small_ring_store(system: str, device):
    if system == "bminus":
        return BMinusTree(device, BMinusConfig(
            page_size=8192, cache_bytes=1 << 16, max_pages=1024,
            log_blocks=_SMALL_RING, wal_mode="sparse", log_flush_policy="commit",
        ))
    return BTreeEngine(device, BTreeConfig(
        page_size=8192, cache_bytes=1 << 16, max_pages=1024,
        log_blocks=_SMALL_RING, atomicity="shadow-table", wal_mode="packed",
        log_flush_policy="commit",
    ))


@pytest.mark.parametrize("mode", ["torn", "drop"])
@pytest.mark.parametrize("system", ["bminus", "wiredtiger"])
@fuzz_settings(max_examples=4, deadline=None)
@given(seed=seed_strategy())
def test_crash_after_ring_releases_recovers_committed_state(system, mode, seed):
    """Sparse (``bminus``) and packed (``wiredtiger``) logs on a 16-block
    ring: the replay cursor laps the ring before the crash, so recovery
    reads a ring whose dead blocks were TRIMmed, in runs that wrap its end,
    and any release TRIM still pending at the crash lands or not per block
    (torn) or is lost (drop)."""
    rng = random.Random(seed)
    device = CompressedBlockDevice(num_blocks=200_000)
    store = _small_ring_store(system, device)
    btree = store.engine if system == "bminus" else store
    crash_at = rng.randrange(300, 700)
    survives = (lambda lba: rng.random() < 0.5) if mode == "torn" else None
    committed, unacked = _run_to_crash(store, device, rng, crash_at, 600, survives)
    with report_seed(seed):
        assert btree.wal.cursor.sequence > _SMALL_RING, "the cursor never lapped"
        recovered = type(store).open(device, store.config)
        tree = (recovered.engine if system == "bminus" else recovered).tree
        _check_recovered(recovered, tree, committed, unacked, seed)


def _run_to_crash(store, device, rng, crash_at, max_value, survives):
    """Commit ``crash_at`` random puts and deletes, then a few un-acked
    puts, then crash; returns the committed model and the un-acked keys."""
    committed: dict[bytes, bytes] = {}
    for step in range(crash_at):
        k = key(rng.randrange(400))
        if rng.random() < 0.2 and committed:
            victim = rng.choice(sorted(committed))
            store.delete(victim)
            del committed[victim]
        else:
            v = bytes(rng.randrange(256) for _ in range(rng.randrange(8, max_value)))
            store.put(k, v)
            committed[k] = v
        store.commit()
    # A few un-acked puts, on keys no committed op touches: each may survive
    # the crash or not, and nothing else may appear.
    unacked = set()
    for _ in range(rng.randrange(0, 5)):
        k = key(rng.randrange(400, 450))
        store.put(k, b"uncommitted")
        unacked.add(k)
    device.simulate_crash(survives=survives)
    return committed, unacked


def _check_recovered(recovered, tree, committed, unacked, seed) -> None:
    state = dict(recovered.items())
    extra = {k: state.pop(k) for k in unacked & state.keys()}
    assert state == committed, (
        f"seed={seed}: recovered {len(state)} records, "
        f"expected {len(committed)}"
    )
    assert set(extra.values()) <= {b"uncommitted"}, f"seed={seed}: {extra}"
    tree.check_invariants()
    # The recovered store must remain fully usable.
    recovered.put(key(999), b"post-recovery")
    recovered.commit()
    assert recovered.get(key(999)) == b"post-recovery"


@pytest.mark.parametrize("strategy", ["journal", "shadow-table", "det-shadow"])
def test_double_crash_during_recovery_window(strategy):
    """Crash again immediately after recovery's own writes."""
    rng = random.Random(1234)
    device = CompressedBlockDevice(num_blocks=200_000)
    engine = BTreeEngine(device, config(strategy))
    committed = {}
    for i in range(300):
        k = key(rng.randrange(200))
        v = bytes(rng.randrange(256) for _ in range(64))
        engine.put(k, v)
        committed[k] = v
        engine.commit()
    device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
    mid = BTreeEngine.open(device, config(strategy))
    assert dict(mid.items()) == committed
    device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
    final = BTreeEngine.open(device, config(strategy))
    assert dict(final.items()) == committed
    final.tree.check_invariants()
