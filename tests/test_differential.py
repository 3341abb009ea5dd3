"""Differential testing: all three engines must agree on KV semantics.

The same randomly generated operation stream is applied to the B⁻-tree, the
baseline B+-tree, and the LSM-tree; at every checkpoint the three engines
and a plain dict must agree on gets, scans, and full iteration.  Any
divergence pinpoints a semantic bug in exactly one engine.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import CompressedBlockDevice
from repro.errors import KeyNotFoundError
from repro.lsm.engine import LSMConfig, LSMEngine
from tests.fuzz import fuzz_settings, report_seed, seed_strategy


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


class EngineTrio:
    """The three engines plus the reference model, driven in lockstep."""

    def __init__(self):
        self.reference: dict[bytes, bytes] = {}
        self.bminus = BMinusTree(
            CompressedBlockDevice(num_blocks=150_000),
            BMinusConfig(cache_bytes=1 << 16, max_pages=2048, log_blocks=512,
                         log_flush_policy="commit"),
        )
        self.btree = BTreeEngine(
            CompressedBlockDevice(num_blocks=150_000),
            BTreeConfig(cache_bytes=1 << 16, max_pages=2048, log_blocks=512,
                        atomicity="shadow-table", log_flush_policy="commit"),
        )
        self.lsm = LSMEngine(
            CompressedBlockDevice(num_blocks=150_000),
            LSMConfig(memtable_bytes=16 << 10, level_base_bytes=64 << 10,
                      table_target_bytes=16 << 10, log_blocks=1024,
                      log_flush_policy="commit"),
        )
        self.engines = [self.bminus, self.btree, self.lsm]

    def put(self, k: bytes, v: bytes) -> None:
        self.reference[k] = v
        for engine in self.engines:
            engine.put(k, v)
            engine.commit()

    def delete(self, k: bytes) -> None:
        present = k in self.reference
        self.reference.pop(k, None)
        for engine in self.engines:
            if isinstance(engine, LSMEngine):
                if present:
                    engine.delete_checked(k)
                else:
                    with pytest.raises(KeyNotFoundError):
                        engine.delete_checked(k)
            else:
                if present:
                    engine.delete(k)
                else:
                    with pytest.raises(KeyNotFoundError):
                        engine.delete(k)
            engine.commit()

    def check_get(self, k: bytes) -> None:
        expected = self.reference.get(k)
        for engine in self.engines:
            assert engine.get(k) == expected, type(engine).__name__

    def check_scan(self, start: bytes, count: int) -> None:
        expected = sorted(
            (k, v) for k, v in self.reference.items() if k >= start
        )[:count]
        for engine in self.engines:
            assert engine.scan(start, count) == expected, type(engine).__name__

    def check_items(self) -> None:
        expected = dict(self.reference)
        for engine in self.engines:
            assert dict(engine.items()) == expected, type(engine).__name__


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_property_engines_agree(seed):
    rng = random.Random(seed)
    trio = EngineTrio()
    for step in range(rng.randrange(150, 500)):
        roll = rng.random()
        k = key(rng.randrange(300))
        if roll < 0.55:
            trio.put(k, rng.randbytes(rng.randrange(8, 100)))
        elif roll < 0.7:
            trio.delete(k)
        elif roll < 0.85:
            trio.check_get(k)
        else:
            trio.check_scan(k, rng.randrange(1, 25))
    trio.check_items()


# --------------------------------------------------------------------------
# Batch API vs single-op sequence: the PR-6 bit-identity guarantee.

_BATCH_ENGINES = {
    "bminus": lambda device: BMinusTree(
        device, BMinusConfig(cache_bytes=1 << 16, max_pages=2048,
                             log_blocks=512, log_flush_policy="commit")),
    "lsm": lambda device: LSMEngine(
        device, LSMConfig(memtable_bytes=8 << 10, level_base_bytes=32 << 10,
                          table_target_bytes=8 << 10, log_blocks=1024,
                          log_flush_policy="commit")),
}


def _assert_runs_identical(single, batched, label: str) -> None:
    """Device bytes, device stats, WA counters, and FaultStats must match."""
    s_device, s_engine = single
    b_device, b_engine = batched
    assert b_device._stable == s_device._stable, f"{label}: device bytes differ"
    assert b_device.stats == s_device.stats, f"{label}: device stats differ"
    assert b_device.physical_bytes_used == s_device.physical_bytes_used, label
    assert b_engine.traffic_snapshot() == s_engine.traffic_snapshot(), (
        f"{label}: WA counters differ"
    )
    s_faults = getattr(s_engine, "fault_stats", None)
    if s_faults is not None:
        assert b_engine.fault_stats == s_faults, f"{label}: fault stats differ"


def _batch_items(rng: random.Random, n_ops: int, n_keys: int = 150):
    return [
        (key(rng.randrange(n_keys)), rng.randbytes(rng.randrange(16, 120)))
        for _ in range(n_ops)
    ]


def _run_chunked(make_engine, chunks, batched: bool):
    """Apply put chunks with one commit per chunk, per-op or through
    ``put_batch`` — the group-commit cadence is identical either way."""
    device = CompressedBlockDevice(num_blocks=150_000)
    engine = make_engine(device)
    for chunk in chunks:
        if batched:
            engine.put_batch(chunk)
        else:
            for k, v in chunk:
                engine.put(k, v)
        engine.commit()
    device.flush()
    return device, engine


@pytest.mark.parametrize("name", sorted(_BATCH_ENGINES))
def test_put_batch_bit_identical_to_single_puts(name):
    """Mixed batch sizes, including batches large enough to span leaf
    splits (B⁻-tree) and memtable flushes (LSM) mid-batch."""
    make_engine = _BATCH_ENGINES[name]
    rng = random.Random(2022)
    items = _batch_items(rng, 1500)
    chunks, i = [], 0
    while i < len(items):
        n = rng.choice((1, 2, 7, 64, 200))
        chunks.append(items[i : i + n])
        i += n
    single = _run_chunked(make_engine, chunks, batched=False)
    batched = _run_chunked(make_engine, chunks, batched=True)
    _assert_runs_identical(single, batched, name)


def test_put_batch_spans_leaf_splits():
    """One large sequential batch forces several leaf splits inside a single
    ``put_batch`` call (~70 records fill an 8KB leaf)."""
    make_engine = _BATCH_ENGINES["bminus"]
    items = [(key(i), bytes([i & 0xFF]) * 100) for i in range(600)]
    single = _run_chunked(make_engine, [items], batched=False)
    batched = _run_chunked(make_engine, [items], batched=True)
    assert batched[1].pager._next_page_id > 8, (
        "workload too small to split leaves mid-batch"
    )
    _assert_runs_identical(single, batched, "bminus/splits")


def test_put_batch_spans_memtable_flushes():
    """One batch whose payload exceeds the 8KB memtable several times over
    flushes the memtable mid-batch and stays bit-identical to the per-op run."""
    make_engine = _BATCH_ENGINES["lsm"]
    rng = random.Random(5)
    items = [(key(i % 100), rng.randbytes(100)) for i in range(400)]
    single = _run_chunked(make_engine, [items], batched=False)
    batched = _run_chunked(make_engine, [items], batched=True)
    assert batched[1].memtable_flushes > 2, (
        "workload too small to flush the memtable mid-batch"
    )
    _assert_runs_identical(single, batched, "lsm/memtable-flush")


@pytest.mark.parametrize("name", sorted(_BATCH_ENGINES))
def test_get_and_delete_batch_bit_identical(name):
    make_engine = _BATCH_ENGINES[name]
    rng = random.Random(77)
    items = _batch_items(rng, 600)
    present = sorted({k for k, _ in items})
    to_delete = present[: len(present) // 2]
    reads = [key(rng.randrange(200)) for _ in range(300)]

    def run(batched: bool):
        device = CompressedBlockDevice(num_blocks=150_000)
        engine = make_engine(device)
        if batched:
            engine.put_batch(items)
            got = engine.get_batch(reads)
            engine.delete_batch(to_delete)
        else:
            for k, v in items:
                engine.put(k, v)
            got = [engine.get(k) for k in reads]
            for k in to_delete:
                engine.delete(k)
        engine.commit()
        device.flush()
        return device, engine, got

    s_device, s_engine, s_got = run(batched=False)
    b_device, b_engine, b_got = run(batched=True)
    assert b_got == s_got, f"{name}: get_batch results differ"
    _assert_runs_identical((s_device, s_engine), (b_device, b_engine), name)


def _run_on_small_ring(load, apply):
    """Drive a B⁻-tree whose 16-block WAL ring wants a checkpoint every ~8
    sealed blocks: ``load`` is put and committed, then ``apply(store)`` runs.
    Returns ``((device, store), checkpoints that ran inside apply)``.
    """
    device = CompressedBlockDevice(num_blocks=150_000)
    store = BMinusTree(
        device, BMinusConfig(cache_bytes=1 << 16, max_pages=2048,
                             log_blocks=16, log_flush_policy="commit"))
    for k, v in load:
        store.put(k, v)
    store.commit()
    fired = []
    checkpoint = store.engine.checkpoint
    store.engine.checkpoint = lambda: (fired.append(1), checkpoint())
    apply(store)
    inside = len(fired)
    store.commit()
    device.flush()
    return (device, store), inside


def test_put_batch_spans_checkpoints():
    """The checkpoint-pressure trigger fires several times *inside* one
    ``put_batch`` call: the engine walks the batch in runs, and where it cuts
    them must be invisible next to a batch of one per item."""
    rng = random.Random(16)
    items = [(key(rng.randrange(400)), rng.randbytes(300)) for _ in range(600)]
    single, _ = _run_on_small_ring([], lambda s: [s.put(k, v) for k, v in items])
    batched, fired = _run_on_small_ring([], lambda s: s.put_batch(items))
    assert fired >= 3, "batch too small to checkpoint mid-call"
    _assert_runs_identical(single, batched, "bminus/checkpoints-in-batch")


def test_delete_batch_spans_emptied_leaves_and_checkpoints():
    """``delete_batch`` unlinks whole leaves and checkpoints mid-call."""
    load = [(key(i), bytes([i & 0xFF]) * 40) for i in range(2400)]
    doomed = [key(i) for i in range(200, 2200)]
    single, _ = _run_on_small_ring(load, lambda s: [s.delete(k) for k in doomed])
    batched, fired = _run_on_small_ring(load, lambda s: s.delete_batch(doomed))
    assert fired >= 1, "batch too small to checkpoint mid-call"
    pager = batched[1].pager
    assert pager._free_ids or pager._deferred_free, "no leaf was emptied"
    _assert_runs_identical(single, batched, "bminus/delete-emptied-leaves")


@fuzz_settings(max_examples=6, deadline=None)
@given(seed=seed_strategy())
def test_fuzz_batch_partitions_bit_identical(seed):
    """Any random partition of any random op stream into batches leaves the
    device bit-identical to the single-op run, for both engines."""
    rng = random.Random(seed)
    items = _batch_items(rng, rng.randrange(200, 800), n_keys=rng.randrange(50, 300))
    chunks, i = [], 0
    while i < len(items):
        n = rng.randrange(1, 150)
        chunks.append(items[i : i + n])
        i += n
    with report_seed(seed):
        for name, make_engine in sorted(_BATCH_ENGINES.items()):
            single = _run_chunked(make_engine, chunks, batched=False)
            batched = _run_chunked(make_engine, chunks, batched=True)
            _assert_runs_identical(single, batched, f"{name}/seed={seed}")


def test_engines_agree_after_crash_and_recovery():
    rng = random.Random(99)
    trio = EngineTrio()
    for _ in range(800):
        k = key(rng.randrange(200))
        if rng.random() < 0.2 and trio.reference:
            trio.delete(rng.choice(sorted(trio.reference)))
        else:
            trio.put(k, rng.randbytes(64))
    # Crash all three, recover all three, and compare again.
    devices = [trio.bminus.engine.device, trio.btree.device, trio.lsm.device]
    for device in devices:
        device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
    trio.bminus = BMinusTree.open(trio.bminus.engine.device, trio.bminus.config)
    trio.btree = BTreeEngine.open(trio.btree.device, trio.btree.config)
    trio.lsm = LSMEngine.open(trio.lsm.device, trio.lsm.config)
    trio.engines = [trio.bminus, trio.btree, trio.lsm]
    trio.check_items()
    trio.check_scan(key(50), 40)


# --------------------------------------------------------------------------
# PR-10 bit-identity: explicitly selecting the default compaction strategy
# with separation disabled must be indistinguishable from the default
# config — same device bytes, stats, WA counters, FaultStats — proving the
# strategy/vlog plumbing is invisible until opted into.


def _drive_lsm(config: LSMConfig):
    rng = random.Random(1234)
    device = CompressedBlockDevice(num_blocks=150_000)
    engine = LSMEngine(device, config)
    for step in range(600):
        k = key(rng.randrange(150))
        if rng.random() < 0.15:
            engine.delete(k)
        else:
            engine.put(k, rng.randbytes(rng.randrange(16, 200)))
        if step % 16 == 15:
            engine.commit()
    engine.commit()
    return device, engine


def test_explicit_leveled_no_separation_is_bit_identical():
    base = dict(memtable_bytes=8 << 10, level_base_bytes=32 << 10,
                table_target_bytes=8 << 10, log_blocks=1024,
                log_flush_policy="commit")
    default = _drive_lsm(LSMConfig(**base))
    explicit = _drive_lsm(LSMConfig(compaction_strategy="leveled",
                                    value_separation_threshold=None, **base))
    _assert_runs_identical(default, explicit, "leveled/separation-off")
    # Reopen both (same manifest bytes implies same recovered state, but
    # assert it anyway) and confirm the explicit config reads back clean.
    for device, _ in (default, explicit):
        reopened = LSMEngine.open(device, LSMConfig(**base))
        assert dict(reopened.items()) == dict(default[1].items())
        reopened.close()
