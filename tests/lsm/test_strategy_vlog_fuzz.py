"""Seeded hypothesis fuzz: strategy equivalence + vlog GC crash idempotence.

Two properties pin the PR-10 subsystem:

* **strategy equivalence** — one random operation stream must read back the
  identical key/value multiset under every compaction strategy × separation
  threshold, live and after reopen;
* **GC idempotence** — a crash (random per-block survival of unflushed
  writes) at a random boundary of a value-log workload that runs several GC
  passes recovers exactly the committed state (plus, possibly, un-acked
  puts that were already durable), and recovering *again* from the
  recovered image changes nothing.

Set ``REPRO_FUZZ_SEED=<n>`` to replay one scenario (see ``tests/fuzz.py``).
"""

import random

from hypothesis import example, given

from repro.csd.device import CompressedBlockDevice
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.strategy import STRATEGIES
from tests.fuzz import fuzz_settings, report_seed, seed_strategy

THRESHOLDS = (None, 64)


def _config(strategy: str, threshold, **overrides) -> LSMConfig:
    options = dict(
        memtable_bytes=4 * 1024,
        log_blocks=512,
        log_flush_policy="commit",
        compaction_strategy=strategy,
        value_separation_threshold=threshold,
        vlog_segment_blocks=1,
        vlog_segments=8,
        vlog_gc_free_segments=2,
    )
    options.update(overrides)
    return LSMConfig(**options)


def _workload(seed: int, n_ops: int = 250):
    """A deterministic put/delete stream with values straddling the 64B
    separation threshold, plus the reference final state."""
    rng = random.Random(seed)
    stream = []
    reference = {}
    for _ in range(n_ops):
        k = b"key%04d" % rng.randrange(80)
        if rng.random() < 0.15 and reference:
            victim = rng.choice(sorted(reference))
            stream.append(("del", victim, b""))
            del reference[victim]
        else:
            v = rng.randbytes(rng.randrange(16, 220))
            stream.append(("put", k, v))
            reference[k] = v
    return stream, reference


@fuzz_settings(max_examples=4, deadline=None)
@given(seed=seed_strategy())
def test_strategy_threshold_equivalence(seed):
    stream, reference = _workload(seed)
    with report_seed(seed):
        for strategy in sorted(STRATEGIES):
            for threshold in THRESHOLDS:
                label = f"{strategy}/threshold={threshold}/seed={seed}"
                config = _config(strategy, threshold)
                device = CompressedBlockDevice(num_blocks=1 << 14)
                engine = LSMEngine(device, config)
                for index, (kind, k, v) in enumerate(stream):
                    if kind == "put":
                        engine.put(k, v)
                    else:
                        engine.delete(k)
                    if index % 16 == 15:
                        engine.commit()
                engine.commit()
                assert dict(engine.items()) == reference, label
                engine.close()
                reopened = LSMEngine.open(device, _config(strategy, threshold))
                assert dict(reopened.items()) == reference, label
                reopened.close()


@fuzz_settings(max_examples=6, deadline=None)
@given(seed=seed_strategy())
@example(seed=1013)  # a vlog roll flushes the WAL under key0031's un-acked put
def test_vlog_gc_idempotent_after_crash_reopen(seed):
    rng = random.Random(seed)
    config = _config("leveled", 64)
    device = CompressedBlockDevice(num_blocks=1 << 14)
    engine = LSMEngine(device, config)
    committed = {}
    # Enough churn of large values that the tight 8x1-block value log runs
    # several GC passes before the crash point.
    crash_at = rng.randrange(60, 220)
    for _ in range(crash_at):
        k = b"key%04d" % rng.randrange(30)
        if rng.random() < 0.1 and committed:
            victim = rng.choice(sorted(committed))
            engine.delete(victim)
            del committed[victim]
        else:
            v = rng.randbytes(rng.randrange(80, 260))
            engine.put(k, v)
            committed[k] = v
        engine.commit()
    gc_before_crash = engine.vlog.stats.gc_passes
    # A few un-acked puts, on keys no committed op touches, then a torn
    # crash.  A value-log roll or GC pass between a put and the crash flushes
    # the WAL, and without group_atomic a durable un-acked put is replayed
    # (the engine's contract): each may survive with the value that was put,
    # and nothing else may appear.
    unacked = {}
    for _ in range(rng.randrange(0, 4)):
        k = b"key%04d" % rng.randrange(30, 40)
        engine.put(k, b"uncommitted" * 10)
        unacked[k] = b"uncommitted" * 10
    device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
    with report_seed(seed):
        recovered = LSMEngine.open(device, _config("leveled", 64))
        state = dict(recovered.items())
        extra = {k: state[k] for k in unacked.keys() & state.keys()}
        assert extra.items() <= unacked.items(), extra
        # Survivors are part of the state the idempotence checks compare.
        committed.update(extra)
        assert state == committed, (
            f"crash at op {crash_at} (gc passes {gc_before_crash})"
        )
        recovered.close()
        # Idempotence: recovering again from the recovered image (which
        # re-ran the GC scrub) must reproduce the same state, and keep doing
        # so after further GC-driving churn.
        again = LSMEngine.open(device, _config("leveled", 64))
        assert dict(again.items()) == committed
        for i in range(40):
            k = b"key%04d" % rng.randrange(30)
            v = rng.randbytes(rng.randrange(80, 260))
            again.put(k, v)
            committed[k] = v
            again.commit()
        assert dict(again.items()) == committed
        again.close()
        final = LSMEngine.open(device, _config("leveled", 64))
        assert dict(final.items()) == committed
        final.close()
