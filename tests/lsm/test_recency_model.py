"""Model oracle for the LSM recency rule: get == scan == items() == dict.

``tests/test_differential.py`` tops out at 300 keys / 800 ops, which never
rewrites a deep table beside a compaction victim — the shape that let a
stale version outrank a newer one for ten PRs.  Here every strategy, with
and without the value log, cycles a 2KB-memtable engine through dozens of
compactions on :func:`repro.bench.faultcheck.make_workload`'s put / delete
stream (80-320B values, 15% deletes), closes and reopens it in mid-stream,
and must agree with a dict model at every checkpoint on all three read
paths.

Tier-1 replays fixed seeds.  With ``REPRO_FUZZ_SEED=<n>`` (CI's
extended-fuzz job; see ``tests/fuzz.py``) every cell instead runs that one
seed over a 4x longer stream, so rotating seeds on ``main`` keep widening
coverage.
"""

import functools

import pytest

from repro.bench.faultcheck import _apply, make_workload
from repro.csd.device import PlainSSD
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.strategy import STRATEGIES
from tests.fuzz import FUZZ_SEED, report_seed

MEMTABLE_BYTES = 2 * 1024
VLOG_THRESHOLD = 128
OPS_SCALE = 1 if FUZZ_SEED is None else 4
CHECKPOINTS = 4
LONG_SCAN = 120


#: Cells share seeds, and building a stream costs about a fifth of a cell.
_stream = functools.lru_cache(maxsize=None)(make_workload)


def _config(strategy: str, threshold) -> LSMConfig:
    return LSMConfig(
        memtable_bytes=MEMTABLE_BYTES,
        level_base_bytes=4 * MEMTABLE_BYTES,
        table_target_bytes=MEMTABLE_BYTES,
        log_blocks=512,
        compaction_strategy=strategy,
        value_separation_threshold=threshold,
    )


def _cells():
    """(strategy, threshold, n_keys, n_ops, seed): the stale-read defect
    lived in leveled-shaped levels, so those cells get ten seeds; with the
    value log most bytes bypass the tables, so it takes a longer stream to
    cycle as many compactions."""
    for threshold, n_keys, n_ops in ((None, 400, 2500), (VLOG_THRESHOLD, 800, 5000)):
        for strategy in sorted(STRATEGIES):
            if FUZZ_SEED is not None:
                seeds = [FUZZ_SEED]
            elif threshold is None and strategy in ("leveled", "partial"):
                seeds = range(1, 11)
            else:
                seeds = range(1, 4)
            for seed in seeds:
                yield strategy, threshold, n_keys, n_ops * OPS_SCALE, seed


def _table_ids(engine: LSMEngine) -> list:
    return [[r.meta.table_id for r in tables] for tables in engine.versions.levels]


def _scan_starts(n_keys: int) -> list:
    return [b"key%06d" % index for index in range(0, n_keys, max(1, n_keys // 16))]


def _assert_agrees(engine: LSMEngine, model: dict, n_keys: int, label: str) -> None:
    expected = sorted(model.items())
    assert list(engine.items()) == expected, f"items() != model ({label})"
    for index in range(n_keys):
        key = b"key%06d" % index
        assert engine.get(key) == model.get(key), f"get({key!r}) != model ({label})"
    # Range scans from starts spread over the key space (present or not);
    # every fourth one is long enough to run through several tables of a level.
    for nth, start in enumerate(_scan_starts(n_keys)):
        count = LONG_SCAN if nth % 4 == 0 else 25
        want = [kv for kv in expected if kv[0] >= start][:count]
        assert engine.scan(start, count) == want, f"scan({start!r}) != model ({label})"


def _crosses_shadowed_tables(engine: LSMEngine, start: bytes, end: bytes) -> bool:
    """Whether ``[start, end]`` runs through at least four tables of one
    leveled level (three table boundaries inside one sorted run) while
    shallower tables hold both a newer value and a tombstone for keys that
    level also holds in the range."""
    levels = engine.versions.levels
    for depth in range(1, len(levels)):
        run = engine.versions.overlapping(depth, start, end)
        if len(run) < 4:
            continue
        deep = {k for table in run for k, _ in table.iter_all() if start <= k <= end}
        newer = [
            v
            for tables in levels[:depth]
            for table in tables
            for k, v in table.iter_all()
            if k in deep
        ]
        if None in newer and any(v is not None for v in newer):
            return True
    return False


@pytest.mark.parametrize(
    "strategy,threshold,n_keys,n_ops,seed",
    [pytest.param(*cell, id="{}-vlog{}-{}keys-{}ops-seed{}".format(*cell)) for cell in _cells()],
)
def test_get_scan_items_agree_with_model(strategy, threshold, n_keys, n_ops, seed):
    stream = _stream(seed, n_ops, n_keys)
    # No compressor: the oracle reads keys and values, not compressed sizes.
    device = PlainSSD(num_blocks=1 << 14)
    engine = LSMEngine(device, _config(strategy, threshold))
    model: dict = {}
    every = n_ops // CHECKPOINTS
    with report_seed(seed):
        for index, op in enumerate(stream, start=1):
            kind, key, value = op
            if kind == "put":
                engine.put(key, value)
            else:
                engine.delete(key)
            _apply(model, op)
            if index % every:
                continue
            label = f"{strategy}/vlog={threshold}/seed={seed}/op={index}"
            _assert_agrees(engine, model, n_keys, label)
            if index == 2 * every:
                tables = _table_ids(engine)
                assert engine.compactions_run >= 3, label
                engine.close()
                engine = LSMEngine.open(device, _config(strategy, threshold))
                assert _table_ids(engine) == tables, f"reopen reordered a level ({label})"
                _assert_agrees(engine, model, n_keys, label + "/reopened")
        assert engine.compactions_run >= 3
        if not engine.versions.overlapping_runs:
            # The long scans just checked did exercise the lazy level run.
            live = sorted(model)
            spans = [
                [k for k in live if k >= start][:LONG_SCAN]
                for start in _scan_starts(n_keys)[::4]
            ]
            assert any(
                _crosses_shadowed_tables(engine, span[0], span[-1]) for span in spans if span
            ), label
