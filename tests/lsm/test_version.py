"""Unit tests for level bookkeeping and compaction scheduling."""

import random

import pytest

from repro.csd.device import BLOCK_SIZE
from repro.errors import CompactionError
from repro.lsm.sstable import SSTableMeta, SSTableReader
from repro.lsm.strategy.leveled import plan_leveled_job
from repro.lsm.version import VersionSet


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def fake_table(table_id, lo, hi, nblocks=8):
    """A reader stub: only metadata matters for version bookkeeping."""
    meta = SSTableMeta(table_id, 0, nblocks, hi - lo + 1, key(lo), key(hi))
    return SSTableReader(device=None, meta=meta, index=[], bloom=None)


def test_level_validation():
    with pytest.raises(CompactionError):
        VersionSet(max_levels=1)
    versions = VersionSet()
    with pytest.raises(CompactionError):
        versions.add_table(99, fake_table(1, 0, 10))


def test_l0_allows_overlap_in_arrival_order():
    """L0 keeps overlapping tables oldest-first by arrival; the table id
    (*descending* here) plays no part."""
    versions = VersionSet()
    versions.add_table(0, fake_table(2, 0, 100))
    versions.add_table(0, fake_table(1, 50, 150))
    assert [t.meta.table_id for t in versions.levels[0]] == [2, 1]
    assert [t.meta.table_id for t in versions.newest_first()] == [1, 2]


def test_deeper_levels_reject_overlap():
    versions = VersionSet()
    versions.add_table(1, fake_table(1, 0, 50))
    with pytest.raises(CompactionError):
        versions.add_table(1, fake_table(2, 50, 99))


def test_deeper_levels_sorted_by_min_key():
    versions = VersionSet()
    versions.add_table(1, fake_table(2, 60, 99))
    versions.add_table(1, fake_table(1, 0, 50))
    assert [t.meta.table_id for t in versions.levels[1]] == [1, 2]


def test_remove_tables():
    versions = VersionSet()
    t = fake_table(1, 0, 50)
    versions.add_table(1, t)
    versions.remove_tables(1, [t])
    assert versions.levels[1] == []
    with pytest.raises(CompactionError):
        versions.remove_tables(1, [t])


def test_level_bytes():
    versions = VersionSet()
    versions.add_table(1, fake_table(1, 0, 50, nblocks=4))
    assert versions.level_bytes(1) == 4 * BLOCK_SIZE


def test_overlapping_query():
    versions = VersionSet()
    versions.add_table(1, fake_table(1, 0, 10))
    versions.add_table(1, fake_table(2, 20, 30))
    versions.add_table(1, fake_table(3, 40, 50))
    hits = versions.overlapping(1, key(25), key(45))
    assert [t.meta.table_id for t in hits] == [2, 3]


def test_tables_for_get_order():
    """L0 newest first, then one table per deeper level."""
    versions = VersionSet()
    versions.add_table(0, fake_table(1, 0, 100))
    versions.add_table(0, fake_table(2, 0, 100))
    versions.add_table(1, fake_table(3, 0, 50))
    versions.add_table(2, fake_table(4, 0, 50))
    probes = versions.tables_for_get(key(25))
    assert [t.meta.table_id for t in probes] == [2, 1, 3, 4]


def test_newest_first_within_overlapping_levels():
    """Under tiering a deep level's later-added run is the newer one."""
    versions = VersionSet(overlapping=True)
    versions.add_table(0, fake_table(1, 0, 100))
    versions.add_table(1, fake_table(2, 0, 100))
    versions.add_table(1, fake_table(3, 0, 100))
    assert [t.meta.table_id for t in versions.newest_first()] == [1, 3, 2]
    assert [t.meta.table_id for t in versions.tables_for_get(key(5))] == [1, 3, 2]


def _run_ids(versions, start):
    return [[t.meta.table_id for t in run] for run in versions.runs_from(key(start))]


def test_runs_from_leveled_folds_each_deep_level_into_one_run():
    """L0 tables newest first, each its own run; then one run per non-empty
    level in key order; tables wholly below the start key are skipped."""
    versions = VersionSet()
    versions.add_table(0, fake_table(1, 0, 100))
    versions.add_table(0, fake_table(2, 0, 30))
    versions.add_table(0, fake_table(3, 20, 100))
    for table_id, lo in ((12, 40), (11, 0), (13, 80)):
        versions.add_table(1, fake_table(table_id, lo, lo + 19))
    versions.add_table(3, fake_table(31, 0, 49))  # level 2 stays empty
    versions.add_table(3, fake_table(32, 50, 99))
    assert _run_ids(versions, 0) == [[3], [2], [1], [11, 12, 13], [31, 32]]
    assert _run_ids(versions, 59) == [[3], [1], [12, 13], [32]]  # 59 is 12's max key
    assert _run_ids(versions, 60) == [[3], [1], [13], [32]]
    assert _run_ids(versions, 101) == []


def test_runs_from_overlapping_is_one_run_per_table():
    """Under tiering no level is a single run: same order as newest_first()."""
    versions = VersionSet(overlapping=True)
    versions.add_table(0, fake_table(1, 0, 100))
    versions.add_table(0, fake_table(2, 0, 100))
    versions.add_table(1, fake_table(3, 0, 40))
    versions.add_table(1, fake_table(4, 0, 100))
    versions.add_table(2, fake_table(5, 50, 100))
    newest = [t.meta.table_id for t in versions.newest_first()]
    assert newest == [2, 1, 4, 3, 5]
    assert _run_ids(versions, 0) == [[i] for i in newest]
    assert _run_ids(versions, 41) == [[2], [1], [4], [5]]


def test_tables_for_get_range_filter():
    versions = VersionSet()
    versions.add_table(1, fake_table(1, 0, 10))
    assert versions.tables_for_get(key(99)) == []


def _random_versions(rng, overlapping):
    """L0 tables over random ranges; deeper levels disjoint (leveled) or
    random ranges again (overlapping), with gaps between tables."""
    versions = VersionSet(overlapping=overlapping)
    ids = iter(range(1, 1000))
    for _ in range(rng.randrange(0, 5)):
        lo = rng.randrange(0, 900)
        versions.add_table(0, fake_table(next(ids), lo, lo + rng.randrange(0, 300)))
    for level in (1, 2, 4):
        if overlapping:
            for _ in range(rng.randrange(0, 4)):
                lo = rng.randrange(0, 900)
                versions.add_table(level, fake_table(next(ids), lo, lo + rng.randrange(0, 300)))
        else:
            bounds = sorted(rng.sample(range(10, 990), 2 * rng.randrange(0, 6)))
            pairs = list(zip(bounds[::2], bounds[1::2]))
            rng.shuffle(pairs)  # add_table keeps the level in key order
            for lo, hi in pairs:
                versions.add_table(level, fake_table(next(ids), lo, hi))
    return versions


def _assert_picks_match_brute_force(versions):
    """Below, between, inside (edges included) and above every range."""
    for k in range(0, 1300):
        brute = [
            t for t in versions.newest_first()
            if t.meta.min_key <= key(k) <= t.meta.max_key
        ]
        assert versions.tables_for_get(key(k)) == brute, k


@pytest.mark.parametrize("overlapping", [False, True], ids=["leveled", "overlapping"])
def test_tables_for_get_equals_range_filtered_newest_first(overlapping):
    """The fence-pointer pick is the brute-force filter of newest_first(),
    and stays so across add_table / remove_tables — the fences are rebuilt
    after every mutation (forget that and the second and third rounds fail)."""
    rng = random.Random(24)
    for _ in range(12):
        versions = _random_versions(rng, overlapping)
        _assert_picks_match_brute_force(versions)
        level = rng.choice([1, 2, 4])
        versions.add_table(level, fake_table(2000, 1000, 1100))
        versions.add_table(0, fake_table(2001, 0, 1200))
        _assert_picks_match_brute_force(versions)
        victims = [t for t in versions.levels[level] if rng.random() < 0.5]
        versions.remove_tables(level, victims)
        _assert_picks_match_brute_force(versions)


def test_pick_compaction_l0_trigger():
    versions = VersionSet()
    for i in range(4):
        versions.add_table(0, fake_table(i, 0, 100))
    overlap = fake_table(99, 50, 60)
    versions.add_table(1, overlap)
    job = plan_leveled_job(versions, l0_trigger=4, level_base_bytes=1 << 30, size_ratio=10)
    assert job is not None
    assert job.level == 0
    assert len(job.inputs) == 4
    assert job.overlaps == [overlap]


def test_pick_compaction_none_when_healthy():
    versions = VersionSet()
    versions.add_table(0, fake_table(1, 0, 100))
    assert plan_leveled_job(versions, 4, 1 << 30, 10) is None


def test_pick_compaction_size_trigger():
    versions = VersionSet()
    # Level 1 holds 3 tables of 8 blocks; target is 2 blocks worth of bytes.
    for i in range(3):
        versions.add_table(1, fake_table(i, i * 100, i * 100 + 50))
    job = plan_leveled_job(versions, 4, 2 * BLOCK_SIZE, 10)
    assert job is not None
    assert job.level == 1
    assert len(job.inputs) == 1


def test_round_robin_victim_rotates():
    versions = VersionSet()
    for i in range(3):
        versions.add_table(1, fake_table(i, i * 100, i * 100 + 50))
    seen = []
    for _ in range(3):
        job = plan_leveled_job(versions, 4, 1, 10)
        seen.append(job.inputs[0].meta.table_id)
    assert sorted(seen) == [0, 1, 2]  # every table picked once per cycle


def test_deepest_nonempty_level():
    versions = VersionSet()
    assert versions.deepest_nonempty_level() == 0
    versions.add_table(3, fake_table(1, 0, 10))
    assert versions.deepest_nonempty_level() == 3
