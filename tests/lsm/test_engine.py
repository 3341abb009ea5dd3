"""Integration and property tests for the LSM engine."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.btree.wal import LogPosition
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.errors import ConfigError, KeyNotFoundError, SimulatedCrashError
from repro.lsm import engine as engine_module
from repro.lsm import sstable as sstable_module
from repro.lsm.bloom import BloomFilter, probe_sequence
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.lsm.sstable import SSTableReader
from repro.lsm.version import CompactionJob
from repro.metrics.counters import compute_wa
from tests.lsm import write_table


def key(i: int) -> bytes:
    return i.to_bytes(8, "big")


def value(rng, size=120):
    return rng.randbytes(size // 2) + bytes(size - size // 2)


def make_config(**overrides) -> LSMConfig:
    base = dict(
        memtable_bytes=16 << 10,
        level_base_bytes=64 << 10,
        table_target_bytes=16 << 10,
        log_blocks=1024,
        log_flush_policy="commit",
    )
    base.update(overrides)
    return LSMConfig(**base)


def make_engine(device=None, **overrides):
    device = device or CompressedBlockDevice(num_blocks=300_000)
    return LSMEngine(device, make_config(**overrides)), device


def test_config_validation():
    with pytest.raises(ConfigError):
        LSMConfig(memtable_bytes=0).validate()
    with pytest.raises(ConfigError):
        LSMConfig(level_size_ratio=1.0).validate()
    with pytest.raises(ConfigError):
        LSMConfig(wal_mode="sparse").validate()  # LSM models RocksDB: packed
    with pytest.raises(ConfigError):
        LSMConfig(log_flush_interval=0).validate()


def test_put_get_within_memtable():
    engine, _ = make_engine()
    engine.put(key(1), b"v")
    assert engine.get(key(1)) == b"v"
    assert engine.get(key(2)) is None


def test_delete_semantics():
    engine, _ = make_engine()
    engine.put(key(1), b"v")
    engine.delete(key(1))
    assert engine.get(key(1)) is None
    with pytest.raises(KeyNotFoundError):
        engine.delete_checked(key(1))


def test_get_spans_flushed_tables():
    engine, _ = make_engine()
    rng = random.Random(0)
    expected = {}
    for i in range(3000):
        k = key(i)
        expected[k] = value(rng, 60)
        engine.put(k, expected[k])
        engine.commit()
    assert engine.memtable_flushes > 0
    for k, v in list(expected.items())[::17]:
        assert engine.get(k) == v


def test_newest_version_wins_across_levels():
    engine, _ = make_engine()
    for round_no in range(6):
        for i in range(500):
            engine.put(key(i), f"round-{round_no}-{i}".encode())
            engine.commit()
    for i in range(0, 500, 13):
        assert engine.get(key(i)) == f"round-5-{i}".encode()


def test_deletes_survive_compaction():
    engine, _ = make_engine()
    rng = random.Random(2)
    for i in range(2000):
        engine.put(key(i), value(rng, 60))
        engine.commit()
    for i in range(0, 2000, 2):
        engine.delete(key(i))
        engine.commit()
    engine.flush_memtable()
    for i in range(0, 2000, 20):
        assert engine.get(key(i)) is None, i
        assert engine.get(key(i + 1)) is not None


def test_scan_merged_view():
    engine, _ = make_engine()
    rng = random.Random(3)
    expected = {}
    for i in rng.sample(range(20_000), 3000):
        expected[key(i)] = value(rng, 40)
        engine.put(key(i), expected[key(i)])
        engine.commit()
    start = key(5000)
    got = engine.scan(start, 100)
    want = sorted((k, v) for k, v in expected.items() if k >= start)[:100]
    assert got == want


def test_items_equals_reference():
    engine, _ = make_engine()
    rng = random.Random(4)
    reference = {}
    for _ in range(8000):
        k = key(rng.randrange(2500))
        if rng.random() < 0.2 and reference:
            victim = rng.choice(sorted(reference))
            engine.delete(victim)
            del reference[victim]
        else:
            v = value(rng, rng.randrange(16, 120))
            engine.put(k, v)
            reference[k] = v
        engine.commit()
    assert dict(engine.items()) == reference


def test_levels_form_and_respect_targets():
    engine, _ = make_engine()
    rng = random.Random(5)
    for i in range(12_000):
        engine.put(key(rng.randrange(6000)), value(rng, 100))
        engine.commit()
    shape = engine.level_shape()
    assert engine.versions.num_nonempty_levels() >= 3
    # Leveled invariant: L1 within ~2x of its target after compactions.
    assert shape[1] <= 2.5 * engine.config.level_base_bytes
    assert engine.compactions_run > 0


def test_every_table_sizes_its_bloom_from_its_own_keys():
    """Flushed L0 tables and compaction outputs alike carry ``bits_per_key``
    filter bits per record of their own, not a filter sized for the whole
    compaction job that wrote them."""
    engine, _ = make_engine(
        memtable_bytes=4 << 10, level_base_bytes=16 << 10, table_target_bytes=4 << 10
    )
    rng = random.Random(27)
    order = list(range(4000))
    rng.shuffle(order)
    for i in order:
        engine.put(key(i), value(rng, 60))
    engine.flush_memtable()
    levels = engine.versions.levels
    assert all(levels[level] for level in range(4))  # the flush path and L1-L3
    bits_per_key = engine.config.bits_per_key
    for tables in levels:
        for reader in tables:
            expected_bits = max(64, int(reader.meta.n_records * bits_per_key))
            assert reader._bloom.num_bits == expected_bits, reader


def test_compaction_reclaims_space():
    """Old table extents are trimmed; physical usage tracks live data."""
    engine, device = make_engine()
    rng = random.Random(6)
    for _ in range(3):
        for i in range(1500):  # overwrite the same keys repeatedly
            engine.put(key(i), value(rng, 100))
            engine.commit()
    live = device.physical_bytes_used
    written = device.stats.physical_bytes_written
    assert live < written / 2  # most history reclaimed by TRIM


def test_wal_replay_after_crash():
    engine, device = make_engine()
    rng = random.Random(7)
    committed = {}
    for i in range(4000):
        k = key(rng.randrange(1200))
        v = value(rng, rng.randrange(16, 120))
        engine.put(k, v)
        committed[k] = v
        engine.commit()
    device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
    recovered = LSMEngine.open(device, make_config())
    assert dict(recovered.items()) == committed


def test_crash_loses_uncommitted_tail():
    engine, device = make_engine()
    engine.put(key(1), b"committed")
    engine.commit()
    engine.put(key(2), b"uncommitted")
    device.simulate_crash()
    recovered = LSMEngine.open(device, make_config())
    assert recovered.get(key(1)) == b"committed"
    assert recovered.get(key(2)) is None


@pytest.mark.parametrize("group_atomic", [False, True])
def test_reopen_resumes_txids_above_every_replayed_one(group_atomic):
    engine, device = make_engine(group_atomic=group_atomic)
    for i in range(3):
        engine.put(key(i), b"v")
        engine.commit()
    device.simulate_crash()
    reopened = LSMEngine.open(device, make_config(group_atomic=group_atomic))
    head = LogPosition(0, 1)  # no memtable flush yet: nothing left the log
    replayed, _ = reopened.wal.scan(head)
    assert len(replayed) >= 3
    reopened.put(key(9), b"v")
    reopened.wal.flush()
    records, _ = reopened.wal.scan(head)
    assert records[: len(replayed)] == replayed
    assert records[len(replayed)].key == key(9)
    assert records[len(replayed)].txid > max(r.txid for r in replayed)


def test_memtable_flush_trims_the_log_ring_behind_its_cursor():
    """Once the manifest naming the new cursor is durable, every ring block
    before the cursor's block is unmapped and reads back as zeros."""
    engine, device = make_engine()
    rng = random.Random(12)
    expected = {}
    while engine.memtable_flushes < 2:
        k = key(len(expected))
        expected[k] = value(rng)
        engine.put(k, expected[k])
        engine.commit()
    wal = engine.wal
    assert wal.cursor.block_index > 4
    dead = range(wal.start_block, wal.start_block + wal.cursor.block_index)
    assert all(device.ftl.extent_size(lba) == 0 for lba in dead)
    assert all(device.read_block(lba) == bytes(BLOCK_SIZE) for lba in dead)
    device.simulate_crash()
    assert dict(LSMEngine.open(device, make_config()).items()) == expected


def test_reopen_after_clean_close():
    engine, device = make_engine()
    rng = random.Random(8)
    expected = {key(i): value(rng, 80) for i in range(2000)}
    for k, v in expected.items():
        engine.put(k, v)
        engine.commit()
    engine.close()
    reopened = LSMEngine.open(device, make_config())
    assert dict(reopened.items()) == expected
    # And it keeps working after reopen.
    reopened.put(key(99999), b"fresh")
    assert reopened.get(key(99999)) == b"fresh"


_STORE_CONFIGS = {
    "leveled": {},
    "tiered": {"compaction_strategy": "tiered"},
    "vlog": {"value_separation_threshold": 100},
    "vlog999": {"value_separation_threshold": 999},
}


@pytest.mark.parametrize(
    "created,reopened",
    [("leveled", "tiered"), ("tiered", "leveled"), ("leveled", "vlog"),
     ("vlog", "leveled"), ("vlog", "vlog999")],
    ids=lambda name: name,
)
def test_reopen_under_another_config_is_refused(created, reopened):
    """Every manifest snapshot names the store's strategy and separation
    threshold, so a reopen under another one is refused in each direction —
    and the store still opens under its own."""
    engine, device = make_engine(**_STORE_CONFIGS[created])
    rng = random.Random(9)
    expected = {key(i): value(rng, 200) for i in range(300)}
    for k, v in expected.items():
        engine.put(k, v)
        engine.commit()
    engine.close()
    with pytest.raises(ConfigError, match="store was created with"):
        LSMEngine.open(device, make_config(**_STORE_CONFIGS[reopened]))
    store = LSMEngine.open(device, make_config(**_STORE_CONFIGS[created]))
    assert dict(store.items()) == expected


def test_repeated_crashes():
    device = CompressedBlockDevice(num_blocks=300_000)
    engine = LSMEngine(device, make_config())
    rng = random.Random(9)
    committed = {}
    for round_no in range(3):
        for _ in range(1500):
            k = key(rng.randrange(800))
            v = value(rng, 64)
            engine.put(k, v)
            committed[k] = v
            engine.commit()
        device.simulate_crash(survives=lambda lba: rng.random() < 0.5)
        engine = LSMEngine.open(device, make_config())
        assert dict(engine.items()) == committed, f"round {round_no}"


#: Blocks of the two manifest copies at the front of the device.
MANIFEST_SPAN = 2 * LSMConfig().manifest_blocks


class _PowerCutDevice(CompressedBlockDevice):
    """Cuts power right after the first manifest write that follows at least
    ``after_trims`` TRIMs, then raises.  ``survives`` picks which pending
    blocks reach stable storage, so a test stages the worst torn outcome of
    that one cut."""

    armed = False
    after_trims = 0
    trims = 0
    survives = None

    def write_blocks(self, lba, data):
        physical = super().write_blocks(lba, data)
        if self.armed and lba < MANIFEST_SPAN and self.trims >= self.after_trims:
            self.armed = False
            self.simulate_crash(survives=self.survives)
            raise SimulatedCrashError("power cut at a manifest write")
        return physical

    def trim(self, lba, count=1):
        super().trim(lba, count)
        self.trims += 1


def _crash_mid_lifecycle(survives, after_trims=0, **overrides):
    """Commit puts until the cut fires; return the reopened store, the
    committed model and the model plus the interrupted put."""
    device = _PowerCutDevice(num_blocks=300_000)
    config = make_config(memtable_bytes=4 << 10, **overrides)
    engine = LSMEngine(device, config)
    device.armed, device.after_trims, device.survives = True, after_trims, survives
    rng = random.Random(11)
    committed = {}
    with pytest.raises(SimulatedCrashError):
        for i in range(10_000):
            inflight = {**committed, key(i): value(rng)}
            engine.put(key(i), inflight[key(i)])
            engine.commit()
            committed = inflight
    return LSMEngine.open(device, config), committed, inflight


def test_manifest_never_names_a_table_that_is_not_yet_durable():
    """Torn cut at the first memtable flush's manifest write: the snapshot
    lands and nothing else pending does.  The barrier before the snapshot
    must already have made the new table durable."""
    recovered, committed, inflight = _crash_mid_lifecycle(
        survives=lambda lba: lba < MANIFEST_SPAN
    )
    assert dict(recovered.items()) in (committed, inflight)


def test_compaction_inputs_outlive_the_manifest_that_names_them():
    """Cut at the first manifest write after a compaction TRIM (the only
    TRIMs this engine issues without a value log), keeping every pending
    write but the snapshot: the durable manifest must not name a TRIMmed
    input table."""
    recovered, committed, inflight = _crash_mid_lifecycle(
        survives=lambda lba: lba >= MANIFEST_SPAN, after_trims=1,
        l0_compaction_trigger=2,
    )
    assert dict(recovered.items()) in (committed, inflight)


def test_traffic_decomposition():
    engine, device = make_engine()
    rng = random.Random(10)
    for i in range(5000):
        engine.put(key(rng.randrange(1500)), value(rng))
        engine.commit()
    snap = engine.traffic_snapshot()
    assert snap.page_logical == engine.flush_logical + engine.compact_logical
    report = compute_wa(snap)
    assert report.wa_total > 1.0
    assert report.wa_total < report.wa_total_logical  # compression helps
    assert device.stats.physical_bytes_written >= snap.total_physical


def test_wal_none_mode():
    engine, _ = make_engine(wal_mode="none")
    engine.put(key(1), b"v")
    engine.commit()
    assert engine.traffic_snapshot().log_logical == 0


@settings(max_examples=8, deadline=None)
@given(seed=st.integers(0, 2**32))
def test_property_lsm_matches_dict(seed):
    rng = random.Random(seed)
    engine, _ = make_engine()
    reference = {}
    for _ in range(rng.randrange(500, 2500)):
        k = key(rng.randrange(600))
        action = rng.random()
        if action < 0.2 and reference:
            victim = rng.choice(sorted(reference))
            engine.delete(victim)
            del reference[victim]
        elif action < 0.25:
            probe = key(rng.randrange(600))
            assert engine.get(probe) == reference.get(probe)
        else:
            v = value(rng, rng.randrange(8, 120))
            engine.put(k, v)
            reference[k] = v
        engine.commit()
    assert dict(engine.items()) == reference


def test_shallower_table_wins_over_deeper_table_built_later():
    """The stale-read defect's own shape: a deep table written after a
    genuinely newer shallow one (a higher table id, a later extent).
    Position decides — in get, in scan, and when the pair is compacted
    together."""
    engine, device = make_engine()

    def install(level, records):
        meta, _, _ = write_table(engine._make_writer(), records)
        reader = SSTableReader.open(device, meta.start_block, meta.num_blocks)
        engine.versions.add_table(level, reader)
        return reader

    shallow = install(0, [(key(1), b"fresh"), (key(2), None)])
    deep = install(1, [(key(1), b"stale"), (key(2), b"stale"), (key(3), b"kept")])
    assert deep.meta.table_id > shallow.meta.table_id
    expected = [(key(1), b"fresh"), (key(3), b"kept")]

    def check():
        assert engine.get(key(1)) == b"fresh"
        assert engine.get(key(2)) is None
        assert engine.scan(key(0), 10) == expected
        assert list(engine.items()) == expected

    check()
    engine._execute(CompactionJob(level=0, inputs=[shallow], overlaps=[deep]))
    assert engine.versions.levels[0] == []
    check()


def test_scan_reads_one_run_per_level_not_one_block_per_table():
    """Read amplification of a 100-record scan on a leveled store is bounded
    by its sorted runs (each L0 table, each deeper level once) plus the
    blocks the records fill — not by how many tables lie above the start
    key, however many more are added beyond the range it returns."""
    engine, device = make_engine(
        memtable_bytes=4 << 10, level_base_bytes=16 << 10, table_target_bytes=4 << 10
    )
    rng = random.Random(7)
    records_per_block = 4096 // (7 + 8 + 60)

    def load(indices):
        for i in indices:
            engine.put(key(i), value(rng, 60))
            engine.commit()

    def scan_cost():
        levels = engine.versions.levels
        runs = len(levels[0]) + sum(1 for tables in levels[1:] if tables)
        before = device.stats.blocks_read
        got = engine.scan(key(300), 100)
        assert [k for k, _ in got] == [key(i) for i in range(300, 400)]
        bound = runs + -(-100 // records_per_block) + 4  # partial blocks
        return device.stats.blocks_read - before, bound

    order = list(range(3000))
    rng.shuffle(order)
    load(order)
    assert engine.versions.num_nonempty_levels() >= 3
    tables = engine.versions.total_tables()
    assert tables >= 30
    reads, bound = scan_cost()
    assert reads <= bound < tables
    # Exact counts, as recorded before the block cursor went on-demand: it
    # changes what is decoded, not what is read.
    assert reads == 9
    load(range(3000, 4500))  # every new table lies beyond the scanned range
    assert engine.versions.total_tables() >= tables + 10
    reads, bound = scan_cost()
    assert reads <= bound
    assert reads == 8


def test_get_hashes_the_key_once_for_all_candidate_tables(monkeypatch):
    """A point read that has to ask several tables computes the key's probe
    sequence once and hands the same list to each of their filters."""
    engine, _ = make_engine(l0_compaction_trigger=8)
    rng = random.Random(11)
    for _ in range(5):  # five overlapping L0 tables, none holding key(1)
        for i in range(0, 400, 2):
            engine.put(key(i), value(rng, 40))
        engine.flush_memtable()
    assert len(engine.versions.tables_for_get(key(1))) >= 3
    hashed = []
    handed = []

    def counting(k):
        hashed.append(k)
        return probe_sequence(k)

    def recording(self, sequence):
        handed.append(sequence)
        return real_probe(self, sequence)

    real_probe = BloomFilter.probe
    monkeypatch.setattr(engine_module, "probe_sequence", counting)
    monkeypatch.setattr(sstable_module, "probe_sequence", counting)
    monkeypatch.setattr(BloomFilter, "probe", recording)
    assert engine.get(key(1)) is None
    assert len(handed) >= 3
    assert all(sequence is handed[0] for sequence in handed)
    assert engine.get(key(2)) is not None
    assert hashed == [key(1), key(2)]
    hashed.clear()
    handed.clear()
    engine.put(key(7), b"in the memtable")
    assert engine.get(key(7)) == b"in the memtable"
    assert engine.get(key(100_000)) is None  # no table covers it
    assert hashed == handed == []  # neither read reached a filter
