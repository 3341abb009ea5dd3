"""Targeted self-healing tests: read-repair, journal restore, WAL truncation.

The ``repro faultcheck`` campaign exercises these paths end to end; here each
healing mechanism is pinned down in isolation with hand-placed corruption.
"""

import random


from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.btree.page import Page
from repro.btree.pager import DeterministicShadowPager, JournalPager
from repro.btree.wal import LogOp, LogPosition, LogRecord, RedoLog
from repro.core.delta import DeltaShadowPager
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.csd.faults import FaultInjectingDevice, FaultPlan, ScriptedFault

PAGE_SIZE = 8192


def faulty_device(plan=None, num_blocks=1024):
    return FaultInjectingDevice(CompressedBlockDevice(num_blocks), plan)


def seeded_page(pager, payload: bytes) -> Page:
    page = Page(PAGE_SIZE, pager.allocate_page_id())
    offset = page.allocate_cell(len(payload))
    page.write_cell(offset, payload)
    page.insert_slot(0, offset)
    return page


def mutate(page: Page, rng: random.Random) -> None:
    start = rng.randrange(64, PAGE_SIZE - 300)
    length = rng.randrange(32, 200)
    page.buf[start : start + length] = bytes(
        rng.getrandbits(8) for _ in range(length))
    page.mark_dirty(start, start + length)


# ----------------------------------------------------- shadow-slot healing


def test_shadow_read_repair_serves_sibling_and_heals_media():
    """Corrupting the valid slot: arbitration serves the stale sibling and
    rewrites the rotten slot in place (read-repair)."""
    rng = random.Random(1)
    device = faulty_device(FaultPlan(dropped_trim_rate=1.0))
    pager = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    page = seeded_page(pager, b"payload" * 20)
    page.lsn = 1
    pager.flush(page)
    older = page.image()
    mutate(page, rng)
    page.lsn = 2
    pager.flush(page)  # sibling TRIM dropped: the lsn-1 image survives
    valid = pager._valid_slot[page.page_id]
    device.corrupt_stable(pager._slot_lba(page.page_id, valid),
                          pager.page_blocks)

    fresh = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    recovered = fresh.load(page.page_id)
    assert recovered.image() == older  # the surviving (older) sibling
    assert recovered.lsn == 1
    assert fresh.fault_stats.read_repairs == 1
    assert fresh.fault_stats.checksum_failures >= 1
    assert device.corrupted_lbas == []  # the repair rewrite healed the rot


def test_shadow_known_slot_reread_heals_transient_corruption():
    """A known-slot load that reads garbage once re-reads before falling
    back to arbitration — transient bus corruption costs one extra read."""
    inner = CompressedBlockDevice(num_blocks=1024)
    pager = DeterministicShadowPager(inner, PAGE_SIZE, 16, 1)
    page = seeded_page(pager, b"x" * 100)
    page.lsn = 1
    pager.flush(page)

    device = FaultInjectingDevice(
        inner, FaultPlan(scripted=(ScriptedFault(0, "read-corruption"),)))
    fresh = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    fresh._valid_slot[page.page_id] = pager._valid_slot[page.page_id]
    recovered = fresh.load(page.page_id)
    assert recovered.image() == page.image()
    assert fresh.fault_stats.checksum_failures == 1
    assert fresh.fault_stats.reread_heals == 1
    assert fresh.fault_stats.read_repairs == 0  # media was never bad


def test_shadow_known_slot_latent_rot_falls_back_to_arbitration():
    device = faulty_device(FaultPlan(dropped_trim_rate=1.0))
    pager = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    page = seeded_page(pager, b"y" * 80)
    page.lsn = 1
    pager.flush(page)
    older = page.image()
    mutate(page, random.Random(2))
    page.lsn = 2
    pager.flush(page)
    valid = pager._valid_slot[page.page_id]
    device.corrupt_stable(pager._slot_lba(page.page_id, valid),
                          pager.page_blocks)
    # Same pager instance: the valid slot is *known*, so the load walks the
    # full ladder — checksum failure, clean re-read (still rotten),
    # arbitration fallback, sibling served, slot repaired.
    recovered = pager.load(page.page_id)
    assert recovered.image() == older
    assert pager.fault_stats.arbitration_fallbacks == 1
    assert pager.fault_stats.read_repairs == 1
    assert device.corrupted_lbas == []


def test_arbitration_rereads_a_slot_corrupted_in_transit_instead_of_repairing_it():
    """Arbitration re-reads the region before it treats a slot as corrupt:
    a slot garbled on the bus once is served from the re-read, and the
    newer image is neither overwritten by its older sibling nor lost."""
    inner = CompressedBlockDevice(num_blocks=1024)
    dropping = FaultInjectingDevice(inner, FaultPlan(dropped_trim_rate=1.0))
    pager = DeltaShadowPager(dropping, PAGE_SIZE, 16, 1,
                             threshold=2048, segment_size=128)
    page = seeded_page(pager, b"arbiter" * 30)
    for lsn in (1, 2):  # slot 0 at LSN 1, then slot 1 at LSN 2; no TRIM lands
        mutate(page, random.Random(lsn))
        page.mark_all_dirty()
        page.lsn = lsn
        pager.flush(page)
    assert pager._valid_slot[page.page_id] == 1
    # Plan seed 0 puts a one-shot corruption of the 5-block region read on
    # block 3, inside slot 1 (the newer image).
    device = FaultInjectingDevice(
        inner, FaultPlan(seed=0, scripted=(ScriptedFault(0, "read-corruption"),)))
    fresh = DeltaShadowPager(device, PAGE_SIZE, 16, 1,
                             threshold=2048, segment_size=128)
    assert fresh.load(page.page_id).image() == page.image()
    assert device.injected.read_corruptions == 1
    faults = fresh.fault_stats
    assert (faults.checksum_failures, faults.reread_heals, faults.read_repairs) == (1, 1, 0)
    again = DeltaShadowPager(inner, PAGE_SIZE, 16, 1,
                             threshold=2048, segment_size=128)
    assert again.load(page.page_id).lsn == 2


def test_arbitration_rereads_a_slot_garbled_twice_in_transit():
    """Transit garbles each read afresh, so two failed reads of a slot that
    differ are not rot: on the restart path the region read and its first
    re-read both garble the newest slot (plan seed 7 puts both corruptions
    on it), the second re-read is clean, and the newest image is served
    with nothing repaired — not rolled back to the older sibling."""
    rng = random.Random(1)
    setup = faulty_device(FaultPlan(dropped_trim_rate=1.0))
    pager = DeterministicShadowPager(setup, PAGE_SIZE, 16, 1)
    page = seeded_page(pager, b"payload" * 20)
    page.lsn = 1
    pager.flush(page)
    mutate(page, rng)
    page.lsn = 2
    pager.flush(page)  # sibling TRIM dropped: the lsn-1 image survives
    device = FaultInjectingDevice(setup.inner, FaultPlan(
        seed=7, scripted=(ScriptedFault(0, "read-corruption", repeat=2),)))
    fresh = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    assert fresh.load(page.page_id).image() == page.image()
    assert device.injected.read_corruptions == 2
    assert device.stats.read_ios == 3
    faults = fresh.fault_stats
    assert (faults.checksum_failures, faults.reread_heals, faults.read_repairs) == (1, 1, 0)


def test_arbitration_repairs_a_slot_that_fails_both_reads():
    """Latent rot fails the re-read too: the sibling is served and the
    rotten slot rewritten, counted once."""
    device = faulty_device(FaultPlan(dropped_trim_rate=1.0))
    pager = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    page = seeded_page(pager, b"rot" * 50)
    page.lsn = 1
    pager.flush(page)
    older = page.image()
    mutate(page, random.Random(4))
    page.lsn = 2
    pager.flush(page)
    device.corrupt_stable(pager._slot_lba(page.page_id, 1), pager.page_blocks)
    fresh = DeterministicShadowPager(device, PAGE_SIZE, 16, 1)
    reads = device.stats.read_ios
    assert fresh.load(page.page_id).image() == older
    assert device.stats.read_ios == reads + 2  # the region, then its re-read
    faults = fresh.fault_stats
    assert (faults.checksum_failures, faults.reread_heals, faults.read_repairs) == (1, 0, 1)
    assert device.corrupted_lbas == []


# -------------------------------------------------------- journal healing


def test_journal_pager_restores_home_location_from_ring():
    device = faulty_device()
    pager = JournalPager(device, PAGE_SIZE, 16, 1)
    page = seeded_page(pager, b"ring" * 30)
    page.lsn = 1
    pager.flush(page)
    device.corrupt_stable(pager._page_lba(page.page_id), pager.page_blocks)

    fresh = JournalPager(device, PAGE_SIZE, 16, 1)
    recovered = fresh.load(page.page_id)
    assert recovered.image() == page.image()
    assert fresh.fault_stats.journal_repairs == 1
    assert device.corrupted_lbas == []  # restore rewrote the home blocks


# ---------------------------------------------------------- delta healing


def test_corrupt_delta_block_falls_back_to_full_image():
    device = faulty_device()
    pager = DeltaShadowPager(device, PAGE_SIZE, 16, 1,
                             threshold=2048, segment_size=128)
    page = seeded_page(pager, b"base" * 40)
    page.lsn = 1
    pager.flush(page)
    base = page.image()
    # A small mutation stays under T: the next flush writes only the delta.
    page.buf[500:520] = b"Z" * 20
    page.mark_dirty(500, 520)
    page.lsn = 2
    pager.flush(page)
    device.corrupt_stable(pager._delta_lba(page.page_id))

    fresh = DeltaShadowPager(device, PAGE_SIZE, 16, 1,
                             threshold=2048, segment_size=128)
    recovered = fresh.load(page.page_id)
    # The delta is unusable; the load must degrade to the last full image
    # (the redo log re-applies the lost tail at engine level) and scrub the
    # rotten delta block so it reads as clean zeros from now on.
    assert recovered.image() == base
    assert fresh.fault_stats.delta_fallbacks == 1
    assert fresh.fault_stats.delta_scrubs == 1
    assert device.corrupted_lbas == []


# ------------------------------------------------------- WAL tail healing


def record(lsn: int) -> LogRecord:
    return LogRecord(lsn, 0, LogOp.PUT, b"k%d" % lsn, b"v" * (lsn % 40))


def test_wal_corrupt_ring_block_truncates_scan():
    device = CompressedBlockDevice(num_blocks=256)
    log = RedoLog(device, 0, 64, sparse=True)
    for lsn in range(1, 21):
        log.append(record(lsn))
        log.flush()  # sparse mode seals one ring block per flush
    device.simulate_crash(survives=lambda lba: True)
    corrupt_index = 10
    device.write_block(corrupt_index, b"\xa5" * BLOCK_SIZE)
    device.flush()

    reader = RedoLog(device, 0, 64, sparse=True)
    records, end = reader.scan(LogPosition(0, 1))
    lsns = [r.lsn for r in records]
    assert lsns == list(range(1, corrupt_index + 1))  # clean prefix only
    assert reader.fault_stats.wal_truncations == 1
    # The truncated end points at the corrupt block with a sequence past
    # every surviving header, so a resumed writer overwrites (heals) it.
    assert end.block_index == corrupt_index
    assert end.sequence > max(lsns)


def test_wal_replay_truncates_instead_of_raising():
    device = CompressedBlockDevice(num_blocks=256)
    log = RedoLog(device, 0, 64, sparse=True)
    for lsn in range(1, 13):
        log.append(record(lsn))
        log.flush()
    device.write_block(5, b"\x17" * BLOCK_SIZE)
    device.flush()
    reader = RedoLog(device, 0, 64, sparse=True)
    lsns = [r.lsn for r in reader.scan(LogPosition(0, 1))[0]]
    assert lsns == [1, 2, 3, 4, 5]
    assert reader.fault_stats.wal_truncations == 1


# ----------------------------------------------- engine-level integration


def engine_config() -> BTreeConfig:
    return BTreeConfig(
        page_size=BLOCK_SIZE,
        cache_bytes=4 * BLOCK_SIZE,
        atomicity="det-shadow",
        wal_mode="packed",
        log_flush_policy="commit",
        checkpoint_interval=1e18,
        max_pages=512,
        log_blocks=1024,
    )


def run_workload(engine, seed: int, ops: int) -> dict:
    rng = random.Random(seed)
    model: dict[bytes, bytes] = {}
    for _ in range(ops):
        key = b"k%05d" % rng.randrange(1200)
        if model and rng.random() < 0.1:
            victim = sorted(model)[rng.randrange(len(model))]
            engine.delete(victim)
            del model[victim]
        else:
            value = bytes(rng.getrandbits(8) for _ in range(rng.randrange(100, 250)))
            engine.put(key, value)
            model[key] = value
        engine.commit()
        # Point reads keep the load path (and its retries) exercised too.
        probe = b"k%05d" % rng.randrange(1200)
        assert engine.get(probe) == model.get(probe)
    return model


def test_engine_absorbs_probabilistic_faults_invisibly():
    device = faulty_device(
        FaultPlan(seed=3, transient_read_rate=0.05, transient_write_rate=0.05,
                  torn_write_rate=0.05, dropped_trim_rate=0.3),
        num_blocks=4096,
    )
    engine = BTreeEngine(device, engine_config())
    model = run_workload(engine, seed=11, ops=250)
    assert dict(engine.items()) == model
    assert device.injected.total > 0  # faults really fired...
    assert engine.fault_stats.total_retries > 0  # ...and were retried away


def test_fault_free_wrapped_engine_is_bit_identical():
    """Acceptance: the hardening must not perturb a healthy run at all."""
    def run(device):
        engine = BTreeEngine(device, engine_config())
        model = run_workload(engine, seed=7, ops=120)
        engine.close()
        return model, device.stats.logical_bytes_written, \
            device.stats.physical_bytes_written, device.physical_bytes_used

    bare = CompressedBlockDevice(num_blocks=4096)
    wrapped = faulty_device(FaultPlan(), num_blocks=4096)
    bare_out = run(bare)
    wrapped_out = run(wrapped)
    assert bare_out == wrapped_out
    assert wrapped.injected.total == 0

    reopened = BTreeEngine.open(wrapped, engine_config())
    assert all(v == 0 for v in reopened.fault_stats.as_dict().values())
