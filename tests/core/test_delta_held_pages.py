"""Tests for the delta pager holding pages the buffer pool evicted.

Every victim leaves the pool into the pager once its write-back (if any)
succeeded; if the page's kept read — left by its last load, flip or delta
flush — still stands, the victim is held in it, and the next load whose
device read matches hands the same object back.  These tests pin that the
hand-back is invisible — the same served values, device commands, fault
counters, pager and pool counters as an engine whose pager never holds a
page, under faults too, on a read-mostly and on a write-heavy stream —
that a page is never in the pool and held at once, that a page written by
the pager comes back for one device read and no CRC pass, and that every
write to a page's region that keeps nothing lets its held page go.  Set
``REPRO_FUZZ_SEED=<n>`` to run the engine tests on one more seed.
"""

import random
import zlib

import pytest

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.btree.page import Page
from repro.core.delta import DeltaBlock, DeltaShadowPager
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.csd.faults import FaultInjectingDevice, FaultPlan, ScriptedFault
from repro.errors import ChecksumError
from tests.fuzz import FUZZ_SEED, report_seed

PAGE_SIZE = 8192


def make_pager(device=None, cls=DeltaShadowPager, max_pages=16, region_start=1):
    device = device if device is not None else CompressedBlockDevice(num_blocks=1024)
    return cls(device, PAGE_SIZE, max_pages, region_start,
               threshold=2048, segment_size=128)


def flushed_page(pager, lsn=1, seed=1):
    rng = random.Random(seed)
    page = Page(PAGE_SIZE, pager.allocate_page_id())
    payload = rng.randbytes(600)
    offset = page.allocate_cell(len(payload))
    page.write_cell(offset, payload)
    page.insert_slot(0, offset)
    page.lsn = lsn
    pager.flush(page)
    return page


def mutate(page, rng, lsn):
    start = rng.randrange(64, PAGE_SIZE - 100)
    page.buf[start : start + 16] = rng.randbytes(16)
    page.mark_dirty(start, start + 16)
    page.lsn = lsn


def held(pager, page_id):
    kept = pager._verified.get(page_id)
    return None if kept is None else kept.page


def evicted_and_held(pager, page_id):
    """Load (the load is kept), then evict the served page."""
    page = pager.load(page_id)
    pager.keep_evicted(page)
    assert held(pager, page_id) is page
    return page


@pytest.fixture
def no_crc_or_decode(monkeypatch):
    """Returns ``arm``; once it has been called, any ``zlib.crc32`` or
    ``DeltaBlock.decode`` call fails the test."""
    armed = []
    crc32, decode = zlib.crc32, DeltaBlock.decode

    def guarded_crc(*args):
        assert not armed, "a CRC pass ran"
        return crc32(*args)

    def guarded_decode(block, page_size):
        assert not armed, "a delta decode ran"
        return decode(block, page_size)

    monkeypatch.setattr(zlib, "crc32", guarded_crc)
    monkeypatch.setattr(DeltaBlock, "decode", staticmethod(guarded_decode))
    return lambda: armed.append(True)


# ------------------------------------------------------------ the hand-back


@pytest.mark.parametrize("with_delta", [False, True], ids=["no-delta", "delta"])
def test_a_hit_hands_back_the_held_page_for_one_device_read(with_delta):
    pager = make_pager()
    page = flushed_page(pager)
    if with_delta:
        mutate(page, random.Random(2), lsn=2)
        pager.flush(page)
        assert pager.stats.delta_flushes == 1
    page_id = page.page_id
    served = evicted_and_held(pager, page_id)
    served.routing_keys = [b"decoded"]  # a search view survives the round trip
    state = (set(pager._fvec[page_id]), pager._base_lsn[page_id])
    reads, blocks = pager.device.stats.read_ios, pager.device.stats.blocks_read
    again = pager.load(page_id)
    assert again is served and again.routing_keys == [b"decoded"]
    assert again.image() == page.image()
    assert pager.device.stats.read_ios == reads + 1
    assert pager.device.stats.blocks_read == blocks + pager.page_blocks + 1
    assert (pager._fvec[page_id], pager._base_lsn[page_id]) == state
    assert held(pager, page_id) is None  # the pool owns it again
    assert pager.load(page_id) is not served  # handed back once only


def test_a_page_loaded_once_is_held():
    pager = make_pager()
    page = flushed_page(pager)
    pager._verified.clear()  # forget the flip: this load takes the full path
    served = pager.load(page.page_id)
    pager.keep_evicted(served)
    assert held(pager, page.page_id) is served
    assert pager.load(page.page_id) is served


# ----------------------------------------- pages the pager wrote come back


@pytest.mark.parametrize("write", ["delta", "flip"])
def test_a_written_page_comes_back_for_one_read_and_no_crc(write, no_crc_or_decode):
    pager = make_pager()
    page = flushed_page(pager)
    mutate(page, random.Random(2), lsn=2)
    if write == "flip":
        page.mark_all_dirty()
    pager.flush(page)
    assert (pager.stats.delta_flushes, pager.stats.full_flushes) == (
        (1, 1) if write == "delta" else (0, 2))
    page_id = page.page_id
    state = (set(pager._fvec[page_id]), pager._base_lsn[page_id])
    pager.keep_evicted(page)
    assert held(pager, page_id) is page
    reference = make_pager(pager.device).load(page_id).image()
    reads, blocks = pager.device.stats.read_ios, pager.device.stats.blocks_read
    no_crc_or_decode()
    assert pager.load(page_id) is page
    assert pager.device.stats.read_ios == reads + 1
    assert pager.device.stats.blocks_read == blocks + pager.page_blocks + 1
    assert page.image() == reference
    assert (pager._fvec[page_id], pager._base_lsn[page_id]) == state


def test_a_byte_changed_without_mark_dirty_holds_nothing():
    """A delta flush keeps its write only if the page equals the kept base
    outside the logged segments: a byte changed behind the dirty tracking
    would not be rebuilt by the full path, so nothing is kept or held."""
    pager = make_pager()
    page = flushed_page(pager)
    mutate(page, random.Random(2), lsn=2)
    logged = set(page.dirty_segments(128)) | {0, PAGE_SIZE // 128 - 1}
    spare = next(seg for seg in range(PAGE_SIZE // 128) if seg not in logged)
    page.buf[spare * 128 + 5] ^= 0xFF  # no mark_dirty: the delta misses it
    pager.flush(page)
    assert pager.stats.delta_flushes == 1
    assert page.page_id not in pager._verified
    pager.keep_evicted(page)
    assert held(pager, page.page_id) is None
    # The full path rebuilds base + delta, which lacks the byte the page's
    # checksum covers, and rejects it rather than serve the page.
    with pytest.raises(ChecksumError):
        pager.load(page.page_id)


# ------------------------------------------------ invalidation by writes


def test_delta_flush_drops_the_held_page():
    pager = make_pager()
    page = flushed_page(pager)
    evicted_and_held(pager, page.page_id)
    mutate(page, random.Random(1), lsn=2)
    pager.flush(page)
    assert pager.stats.delta_flushes == 1
    assert held(pager, page.page_id) is None
    assert pager.load(page.page_id).image() == page.image()


def test_full_flip_drops_the_held_page():
    pager = make_pager()
    page = flushed_page(pager)
    evicted_and_held(pager, page.page_id)
    page.mark_all_dirty()
    page.lsn = 2
    pager.flush(page)
    assert pager.stats.full_flushes == 2
    assert held(pager, page.page_id) is None
    assert pager.load(page.page_id).image() == page.image()


def test_read_repair_drops_the_held_page():
    device = FaultInjectingDevice(CompressedBlockDevice(1024),
                                  FaultPlan(dropped_trim_rate=1.0))
    pager = make_pager(device)
    page = flushed_page(pager)
    older = page.image()
    page.mark_all_dirty()
    page.lsn = 2
    pager.flush(page)  # the sibling's TRIM is dropped: both slots verify
    served = evicted_and_held(pager, page.page_id)
    device.corrupt_stable(pager._slot_lba(page.page_id, pager._valid_slot[page.page_id]),
                          pager.page_blocks)
    reloaded = pager.load(page.page_id)  # arbitration serves the sibling and repairs
    assert reloaded is not served and reloaded.image() == older
    assert pager.fault_stats.read_repairs == 1
    assert page.page_id not in pager._verified


def test_delta_scrub_drops_the_held_page():
    pager = make_pager()
    page = flushed_page(pager)
    served = evicted_and_held(pager, page.page_id)
    # Rot behind the pager's back: the read no longer matches the kept one.
    pager.device.write_block(pager._delta_lba(page.page_id), b"\x55" * BLOCK_SIZE)
    reloaded = pager.load(page.page_id)
    assert reloaded is not served and reloaded.image() == page.image()
    assert pager.fault_stats.delta_scrubs == 1
    assert page.page_id not in pager._verified


def test_free_drops_the_held_page():
    pager = make_pager()
    page = flushed_page(pager)
    served = evicted_and_held(pager, page.page_id)
    pager.free_page(page.page_id)
    assert held(pager, page.page_id) is served  # storage not yet released
    pager.apply_deferred_frees()
    assert page.page_id not in pager._verified


# ------------------------------------------- the pool and the engine's close


def small_engine(device, pager_cls=DeltaShadowPager):
    config = BTreeConfig(page_size=PAGE_SIZE, cache_bytes=8 * PAGE_SIZE,
                         wal_mode="sparse", max_pages=256, log_blocks=256)
    region_start = BTreeEngine.LOG_START + config.log_blocks
    pager = make_pager(device, pager_cls, config.max_pages, region_start)
    return BTreeEngine(device, config, pager=pager)


def key(i):
    return b"key%06d" % i


def populated():
    engine = small_engine(CompressedBlockDevice(num_blocks=2048))
    rng = random.Random(0)
    for i in rng.sample(range(1500), 1500):
        engine.put(key(i), rng.randbytes(60) + bytes(60))
    engine.checkpoint()
    return engine


def held_ids(engine):
    return {pid for pid, kept in engine.pager._verified.items()
            if kept is not None and kept.page is not None}


def test_a_held_page_is_never_in_the_pool():
    engine = populated()
    rng = random.Random(1)
    seen = set()
    for step in range(600):
        engine.get(key(rng.randrange(1500)))
        held_now = held_ids(engine)
        assert not any(pid in engine.pool for pid in held_now)
        seen |= held_now
    assert len(seen) > 10


def test_every_victim_is_handed_to_the_pager_and_held_pages_match_the_device():
    engine = populated()
    handed = []
    keep = engine.pool._evicted
    engine.pool._evicted = lambda page: (handed.append(page.page_id), keep(page))
    before = engine.pool.stats.evictions
    rng = random.Random(2)
    for step in range(900):
        i = rng.randrange(1500)
        if step % 3:
            engine.get(key(i))
        else:
            engine.put(key(i), b"v%d" % step)
    stats = engine.pool.stats
    assert stats.dirty_evictions > 20
    assert len(handed) == stats.evictions - before
    fresh = make_pager(engine.device, max_pages=256,
                       region_start=engine.pager.region_start)
    for pid in held_ids(engine):
        assert engine.pager._verified[pid].page.image() == fresh.load(pid).image()
    assert len(held_ids(engine)) > 5


def test_close_releases_the_pagers_host_caches():
    engine = populated()
    for i in range(0, 1500, 7):  # loads are kept, then their pages evicted
        engine.get(key(i))
    assert held_ids(engine) and engine.pager._verified
    engine.close()
    assert engine.pager._verified == {}


# ----------------------------------------------- differential, under faults


class NeverHolds(DeltaShadowPager):
    """The reference: a pager that lets every evicted page go."""

    def keep_evicted(self, page):
        pass


def _faulted(seed, corrupting=True):
    plan = FaultPlan(seed=seed, read_corruption_rate=0.04 if corrupting else 0.0,
                     latent_corruption_rate=0.002 if corrupting else 0.0,
                     transient_read_rate=0.02, dropped_trim_rate=1.0)
    return FaultInjectingDevice(CompressedBlockDevice(num_blocks=2048), plan)


def _counted(engine):
    """Wrap the pool's loader to count loads that hand back a held page
    (``hits[0]``), and the pager's flush to count, of those, the ones held
    in an entry a flush recorded (``hits[1]``)."""
    pager, hits, written = engine.pager, [0, 0], set()

    def flush(page, flush=pager.flush):
        flush(page)
        if page.page_id in pager._verified:
            written.add(pager._verified[page.page_id])

    def load(page_id, load=engine.pool._loader):
        kept = pager._verified.get(page_id)
        was_held = None if kept is None else kept.page
        page = load(page_id)
        if was_held is not None and page is was_held:
            hits[0] += 1
            hits[1] += kept in written
        return page

    pager.flush = flush
    engine.pool._loader = load
    return hits


def _served(fn, *args):
    try:
        return fn(*args)
    except Exception as exc:  # both twins must fail the same way
        return f"{type(exc).__name__}: {exc}"


SEEDS = [11, 12, 13] + ([FUZZ_SEED] if FUZZ_SEED is not None else [])


@pytest.mark.parametrize("seed", SEEDS)
def test_held_pages_are_invisible_under_faults(seed):
    """An engine whose pager holds clean evictions and a twin whose pager
    never does serve the same values and leave the same fault, device,
    pager and pool counters, over a seeded get/scan/put stream with read
    corruption, latent rot, transient reads, dropped TRIMs and rot
    installed between loads."""
    with report_seed(seed):
        engines = (small_engine(_faulted(seed)), small_engine(_faulted(seed), NeverHolds))
        holder, twin = engines
        hits = _counted(holder)
        rng = random.Random(seed)
        for i in rng.sample(range(1200), 1200):
            value = rng.randbytes(60) + bytes(60)
            outcomes = [_served(engine.put, key(i), value) for engine in engines]
            assert outcomes[0] == outcomes[1]
        rng = random.Random(seed)
        for step in range(1500):
            roll = rng.random()
            i = rng.randrange(1300)
            if roll < 0.03:
                pages = holder.pager.allocator_state()[0]
                lba = holder.pager._page_base(rng.randrange(pages)) + rng.randrange(5)
                for engine in engines:
                    engine.device.corrupt_stable(lba)
                continue
            if roll < 0.18:
                value = b"%d" % step * 9
                outcomes = [_served(engine.put, key(i), value) for engine in engines]
            elif roll < 0.25:
                outcomes = [_served(engine.scan, key(i), 30) for engine in engines]
            else:
                outcomes = [_served(engine.get, key(i)) for engine in engines]
            assert outcomes[0] == outcomes[1], step
            if roll < 0.18 and step % 50 == 0:
                for engine in engines:
                    engine.commit()
            assert not any(pid in holder.pool for pid in held_ids(holder))
            assert holder.fault_stats == twin.fault_stats
            assert holder.device.stats == twin.device.stats
            assert holder.device.injected == twin.device.injected
            assert holder.pager.stats == twin.pager.stats
            assert holder.pool.stats == twin.pool.stats
        assert hits[0] > 50
        faults = holder.fault_stats
        assert faults.checksum_failures and faults.reread_heals and faults.read_repairs
        assert faults.delta_scrubs and faults.transient_read_retries


# ------------------------------------- a transient fault on the delta block


def test_one_transient_corruption_of_the_delta_block_heals_by_rereading():
    """One read corruption that lands on the delta block costs a re-read of
    that block, not the flushed updates it carries: the load serves them,
    nothing is scrubbed, and the device still holds them for a fresh
    pager."""
    pager = make_pager()
    page = flushed_page(pager)
    mutate(page, random.Random(3), lsn=2)
    pager.flush(page)
    assert pager.stats.delta_flushes == 1 and pager._valid_slot[page.page_id] == 0
    inner = pager.device
    # The known-slot read is [slot 0 | delta]: plan seed 5 puts a one-shot
    # corruption of that 3-block read on block 2, the delta block.
    pager.device = FaultInjectingDevice(
        inner, FaultPlan(seed=5, scripted=(ScriptedFault(0, "read-corruption"),))
    )
    assert pager.load(page.page_id).image() == page.image()
    assert pager.device.injected.read_corruptions == 1
    faults = pager.fault_stats
    assert (faults.delta_scrubs, faults.delta_fallbacks, faults.read_repairs) == (0, 0, 0)
    assert (faults.checksum_failures, faults.reread_heals) == (1, 1)
    assert make_pager(inner).load(page.page_id).image() == page.image()


# ------------------------------------- differential on the write path


def _reopened(engine, pager_cls):
    config = engine.config
    pager = make_pager(engine.device, pager_cls, config.max_pages,
                       engine.pager.region_start)
    return BTreeEngine.open(engine.device, config, pager=pager)


@pytest.mark.parametrize("corrupting", [True, False], ids=["corrupting", "lossless"])
@pytest.mark.parametrize("seed", SEEDS)
def test_written_pages_are_invisible_under_faults(seed, corrupting):
    """Through an 8-frame pool almost every put evicts a dirty leaf, whose
    delta flush or flip leaves the entry the next load of that leaf hands
    it back from.  An engine that holds every victim and a twin whose pager
    never holds one serve the same values and leave the same counters after
    every step; closed and reopened, their devices hold the same stable
    bytes and serve every key alike.

    ``corrupting`` adds read corruption, latent rot and ``corrupt_stable``
    to the transient reads and dropped TRIMs.  Rot destroys acknowledged
    records for both engines alike (a rotten slot rolls its page back to
    the older sibling, a rotten delta block is scrubbed), so there the
    twins are each other's oracle.  Without them no fault loses a record,
    and every key must read back as the model after the reopen; read
    corruption alone loses none either
    (:func:`test_reads_garbled_in_transit_lose_no_flushed_update`)."""
    with report_seed(seed):
        engines = (small_engine(_faulted(seed, corrupting)),
                   small_engine(_faulted(seed, corrupting), NeverHolds))
        holder, twin = engines
        hits = _counted(holder)
        model = {}

        def put(k, value):
            outcomes = [_served(engine.put, k, value) for engine in engines]
            if outcomes[0] is None:
                model[k] = value
            return outcomes

        rng = random.Random(seed)
        for i in rng.sample(range(1200), 1200):
            outcomes = put(key(i), rng.randbytes(60) + bytes(60))
            assert outcomes[0] == outcomes[1]
        for step in range(1500):
            roll = rng.random()
            i = rng.randrange(1300)
            if corrupting and roll < 0.03:
                pages = holder.pager.allocator_state()[0]
                lba = holder.pager._page_base(rng.randrange(pages)) + rng.randrange(5)
                for engine in engines:
                    engine.device.corrupt_stable(lba)
                continue
            if roll < 0.7:
                outcomes = put(key(i), b"%d" % step * 9)
            elif roll < 0.77:
                outcomes = [_served(engine.scan, key(i), 30) for engine in engines]
            else:
                outcomes = [_served(engine.get, key(i)) for engine in engines]
            assert outcomes[0] == outcomes[1], step
            if step % 50 == 0:
                for engine in engines:
                    engine.commit()
            assert not any(pid in holder.pool for pid in held_ids(holder))
            assert holder.fault_stats == twin.fault_stats
            assert holder.device.stats == twin.device.stats
            assert holder.device.injected == twin.device.injected
            assert holder.pager.stats == twin.pager.stats
            assert holder.pool.stats == twin.pool.stats
        assert hits[1] > 1000
        faults = holder.fault_stats
        assert faults.transient_read_retries
        if corrupting:
            assert faults.checksum_failures and faults.reread_heals
            assert faults.read_repairs and faults.delta_scrubs
        for engine in engines:
            engine.close()
        assert holder.device.inner._stable == twin.device.inner._stable
        assert holder.device.corrupted_lbas == twin.device.corrupted_lbas
        reopened = [_served(_reopened, holder, DeltaShadowPager),
                    _served(_reopened, twin, NeverHolds)]
        if isinstance(reopened[0], str):  # recovery met a page rot destroyed
            assert reopened[0] == reopened[1] and corrupting
            return
        for k, value in sorted(model.items()):
            outcomes = [_served(engine.get, k) for engine in reopened]
            assert outcomes[0] == outcomes[1], k
            if not corrupting:
                assert outcomes[0] == value, k


# ------------------------------------- transit garbling loses nothing


@pytest.mark.parametrize(
    "seed", list(range(11, 23)) + ([FUZZ_SEED] if FUZZ_SEED is not None else [])
)
def test_reads_garbled_in_transit_lose_no_flushed_update(seed):
    """Read corruption garbles the returned buffer and leaves the media
    intact, so no load may scrub a delta block or roll a slot back to its
    older sibling over it: the pager re-reads while each read returns other
    bytes, up to the transient-I/O retry bound, before it takes a block for
    rot.  The write-heavy stream of
    :func:`test_written_pages_are_invisible_under_faults` on a device whose
    only fault is read corruption (4% of reads) must read every key back as
    the model after close and reopen, with no delta block scrubbed and no
    slot repaired."""
    with report_seed(seed):
        device = FaultInjectingDevice(
            CompressedBlockDevice(num_blocks=2048),
            FaultPlan(seed=seed, read_corruption_rate=0.04),
        )
        engine = small_engine(device)
        model = {}
        rng = random.Random(seed)
        for i in rng.sample(range(1200), 1200):
            value = rng.randbytes(60) + bytes(60)
            engine.put(key(i), value)
            model[key(i)] = value
        for step in range(1500):
            roll = rng.random()
            i = rng.randrange(1300)
            if roll < 0.7:
                engine.put(key(i), b"%d" % step * 9)
                model[key(i)] = b"%d" % step * 9
            elif roll < 0.77:
                engine.scan(key(i), 30)
            else:
                assert engine.get(key(i)) == model.get(key(i)), step
            if step % 50 == 0:
                engine.commit()
        engine.close()
        assert device.injected.read_corruptions > 30
        reopened = _reopened(engine, DeltaShadowPager)
        for k, value in sorted(model.items()):
            assert reopened.get(k) == value, k
        assert engine.fault_stats.checksum_failures and engine.fault_stats.reread_heals
        for faults in (engine.fault_stats, reopened.fault_stats):
            assert (faults.delta_fallbacks, faults.delta_scrubs, faults.read_repairs) == (0, 0, 0)
