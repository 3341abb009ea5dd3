"""The ``repro faultcheck`` campaign: systematic crash points + fault plans.

Random crash fuzzing samples the failure space; this module *enumerates* it.
Every system under test is an :class:`EngineSUT`: one engine on one device,
driving a workload and recovering from the crashed device.  One scheduler,
:func:`run_crash_schedule`, serves them all.  A profiling run records every
device mutation (block write, TRIM, flush); the scheduler then re-runs the
identical workload once per recorded boundary, crashing exactly there — in
``drop`` mode (no pending write survives) and ``torn`` mode (each pending 4KB
block survives a seeded coin flip).  Recovery must reproduce one of the
states the system declared acceptable for that cut, and ``get`` must agree
with the scan.  Because the workloads commit after every operation (or every
group window), the acceptable states are the committed model and the model
plus the one in-flight window.

Three further phases exercise the self-healing paths the scheduler cannot
reach, on the systems that opt in:

* **fault trials** — seeded probabilistic :class:`~repro.csd.faults.
  FaultPlan`s (transient read/write errors, transient read corruption, torn
  writes, dropped TRIMs) over a full workload; every fault must be absorbed
  invisibly and the final store must match the model.
* **read-repair** — with every TRIM dropped, each page's stale sibling slot
  survives; corrupting the *valid* slot of chosen pages and re-opening the
  store must serve the sibling, redo-log-replay forward to the committed
  state, and rewrite (heal) the corrupt slot — ``read_repairs > 0``.  The
  journal pager variant corrupts in-place images and heals from the
  double-write ring instead (``journal_repairs > 0``).
* **WAL truncation** — corrupting a log ring block mid-history must truncate
  replay (not crash it), yield a store whose every record carries a value
  that key legitimately held at some commit point, and count
  ``wal_truncations``.

Everything is driven by one seed; the JSON report (``--json``) carries every
counter so CI can archive campaign evidence.
"""

from __future__ import annotations

import os
import random
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.btree.page import Page
from repro.btree.pager import JournalPager
from repro.btree.wal import _BLOCK_HDR, _BLOCK_MAGIC
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.device import BLOCK_SIZE, CompressedBlockDevice
from repro.csd.faults import FaultInjectingDevice, FaultPlan, ScriptedFault
from repro.errors import (
    ChecksumError,
    ConfigError,
    PageFormatError,
    SimulatedCrashError,
)
from repro.lsm.engine import LSMConfig, LSMEngine

#: Device span shared by every campaign configuration (all layouts fit).
_DEVICE_BLOCKS = 4096
#: Log ring shared by every configuration; sparse mode consumes one block
#: per commit, so workloads stay under half the ring (no forced checkpoint
#: mid-run — the read-repair phase relies on the full replay window).
_LOG_BLOCKS = 1024
_MAX_PAGES = 512
#: Tiny cache (4 pages) so the workload constantly evicts, re-flushes, and
#: re-loads pages — that churn is what ping-pongs the shadow slots and keeps
#: the double-write ring warm, giving the repair phases targets to corrupt.
_CACHE_BYTES = 4 * BLOCK_SIZE
#: Never fire the periodic checkpoint during a campaign run.
_NO_CHECKPOINT = 1e18


def _btree_config(atomicity: str) -> BTreeConfig:
    return BTreeConfig(
        page_size=BLOCK_SIZE,
        cache_bytes=_CACHE_BYTES,
        atomicity=atomicity,
        wal_mode="packed",
        log_flush_policy="commit",
        checkpoint_interval=_NO_CHECKPOINT,
        max_pages=_MAX_PAGES,
        log_blocks=_LOG_BLOCKS,
    )


def _bminus_config() -> BMinusConfig:
    return BMinusConfig(
        page_size=BLOCK_SIZE,
        cache_bytes=_CACHE_BYTES,
        # A low T forces frequent full-page flushes, so the shadow slots
        # ping-pong within the campaign's short workload.
        threshold_t=512,
        segment_size=128,
        wal_mode="sparse",
        log_flush_policy="commit",
        checkpoint_interval=_NO_CHECKPOINT,
        max_pages=_MAX_PAGES,
        log_blocks=_LOG_BLOCKS,
    )


#: Commit-window size the group-atomic SUTs are crash-tested at.
_GROUP_SIZE = 4


def _bminus_group_config() -> BMinusConfig:
    config = _bminus_config()
    config.group_atomic = True
    # The group-atomic protocol is no-steal: a window's working set must fit
    # the buffer pool or mid-window evictions persist uncommitted pages
    # (counted as group_steal_flushes).  64 pages comfortably holds a
    # 4-op window's dirty set.
    config.cache_bytes = 64 * BLOCK_SIZE
    return config


def _lsm_config() -> LSMConfig:
    return LSMConfig(
        # The plain leveled engine every rocksdb figure runs, shrunk so the
        # campaign workload crosses several flushes and compactions (4 and
        # 5 at 200 ops) while crash points fire.
        memtable_bytes=8 * 1024,
        level_base_bytes=16 * 1024,
        table_target_bytes=8 * 1024,
        l0_compaction_trigger=2,
        log_blocks=_LOG_BLOCKS,
        log_flush_policy="commit",
    )


def _lsm_group_config() -> LSMConfig:
    return LSMConfig(
        # A tiny memtable so the campaign workload crosses several
        # freeze/flush handoffs while crash points fire.
        memtable_bytes=8 * 1024,
        log_blocks=_LOG_BLOCKS,
        log_flush_policy="commit",
        group_atomic=True,
        max_frozen_memtables=2,
    )


def _lsm_vlog_config() -> LSMConfig:
    return LSMConfig(
        memtable_bytes=8 * 1024,
        log_blocks=_LOG_BLOCKS,
        log_flush_policy="commit",
        # Key-value separation with a deliberately tight value log: the
        # campaign's 80-320B values mostly clear the threshold, the eight
        # single-block segments fill within the workload, and the eager GC
        # trigger (free <= 2) forces several full sweep -> rewrite ->
        # manifest-commit -> TRIM passes while crash points fire, covering
        # every write/TRIM/flush boundary of the GC protocol.
        value_separation_threshold=128,
        vlog_segment_blocks=1,
        vlog_segments=8,
        vlog_gc_free_segments=2,
    )


# ----------------------------------------------------------------- workload


def make_workload(
    seed: int, ops: int, key_space: Optional[int] = None
) -> list[tuple[str, bytes, bytes]]:
    """A deterministic put/overwrite/delete stream (commit after each op).

    Keys are drawn from ``key_space`` distinct values; the default, twice
    the op count, keeps the campaign's stream mostly inserts, while the LSM
    model oracle passes a small space so every key is overwritten often.
    """
    rng = random.Random(seed)
    if key_space is None:
        key_space = 2 * ops
    stream: list[tuple[str, bytes, bytes]] = []
    live: list[bytes] = []
    for _ in range(ops):
        roll = rng.random()
        if live and roll < 0.15:
            key = live.pop(rng.randrange(len(live)))
            stream.append(("del", key, b""))
        else:
            key = b"key%06d" % rng.randrange(key_space)
            # Values big enough that the working set dwarfs the campaign
            # cache, so pages evict, re-flush, and exercise every I/O path.
            value = bytes(rng.getrandbits(8) for _ in range(rng.randrange(80, 320)))
            stream.append(("put", key, value))
            if key not in live:
                live.append(key)
    return stream


def _apply(model: dict, op: tuple[str, bytes, bytes]) -> None:
    kind, key, value = op
    if kind == "put":
        model[key] = value
    else:
        model.pop(key, None)


def _run_workload(
    engine,
    stream: list[tuple[str, bytes, bytes]],
    committed: dict,
    group_size: int = 1,
) -> Optional[list[int]]:
    """Apply ``stream`` with one commit per ``group_size`` ops.

    Tracks the committed model (updated only when a commit returns).
    Returns None on completion, or the op indices of the in-flight commit
    window a scripted crash point interrupted.
    """
    inflight: list[int] = []

    def commit_window() -> None:
        engine.commit()
        for i in inflight:
            _apply(committed, stream[i])
        inflight.clear()

    for index, op in enumerate(stream):
        kind, key, value = op
        try:
            if kind == "put":
                engine.put(key, value)
            else:
                engine.delete(key)
        except SimulatedCrashError:
            return inflight + [index]
        inflight.append(index)
        if len(inflight) >= group_size:
            try:
                commit_window()
            except SimulatedCrashError:
                return inflight
    if inflight:
        try:
            commit_window()
        except SimulatedCrashError:
            return inflight
    return None


def _state(engine) -> dict:
    return dict(engine.items())


# --------------------------------------------------------- systems under test


@dataclass
class EngineSUT:
    """One engine on one device, committing every ``group_size`` ops.

    :meth:`drive` runs the workload on a device; when a scripted crash cut
    the run it returns every state recovery may legitimately produce, and
    ``None`` means the scripted boundary was never reached.  ``reopen``
    recovers the store from the crashed device.
    """

    name: str
    stream: list
    create: Callable[[Any], Any]  # device -> engine-like
    reopen: Callable[[Any], Any]  # device -> engine-like (recovery)
    #: Which targeted-corruption phase applies: shadow-slot read-repair,
    #: journal-ring restore, or none (single-copy pagers).
    repair_style: str = "shadow"  # shadow | journal | none
    #: Ops per commit window.  1 is the classic commit-per-op campaign;
    #: > 1 drives the group-atomic protocol — a crash inside a window must
    #: recover to the committed model (window rolled back) or the model plus
    #: the *whole* window (COMMIT marker made it durable); any partial
    #: window is a failure.
    group_size: int = 1
    #: Whether the probabilistic fault-trial phase applies.  Engines without
    #: internal bounded retries (the LSM) surface transient faults to the
    #: serving layer, whose retry path is exercised by the service tests.
    fault_trials: bool = True
    #: Whether the WAL-truncation phase applies (it reads the B-tree ring).
    wal_truncation: bool = False

    def drive(self, device) -> Optional[list[dict]]:
        committed: dict = {}
        try:
            engine = self.create(device)
        except SimulatedCrashError:
            return [committed]  # crash during store genesis: comes up empty
        inflight = _run_workload(engine, self.stream, committed, self.group_size)
        if inflight is None:
            return None
        # Either the interrupted window rolled back entirely, or (its COMMIT
        # marker having reached the device) it replays entirely.
        with_inflight = dict(committed)
        for i in inflight:
            _apply(with_inflight, self.stream[i])
        return [committed, with_inflight]


def _make_suts(seed: int = 2022, ops: int = 200) -> dict[str, EngineSUT]:
    """Every campaign system, each driving ``make_workload(seed, ops)``."""
    stream = make_workload(seed, ops)

    def engine(name: str, config: Callable[[], Any], cls: Any, **kw: Any) -> EngineSUT:
        return EngineSUT(
            name, stream,
            create=lambda dev: cls(dev, config()),
            reopen=lambda dev: cls.open(dev, config()),
            **kw,
        )

    def btree(atomicity: str, repair_style: str) -> EngineSUT:
        return engine(f"btree-{atomicity}", lambda: _btree_config(atomicity),
                      BTreeEngine, repair_style=repair_style)

    suts = [
        engine("bminus", _bminus_config, BMinusTree, wal_truncation=True),
        btree("det-shadow", "shadow"),
        btree("journal", "journal"),
        btree("shadow-table", "none"),
        # The repair phases rely on cache-churn slot ping-pong, which the
        # no-steal cache sizing deliberately suppresses; shadow repair is
        # already covered by the per-op bminus SUT.
        engine("bminus-group", _bminus_group_config, BMinusTree,
               repair_style="none", group_size=_GROUP_SIZE),
        engine("lsm", _lsm_config, LSMEngine, repair_style="none",
               fault_trials=False),
        engine("lsm-group", _lsm_group_config, LSMEngine, repair_style="none",
               group_size=_GROUP_SIZE, fault_trials=False),
        engine("lsm-vlog", _lsm_vlog_config, LSMEngine, repair_style="none",
               fault_trials=False),
    ]
    return {sut.name: sut for sut in suts}


FAULTCHECK_SYSTEMS = tuple(_make_suts(ops=0))


# ------------------------------------------------- phase 1: crash scheduling


@dataclass
class CrashPointReport:
    """Outcome of the systematic crash-point phase for one system."""

    mutation_points: int = 0
    tested: int = 0
    crashes_fired: int = 0
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "mutation_points": self.mutation_points,
            "tested": self.tested,
            "crashes_fired": self.crashes_fired,
            "failures": self.failures,
        }


def _profile_mutations(sut: EngineSUT) -> list[int]:
    """Run once, fault-free; the op index of every device mutation."""
    device = FaultInjectingDevice(
        CompressedBlockDevice(_DEVICE_BLOCKS), record_ops=True
    )
    crashed = sut.drive(device)
    assert crashed is None, "profiling run must not crash"
    return [
        index
        for index, (kind, _lba, _count) in enumerate(device.op_log)
        if kind in ("write", "trim", "flush")
    ]


def _sample(points: list, budget: int) -> list:
    """Stride-sample ``points`` down to ``budget`` entries, keeping the ends
    and the order."""
    if budget <= 0 or len(points) <= budget:
        return points
    stride = (len(points) - 1) / (budget - 1) if budget > 1 else len(points)
    picked = {min(round(i * stride), len(points) - 1) for i in range(budget)}
    return [points[i] for i in sorted(picked)]


def _check_recovery(sut: EngineSUT, device, acceptable: list[dict]) -> Optional[dict]:
    """None if recovery lands on an acceptable state, else the failure."""
    keys = set().union(*acceptable)
    try:
        recovered = sut.reopen(device)
        state = _state(recovered)
        # get must tell the same story as the scan, deleted keys included.
        lookups_ok = all(recovered.get(k) == state.get(k) for k in keys)
    except Exception as exc:  # a crash point that breaks recovery is a finding
        frame = traceback.extract_tb(exc.__traceback__)[-1]
        return {
            "error": f"recovery raised {type(exc).__name__}: {exc}",
            "raised_at": f"{frame.name} ({os.path.basename(frame.filename)}:{frame.lineno})",
        }
    if state in acceptable and lookups_ok:
        return None
    return {
        "lookups_ok": lookups_ok,
        "missing": sorted(k.decode() for k in set(acceptable[0]) - set(state))[:5],
        "unexpected": sorted(k.decode() for k in set(state) - keys)[:5],
    }


def run_crash_schedule(sut: EngineSUT, seed: int, budget: int) -> CrashPointReport:
    """Crash-test every (sampled) mutation boundary in drop and torn modes."""
    report = CrashPointReport()
    points = _profile_mutations(sut)
    report.mutation_points = len(points)
    picked = _sample(points, budget)
    for mode in ("drop", "torn"):
        for op_index in picked:
            report.tested += 1
            plan = FaultPlan(
                seed=seed + op_index,
                scripted=(ScriptedFault(op_index=op_index, kind="crash", mode=mode),),
            )
            device = CompressedBlockDevice(_DEVICE_BLOCKS)
            acceptable = sut.drive(FaultInjectingDevice(device, plan))
            if acceptable is None:
                continue  # the boundary was never reached
            report.crashes_fired += 1
            failure = _check_recovery(sut, device, acceptable)  # fault-free
            if failure is not None:
                report.failures.append({
                    "system": sut.name, "mode": mode,
                    "op_index": op_index, **failure,
                })
    return report


# ---------------------------------------------- phase 2: seeded fault trials


@dataclass
class FaultTrialReport:
    """Outcome of the probabilistic fault-plan phase for one system."""

    trials: int = 0
    injected: dict = field(default_factory=dict)
    healed: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "trials": self.trials,
            "injected": self.injected,
            "healed": self.healed,
            "failures": self.failures,
        }


#: (engine retry counter, device injection counter) pairs that must be equal
#: after every fault trial: every transient or torn fault the device injects
#: is absorbed by exactly one counted retry.
_RETRY_LEDGER = (
    ("transient_read_retries", "transient_reads"),
    ("transient_write_retries", "transient_writes"),
    ("torn_write_retries", "torn_writes"),
)


def run_fault_trials(sut: EngineSUT, seed: int, trials: int) -> FaultTrialReport:
    """Run seeded fault plans end to end; every fault must heal invisibly.

    Rates cover only the fault kinds that are *always* recoverable without a
    surviving replica (transient errors, transient corruption, torn writes,
    dropped TRIMs) — latent corruption and misdirected writes are exercised
    by the targeted phases, where a replica is arranged to exist.  A healed
    fault must also be accounted: the engine's retry counters must equal
    what the device injected (:data:`_RETRY_LEDGER`).
    """
    report = FaultTrialReport()
    injected_total: dict = {}
    healed_total: dict = {}
    for trial in range(trials):
        report.trials += 1
        plan = FaultPlan(
            seed=seed * 7919 + trial,
            transient_read_rate=0.01,
            transient_write_rate=0.01,
            read_corruption_rate=0.005,
            torn_write_rate=0.02,
            dropped_trim_rate=0.05,
        )
        device = FaultInjectingDevice(CompressedBlockDevice(_DEVICE_BLOCKS), plan)
        engine = sut.create(device)
        committed: dict = {}
        try:
            crashed = _run_workload(engine, sut.stream, committed, sut.group_size)
            assert crashed is None
            state = _state(engine)
            lookups_ok = all(engine.get(k) == v for k, v in committed.items())
        except Exception as exc:  # any leak of an injected fault is a failure
            report.failures.append({
                "trial": trial, "error": f"{type(exc).__name__}: {exc}"
            })
            continue
        if state != committed or not lookups_ok:
            report.failures.append({
                "trial": trial,
                "error": "final state diverged from the committed model",
            })
        for retries, injected in _RETRY_LEDGER:
            counted = getattr(engine.fault_stats, retries)
            caused = getattr(device.injected, injected)
            if counted != caused:
                report.failures.append({
                    "trial": trial,
                    "error": f"fault_stats.{retries}={counted} but the device "
                             f"injected {injected}={caused}",
                })
        for name, count in device.injected.as_dict().items():
            injected_total[name] = injected_total.get(name, 0) + count
        for name, count in engine.fault_stats.as_dict().items():
            healed_total[name] = healed_total.get(name, 0) + count
    report.injected = injected_total
    report.healed = healed_total
    return report


# ----------------------------------------- phase 3: targeted corruption/repair


@dataclass
class RepairReport:
    """Outcome of the targeted corruption phase for one system."""

    style: str = "none"
    targets: int = 0
    read_repairs: int = 0
    journal_repairs: int = 0
    failures: list = field(default_factory=list)

    def as_dict(self) -> dict:
        return {
            "style": self.style,
            "targets": self.targets,
            "read_repairs": self.read_repairs,
            "journal_repairs": self.journal_repairs,
            "failures": self.failures,
        }


def _shadow_targets(pager, device, max_targets: int) -> list[tuple[int, int]]:
    """Pages whose stale sibling slot survives: ``(page_id, valid_slot_lba)``.

    With every TRIM dropped, a page flushed at least twice retains both slot
    images; corrupting the newer one forces arbitration to serve the sibling
    and read-repair the rot.
    """
    targets = []
    for page_id, valid_slot in sorted(pager._valid_slot.items()):
        sibling_lba = pager._slot_lba(page_id, 1 - valid_slot)
        raw = device.read_blocks(sibling_lba, pager.page_blocks)
        try:
            sibling = Page.from_bytes(raw)
        except (ChecksumError, PageFormatError):  # probing slots that may legitimately be torn
            continue
        if sibling.page_id != page_id:
            continue
        targets.append((page_id, pager._slot_lba(page_id, valid_slot)))
        if len(targets) >= max_targets:
            break
    return targets


def _journal_targets(pager: JournalPager, device, max_targets: int) -> list[tuple[int, int]]:
    """In-place pages with a same-LSN double-write ring copy to heal from."""
    targets = []
    for index in range(pager.JOURNAL_PAGES):
        raw = device.read_blocks(pager._journal_lba(index), pager.page_blocks)
        try:
            ring_copy = Page.from_bytes(raw)
        except (ChecksumError, PageFormatError):  # unused ring entries are not valid pages
            continue
        lba = pager._page_lba(ring_copy.page_id)
        try:
            live = Page.from_bytes(device.read_blocks(lba, pager.page_blocks))
        except (ChecksumError, PageFormatError):
            continue  # in-place image may be torn; skip as a heal target
        if live.lsn != ring_copy.lsn:
            continue  # the ring copy is stale; restoring it would lose data
        targets.append((ring_copy.page_id, lba))
        if len(targets) >= max_targets:
            break
    return targets


def run_repair_campaign(sut: EngineSUT, seed: int, max_targets: int = 4) -> RepairReport:
    """Corrupt stable page images, re-open the store, verify self-healing."""
    report = RepairReport(style=sut.repair_style)
    if sut.repair_style == "none":
        return report
    plan = (
        FaultPlan(seed=seed, dropped_trim_rate=1.0)
        if sut.repair_style == "shadow"
        else FaultPlan(seed=seed)
    )
    device = FaultInjectingDevice(CompressedBlockDevice(_DEVICE_BLOCKS), plan)
    engine = sut.create(device)
    committed: dict = {}
    crashed = _run_workload(engine, sut.stream, committed)
    assert crashed is None
    # Deliberately no close(): a close-time checkpoint would advance the
    # replay cursor past the history the sibling slots need replayed.
    pager = engine.pager
    if sut.repair_style == "shadow":
        targets = _shadow_targets(pager, device, max_targets)
    else:
        targets = _journal_targets(pager, device, max_targets)
    report.targets = len(targets)
    if not targets:
        report.failures.append({"error": "no corruptible targets found"})
        return report
    for _page_id, lba in targets:
        device.corrupt_stable(lba)
    try:
        recovered = sut.reopen(device)
    except Exception as exc:
        report.failures.append({
            "error": f"recovery failed: {type(exc).__name__}: {exc}"
        })
        return report
    stats = recovered.fault_stats
    report.read_repairs = stats.read_repairs
    report.journal_repairs = stats.journal_repairs
    state = _state(recovered)
    if state != committed:
        report.failures.append({
            "error": "recovered state diverged from the committed model",
            "missing": sorted(k.decode() for k in set(committed) - set(state))[:5],
        })
    if sut.repair_style == "shadow" and stats.read_repairs == 0:
        report.failures.append({"error": "no shadow-slot read-repair occurred"})
    if sut.repair_style == "journal" and stats.journal_repairs == 0:
        report.failures.append({"error": "no journal-ring restore occurred"})
    if device.corrupted_lbas:
        report.failures.append({
            "error": f"corruption not scrubbed at LBAs {device.corrupted_lbas}"
        })
    return report


# ------------------------------------------------ phase 4: WAL tail corruption


def run_wal_truncation(sut: EngineSUT, seed: int) -> dict:
    """Corrupt a mid-history log block; replay must truncate, not crash.

    After truncation the store may legitimately hold any per-key value that
    was committed at *some* point (pages flushed after the corrupt block
    carry newer versions than the surviving log prefix), so the check is:
    no fabricated keys, and every surviving value appeared in that key's
    committed history.
    """
    result = {"corrupt_block": None, "wal_truncations": 0, "failures": []}
    device = FaultInjectingDevice(
        CompressedBlockDevice(_DEVICE_BLOCKS), FaultPlan(seed=seed)
    )
    engine = sut.create(device)
    history: dict[bytes, set] = {}
    committed: dict = {}
    for op in sut.stream:
        kind, key, value = op
        if kind == "put":
            engine.put(key, value)
            history.setdefault(key, set()).add(value)
        else:
            engine.delete(key)
        engine.commit()
        _apply(committed, op)
    # Find a log block in the middle of the written history.
    log_lbas = [
        lba
        for lba in range(BTreeEngine.LOG_START, BTreeEngine.LOG_START + _LOG_BLOCKS)
        if _BLOCK_HDR.unpack_from(device.read_block(lba), 0)[0] == _BLOCK_MAGIC
    ]
    if len(log_lbas) < 4:
        result["failures"].append({"error": "log history too short to corrupt"})
        return result
    victim = log_lbas[len(log_lbas) // 2]
    result["corrupt_block"] = victim
    device.corrupt_stable(victim)
    try:
        recovered = sut.reopen(device)
    except Exception as exc:
        result["failures"].append({
            "error": f"recovery raised instead of truncating: "
                     f"{type(exc).__name__}: {exc}"
        })
        return result
    result["wal_truncations"] = recovered.fault_stats.wal_truncations
    if recovered.fault_stats.wal_truncations == 0:
        result["failures"].append({"error": "corrupt log block went undetected"})
    for key, value in _state(recovered).items():
        if key not in history or value not in history[key]:
            result["failures"].append({
                "error": f"fabricated record for key {key!r}"
            })
            break
    return result


# ------------------------------------------------------------------ campaign


def run_faultcheck(
    systems: Optional[list[str]] = None,
    ops: int = 200,
    budget: int = 24,
    trials: int = 3,
    seed: int = 2022,
) -> dict:
    """Run the campaign over ``systems`` (every system when empty or None);
    returns the JSON-serialisable report."""
    suts = _make_suts(seed, ops)
    names = list(systems) if systems else list(suts)
    for name in names:
        if name not in suts:
            raise ConfigError(
                f"unknown faultcheck system {name!r}; "
                f"choose from {sorted(FAULTCHECK_SYSTEMS)}"
            )
    report: dict = {
        "seed": seed, "ops": ops, "budget": budget, "trials": trials,
        "systems": {},
    }
    passed = True
    for name in names:
        sut = suts[name]
        trials_report = (
            run_fault_trials(sut, seed, trials) if sut.fault_trials
            else FaultTrialReport()
        )
        entry = {
            "crash_points": run_crash_schedule(sut, seed, budget).as_dict(),
            "fault_trials": trials_report.as_dict(),
            "repair": run_repair_campaign(sut, seed).as_dict(),
        }
        if sut.wal_truncation:
            entry["wal_truncation"] = run_wal_truncation(sut, seed)
        report["systems"][name] = entry
        passed = passed and not any(phase["failures"] for phase in entry.values())
    report["passed"] = passed
    return report


def format_report(report: dict) -> str:
    """Human-readable summary of a campaign report."""
    lines = [
        f"faultcheck: seed={report['seed']} ops={report['ops']} "
        f"budget={report['budget']} trials={report['trials']}"
    ]
    for name, entry in report["systems"].items():
        crash = entry["crash_points"]
        trials = entry["fault_trials"]
        repair = entry["repair"]
        lines.append(
            f"  {name}: {crash['crashes_fired']}/{crash['tested']} crash points "
            f"recovered ({crash['mutation_points']} mutation boundaries), "
            f"{trials['trials']} fault trials "
            f"({trials['injected'].get('total', 0)} faults injected), "
            f"repair[{repair['style']}] targets={repair['targets']} "
            f"read_repairs={repair['read_repairs']} "
            f"journal_repairs={repair['journal_repairs']}"
        )
        if "wal_truncation" in entry:
            wal = entry["wal_truncation"]
            lines.append(
                f"    wal-truncation: corrupt_block={wal['corrupt_block']} "
                f"truncations={wal['wal_truncations']}"
            )
        for section, phase in entry.items():
            for failure in phase["failures"]:
                lines.append(f"    FAIL[{section}]: {failure}")
    lines.append("PASSED" if report["passed"] else "FAILED")
    return "\n".join(lines)


__all__ = [
    "FAULTCHECK_SYSTEMS",
    "EngineSUT",
    "format_report",
    "make_workload",
    "run_crash_schedule",
    "run_fault_trials",
    "run_faultcheck",
    "run_repair_campaign",
    "run_wal_truncation",
]
