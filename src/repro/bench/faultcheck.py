"""The ``repro faultcheck`` campaign: systematic crash points + fault plans.

Random crash fuzzing samples the failure space; this module *enumerates* it.
A profiling run records every device mutation (block write, TRIM, flush) a
commit pipeline issues; the crash-point scheduler then re-runs the identical
workload once per recorded boundary, crashing exactly there — in ``drop``
mode (no pending write survives) and ``torn`` mode (each pending 4KB block
survives a seeded coin flip) — and verifies that recovery reconstructs the
committed reference state.  Because the workload commits after every
operation, the recovered store must equal the committed model exactly, or
the model plus the single in-flight operation the crash interrupted.

Three further phases exercise the self-healing paths the scheduler cannot
reach:

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

import json
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

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


@dataclass
class SystemUnderTest:
    """How the campaign builds, crashes, and re-opens one storage system."""

    name: str
    create: Callable[[object], object]  # device -> engine-like
    reopen: Callable[[object], object]  # device -> engine-like (recovery)
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


def _make_suts() -> dict[str, SystemUnderTest]:
    def btree(atomicity: str, repair_style: str) -> SystemUnderTest:
        return SystemUnderTest(
            name=f"btree-{atomicity}",
            create=lambda dev: BTreeEngine(dev, _btree_config(atomicity)),
            reopen=lambda dev: BTreeEngine.open(dev, _btree_config(atomicity)),
            repair_style=repair_style,
        )

    return {
        "bminus": SystemUnderTest(
            name="bminus",
            create=lambda dev: BMinusTree(dev, _bminus_config()),
            reopen=lambda dev: BMinusTree.open(dev, _bminus_config()),
            repair_style="shadow",
        ),
        "btree-det-shadow": btree("det-shadow", "shadow"),
        "btree-journal": btree("journal", "journal"),
        "btree-shadow-table": btree("shadow-table", "none"),
        "bminus-group": SystemUnderTest(
            name="bminus-group",
            create=lambda dev: BMinusTree(dev, _bminus_group_config()),
            reopen=lambda dev: BMinusTree.open(dev, _bminus_group_config()),
            # The repair phases rely on cache-churn slot ping-pong, which the
            # no-steal cache sizing deliberately suppresses; shadow repair is
            # already covered by the per-op bminus SUT.
            repair_style="none",
            group_size=_GROUP_SIZE,
        ),
        "lsm-group": SystemUnderTest(
            name="lsm-group",
            create=lambda dev: LSMEngine(dev, _lsm_group_config()),
            reopen=lambda dev: LSMEngine.open(dev, _lsm_group_config()),
            repair_style="none",
            group_size=_GROUP_SIZE,
            fault_trials=False,
        ),
        "lsm-vlog": SystemUnderTest(
            name="lsm-vlog",
            create=lambda dev: LSMEngine(dev, _lsm_vlog_config()),
            reopen=lambda dev: LSMEngine.open(dev, _lsm_vlog_config()),
            repair_style="none",
            fault_trials=False,
        ),
    }


#: The multi-device sharded system; handled specially by the campaign
#: driver (see phase 5) rather than through :class:`SystemUnderTest`.
_SHARD_SPLIT_SYSTEM = "shard-split"

FAULTCHECK_SYSTEMS = tuple(_make_suts()) + (_SHARD_SPLIT_SYSTEM,)


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


def _profile_mutations(sut: SystemUnderTest, stream) -> list[int]:
    """Run once, fault-free, recording the op index of every device mutation."""
    device = FaultInjectingDevice(
        CompressedBlockDevice(_DEVICE_BLOCKS), record_ops=True
    )
    engine = sut.create(device)
    committed: dict = {}
    crashed = _run_workload(engine, stream, committed, sut.group_size)
    assert crashed is None, "profiling run must not crash"
    return [
        index
        for index, (kind, _lba, _count) in enumerate(device.op_log)
        if kind in ("write", "trim", "flush")
    ]


def _sample(points: list[int], budget: int) -> list[int]:
    """Stride-sample ``points`` down to ``budget`` entries, keeping the ends."""
    if budget <= 0 or len(points) <= budget:
        return points
    stride = (len(points) - 1) / (budget - 1) if budget > 1 else len(points)
    picked = sorted({points[min(round(i * stride), len(points) - 1)]
                     for i in range(budget)})
    return picked


def run_crash_schedule(
    sut: SystemUnderTest, stream, seed: int, budget: int
) -> CrashPointReport:
    """Crash-test every (sampled) mutation boundary in drop and torn modes."""
    report = CrashPointReport()
    mutation_points = _profile_mutations(sut, stream)
    report.mutation_points = len(mutation_points)
    points = _sample(mutation_points, budget)
    for mode in ("drop", "torn"):
        for point in points:
            report.tested += 1
            plan = FaultPlan(
                seed=seed + point,
                scripted=(ScriptedFault(op_index=point, kind="crash", mode=mode),),
            )
            inner = CompressedBlockDevice(_DEVICE_BLOCKS)
            device = FaultInjectingDevice(inner, plan)
            committed: dict = {}
            inflight: Optional[list[int]] = None
            try:
                engine = sut.create(device)
            except SimulatedCrashError:
                # Crash during store genesis: recovery must come up empty.
                pass
            else:
                inflight = _run_workload(engine, stream, committed, sut.group_size)
                if inflight is None:
                    # The sampled boundary was never reached (e.g. a
                    # profiling mutation past the last commit).
                    continue
            report.crashes_fired += 1
            recovered = sut.reopen(inner)  # recovery itself runs fault-free
            state = _state(recovered)
            # Either the interrupted window rolled back entirely, or (its
            # COMMIT marker having reached the device) it replays entirely;
            # a partially-applied window matches neither and fails.
            acceptable = [dict(committed)]
            with_inflight = dict(committed)
            if inflight:
                for i in inflight:
                    _apply(with_inflight, stream[i])
                acceptable.append(with_inflight)
            # get must tell the same story as the scan, deleted keys included.
            lookups_ok = all(
                recovered.get(k) == state.get(k)
                for k in committed.keys() | with_inflight.keys()
            )
            if state not in acceptable or not lookups_ok:
                report.failures.append({
                    "mode": mode,
                    "op_index": point,
                    "inflight_ops": inflight,
                    "lookups_ok": lookups_ok,
                    "missing": sorted(
                        k.decode() for k in set(committed) - set(state)
                    )[:5],
                    "unexpected": sorted(
                        k.decode() for k in set(state) - set(with_inflight)
                    )[:5],
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


def run_fault_trials(
    sut: SystemUnderTest, stream, seed: int, trials: int
) -> FaultTrialReport:
    """Run seeded fault plans end to end; every fault must heal invisibly.

    Rates cover only the fault kinds that are *always* recoverable without a
    surviving replica (transient errors, transient corruption, torn writes,
    dropped TRIMs) — latent corruption and misdirected writes are exercised
    by the targeted phases, where a replica is arranged to exist.
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
            crashed = _run_workload(engine, stream, committed, sut.group_size)
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


def run_repair_campaign(
    sut: SystemUnderTest, stream, seed: int, max_targets: int = 4
) -> RepairReport:
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
    crashed = _run_workload(engine, stream, committed)
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


def run_wal_truncation(sut: SystemUnderTest, stream, seed: int) -> dict:
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
    for op in stream:
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


# ------------------------------------------- phase 5: sharded split crashes


#: Shard-split campaign topology: two shards, one online split.
_SHARD_OPS_DEFAULT = 80
#: Ops per commit window while populating the sharded store.
_SHARD_COMMIT_EVERY = 8


def _shard_config(engine: str, partitioning: str) -> "ShardConfig":
    from repro.shard.router import ShardConfig

    return ShardConfig(
        n_shards=2,
        partitioning=partitioning,
        engine=engine,
        device_blocks=_DEVICE_BLOCKS,
    )


def _shard_populate(router, stream) -> dict:
    """Apply the workload through the router, committing in small windows."""
    committed: dict = {}
    for index, op in enumerate(stream):
        kind, key, value = op
        if kind == "put":
            router.put(key, value)
        else:
            router.delete(key)
        _apply(committed, op)
        if (index + 1) % _SHARD_COMMIT_EVERY == 0:
            router.commit()
    router.commit()
    return committed


def _shard_run(config, stream, roles, plans=None):
    """Build a sharded deployment over ``roles`` named devices and split.

    ``roles`` maps ``shard0``/``shard1``/``meta``/``dst`` to inner devices;
    ``plans`` optionally wraps a role in a scripted
    :class:`FaultInjectingDevice`.  Returns the populated model (the split
    must not change KV content, so the model doubles as the reference for
    both the pre- and post-split state).
    """
    from repro.shard.router import ShardRouter

    plans = plans or {}
    wrapped = {
        name: FaultInjectingDevice(inner, plans[name]) if name in plans else inner
        for name, inner in roles.items()
    }
    router = ShardRouter.create(
        config,
        devices=[wrapped["shard0"], wrapped["shard1"]],
        meta_device=wrapped["meta"],
    )
    model = _shard_populate(router, stream)
    markers = {
        name: device._op_index
        for name, device in wrapped.items()
        if isinstance(device, FaultInjectingDevice)
    }
    source = max(
        router.stacks,
        key=lambda sid: (sum(1 for _ in router.stacks[sid].items()), -sid),
    )
    router.split_shard(source, device=wrapped["dst"])
    return model, wrapped, markers


def _shard_split_points(config, stream) -> tuple[dict, list[tuple[str, int]]]:
    """Profile one fault-free split run; return the model and every
    (role, op-index) device mutation boundary inside the split protocol."""
    roles = {
        name: FaultInjectingDevice(
            CompressedBlockDevice(_DEVICE_BLOCKS), record_ops=True
        )
        for name in ("shard0", "shard1", "meta", "dst")
    }
    model, _wrapped, markers = _shard_run(config, stream, roles)
    points: list[tuple[str, int]] = []
    for name, device in roles.items():
        for index, (kind, _lba, _count) in enumerate(device.op_log):
            if index >= markers[name] and kind in ("write", "trim", "flush"):
                points.append((name, index))
    return model, points


def run_shard_split_schedule(
    seed: int,
    budget: int,
    ops: int = _SHARD_OPS_DEFAULT,
    engine: str = "bminus",
    partitioning: str = "hash",
) -> CrashPointReport:
    """Crash an online shard split at every device write/TRIM/flush boundary.

    For each boundary (on either shard, the split destination, or the meta
    routing journal) and each of drop/torn modes, the identical populate +
    split run is repeated with a scripted crash exactly there; the crash is
    a node-wide power cut (every other device loses its un-flushed writes
    too).  Fault-free recovery via ``ShardRouter.open`` must then serve
    *exactly* the populated key set — migration moves keys, never creates
    or destroys them — with either the pre-split (2-shard) or post-split
    (3-shard) routing table.  Any lost key, duplicated key, or hybrid table
    is a failure.
    """
    from repro.shard.router import ShardRouter

    config = _shard_config(engine, partitioning)
    stream = make_workload(seed, ops)
    report = CrashPointReport()
    model, points = _shard_split_points(config, stream)
    report.mutation_points = len(points)
    picked = _sample(list(range(len(points))), budget)
    order = {name: role_id for role_id, name in
             enumerate(("shard0", "shard1", "meta", "dst"))}
    for mode in ("drop", "torn"):
        for position in picked:
            role, op_index = points[position]
            report.tested += 1
            plan = FaultPlan(
                seed=seed + op_index,
                scripted=(
                    ScriptedFault(op_index=op_index, kind="crash", mode=mode),
                ),
            )
            roles = {
                name: CompressedBlockDevice(_DEVICE_BLOCKS)
                for name in ("shard0", "shard1", "meta", "dst")
            }
            try:
                _shard_run(config, stream, roles, plans={role: plan})
            except SimulatedCrashError:
                pass
            else:
                # Boundary not reached in this mode (should not happen: the
                # run is deterministic and the point was profiled).
                continue
            report.crashes_fired += 1
            # Node-wide power cut: every *other* device loses its pending
            # writes the same way the scripted device did.
            for name, inner in roles.items():
                if name != role:
                    if mode == "torn":
                        inner.simulate_crash(keep_torn=seed + op_index + order[name])
                    else:
                        inner.simulate_crash()
            recovered = ShardRouter.open(
                config,
                devices={0: roles["shard0"], 1: roles["shard1"], 2: roles["dst"]},
                meta_device=roles["meta"],
            )
            state = dict(recovered.items())
            lookups_ok = all(recovered.get(k) == v for k, v in model.items())
            if (
                state != model
                or not lookups_ok
                or recovered.n_shards not in (2, 3)
            ):
                report.failures.append({
                    "mode": mode,
                    "role": role,
                    "op_index": op_index,
                    "n_shards": recovered.n_shards,
                    "missing": sorted(
                        k.decode() for k in set(model) - set(state)
                    )[:5],
                    "unexpected": sorted(
                        k.decode() for k in set(state) - set(model)
                    )[:5],
                })
    return report


def run_faultcheck(
    systems: Optional[list[str]] = None,
    ops: int = 200,
    budget: int = 24,
    trials: int = 3,
    seed: int = 2022,
) -> dict:
    """Run the full campaign; returns the JSON-serialisable report."""
    suts = _make_suts()
    names = list(systems) if systems else list(FAULTCHECK_SYSTEMS)
    for name in names:
        if name not in suts and name != _SHARD_SPLIT_SYSTEM:
            raise ConfigError(
                f"unknown faultcheck system {name!r}; "
                f"choose from {sorted(FAULTCHECK_SYSTEMS)}"
            )
    stream = make_workload(seed, ops)
    report: dict = {
        "seed": seed, "ops": ops, "budget": budget, "trials": trials,
        "systems": {},
    }
    passed = True
    for name in names:
        if name == _SHARD_SPLIT_SYSTEM:
            # The sharded SUT is multi-device: it runs its own schedule (an
            # online split crashed at every boundary on every device) and
            # has no single-engine fault-trial or repair phase.
            crash = run_shard_split_schedule(seed, budget, ops=min(ops, _SHARD_OPS_DEFAULT))
            report["systems"][name] = {
                "crash_points": crash.as_dict(),
                "fault_trials": FaultTrialReport().as_dict(),
                "repair": {
                    "style": "none", "targets": 0, "read_repairs": 0,
                    "journal_repairs": 0, "failures": [],
                },
            }
            passed = passed and not crash.failures
            continue
        sut = suts[name]
        crash = run_crash_schedule(sut, stream, seed, budget)
        if sut.fault_trials:
            trials_report = run_fault_trials(sut, stream, seed, trials)
        else:
            trials_report = FaultTrialReport()
        repair = run_repair_campaign(sut, stream, seed)
        entry = {
            "crash_points": crash.as_dict(),
            "fault_trials": trials_report.as_dict(),
            "repair": repair.as_dict(),
        }
        if name == "bminus":
            entry["wal_truncation"] = run_wal_truncation(sut, stream, seed)
            passed = passed and not entry["wal_truncation"]["failures"]
        report["systems"][name] = entry
        passed = passed and not crash.failures
        passed = passed and not trials_report.failures
        passed = passed and not repair.failures
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
        sections = ["crash_points", "fault_trials", "repair"]
        if "wal_truncation" in entry:
            sections.append("wal_truncation")
        for section in sections:
            for failure in entry[section]["failures"]:
                lines.append(f"    FAIL[{section}]: {failure}")
    lines.append("PASSED" if report["passed"] else "FAILED")
    return "\n".join(lines)


def main(argv: Optional[list] = None) -> int:  # pragma: no cover - thin CLI
    """Standalone entry point (mirrors ``repro faultcheck``)."""
    import argparse

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--systems", default=",".join(FAULTCHECK_SYSTEMS))
    parser.add_argument("--ops", type=int, default=200)
    parser.add_argument("--budget", type=int, default=24)
    parser.add_argument("--trials", type=int, default=3)
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--json", action="store_true")
    args = parser.parse_args(argv)
    systems = [s.strip() for s in args.systems.split(",") if s.strip()]
    report = run_faultcheck(systems, args.ops, args.budget, args.trials, args.seed)
    print(json.dumps(report, indent=2) if args.json else format_report(report))
    return 0 if report["passed"] else 1


__all__ = [
    "FAULTCHECK_SYSTEMS",
    "SystemUnderTest",
    "format_report",
    "make_workload",
    "run_crash_schedule",
    "run_fault_trials",
    "run_faultcheck",
    "run_repair_campaign",
    "run_wal_truncation",
]
