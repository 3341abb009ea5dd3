"""Experiment construction and execution.

An :class:`ExperimentSpec` names a system and a workload point exactly the
way the paper's figures do (system, page size, record size, threads, T, D_s,
log-flush policy, dataset scale) plus the measured phase (its ``workload``);
:func:`run_experiment` populates the store, runs that phase, and returns
every quantity the figures plot.

Scaling (DESIGN.md §3): experiments are defined by *record count* instead of
the paper's dataset bytes, with the cache sized to the paper's
cache:dataset ratio and the LSM's memtable/level sizes scaled by the same
factor, so cache-hit ratios and LSM level counts — the shape determinants —
match the paper's regime at MB scale.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import Optional

from repro.btree.engine import BTreeConfig, BTreeEngine
from repro.core.bminus import BMinusConfig, BMinusTree
from repro.csd.compression import Compressor, ZeroRunEstimator
from repro.csd.device import (
    BLOCK_SIZE,
    BlockDevice,
    CompressedBlockDevice,
    PlainSSD,
    default_compressor,
)
from repro.errors import ConfigError
from repro.lsm.engine import LSMConfig, LSMEngine
from repro.metrics.counters import WaReport, compute_wa
from repro.obs.metrics import MetricsHub
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.records import KeySpace
from repro.workloads.runner import PhaseStats, WorkloadRunner

#: Systems the evaluation compares.  The paper shows WiredTiger and its own
#: baseline B-tree nearly coincide (both use conventional page shadowing), so
#: one configuration, ``wiredtiger`` on the shadow-table pager, stands for
#: both.
SYSTEMS = (
    "rocksdb",
    "wiredtiger",
    "bminus",
    # Ablation variants, one per technique increment:
    "btree-journal",      # in-place + double-write, packed WAL (no techniques)
    "btree-det-shadow",   # technique 1 only
    "bminus-packedlog",   # techniques 1+2 (delta logging, conventional WAL)
)


#: The measured phase :func:`run_experiment` runs after populating, keyed to
#: the RNG split label its op stream draws from: uniform updates, Zipf
#: updates with hot keys clustered or scattered, point reads, range scans.
WORKLOADS = {
    "write": "steady",
    "zipf": "steady",
    "zipf-scattered": "steady",
    "read": "reads",
    "scan": "scans",
}

#: The drives an experiment can run on: the paper's compressing drive, or a
#: conventional SSD (the plain-SSD ablation).
DEVICE_KINDS = ("csd", "plain")


def _env(name: str, default, parse, expect: str):
    """Read one run-config environment variable strictly: unset or empty is
    ``default``, and a value ``parse`` rejects is a :class:`ConfigError`
    naming the variable, never a silent fallback."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return parse(raw)
    except ValueError:
        raise ConfigError(f"{name} must be {expect}, got {raw!r}") from None


def _switch(raw: str) -> bool:
    if raw not in ("0", "1"):
        raise ValueError(raw)
    return raw == "1"


def _positive(raw: str, kind: type = int):
    value = kind(raw)
    if not 0 < value < math.inf:
        raise ValueError(raw)
    return value


def fast_mode() -> bool:
    """REPRO_FAST=1 swaps real zlib for the calibrated zero-run estimator."""
    return _env("REPRO_FAST", False, _switch, "0 or 1")


def full_mode() -> bool:
    """REPRO_FULL=1 expands benchmark grids to the paper's full sweeps."""
    return _env("REPRO_FULL", False, _switch, "0 or 1")


def default_jobs() -> int:
    """REPRO_JOBS=N runs independent experiment points on N worker processes
    (unset: 1, serial)."""
    return _env("REPRO_JOBS", 1, _positive, "a positive integer")


def record_scale() -> float:
    """REPRO_SCALE=x multiplies the figure benchmarks' record counts."""
    return _env("REPRO_SCALE", 1.0, lambda raw: _positive(raw, float),
                "a positive number")


@dataclass
class ExperimentSpec:
    """One point of one figure."""

    system: str = "bminus"
    n_records: int = 60_000
    record_size: int = 128
    page_size: int = 8192
    cache_fraction: float = 1.0 / 150.0  # the paper's 1GB cache : 150GB data
    n_threads: int = 1
    threshold_t: int = 2048
    segment_size: int = 128
    log_flush_policy: str = "interval"  # the paper's log-flush-per-minute
    log_flush_interval: float = 60.0
    wal_enabled: bool = True  # Table 1 / Fig 13 runs disable the WAL (§2.3)
    device_kind: str = "csd"  # csd | plain (ablation: conventional SSD)
    steady_ops: Optional[int] = None  # default: one key-space turnover
    #: LSM-only knobs (rocksdb system): compaction policy and WAL-time
    #: key-value separation threshold (None = separation off).  The other
    #: systems ignore them — they have no compaction to steer.
    compaction_strategy: str = "leveled"
    value_separation_threshold: Optional[int] = None
    seed: int = 2022
    #: The measured phase after populate (see WORKLOADS), its Zipf skew and
    #: its records per scan.
    workload: str = "write"
    theta: float = 0.99
    scan_length: int = 100

    def validate(self) -> None:
        if self.system not in SYSTEMS:
            raise ConfigError(f"unknown system {self.system!r}; choose from {SYSTEMS}")
        if self.workload not in WORKLOADS:
            raise ConfigError(
                f"unknown workload {self.workload!r}; choose from {tuple(WORKLOADS)}")
        if self.device_kind not in DEVICE_KINDS:
            raise ConfigError(
                f"unknown device_kind {self.device_kind!r}; choose from {DEVICE_KINDS}")

    @property
    def keyspace(self) -> KeySpace:
        return KeySpace(self.n_records, self.record_size)

    @property
    def dataset_bytes(self) -> int:
        return self.keyspace.dataset_bytes

    @property
    def cache_bytes(self) -> int:
        return max(64 << 10, int(self.dataset_bytes * self.cache_fraction))

    @property
    def steady_op_count(self) -> int:
        return self.steady_ops if self.steady_ops is not None else self.n_records

    def label(self) -> str:
        bits = [self.system, f"{self.record_size}B", f"{self.page_size // 1024}KB"]
        if self.system.startswith("bminus"):
            bits.append(f"T={self.threshold_t}")
            bits.append(f"Ds={self.segment_size}")
        if self.system == "rocksdb":
            if self.compaction_strategy != "leveled":
                bits.append(self.compaction_strategy)
            if self.value_separation_threshold is not None:
                bits.append(f"vsep={self.value_separation_threshold}")
        bits.append(f"{self.n_threads}thr")
        return "/".join(bits)


@dataclass
class ExperimentResult:
    """Everything a figure/table needs from one run."""

    spec: ExperimentSpec
    populate: PhaseStats
    steady: PhaseStats
    wa: WaReport
    logical_usage: int
    physical_usage: int
    beta: float = 0.0
    level_shape: list = field(default_factory=list)
    engine: object = None
    device: object = None
    clock: object = None
    #: Observability digest (op-latency quantiles + windowed WA series) when
    #: the run carried a :class:`~repro.obs.metrics.MetricsHub`; a plain
    #: JSON-safe dict, so it survives ``detach_result`` pickling.
    obs: Optional[dict] = None

    @property
    def wa_total(self) -> float:
        return self.wa.wa_total


# ----------------------------------------------------------------- builders


def _estimate_btree_pages(spec: ExperimentSpec) -> int:
    # Leaves at ~60% fill plus internal fan-out overhead plus slack for
    # splits; generous because logical space is free on the drive.
    cell = spec.record_size + 6
    per_leaf = int(spec.page_size * 0.55 / cell)
    leaves = spec.n_records // max(1, per_leaf) + 8
    return int(leaves * 1.8) + 64


def _compressor() -> Compressor:
    if fast_mode():
        # The estimator is already ~50x faster than zlib; wrap nothing so its
        # instance semantics (plain ZeroRunEstimator) stay unchanged.
        return ZeroRunEstimator(entropy_factor=0.98)
    return default_compressor()


def _device(spec: ExperimentSpec, num_blocks: int) -> BlockDevice:
    if spec.device_kind == "plain":
        return PlainSSD(num_blocks)
    return CompressedBlockDevice(num_blocks, compressor=_compressor())


def build_engine(spec: ExperimentSpec):
    """Construct (engine, device, clock) for a spec."""
    spec.validate()
    clock = SimClock()
    if spec.system == "rocksdb":
        # Scale RocksDB's 64MB memtable / 256MB L1 to the dataset so the
        # level count approaches the paper's dataset:memtable ratio of ~2400.
        # The 32KB floor keeps per-table metadata overhead realistic (<10%);
        # below it, footer blocks would masquerade as LSM space amplification.
        memtable = max(32 << 10, spec.dataset_bytes // 2400)
        vlog_segments = 16
        if spec.value_separation_threshold is not None:
            # Size the value log to ~4x the dataset so GC pressure stays
            # moderate at any scale (the live set always fits with headroom).
            segment_blocks = max(
                4, -(-4 * spec.dataset_bytes // (vlog_segments * BLOCK_SIZE))
            )
        else:
            segment_blocks = 16  # LSMConfig default; unused (no vlog region)
        lsm_config = LSMConfig(
            memtable_bytes=memtable,
            level_base_bytes=4 * memtable,
            table_target_bytes=memtable,
            log_blocks=2048,
            wal_mode="packed" if spec.wal_enabled else "none",
            log_flush_policy=spec.log_flush_policy,
            log_flush_interval=spec.log_flush_interval,
            compaction_strategy=spec.compaction_strategy,
            value_separation_threshold=spec.value_separation_threshold,
            vlog_segment_blocks=segment_blocks,
            vlog_segments=vlog_segments,
        )
        data_blocks = int(spec.dataset_bytes * 14 / BLOCK_SIZE) + 4096
        if spec.value_separation_threshold is not None:
            data_blocks += segment_blocks * vlog_segments
        device = _device(
            spec, lsm_config.manifest_blocks * 2 + lsm_config.log_blocks + data_blocks
        )
        return LSMEngine(device, lsm_config, clock=clock), device, clock

    max_pages = _estimate_btree_pages(spec)
    log_blocks = 2048
    if spec.system in ("bminus", "bminus-packedlog"):
        if spec.wal_enabled:
            wal_mode = "sparse" if spec.system == "bminus" else "packed"
        else:
            wal_mode = "none"
        config = BMinusConfig(
            page_size=spec.page_size,
            cache_bytes=spec.cache_bytes,
            threshold_t=spec.threshold_t,
            segment_size=spec.segment_size,
            wal_mode=wal_mode,
            log_flush_policy=spec.log_flush_policy,
            log_flush_interval=spec.log_flush_interval,
            max_pages=max_pages,
            log_blocks=log_blocks,
        )
        blocks = 1 + log_blocks + max_pages * (2 * spec.page_size // BLOCK_SIZE + 1) + 64
        device = _device(spec, blocks)
        return BMinusTree(device, config, clock=clock), device, clock

    atomicity = {
        "wiredtiger": "shadow-table",
        "btree-journal": "journal",
        "btree-det-shadow": "det-shadow",
    }[spec.system]
    config = BTreeConfig(
        page_size=spec.page_size,
        cache_bytes=spec.cache_bytes,
        atomicity=atomicity,
        wal_mode="packed" if spec.wal_enabled else "none",
        log_flush_policy=spec.log_flush_policy,
        log_flush_interval=spec.log_flush_interval,
        max_pages=max_pages,
        log_blocks=log_blocks,
    )
    per_page_blocks = {
        "journal": spec.page_size // BLOCK_SIZE,
        "shadow-table": 2 * spec.page_size // BLOCK_SIZE,
        "det-shadow": 2 * spec.page_size // BLOCK_SIZE,
    }[atomicity]
    blocks = (
        1 + log_blocks + max_pages * per_page_blocks
        + (16 + max_pages) * (spec.page_size // BLOCK_SIZE) + 1024
    )
    device = _device(spec, blocks)
    return BTreeEngine(device, config, clock=clock), device, clock


# ----------------------------------------------------------------- running


def _run_phase(runner: WorkloadRunner, spec: ExperimentSpec,
               rng: DeterministicRng) -> PhaseStats:
    keyspace, n_ops = spec.keyspace, spec.steady_op_count
    if spec.workload == "write":
        return runner.run_random_writes(keyspace, n_ops, rng)
    if spec.workload == "read":
        return runner.run_point_reads(keyspace, n_ops, rng)
    if spec.workload == "scan":
        return runner.run_range_scans(keyspace, n_ops, rng, spec.scan_length)
    return runner.run_zipfian_writes(keyspace, n_ops, rng, theta=spec.theta,
                                     scattered=spec.workload == "zipf-scattered")


def run_experiment(
    spec: ExperimentSpec, hub: Optional[MetricsHub] = None
) -> ExperimentResult:
    """Populate, run the spec's measured phase, and measure everything.

    ``hub`` attaches an optional :class:`~repro.obs.metrics.MetricsHub`
    for the WA-over-time series.  The hub only reads counters — results are
    unaffected.
    """
    engine, device, clock = build_engine(spec)
    rng = DeterministicRng(spec.seed)
    runner = WorkloadRunner(engine, device, clock, n_threads=spec.n_threads,
                            hub=hub)
    populate = runner.populate(spec.keyspace, rng.split("populate"))
    steady = _run_phase(runner, spec, rng.split(WORKLOADS[spec.workload]))
    beta = engine.beta() if hasattr(engine, "beta") else 0.0
    level_shape = engine.level_shape() if hasattr(engine, "level_shape") else []
    if hub is not None:
        hub.finish(clock.now, engine.traffic_snapshot(), device.stats)
    return ExperimentResult(
        spec=spec,
        populate=populate,
        steady=steady,
        wa=steady.wa(),
        logical_usage=device.logical_bytes_used,
        physical_usage=device.physical_bytes_used,
        beta=beta,
        level_shape=level_shape,
        engine=engine,
        device=device,
        clock=clock,
        obs=hub.summary() if hub is not None else None,
    )


def run_strategy_point(
    strategy: str,
    value_size: int,
    threshold: Optional[int],
    n_keys: int,
    passes: int = 2,
    seed: int = 2022,
) -> dict:
    """One compaction-strategy × value-size cell of ``repro compact-compare``.

    Populates ``n_keys`` records of ``value_size`` bytes and overwrites the
    whole key space ``passes - 1`` more times through an LSM engine running
    the named strategy, with WAL-time key-value separation at ``threshold``
    (None = separation off).  Everything runs on the simulated clock with a
    seeded value stream, so the cell's ``wa_total`` (and ``vlog`` occupancy,
    with separation on) is bit-reproducible across hosts —
    ``tests/bench/test_pinned_figures.py`` pins it exactly.  Raises
    :class:`~repro.errors.ConfigError` for an unknown strategy, a
    nonsensical threshold, or fewer than one key or pass — ``repro
    compact-compare`` turns that into a nonzero exit.
    """
    if n_keys < 1 or passes < 1:
        raise ConfigError(
            f"a strategy point needs at least one key and one pass, got "
            f"{n_keys} keys x {passes} passes")
    config = LSMConfig(
        memtable_bytes=8 * 1024,
        log_flush_policy="commit",
        compaction_strategy=strategy,
        value_separation_threshold=threshold,
        vlog_segment_blocks=64,
        vlog_segments=16,
    )
    device = CompressedBlockDevice(num_blocks=1 << 15)
    engine = LSMEngine(device, config, SimClock())
    rng = DeterministicRng(seed)
    ops = 0
    for _ in range(passes):
        for i in range(n_keys):
            body = rng.random_bytes(value_size // 2)
            engine.put(b"key%08d" % i, body + bytes(value_size - len(body)))
            ops += 1
            if ops % 16 == 0:
                engine.commit()
        engine.commit()
    wa_total = compute_wa(engine.traffic_snapshot()).wa_total
    occupancy = engine.vlog_occupancy()
    engine.close()
    cell = {"wa_total": round(wa_total, 6)}
    if occupancy is not None:
        cell["vlog"] = occupancy
    return cell
