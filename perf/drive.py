"""The closed-loop driver: build a stack, populate it, run the op list, check it.

One process, one thread, one client: the paper's single-client regime.  The
cadence per op (or per batch of ``n`` ops) is API call -> ``commit()`` ->
``clock.advance(n x 200 us)`` -> ``tick()``, which is ``WorkloadRunner``'s
``n_threads=1`` cadence.

A *round* is one fresh stack taken through set-up, the measured phase and
the correctness checks.  A round's sim-side quantities (bytes, I/Os,
simulated-time TPS, layer counts) depend on the seeded op list only, so two
rounds over one op list must agree exactly, traced or not.
"""

from __future__ import annotations

import gc
from dataclasses import dataclass, field
from functools import partial
from time import perf_counter
from typing import Any, Optional

from repro.bench.harness import ExperimentSpec, build_engine
from repro.bench.speed import SpeedModel
from repro.btree.engine import BTreeEngine
from repro.csd.device import CompressedBlockDevice
from repro.errors import ReproError
from repro.lsm.engine import LSMEngine
from repro.metrics.counters import compute_wa
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.runner import PhaseStats

from perf.hostclock import run_chunks
from perf.proxies import REGIONS, SpanRecorder, TimingCompressor, TimingDevice, TimingEngine
from perf.workloads import (
    BY_NAME, FAILED, GET, GET_BATCH, PUT, PUT_BATCH, RECORD_SIZE, SCAN,
    OpList, ShadowModel, Workload, op_weight,
)

OP_INTERVAL = 200e-6  # simulated service time of one op, as in WorkloadRunner
SAMPLE_KEYS = 2000  # keys read back after the phase and again after reopen
#: Chunks the populate and measured phases are cut into for drift correction
#: at the workload's declared size (fewer, equally long ones when it is scaled
#: down): ~60 ms each, because the slow spells of this host last ~100 ms and up
#: (same seed, eight runs each: 16 chunks spread host_ops_per_s 4-6.5%, 128 1.5-5%).
POPULATE_CHUNKS = 32
MEASURE_CHUNKS = 128


@dataclass(frozen=True)
class Geometry:
    """Engine class, config and device size of a workload, as the figures
    build them (``repro.bench.harness.build_engine``), plus the LBA bounds
    of the WAL and data regions for the traced pass."""

    engine_cls: type
    config: Any
    num_blocks: int
    wal_start: int
    data_start: int


def geometry(workload: Workload) -> Geometry:
    spec = ExperimentSpec(
        system=workload.system, n_records=workload.final_records,
        record_size=RECORD_SIZE, cache_fraction=workload.cache_fraction,
    )
    # build_engine hands its device straight to the engine, so it cannot take
    # a proxy: use it for the geometry only and build the stack from that.
    engine, device, _ = build_engine(spec)
    if isinstance(engine, LSMEngine):
        wal_start = engine.manifest.total_blocks()
    else:
        wal_start = BTreeEngine.LOG_START
    return Geometry(
        type(engine), engine.config, device.num_blocks,
        wal_start, wal_start + engine.config.log_blocks,
    )


@dataclass
class Tracer:
    """The recorder and the three proxies of one traced round."""

    recorder: SpanRecorder
    api: TimingEngine
    device: TimingDevice
    compressor: TimingCompressor

    def attach(self, on: bool) -> None:
        self.device.attach(self.recorder if on else None)
        self.compressor.attach(self.recorder if on else None)


@dataclass
class Stack:
    engine: Any
    device: CompressedBlockDevice
    io: Any  # what the engine writes to: the device, or its timing proxy
    clock: SimClock
    tracer: Optional[Tracer] = None


def build_stack(geom: Geometry, traced: bool) -> Stack:
    """A fresh engine on a fresh simulated drive: real zlib behind the
    default compressed-size cache, independent of the REPRO_* switches."""
    device = CompressedBlockDevice(geom.num_blocks)
    clock = SimClock()
    if not traced:
        return Stack(geom.engine_cls(device, geom.config, clock=clock), device, device, clock)
    compressor = TimingCompressor(device.compressor)
    device.compressor = compressor
    io = TimingDevice(device, geom.wal_start, geom.data_start)
    engine = geom.engine_cls(io, geom.config, clock=clock)
    recorder = SpanRecorder()
    tracer = Tracer(recorder, TimingEngine(engine, recorder), io, compressor)
    return Stack(engine, device, io, clock, tracer)


def populate(stack: Stack, pairs: list) -> None:
    engine, advance = stack.engine, stack.clock.advance
    for key, value in pairs:
        engine.put(key, value)
        engine.commit()
        advance(OP_INTERVAL)
        engine.tick()


def run_ops(api: Any, clock: SimClock, ops: list, results: list) -> int:
    """The measured phase.  ``api`` is the engine or its timing proxy.

    Read results go to ``results`` in op order; returns the number of
    operations that raised.
    """
    failed = 0
    advance = clock.advance
    for op in ops:
        kind = op[0]
        try:
            if kind == PUT:
                api.put(op[1], op[2])
                n = 1
            elif kind == GET:
                results.append(api.get(op[1]))
                n = 1
            elif kind == SCAN:
                results.append(api.scan(op[1], op[2]))
                n = 1
            elif kind == PUT_BATCH:
                api.put_batch(op[1])
                n = len(op[1])
            else:
                results.append(api.get_batch(op[1]))
                n = len(op[1])
            api.commit()
            advance(n * OP_INTERVAL)
            api.tick()
        except ReproError:
            failed += op_weight(op)
            if kind in (GET, SCAN, GET_BATCH):
                results.append(FAILED)
    return failed


# ------------------------------------------------------------------ counters


#: Engine counters; the ones the workload's engine does not have stay 0.
_COUNTER_NAMES = (
    "btree.pool.hits", "btree.pool.misses", "btree.pool.evictions",
    "btree.pool.dirty_evictions", "btree.pager.page_loads", "btree.pager.page_flushes",
    "core.delta.delta_flushes", "core.delta.full_flushes",
    "lsm.memtable_flushes", "lsm.compactions_run", "lsm.flush_physical",
    "lsm.compact_physical",
)


def layer_counters(stack: Stack) -> dict[str, float]:
    """Cumulative public counters of every layer (deltas are taken over the
    measured phase).  Names not applicable to the engine stay 0."""
    engine, device = stack.engine, stack.device
    out = dict.fromkeys(_COUNTER_NAMES, 0)
    if isinstance(engine, LSMEngine):
        wal = engine.wal.stats
        out.update({
            "lsm.memtable_flushes": engine.memtable_flushes,
            "lsm.compactions_run": engine.compactions_run,
            "lsm.flush_physical": engine.flush_physical,
            "lsm.compact_physical": engine.compact_physical,
        })
    else:  # BMinusTree: a delta pager and a sparse WAL under a BTreeEngine
        wal = engine.engine.wal.stats
        pool, pager = engine.engine.pool.stats, engine.pager.stats
        out.update({
            "btree.pool.hits": pool.hits,
            "btree.pool.misses": pool.misses,
            "btree.pool.evictions": pool.evictions,
            "btree.pool.dirty_evictions": pool.dirty_evictions,
            "btree.pager.page_loads": pager.page_loads,
            "btree.pager.page_flushes": pager.page_flushes,
            "core.delta.delta_flushes": pager.delta_flushes,
            "core.delta.full_flushes": pager.full_flushes,
        })
    out.update({
        "btree.wal.records_appended": wal.records_appended,
        "btree.wal.flushes": wal.flushes,
        "btree.wal.blocks_sealed": wal.blocks_sealed,
        "btree.wal.physical_bytes": wal.physical_bytes,
    })
    stats = device.stats
    out.update({
        "csd.device.write_calls": stats.write_ios,
        "csd.device.read_calls": stats.read_ios,
        "csd.device.trim_calls": stats.trim_ios,
        "csd.device.flush_calls": stats.flush_ios,
        "csd.device.blocks_written": stats.blocks_written,
        "csd.device.blocks_read": stats.blocks_read,
        "csd.device.logical_bytes_written": stats.logical_bytes_written,
        "csd.device.physical_bytes_written": stats.physical_bytes_written,
        "csd.ftl.gc_bytes_written": stats.gc_bytes_written,
    })
    return out


def layer_gauges(stack: Stack) -> dict[str, float]:
    """End-of-phase state of the layers that have one."""
    engine, ftl = stack.engine, stack.device.ftl
    lsm = isinstance(engine, LSMEngine)
    return {
        "core.delta.beta": 0.0 if lsm else engine.beta(),
        "lsm.levels": engine.versions.num_nonempty_levels() if lsm else 0,
        "lsm.tables": engine.versions.total_tables() if lsm else 0,
        "csd.ftl.live_bytes": ftl.live_bytes,
        "csd.ftl.mapped_lbas": ftl.mapped_lbas,
    }


# --------------------------------------------------------------------- round


@dataclass
class Round:
    """What one round measured.  ``sim`` is a function of the op list alone;
    ``trace`` (traced rounds only) holds span seconds and proxy counts.
    ``setup_s`` and ``measured_s`` are reference seconds (``perf.hostclock``)."""

    setup_s: float
    measured_s: float
    attempted: int
    failed: int
    problems: list
    sim: dict
    trace: dict = field(default_factory=dict)
    recorder: Optional[SpanRecorder] = None

    @property
    def host_ops_per_s(self) -> float:
        return self.attempted / self.measured_s


def _slices(items: list, parts: int, scale: float) -> list:
    """``items`` cut into ``parts * scale`` (at least one) equal chunks."""
    step = -(-len(items) // max(1, round(parts * scale)))
    return [items[first : first + step] for first in range(0, len(items), step)]


def run_round(
    workload: Workload, oplist: OpList, geom: Geometry, seed: int, traced: bool
) -> Round:
    model = ShadowModel(oplist.populate)
    declared = BY_NAME[workload.name]
    populate_chunks = _slices(
        oplist.populate, POPULATE_CHUNKS, workload.n_records / declared.n_records
    )
    measure_chunks = _slices(oplist.ops, MEASURE_CHUNKS, workload.n_ops / declared.n_ops)

    start = perf_counter()
    stack = build_stack(geom, traced)
    build_s = perf_counter() - start
    wall_s, corrected_s = run_chunks(
        partial(populate, stack, pairs) for pairs in populate_chunks
    )
    start = perf_counter()
    # Populate garbage must not be charged to the measured phase.
    gc.collect()
    gc.freeze()
    setup_s = (build_s + wall_s + perf_counter() - start) * corrected_s / wall_s

    engine, device, clock = stack.engine, stack.device, stack.clock
    populate_traffic = engine.traffic_snapshot()
    device_before = device.stats.snapshot()
    counters_before = layer_counters(stack)
    clock_before = clock.now
    tracer = stack.tracer
    api = engine if tracer is None else tracer.api
    results: list = []
    failed = mismatches = scanned = 0

    def measure(ops: list) -> None:
        nonlocal failed
        if tracer is None:
            failed += run_ops(api, clock, ops, results)
            return
        span = tracer.recorder.begin(tracer.recorder.name_id("bench.measure"))
        failed += run_ops(api, clock, ops, results)
        tracer.recorder.finish(span)

    def chunks():
        """The measured chunks.  What follows a ``yield`` runs when
        ``run_chunks`` asks for the next chunk, outside every timed stretch:
        the chunk's read results are checked there and dropped, so the
        process never holds more than one chunk of them."""
        nonlocal mismatches, scanned
        for ops in measure_chunks:
            yield partial(measure, ops)
            read_ops = (op for op in ops if op[0] in (GET, SCAN, GET_BATCH))
            scanned += sum(
                len(got) for op, got in zip(read_ops, results)
                if op[0] == SCAN and got is not FAILED
            )
            mismatches += model.replay(ops, results)
            results.clear()

    if tracer is not None:
        tracer.attach(True)
    wall_s, measured_s = run_chunks(chunks())
    if tracer is not None:
        tracer.attach(False)

    attempted = oplist.weight()
    run_traffic = engine.traffic_snapshot()
    traffic = run_traffic.delta(populate_traffic)
    device_delta = device.stats.delta(device_before)
    phase = _phase_stats(oplist.ops, scanned, clock.now - clock_before, traffic, device_delta)
    counters = layer_counters(stack)
    sim = {name: counters[name] - counters_before[name] for name in counters}
    sim.update(layer_gauges(stack))
    phase_wa = compute_wa(traffic)
    lookups = sim["btree.pool.hits"] + sim["btree.pool.misses"]
    sim.update({
        "sim_ops_per_s": SpeedModel().tps(phase, engine, 1),
        # Every workload writes during set-up and two write nothing after
        # it, so the end-to-end ratio runs from the empty drive to the end of
        # the measured phase.  The measured phase alone is the three lines
        # below it (they sum to its total; all 0 on a read-only phase).
        "wa_total": compute_wa(run_traffic).wa_total,
        "wa_log": phase_wa.wa_log,
        "wa_pg": phase_wa.wa_pg,
        "wa_e": phase_wa.wa_e,
        "space_amp": device.physical_bytes_used / (workload.final_records * RECORD_SIZE),
        "dev_blocks_per_op": (device_delta.blocks_read + device_delta.blocks_written) / attempted,
        "btree.pool.hit_ratio": sim["btree.pool.hits"] / lookups if lookups else 0.0,
        "workloads.ops": attempted,
    })

    out = Round(setup_s, measured_s, attempted, failed, [], sim)
    if tracer is not None:
        out.recorder = tracer.recorder
        out.trace = _trace_metrics(tracer, measured_s / wall_s)
        _check_proxies(tracer, device_delta, out.problems)
    if failed:
        out.problems.append(f"{failed} of {attempted} operations raised")
    if mismatches:
        out.problems.append(f"{mismatches} timed read results differ from the shadow model")
    out.problems.extend(_verify(stack, geom, model, seed))
    gc.unfreeze()
    return out


def _phase_stats(ops, scanned, elapsed, traffic, device_delta) -> PhaseStats:
    """The measured phase as ``SpeedModel.tps`` wants it."""
    puts = sum(op_weight(op) for op in ops if op[0] in (PUT, PUT_BATCH))
    reads = sum(op_weight(op) for op in ops if op[0] in (GET, GET_BATCH))
    scans = sum(op[0] == SCAN for op in ops)
    return PhaseStats(
        ops=puts + reads + scans, puts=puts, reads=reads, scans=scans,
        records_scanned=scanned, elapsed_seconds=elapsed,
        traffic=traffic, device=device_delta,
    )


# -------------------------------------------------------------- correctness


def _verify(stack: Stack, geom: Geometry, model: ShadowModel, seed: int) -> list:
    """Final state against the shadow model (which has replayed every
    measured op by now), then the same after a clean close and reopen."""
    problems = []
    engine = stack.engine
    n_items = sum(1 for _ in engine.items())
    if n_items != len(model.keys):
        problems.append(f"engine holds {n_items} records, model {len(model.keys)}")
    rng = DeterministicRng(seed).split("verify")
    sample = rng.sample(model.keys, min(SAMPLE_KEYS, len(model.keys)))
    stale = sum(engine.get(key) != model.data[key] for key in sample)
    if stale:
        problems.append(f"{stale} of {len(sample)} sampled keys are stale")
    engine.close()
    reopened = geom.engine_cls.open(stack.io, geom.config)
    lost = sum(reopened.get(key) != model.data[key] for key in sample)
    if lost:
        problems.append(f"{lost} of {len(sample)} sampled keys differ after reopen")
    return problems


def _check_proxies(tracer: Tracer, device_delta, problems: list) -> None:
    """The proxies' own counts must agree with the drive's smart log."""
    regions = tracer.device.regions
    seen = (
        sum(r.blocks_written for r in regions),
        sum(r.blocks_read for r in regions),
        sum(r.physical_bytes_written for r in regions),
    )
    logged = (
        device_delta.blocks_written, device_delta.blocks_read,
        device_delta.physical_bytes_written,
    )
    if seen != logged:
        problems.append(f"device proxy saw {seen}, DeviceStats logged {logged}")


# -------------------------------------------------------------------- ledger


def percentile(sorted_values: list, q: float) -> float:
    return sorted_values[min(len(sorted_values) - 1, int(q * len(sorted_values)))]


def _trace_metrics(tracer: Tracer, scale: float) -> dict:
    """Span seconds and proxy counts of one traced measured phase.

    ``scale`` turns wall seconds into reference seconds for the whole round;
    the ledger is linear in it, so it still closes.
    """
    rec = tracer.recorder
    totals = rec.totals()

    def total(prefix: str, index: int) -> float:
        return sum(v[index] for name, v in totals.items() if name.startswith(prefix))

    def of(name: str, index: int) -> float:
        return totals[name][index] if name in totals else 0

    wall = of("bench.measure", 1)
    loop_s = of("bench.measure", 2)
    engine_self = total("engine.", 2)
    device_self = total("csd.device.", 2)
    compression_s = total("csd.compression.", 1)
    seconds = {
        "bench.loop_s": loop_s,
        "engine.busy_s": total("engine.", 1),
        "engine.self_s": engine_self,
        "engine.put_s": of("engine.put", 1),
        "engine.get_s": of("engine.get", 1),
        "engine.scan_s": of("engine.scan", 1),
        "engine.commit_tick_s": of("engine.commit", 1) + of("engine.tick", 1),
        "lsm.bg_s": tracer.api.bg_s,
        "csd.device.busy_s": total("csd.device.", 1),
        "csd.device.self_s": device_self,
        "csd.compression.busy_s": compression_s,
    }
    out = {
        "bench.ledger_residual":
            abs(loop_s + engine_self + device_self + compression_s - wall) / wall,
        "engine.put_calls": of("engine.put", 0),
        "engine.get_calls": of("engine.get", 0),
        "engine.scan_calls": of("engine.scan", 0),
        "lsm.bg_put_calls": tracer.api.bg_put_calls,
        "csd.compression.calls": tracer.compressor.calls,
        "csd.compression.bytes_in": tracer.compressor.bytes_in,
        "csd.compression.bytes_out": tracer.compressor.bytes_out,
        "csd.compression.cache_hit_rate": tracer.compressor.cache_hit_rate(),
    }
    for region, counts in zip(REGIONS, tracer.device.regions):
        seconds[f"csd.device.{region}.busy_s"] = total(f"csd.device.{region}.", 1)
        out[f"csd.device.{region}.blocks_written"] = counts.blocks_written
        out[f"csd.device.{region}.blocks_read"] = counts.blocks_read
        out[f"csd.device.{region}.physical_bytes_written"] = counts.physical_bytes_written

    # One op = KV call -> commit -> tick: from the call's start to the tick's end.
    measure = rec.name_id("bench.measure")
    tick = rec.name_id("engine.tick")
    calls = {rec.name_id(f"engine.{kind}") for kind in ("put", "get", "scan")}
    latencies, started = [], 0.0
    for index, parent in enumerate(rec.parents):
        if parent < 0 or rec.name_ids[parent] != measure:
            continue
        if rec.name_ids[index] in calls:
            started = rec.starts[index]
        elif rec.name_ids[index] == tick:
            latencies.append(rec.ends[index] - started)
    latencies.sort()
    seconds["engine.op_p50_us"] = percentile(latencies, 0.50) * 1e6
    seconds["engine.op_p99_us"] = percentile(latencies, 0.99) * 1e6
    seconds["engine.op_max_us"] = latencies[-1] * 1e6
    out.update({name: value * scale for name, value in seconds.items()})
    return out
