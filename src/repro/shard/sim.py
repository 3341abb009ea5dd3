"""Per-shard worker simulation: fan shards across the process pool.

Shards share no state — each owns its device, engine, WAL, and clock — so a
sharded run is embarrassingly parallel.  The worker entry point
(:func:`run_shard_task`) is a module-level function that rebuilds *all* of
its state from a picklable :class:`ShardTask` (the PUR009 worker-purity
contract for pool workers): it regenerates the deterministic workload,
keeps only the ops the routing table assigns to its shard, applies them in
arrival order in batched commit windows, and returns a detached result —
``DeviceStats``, ``TrafficSnapshot``, and a serialised
:class:`~repro.obs.metrics.MetricsHub` — for the parent to merge.

The merge is exact, not approximate: cumulative counters sum field-wise,
latency histograms merge bucket-exactly (:mod:`repro.obs.hist`), and the
fleet WA report is ``compute_wa`` over the summed traffic.  Because every
worker derives its op stream from the same seed and the same routing table,
``jobs=N`` and ``jobs=1`` produce identical merged results — the property
``tests/test_cli.py::test_shard_sim_jobs_merge_is_exact`` pins.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.bench.parallel import default_jobs, run_tasks
from repro.csd.device import CompressedBlockDevice
from repro.csd.stats import DeviceStats
from repro.metrics.counters import TrafficSnapshot, WaReport, compute_wa
from repro.obs.metrics import MetricsHub
from repro.shard.router import (
    PartitionMap,
    ShardConfig,
    _initial_table,
    hash_token,
    make_engine,
)

#: Ops per commit window in the shard sim (amortises WAL flushes the same
#: way the batched bench scenarios do).
_BATCH_SIZE = 16


def make_shard_workload(seed: int, ops: int) -> List[Tuple[str, bytes, bytes]]:
    """A deterministic put/overwrite/delete stream shared by every worker.

    Values mix a compressible run with random bytes so the simulated drive's
    transparent compression has realistic material to work on.
    """
    rng = random.Random(seed)
    stream: List[Tuple[str, bytes, bytes]] = []
    live: List[bytes] = []
    for _ in range(ops):
        if live and rng.random() < 0.1:
            key = live.pop(rng.randrange(len(live)))
            stream.append(("del", key, b""))
        else:
            key = b"user%08d" % rng.randrange(4 * ops)
            body = bytes(rng.getrandbits(8) for _ in range(rng.randrange(40, 160)))
            value = body + b"\x00" * rng.randrange(40, 160)
            stream.append(("put", key, value))
            if key not in live:
                live.append(key)
    return stream


@dataclass
class ShardTask:
    """Everything one worker needs to rebuild and run its shard."""

    shard_id: int
    table: List[List[object]]  # PartitionMap.to_json()
    n_shards: int
    partitioning: str
    engine: str
    device_blocks: int
    engine_options: dict
    seed: int
    ops: int

    def config(self) -> ShardConfig:
        return ShardConfig(
            n_shards=self.n_shards,
            partitioning=self.partitioning,
            engine=self.engine,
            device_blocks=self.device_blocks,
            engine_options=dict(self.engine_options),
        )


def run_shard_task(task: ShardTask) -> dict:
    """Pool worker: simulate one shard and return a detached result."""
    config = task.config()
    table = PartitionMap.from_json(task.table)
    device = CompressedBlockDevice(config.device_blocks)
    engine = make_engine(config, device)
    hub = MetricsHub()

    def owned(key: bytes) -> bool:
        token = hash_token(key) if config.partitioning == "hash" else key
        return table.shard_of(token) == task.shard_id

    mine = [op for op in make_shard_workload(task.seed, task.ops) if owned(op[1])]
    applied = 0
    index = 0
    while index < len(mine):
        # A commit window is a run of same-kind ops, batched through the
        # engine's batch API (arrival order within the shard is preserved).
        kind = mine[index][0]
        window = [mine[index]]
        index += 1
        while (
            index < len(mine)
            and mine[index][0] == kind
            and len(window) < _BATCH_SIZE
        ):
            window.append(mine[index])
            index += 1
        before = device.stats.snapshot()
        if kind == "put":
            engine.put_batch([(key, value) for _, key, value in window])
        else:
            engine.delete_batch([key for _, key, _ in window])
        engine.commit()
        hub.record_batch(kind, len(window), device.stats.delta(before))
        applied += len(window)
    final_keys = sum(1 for _ in engine.items())
    traffic = engine.traffic_snapshot()
    stats = device.stats.snapshot()
    # Engine-shape diagnostics (LSM stacks only): integer counters, so the
    # parent can merge them exactly (elementwise / field-wise sums).
    level_shape = (
        engine.level_shape() if hasattr(engine, "level_shape") else None
    )
    vlog = (
        engine.vlog_occupancy() if hasattr(engine, "vlog_occupancy") else None
    )
    engine.close()
    return {
        "shard_id": task.shard_id,
        "ops_applied": applied,
        "final_keys": final_keys,
        "device_stats": stats,
        "traffic": traffic,
        "level_shape": level_shape,
        "vlog": vlog,
        "hub": hub.to_dict(),
    }


@dataclass
class ShardSimResult:
    """Merged view of a sharded run plus the per-shard rows."""

    config: ShardConfig
    ops: int
    seed: int
    jobs: int
    per_shard: List[dict]
    device_stats: DeviceStats
    traffic: TrafficSnapshot
    hub: MetricsHub
    wa: WaReport = field(init=False)

    def __post_init__(self) -> None:
        self.wa = compute_wa(self.traffic)

    def merged_level_shape(self) -> Optional[list]:
        """Elementwise sum of the per-shard level shapes (integer-exact)."""
        shapes = [r["level_shape"] for r in self.per_shard
                  if r.get("level_shape") is not None]
        if not shapes:
            return None
        width = max(len(s) for s in shapes)
        return [sum(s[i] for s in shapes if i < len(s)) for i in range(width)]

    def merged_vlog(self) -> Optional[dict]:
        """Field-wise sum of the per-shard vlog occupancies (integer-exact)."""
        occupancies = [r["vlog"] for r in self.per_shard
                       if r.get("vlog") is not None]
        if not occupancies:
            return None
        merged = {key: sum(occ[key] for occ in occupancies)
                  for key in occupancies[0]}
        merged["live_ratio"] = (
            round(merged["live_bytes"] / merged["data_bytes"], 6)
            if merged["data_bytes"] else 0.0
        )
        return merged

    def as_dict(self) -> dict:
        merged_shape = self.merged_level_shape()
        merged_vlog = self.merged_vlog()
        return {
            "n_shards": self.config.n_shards,
            "partitioning": self.config.partitioning,
            "engine": self.config.engine,
            "ops": self.ops,
            "seed": self.seed,
            "jobs": self.jobs,
            "shards": [
                {
                    "shard": row["shard_id"],
                    "ops_applied": row["ops_applied"],
                    "final_keys": row["final_keys"],
                    "wa_total": compute_wa(row["traffic"]).wa_total,
                    "physical_bytes_written": row[
                        "device_stats"
                    ].physical_bytes_written,
                    "level_shape": row.get("level_shape"),
                    "vlog": row.get("vlog"),
                }
                for row in self.per_shard
            ],
            "merged": {
                "ops_applied": sum(r["ops_applied"] for r in self.per_shard),
                "final_keys": sum(r["final_keys"] for r in self.per_shard),
                "level_shape": merged_shape,
                "vlog": merged_vlog,
                "user_bytes": self.traffic.user_bytes,
                "wa_total": self.wa.wa_total,
                "wa_log": self.wa.wa_log,
                "wa_pg": self.wa.wa_pg,
                "wa_e": self.wa.wa_e,
                "physical_bytes_written": self.device_stats.physical_bytes_written,
                "op_latency": {
                    kind: hist.summary()
                    for kind, hist in sorted(self.hub.op_latency.items())
                },
            },
        }


def run_shard_sim(
    config: ShardConfig,
    ops: int = 400,
    seed: int = 2022,
    jobs: Optional[int] = None,
) -> ShardSimResult:
    """Run the sharded simulation, one pool task per shard, and merge."""
    config.validate()
    if jobs is None:
        jobs = default_jobs()
    table = _initial_table(config)
    tasks = [
        ShardTask(
            shard_id=sid,
            table=table.to_json(),
            n_shards=config.n_shards,
            partitioning=config.partitioning,
            engine=config.engine,
            device_blocks=config.device_blocks,
            engine_options=dict(config.engine_options),
            seed=seed,
            ops=ops,
        )
        for sid in table.shard_ids
    ]
    results = run_tasks(tasks, run_shard_task, jobs=jobs)
    merged_stats = DeviceStats()
    merged_traffic = TrafficSnapshot()
    merged_hub = MetricsHub()
    for row in results:
        merged_stats = merged_stats + row["device_stats"]
        merged_traffic = merged_traffic + row["traffic"]
        merged_hub.merge(MetricsHub.from_dict(row["hub"]))
    return ShardSimResult(
        config=config,
        ops=ops,
        seed=seed,
        jobs=jobs,
        per_shard=results,
        device_stats=merged_stats,
        traffic=merged_traffic,
        hub=merged_hub,
    )


__all__ = [
    "ShardSimResult",
    "ShardTask",
    "make_shard_workload",
    "run_shard_sim",
    "run_shard_task",
]
