"""Workload execution: client threads, group commit, background pacing.

The paper drives each engine with 1-16 client threads.  Real threads would
make a Python simulation slow and nondeterministic, so the runner models
them the way they matter to the measured quantities (DESIGN.md §3):

* **Interleaving** — each simulated thread owns an independent op stream;
  the runner executes one op per thread per *round*, round-robin.
* **Group commit** — all commits of a round share one log flush: the runner
  calls ``engine.commit()`` once per round, so under the per-commit flush
  policy, ``n_threads`` transactions ride each flush (Fig. 11's mechanism).
* **Time scaling** — a round of ``n_threads`` concurrent ops advances the
  simulated clock by one per-op service interval, so ops-per-simulated-
  second scales with the thread count.  Clock-driven work (the per-minute
  log flush, checkpoints) therefore amortises over proportionally more
  operations at higher concurrency — the paper's flush-coalescing effect.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

from repro.csd.device import BlockDevice
from repro.errors import ConfigError
from repro.csd.stats import DeviceStats
from repro.metrics.counters import TrafficSnapshot, WaReport, compute_wa
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.generator import (
    Op,
    OpKind,
    point_read_ops,
    put_ops,
    random_write_ops,
    range_scan_ops,
)
from repro.workloads.records import KeySpace


@dataclass
class PhaseStats:
    """Everything measured over one workload phase."""

    ops: int = 0
    puts: int = 0
    reads: int = 0
    scans: int = 0
    records_scanned: int = 0
    elapsed_seconds: float = 0.0
    traffic: TrafficSnapshot = field(default_factory=TrafficSnapshot)
    device: DeviceStats = field(default_factory=DeviceStats)

    def wa(self) -> WaReport:
        return compute_wa(self.traffic)


class WorkloadRunner:
    """Drives one engine with simulated client threads."""

    def __init__(
        self,
        engine,
        device: BlockDevice,
        clock: SimClock,
        n_threads: int = 1,
        per_op_interval: float = 1.0 / 5000.0,
        hub=None,
    ) -> None:
        """``per_op_interval`` is the simulated service time of one operation
        on one client thread (default 200µs, a plausible per-thread closed-
        loop latency; only the *relative* op rate across thread counts
        affects results).

        ``hub`` is an optional :class:`repro.obs.metrics.MetricsHub`: when
        set, every operation's modelled latency is recorded and cumulative
        traffic/device counters are sampled once per round for the windowed
        WA series.  The hub only *observes* engine and device counters — it
        never touches the device or the clock, so running with a hub leaves
        all measured results bit-identical."""
        if n_threads < 1:
            raise ConfigError("need at least one client thread")
        self.engine = engine
        self.device = device
        self.clock = clock
        self.n_threads = n_threads
        self.per_op_interval = per_op_interval
        self.hub = hub

    # ------------------------------------------------------------- phases

    def populate(self, keyspace: KeySpace, rng: DeterministicRng) -> PhaseStats:
        """Load every record once, in fully random order (§4.1)."""
        order = list(range(keyspace.n_records))
        rng.shuffle(order)
        return self._execute(put_ops(keyspace, order, rng), keyspace.n_records)

    def run_random_writes(
        self, keyspace: KeySpace, n_ops: int, rng: DeterministicRng
    ) -> PhaseStats:
        return self._execute(self._interleaved(random_write_ops, keyspace, rng), n_ops)

    def run_point_reads(
        self, keyspace: KeySpace, n_ops: int, rng: DeterministicRng
    ) -> PhaseStats:
        return self._execute(self._interleaved(point_read_ops, keyspace, rng), n_ops)

    def run_zipfian_writes(
        self, keyspace: KeySpace, n_ops: int, rng: DeterministicRng,
        theta: float = 0.99, scattered: bool = False,
    ) -> PhaseStats:
        """Skewed random updates (YCSB-style Zipf; see repro.workloads.zipf)."""
        from repro.workloads.zipf import scattered_zipfian_write_ops, zipfian_write_ops

        factory = scattered_zipfian_write_ops if scattered else zipfian_write_ops
        streams = [
            factory(keyspace, rng.split("thread", t), theta)
            for t in range(self.n_threads)
        ]
        return self._execute(self._round_robin(streams), n_ops)

    def run_range_scans(
        self, keyspace: KeySpace, n_ops: int, rng: DeterministicRng,
        scan_length: int = 100,
    ) -> PhaseStats:
        streams = [
            range_scan_ops(keyspace, rng.split("thread", t), scan_length)
            for t in range(self.n_threads)
        ]
        return self._execute(self._round_robin(streams), n_ops)

    # ----------------------------------------------------------- internals

    def _interleaved(self, factory, keyspace: KeySpace, rng: DeterministicRng):
        streams = [
            factory(keyspace, rng.split("thread", t)) for t in range(self.n_threads)
        ]
        return self._round_robin(streams)

    @staticmethod
    def _round_robin(streams: list) -> Iterator[Op]:
        while True:
            for stream in streams:
                yield next(stream)

    def _execute(self, ops: Iterator[Op], n_ops: int) -> PhaseStats:
        stats = PhaseStats()
        traffic_before = self.engine.traffic_snapshot()
        device_before = self.device.stats.snapshot()
        clock_before = self.clock.now
        hub = self.hub
        if hub is not None:
            hub.sample(clock_before, traffic_before, self.device.stats)
        in_round = 0
        for _ in range(n_ops):
            op = next(ops)
            if hub is None:
                self._apply(op, stats)
            else:
                op_before = self.device.stats.snapshot()
                self._apply(op, stats)
                hub.record_batch(
                    op.kind.value, 1, self.device.stats.delta(op_before)
                )
            stats.ops += 1
            in_round += 1
            if in_round >= self.n_threads:
                # One round of concurrent client commits: group commit, then
                # advance simulated time by a single per-op service interval.
                self.engine.commit()
                self.clock.advance(self.per_op_interval)
                self.engine.tick()
                in_round = 0
                if hub is not None:
                    hub.sample(self.clock.now, self.engine.traffic_snapshot(),
                               self.device.stats)
        if in_round:
            self.engine.commit()
            self.clock.advance(self.per_op_interval)
            self.engine.tick()
        if hub is not None:
            hub.sample(self.clock.now, self.engine.traffic_snapshot(),
                       self.device.stats)
        stats.elapsed_seconds = self.clock.now - clock_before
        stats.traffic = self.engine.traffic_snapshot().delta(traffic_before)
        stats.device = self.device.stats.delta(device_before)
        return stats

    def _apply(self, op: Op, stats: PhaseStats) -> None:
        if op.kind == OpKind.PUT:
            self.engine.put(op.key, op.value)
            stats.puts += 1
        elif op.kind == OpKind.READ:
            self.engine.get(op.key)
            stats.reads += 1
        else:
            got = self.engine.scan(op.key, op.scan_length)
            stats.scans += 1
            stats.records_scanned += len(got)
