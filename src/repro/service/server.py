"""The serving front-end: admission, group commit, deadlines, retry, stalls.

:class:`StorageService` multiplexes many :class:`~repro.service.session.
ClientSession` streams over one engine.  The whole service is a
single-threaded discrete-event simulation — arrivals, queueing, backoff, and
stall waits all run on the shared :class:`~repro.sim.clock.SimClock` — so a
run is a pure function of (engine config, session seeds, fault plan) and
every tail-latency or shed count is exactly reproducible.

The event loop alternates two steps until every session drains:

1. **admit** — round-robin over sessions, moving each due arrival into the
   bounded submission queue or shedding it with a typed
   :class:`~repro.errors.ServiceOverloadError` when the queue is full;
2. **serve one commit window** — wait out any engine write stall, take up to
   ``commit_window`` ops from the queue (expiring those past their
   deadline), apply them through the engines' amortised batch API with
   bounded deterministic-backoff retries around transient faults, then seal
   the window with one ``engine.commit()`` (one WAL flush, and in
   ``group_atomic`` mode one COMMIT marker) and advance simulated time by
   one per-op service interval.

Client-visible semantics match a single caller applying the same global op
order with the same commit cadence — the differential suite proves the
device bytes are identical — while the WAL flush count drops from one per op
to one per window.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Optional

from repro.errors import (
    ConfigError,
    DeadlineExceededError,
    RetryExhaustedError,
    ServiceError,
    ServiceOverloadError,
    TornWriteError,
    TransientIOError,
)
from repro.obs.hist import LatencyHistogram
from repro.service.session import ClientSession, fairness_spread
from repro.service.stats import ServiceStats
from repro.sim.clock import SimClock
from repro.sim.rng import DeterministicRng
from repro.workloads.generator import Op, OpKind


@dataclass
class ServiceConfig:
    """Serving-layer knobs (all times in simulated seconds)."""

    #: Bounded submission queue depth; arrivals beyond it are shed.
    queue_depth: int = 64
    #: Maximum ops coalesced into one group-commit window.
    commit_window: int = 8
    #: Simulated service time of one commit window (matches the workload
    #: runner's per-op interval so single-caller runs are comparable).
    per_op_interval: float = 1.0 / 5000.0
    #: Per-op deadline, measured from the op's arrival time.
    deadline: float = 0.1
    #: Service-level retry budget per op-run for transient faults (each
    #: attempt already carries the engine's own bounded device retries).
    max_retries: int = 4
    #: First backoff delay; doubles per attempt (exponential).
    backoff_base: float = 0.0005
    #: Fraction of each backoff drawn from the seeded RNG (decorrelates
    #: colliding retriers without breaking determinism).
    backoff_jitter: float = 0.25
    #: Stall-wait iterations tolerated before the run is declared wedged.
    max_stall_rounds: int = 1000
    #: Raise the first ServiceOverloadError instead of recording it
    #: (lets callers treat overload as fatal; counters move either way).
    strict_admission: bool = False

    def validate(self) -> None:
        if self.queue_depth < 1 or self.commit_window < 1:
            raise ConfigError("queue_depth/commit_window must be >= 1")
        if self.per_op_interval <= 0 or self.deadline <= 0:
            raise ConfigError("per_op_interval/deadline must be positive")
        if self.max_retries < 0 or self.backoff_base < 0 or self.backoff_jitter < 0:
            raise ConfigError("retry/backoff parameters must be non-negative")
        if self.max_stall_rounds < 1:
            raise ConfigError("max_stall_rounds must be >= 1")


@dataclass
class _Pending:
    """One admitted op waiting in the submission queue."""

    session: ClientSession
    op: Op
    submitted_at: float
    deadline: float


@dataclass
class ServiceReport:
    """Everything measured over one :meth:`StorageService.serve` run."""

    stats: ServiceStats
    n_sessions: int
    elapsed_seconds: float
    #: Per-kind client-visible latency digests (queueing + service time),
    #: each with ``p99`` and ``p999``.
    latency: Dict[str, dict]
    #: Per-session completed-op spread; 0.0 is perfectly fair.
    fairness: float
    per_session_completed: List[int] = field(default_factory=list)

    @property
    def throughput(self) -> float:
        """Acknowledged ops per simulated second."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.stats.completed / self.elapsed_seconds

    def to_dict(self) -> dict:
        return {
            "stats": self.stats.as_dict(),
            "n_sessions": self.n_sessions,
            "elapsed_seconds": self.elapsed_seconds,
            "throughput": self.throughput,
            "latency": self.latency,
            "fairness": self.fairness,
            "per_session_completed": list(self.per_session_completed),
        }


class StorageService:
    """Deterministic multi-client serving front-end over one engine."""

    def __init__(
        self,
        engine,
        clock: SimClock,
        config: Optional[ServiceConfig] = None,
        rng: Optional[DeterministicRng] = None,
        hub=None,
        record_schedule: bool = False,
    ) -> None:
        """``engine`` is any KV engine (BMinusTree / BTreeEngine / LSMEngine)
        sharing ``clock``; ``hub`` is an optional
        :class:`~repro.obs.metrics.MetricsHub` fed one sample per commit
        window (traffic/device cumulative counters plus the service-counter
        window series and queue-depth gauge).

        ``record_schedule`` captures the exact engine-visible call sequence
        (batches, commits, clock advances, ticks) on :attr:`schedule`, so the
        differential suite can replay it through a single sequential caller
        and compare device bytes.
        """
        self.engine = engine
        self.clock = clock
        self.config = config or ServiceConfig()
        self.config.validate()
        self.rng = rng or DeterministicRng(0)
        self.hub = hub
        self.stats = ServiceStats()
        self.latency: Dict[str, LatencyHistogram] = {}
        self.schedule: Optional[List[tuple]] = [] if record_schedule else None
        self._queue: Deque[_Pending] = deque()
        #: Ready-queue for admission: the non-exhausted sessions, in arrival
        #: order.  A session leaves the moment its last op is taken, so an
        #: admit pass costs O(live sessions), not O(all sessions) — with
        #: thousands of mostly-drained sessions the old full scan dominated
        #: serve time.  (Diagnostic, not part of the stats ledger:)
        #: ``admit_session_scans`` counts sessions examined across passes.
        self._active: Optional[List[ClientSession]] = None
        self.admit_session_scans = 0

    # -------------------------------------------------------------- serving

    def serve(self, sessions: List[ClientSession]) -> ServiceReport:
        """Run every session to completion and return the report."""
        started = self.clock.now
        if self.hub is not None:
            # Seed the window series' baseline at t=start so the first
            # window's deltas are counted (the first sample of a
            # WindowedSeries only sets the origin).
            self._sample(started)
        queue = self._queue
        self._active = [s for s in sessions if not s.exhausted]
        while True:
            self._admit_due(sessions)
            if not queue:
                next_arrival = min(
                    (s.next_arrival for s in self._active), default=None
                )
                if next_arrival is None:
                    break  # every op submitted and resolved
                self._advance_to(next_arrival)
                self._tick()
                continue
            self._absorb_stall()
            self._serve_window()
        if self.hub is not None:
            now = self.clock.now
            self.hub.finish(
                now, self.engine.traffic_snapshot(), self.engine.device.stats
            )
            self.hub.finish_service(now, self._service_counters())
        return self._report(sessions, self.clock.now - started)

    # ------------------------------------------------------------ admission

    def _admit_due(self, sessions: List[ClientSession]) -> None:
        """Move due arrivals into the queue, one per session per pass.

        The pass structure is the fairness mechanism: a session that fell
        behind during a stall cannot burst ahead of its peers, because every
        session submits at most one op per round-robin pass.  Passes walk
        the ready-queue of live sessions (``self._active``) in arrival
        order; a session that hands over its last op drops out immediately,
        so drained sessions cost nothing on later passes.
        """
        config = self.config
        queue = self._queue
        now = self.clock.now
        if self._active is None:  # direct call outside serve()
            self._active = [s for s in sessions if not s.exhausted]
        active = self._active
        progressed = True
        while progressed:
            progressed = False
            kept: List[ClientSession] = []
            for session in active:
                self.admit_session_scans += 1
                if session.next_arrival > now:
                    kept.append(session)
                    continue
                arrival = session.next_arrival
                op = session.take_op()
                self.stats.submitted += 1
                progressed = True
                if not session.exhausted:
                    kept.append(session)
                if len(queue) >= config.queue_depth:
                    self._shed(session, op)
                    continue
                queue.append(
                    _Pending(session, op, arrival, arrival + config.deadline)
                )
                self.stats.admitted += 1
            active = kept
        self._active = active
        if len(queue) > self.stats.queue_peak:
            self.stats.queue_peak = len(queue)

    def _shed(self, session: ClientSession, op: Op) -> None:
        """Reject one arrival at admission — typed and counted, never silent."""
        self.stats.shed_overload += 1
        session.stats.shed += 1
        if self.config.strict_admission:
            raise ServiceOverloadError(
                f"queue depth {self.config.queue_depth} exceeded "
                f"(session {session.session_id})"
            )

    # -------------------------------------------------------- stall machine

    def _absorb_stall(self) -> None:
        """Wait (in simulated time) until the engine can absorb writes.

        The engine exposes ``write_stalled`` (LSM: frozen-memtable backlog
        at its limit with a full active memtable; B-tree: WAL ring nearly
        wrapped) and ``stall_relief_at`` (when background work is due).  The
        service advances the clock to the relief point and ticks, repeating
        until the stall clears — admitted work waits, arrivals keep landing
        on the queue and shed once it fills: backpressure, not loss.
        """
        engine = self.engine
        if not engine.write_stalled:
            return
        self.stats.write_stalls += 1
        stalled_at = self.clock.now
        rounds = 0
        while engine.write_stalled:
            rounds += 1
            if rounds > self.config.max_stall_rounds:
                raise ServiceError(
                    "write stall did not clear within "
                    f"{self.config.max_stall_rounds} relief rounds"
                )
            relief = max(
                engine.stall_relief_at(),
                self.clock.now + self.config.per_op_interval,
            )
            self._advance_to(relief)
            self._tick()
        self.stats.stall_seconds += self.clock.now - stalled_at

    # --------------------------------------------------------- commit window

    def _serve_window(self) -> None:
        """Take, apply, and group-commit one window off the queue."""
        config = self.config
        queue = self._queue
        now = self.clock.now
        window: List[_Pending] = []
        while queue and len(window) < config.commit_window:
            pending = queue.popleft()
            if now > pending.deadline:
                self._expire(pending)
                continue
            window.append(pending)
        completed: List[_Pending] = []
        for kind, run in self._coalesce(window):
            if self._apply_run(kind, run):
                completed.extend(run)
        self._commit()
        self.stats.group_commits += 1
        self._advance(config.per_op_interval)
        self._tick()
        done_at = self.clock.now
        for pending in completed:
            self.stats.completed += 1
            pending.session.stats.completed += 1
            self._latency(pending.op.kind.value).record(
                done_at - pending.submitted_at
            )
        self._sample(done_at)

    def _expire(self, pending: _Pending) -> None:
        """Drop one op whose deadline passed in queue — typed and counted."""
        self.stats.deadline_expired += 1
        pending.session.stats.expired += 1
        # The op never touched the engine, so expiry needs no undo; the
        # client-side error is typed for callers that want to raise it.
        pending.session.last_error = DeadlineExceededError(
            f"op waited {self.clock.now - pending.submitted_at:.6f}s, "
            f"deadline was {pending.deadline - pending.submitted_at:.6f}s"
        )

    @staticmethod
    def _coalesce(window: List[_Pending]) -> List[tuple]:
        """Split a window into maximal same-kind runs (PUT/READ batchable)."""
        runs: List[tuple] = []
        for pending in window:
            kind = pending.op.kind
            if runs and runs[-1][0] == kind and kind != OpKind.SCAN:
                runs[-1][1].append(pending)
            else:
                runs.append((kind, [pending]))
        return runs

    def _apply_run(self, kind: OpKind, run: List[_Pending]) -> bool:
        """Apply one same-kind run with bounded deterministic-backoff retry.

        Retrying a whole PUT run is idempotent (same keys, same values);
        READ/SCAN runs have no state to undo.  Each attempt already includes
        the engine's own bounded device retries, so a service-level retry
        only happens after sustained transient faults.
        """
        attempts = 0
        while True:
            try:
                self._apply(kind, run)
                return True
            except (TransientIOError, TornWriteError) as fault:
                self.stats.transient_retries += 1
                attempts += 1
                if attempts > self.config.max_retries:
                    self._fail_run(run, fault)
                    return False
                backoff = self.config.backoff_base * (2 ** (attempts - 1))
                backoff *= 1.0 + self.config.backoff_jitter * self.rng.random()
                self._advance(backoff)

    def _fail_run(self, run: List[_Pending], fault: Exception) -> None:
        """Give up on a run after the retry budget — typed and counted."""
        for pending in run:
            self.stats.retry_exhausted += 1
            pending.session.stats.failed += 1
            pending.session.last_error = RetryExhaustedError(
                f"{self.config.max_retries} service retries exhausted: {fault}"
            )

    def _apply(self, kind: OpKind, run: List[_Pending]) -> None:
        engine = self.engine
        if kind == OpKind.PUT:
            items = [(p.op.key, p.op.value) for p in run]
            if self.schedule is not None:
                self.schedule.append(("put_batch", items))
            engine.put_batch(items)
            if len(run) > 1:
                self.stats.batched_ops += len(run)
        elif kind == OpKind.READ:
            keys = [p.op.key for p in run]
            if self.schedule is not None:
                self.schedule.append(("get_batch", keys))
            engine.get_batch(keys)
            if len(run) > 1:
                self.stats.batched_ops += len(run)
        else:
            op = run[0].op
            if self.schedule is not None:
                self.schedule.append(("scan", op.key, op.scan_length))
            engine.scan(op.key, op.scan_length)

    # ----------------------------------------------------- recorded plumbing

    def _commit(self) -> None:
        if self.schedule is not None:
            self.schedule.append(("commit",))
        self.engine.commit()

    def _tick(self) -> None:
        if self.schedule is not None:
            self.schedule.append(("tick",))
        self.engine.tick()

    def _advance(self, seconds: float) -> None:
        if self.schedule is not None:
            self.schedule.append(("advance", seconds))
        self.clock.advance(seconds)

    def _advance_to(self, deadline: float) -> None:
        if self.schedule is not None:
            self.schedule.append(("advance_to", deadline))
        self.clock.advance_to(deadline)

    # ------------------------------------------------------------ reporting

    def _latency(self, kind: str) -> LatencyHistogram:
        hist = self.latency.get(kind)
        if hist is None:
            hist = self.latency[kind] = LatencyHistogram()
        return hist

    def _service_counters(self) -> Dict[str, float]:
        """Cumulative counter view fed to the hub's service window series."""
        return {
            "completed": self.stats.completed,
            "shed_overload": self.stats.shed_overload,
            "deadline_expired": self.stats.deadline_expired,
            "transient_retries": self.stats.transient_retries,
            "write_stalls": self.stats.write_stalls,
            "stall_seconds": self.stats.stall_seconds,
        }

    def _sample(self, t: float) -> None:
        hub = self.hub
        if hub is None:
            return
        hub.sample(t, self.engine.traffic_snapshot(), self.engine.device.stats)
        hub.sample_service(
            t, self._service_counters(), queue_depth=len(self._queue)
        )

    def _report(
        self, sessions: List[ClientSession], elapsed: float
    ) -> ServiceReport:
        latency = {}
        for kind, hist in sorted(self.latency.items()):
            digest = hist.summary()
            digest["p999"] = hist.quantile(0.999)
            latency[kind] = digest
        return ServiceReport(
            stats=self.stats,
            n_sessions=len(sessions),
            elapsed_seconds=elapsed,
            latency=latency,
            fairness=fairness_spread(sessions),
            per_session_completed=[s.stats.completed for s in sessions],
        )
