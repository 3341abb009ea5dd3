"""Programmable fault injection for the simulated block devices.

:class:`FaultInjectingDevice` composes over any :class:`~repro.csd.device.
BlockDevice` and injects the failure modes real drives exhibit but clean
power-cut simulation never exercises:

* **transient I/O errors** — a read or write fails with
  :class:`~repro.errors.TransientIOError` and has no effect; an identical
  retry succeeds (media retries, link resets);
* **torn multi-block writes** — a strict prefix of the request's 4KB blocks
  lands, then :class:`~repro.errors.TornWriteError` is raised (power blip
  mid-request; each block stays individually atomic);
* **read corruption (transient)** — the returned buffer is corrupted but the
  stored data is intact; a re-read returns clean data (bus/DRAM flips);
* **latent sector corruption (persistent)** — a stored block silently rots
  and every read returns the corrupted bytes until the block is rewritten or
  TRIMmed (the rewrite *is* the repair, which makes shadow-slot read-repair
  observable end to end);
* **dropped TRIMs** — the deallocate command is lost before reaching the
  device, leaving stale data behind;
* **misdirected writes** — the payload lands on a neighbouring LBA without
  any error surfacing (firmware addressing bug);
* **scripted crash points** — at an exact operation index, apply power-cut
  semantics to the inner device and raise
  :class:`~repro.errors.SimulatedCrashError` (the systematic crash-point
  scheduler in :mod:`repro.bench.faultcheck` is built on this).

All probabilistic decisions come from one seeded RNG, so a
``(FaultPlan, workload)`` pair replays bit-identically.  Injection is
accounted in :class:`InjectionStats`; what the *consumers* detected and
repaired is accounted separately in :class:`repro.metrics.faults.FaultStats`.

The module also hosts the bounded-retry helpers the storage engine uses to
survive transient faults (`read_block_retrying` & friends).  Backoff in the
simulation is logical — attempts are bounded and counted, no wall-clock
sleeping — which preserves determinism while modelling the "retry a few
times, then surface the error" discipline of production I/O stacks.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Protocol, Sequence, TypeVar

from repro.csd.device import BLOCK_SIZE, BlockDevice
from repro.csd.compression import BytesLike
from repro.metrics.faults import FaultStats
from repro.errors import (
    DeviceError,
    FaultInjectionError,
    SimulatedCrashError,
    TornWriteError,
    TransientIOError,
)

#: Bounded-backoff budget: how many times a consumer re-issues a request
#: that failed with a transient fault before surfacing the error.
RETRY_ATTEMPTS = 6

#: Fault kinds a :class:`ScriptedFault` may name.
SCRIPTED_KINDS = (
    "transient-read",
    "transient-write",
    "torn-write",
    "read-corruption",
    "corrupt",
    "drop-trim",
    "misdirect",
    "crash",
)

#: Crash modes: drop all pending writes, keep them all (crash right after an
#: implicit sync), or let each pending 4KB block survive independently (torn).
CRASH_MODES = ("drop", "keep", "torn")


@dataclass(frozen=True)
class ScriptedFault:
    """One deterministic fault, pinned to an exact device-operation index.

    ``op_index`` counts every I/O call (reads, writes, TRIMs, flushes) the
    wrapper sees, starting at 0.  The fault fires when the matching call kind
    reaches that index; ``crash`` fires on any mutation (write/TRIM/flush).
    """

    op_index: int
    kind: str
    #: Target LBA for ``corrupt`` (required there, ignored elsewhere).
    lba: Optional[int] = None
    #: Crash mode for ``crash`` (see :data:`CRASH_MODES`).
    mode: str = "drop"
    #: Fire at this many *consecutive* operation indices starting at
    #: ``op_index``.  A run longer than the consumers' bounded retry budget
    #: (:data:`RETRY_ATTEMPTS`) is how tests force a transient fault past the
    #: engine's internal retries and up to the serving layer.
    repeat: int = 1


@dataclass
class FaultPlan:
    """A seeded, programmable fault schedule.

    Rates are per-eligible-operation probabilities in ``[0, 1]`` drawn from
    the plan's own RNG; ``scripted`` faults fire at exact operation indices
    regardless of the rates.  ``max_faults`` caps the number of probabilistic
    faults injected (scripted faults are never capped).
    """

    seed: int = 0
    #: P(read request fails transiently).
    transient_read_rate: float = 0.0
    #: P(write request fails transiently, nothing applied).
    transient_write_rate: float = 0.0
    #: P(multi-block write tears: strict prefix applied, TornWriteError).
    torn_write_rate: float = 0.0
    #: P(returned read buffer corrupted; stored data intact).
    read_corruption_rate: float = 0.0
    #: P(block develops persistent latent corruption when read).
    latent_corruption_rate: float = 0.0
    #: P(TRIM command silently lost).
    dropped_trim_rate: float = 0.0
    #: P(single-block write lands on a neighbouring LBA, no error).
    misdirected_write_rate: float = 0.0
    #: Cap on probabilistic faults (None = unlimited).
    max_faults: Optional[int] = None
    scripted: Sequence[ScriptedFault] = field(default_factory=tuple)

    def validate(self) -> None:
        """Raise :class:`FaultInjectionError` on an unusable plan."""
        for name in (
            "transient_read_rate", "transient_write_rate", "torn_write_rate",
            "read_corruption_rate", "latent_corruption_rate",
            "dropped_trim_rate", "misdirected_write_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise FaultInjectionError(f"{name}={rate} outside [0, 1]")
        if self.max_faults is not None and self.max_faults < 0:
            raise FaultInjectionError("max_faults must be non-negative")
        for fault in self.scripted:
            if fault.kind not in SCRIPTED_KINDS:
                raise FaultInjectionError(
                    f"unknown scripted fault kind {fault.kind!r}; "
                    f"choose from {SCRIPTED_KINDS}"
                )
            if fault.op_index < 0:
                raise FaultInjectionError("scripted op_index must be >= 0")
            if fault.repeat < 1:
                raise FaultInjectionError("scripted repeat must be >= 1")
            if fault.kind == "corrupt" and fault.lba is None:
                raise FaultInjectionError("scripted 'corrupt' fault needs an lba")
            if fault.kind == "crash" and fault.mode not in CRASH_MODES:
                raise FaultInjectionError(
                    f"unknown crash mode {fault.mode!r}; choose from {CRASH_MODES}"
                )


@dataclass
class InjectionStats:
    """What the fault-injecting device actually did to the I/O stream."""

    transient_reads: int = 0
    transient_writes: int = 0
    torn_writes: int = 0
    read_corruptions: int = 0
    latent_corruptions: int = 0
    dropped_trims: int = 0
    misdirected_writes: int = 0
    crashes: int = 0

    @property
    def total(self) -> int:
        """All faults injected (crashes included)."""
        return (
            self.transient_reads + self.transient_writes + self.torn_writes
            + self.read_corruptions + self.latent_corruptions
            + self.dropped_trims + self.misdirected_writes + self.crashes
        )

    def as_dict(self) -> dict:
        """Plain-dict view (for the ``repro faultcheck`` JSON report)."""
        out = {
            name: getattr(self, name)
            for name in (
                "transient_reads", "transient_writes", "torn_writes",
                "read_corruptions", "latent_corruptions", "dropped_trims",
                "misdirected_writes", "crashes",
            )
        }
        out["total"] = self.total
        return out


class FaultInjectingDevice:
    """A :class:`~repro.csd.device.BlockDevice` wrapper that injects faults.

    Everything not intercepted here (stats, FTL, capacity accounting, crash
    simulation) is delegated to the wrapped device, so the wrapper is a
    drop-in replacement anywhere a device is accepted.

    Persistent latent corruption is modelled as an XOR mask per LBA applied
    on the read path; a write or TRIM covering the LBA clears the mask — the
    rewrite *heals* the sector, exactly how read-repair fixes latent errors
    on real media.  Masks survive :meth:`simulate_crash` (bit rot does not
    care about power cycles).
    """

    def __init__(
        self,
        inner: BlockDevice,
        plan: Optional[FaultPlan] = None,
        record_ops: bool = False,
    ) -> None:
        plan = plan if plan is not None else FaultPlan()
        plan.validate()
        self.inner = inner
        self.plan = plan
        self.injected = InjectionStats()
        self._rng = random.Random(plan.seed)
        self._masks: dict[int, bytes] = {}
        self._op_index = 0
        self._budget = plan.max_faults
        self._scripted: dict[int, ScriptedFault] = {
            fault.op_index + offset: fault
            for fault in plan.scripted
            for offset in range(fault.repeat)
        }
        #: Operation trace ``(kind, lba, count)`` when ``record_ops`` is set;
        #: the crash-point scheduler profiles a run through this.
        self.op_log: Optional[list[tuple[str, int, int]]] = [] if record_ops else None

    # --------------------------------------------------------------- plumbing

    def __getattr__(self, name: str) -> Any:
        # Fall through to the wrapped device for everything not intercepted
        # (num_blocks, block_size, stats, ftl, physical_bytes_used, ...).
        return getattr(self.inner, name)

    def _next_op(self, kind: str, lba: int, count: int) -> Optional[ScriptedFault]:
        index = self._op_index
        self._op_index += 1
        if self.op_log is not None:
            self.op_log.append((kind, lba, count))
        return self._scripted.pop(index, None)

    def _roll(self, rate: float) -> bool:
        if rate <= 0.0:
            return False
        if self._budget is not None and self._budget <= 0:
            return False
        if self._rng.random() >= rate:
            return False
        if self._budget is not None:
            self._budget -= 1
        return True

    def _corruption_mask(self) -> bytes:
        """A sparse, never-zero XOR mask over one 4KB block (a burst error)."""
        mask = bytearray(BLOCK_SIZE)
        start = self._rng.randrange(BLOCK_SIZE - 32)
        for i in range(start, start + 16):
            mask[i] = self._rng.randrange(1, 256)
        return bytes(mask)

    def _apply_mask(self, lba: int, data: bytes) -> bytes:
        mask = self._masks.get(lba)
        if mask is None:
            return data
        return bytes(a ^ b for a, b in zip(data, mask))

    def _clear_masks(self, lba: int, count: int) -> None:
        for i in range(lba, lba + count):
            self._masks.pop(i, None)

    def _crash(self, mode: str) -> None:
        self.injected.crashes += 1
        if mode == "keep":
            self.inner.simulate_crash(survives=lambda lba: True)
        elif mode == "torn":
            self.inner.simulate_crash(keep_torn=self._rng.randrange(1 << 30))
        else:
            self.inner.simulate_crash()
        raise SimulatedCrashError(
            f"scripted crash ({mode}) at device operation {self._op_index - 1}"
        )

    # ------------------------------------------------------------------- I/O

    def write_block(self, lba: int, data: BytesLike) -> int:
        """Write one block, subject to crash/transient/misdirect faults."""
        fault = self._next_op("write", lba, 1)
        if fault is not None and fault.kind == "crash":
            self._crash(fault.mode)
        if (fault is not None and fault.kind == "transient-write") or (
            fault is None and self._roll(self.plan.transient_write_rate)
        ):
            self.injected.transient_writes += 1
            raise TransientIOError(f"transient write fault at LBA {lba}")
        if (fault is not None and fault.kind == "misdirect") or (
            fault is None and self._roll(self.plan.misdirected_write_rate)
        ):
            self.injected.misdirected_writes += 1
            target = lba + 1 if lba + 1 < self.inner.num_blocks else lba - 1
            physical = self.inner.write_block(target, data)
            self._clear_masks(target, 1)
            return physical
        physical = self.inner.write_block(lba, data)
        self._clear_masks(lba, 1)
        return physical

    def write_blocks(self, lba: int, data: BytesLike) -> int:
        """Write a run of blocks; may tear (prefix applied, then raises)."""
        count = len(data) // BLOCK_SIZE
        fault = self._next_op("write", lba, count)
        if fault is not None and fault.kind == "crash":
            self._crash(fault.mode)
        if (fault is not None and fault.kind == "transient-write") or (
            fault is None and self._roll(self.plan.transient_write_rate)
        ):
            self.injected.transient_writes += 1
            raise TransientIOError(f"transient write fault at LBA {lba}")
        torn = (fault is not None and fault.kind == "torn-write") or (
            fault is None
            and count > 1
            and self._roll(self.plan.torn_write_rate)
        )
        if torn and count > 1:
            self.injected.torn_writes += 1
            applied = self._rng.randrange(0, count)  # strict prefix, may be 0
            if applied:
                self.inner.write_blocks(lba, data[: applied * BLOCK_SIZE])
                self._clear_masks(lba, applied)
            raise TornWriteError(
                f"write of {count} blocks at LBA {lba} tore after "
                f"{applied} block(s)"
            )
        physical = self.inner.write_blocks(lba, data)
        self._clear_masks(lba, count)
        return physical

    def read_block(self, lba: int) -> bytes:
        """Read one block, subject to transient faults and corruption."""
        fault = self._next_op("read", lba, 1)
        if (fault is not None and fault.kind == "transient-read") or (
            fault is None and self._roll(self.plan.transient_read_rate)
        ):
            self.injected.transient_reads += 1
            raise TransientIOError(f"transient read fault at LBA {lba}")
        if fault is None and self._roll(self.plan.latent_corruption_rate):
            self._corrupt(lba)
        data = self._apply_mask(lba, self.inner.read_block(lba))
        if (fault is not None and fault.kind == "read-corruption") or (
            fault is None and self._roll(self.plan.read_corruption_rate)
        ):
            self.injected.read_corruptions += 1
            data = bytes(a ^ b for a, b in zip(data, self._corruption_mask()))
        return data

    def read_blocks(self, lba: int, count: int) -> bytes:
        """Read a run of blocks as one request (fault semantics as above)."""
        fault = self._next_op("read", lba, count)
        if (fault is not None and fault.kind == "transient-read") or (
            fault is None and self._roll(self.plan.transient_read_rate)
        ):
            self.injected.transient_reads += 1
            raise TransientIOError(f"transient read fault at LBA {lba}")
        if fault is None and self._roll(self.plan.latent_corruption_rate):
            self._corrupt(lba + self._rng.randrange(count))
        raw = self.inner.read_blocks(lba, count)
        if any(lba + i in self._masks for i in range(count)):
            raw = b"".join(
                self._apply_mask(lba + i, raw[i * BLOCK_SIZE : (i + 1) * BLOCK_SIZE])
                for i in range(count)
            )
        if (fault is not None and fault.kind == "read-corruption") or (
            fault is None and self._roll(self.plan.read_corruption_rate)
        ):
            self.injected.read_corruptions += 1
            victim = self._rng.randrange(count)
            mask = self._corruption_mask()
            chunk = raw[victim * BLOCK_SIZE : (victim + 1) * BLOCK_SIZE]
            raw = (
                raw[: victim * BLOCK_SIZE]
                + bytes(a ^ b for a, b in zip(chunk, mask))
                + raw[(victim + 1) * BLOCK_SIZE :]
            )
        return raw

    def trim(self, lba: int, count: int = 1) -> None:
        """Deallocate blocks — unless the TRIM command is dropped."""
        fault = self._next_op("trim", lba, count)
        if fault is not None and fault.kind == "crash":
            self._crash(fault.mode)
        if (fault is not None and fault.kind == "drop-trim") or (
            fault is None and self._roll(self.plan.dropped_trim_rate)
        ):
            self.injected.dropped_trims += 1
            return
        self.inner.trim(lba, count)
        self._clear_masks(lba, count)

    def flush(self) -> None:
        """Durability barrier (crash points may fire here)."""
        fault = self._next_op("flush", -1, 0)
        if fault is not None and fault.kind == "crash":
            self._crash(fault.mode)
        self.inner.flush()

    def simulate_crash(
        self,
        survives: Optional[Callable[[int], bool]] = None,
        keep_torn: Optional[int] = None,
    ) -> list[int]:
        """Power-cut the wrapped device; latent corruption masks survive."""
        return self.inner.simulate_crash(survives=survives, keep_torn=keep_torn)

    # -------------------------------------------------------- targeted faults

    def _corrupt(self, lba: int) -> None:
        self.injected.latent_corruptions += 1
        self._masks[lba] = self._corruption_mask()

    def corrupt_stable(self, lba: int, count: int = 1) -> None:
        """Install persistent latent corruption on ``count`` blocks.

        Every subsequent read of these LBAs returns flipped bytes until a
        write or TRIM covers them (the rewrite heals the sector).  Used by
        targeted read-repair campaigns and tests.
        """
        if lba < 0 or lba + count > self.inner.num_blocks:
            raise FaultInjectionError(
                f"corruption target [{lba}, {lba + count}) outside device span"
            )
        for i in range(lba, lba + count):
            self._corrupt(i)

    @property
    def corrupted_lbas(self) -> list[int]:
        """LBAs currently carrying an unhealed latent-corruption mask."""
        return sorted(self._masks)


# --------------------------------------------------------------------------
# Bounded-retry helpers (the consumer side of transient-fault survival).
# --------------------------------------------------------------------------


_T = TypeVar("_T")


class _RetryableDevice(Protocol):
    """The I/O surface the bounded-retry helpers drive.

    Satisfied structurally by :class:`~repro.csd.device.BlockDevice`
    subclasses and by :class:`FaultInjectingDevice` (which is a wrapper,
    not a subclass).
    """

    def read_block(self, lba: int) -> bytes: ...

    def read_blocks(self, lba: int, count: int) -> bytes: ...

    def write_block(self, lba: int, data: BytesLike) -> int: ...

    def write_blocks(self, lba: int, data: BytesLike) -> int: ...

    def trim(self, lba: int, count: int = 1) -> None: ...


def _retrying(
    fault: DeviceError,
    op: Callable[..., _T],
    args: tuple[Any, ...],
    stats: Optional[FaultStats],
    attempts: int,
    writes: bool,
) -> _T:
    """Take over from a first ``op(*args)`` that raised ``fault``: count
    it, then re-issue ``op`` on transient (and, for writes, torn) faults
    until it succeeds or ``attempts`` issues in all have failed, bumping
    the matching counters on ``stats`` (optional).

    The helpers below issue the first attempt themselves, a direct call of
    the device method, so an I/O that succeeds costs no more than that call.
    Block writes are idempotent and the pending journal is last-write-wins,
    so re-issuing a torn or failed request is always safe.  Exhausting the
    attempt budget re-raises the last fault to the caller.
    """
    for remaining in range(attempts - 1, -1, -1):
        if isinstance(fault, TornWriteError):
            if not writes:
                raise fault
            if stats is not None:
                stats.torn_write_retries += 1
        elif stats is not None:
            if writes:
                stats.transient_write_retries += 1
            else:
                stats.transient_read_retries += 1
        if not remaining:
            raise fault
        try:
            return op(*args)
        except (TransientIOError, TornWriteError) as again:
            fault = again
    raise fault


def read_block_retrying(
    device: _RetryableDevice,
    lba: int,
    stats: Optional[FaultStats] = None,
    attempts: int = RETRY_ATTEMPTS,
) -> bytes:
    """``device.read_block`` with bounded transient-fault retries."""
    try:
        return device.read_block(lba)
    except (TransientIOError, TornWriteError) as fault:
        return _retrying(fault, device.read_block, (lba,), stats, attempts, False)


def read_blocks_retrying(
    device: _RetryableDevice,
    lba: int,
    count: int,
    stats: Optional[FaultStats] = None,
    attempts: int = RETRY_ATTEMPTS,
) -> bytes:
    """``device.read_blocks`` with bounded transient-fault retries."""
    try:
        return device.read_blocks(lba, count)
    except (TransientIOError, TornWriteError) as fault:
        return _retrying(
            fault, device.read_blocks, (lba, count), stats, attempts, False
        )


def write_block_retrying(
    device: _RetryableDevice,
    lba: int,
    data: BytesLike,
    stats: Optional[FaultStats] = None,
    attempts: int = RETRY_ATTEMPTS,
) -> int:
    """``device.write_block`` with bounded transient-fault retries."""
    try:
        return device.write_block(lba, data)
    except (TransientIOError, TornWriteError) as fault:
        return _retrying(fault, device.write_block, (lba, data), stats, attempts, True)


def write_blocks_retrying(
    device: _RetryableDevice,
    lba: int,
    data: BytesLike,
    stats: Optional[FaultStats] = None,
    attempts: int = RETRY_ATTEMPTS,
) -> int:
    """``device.write_blocks`` with bounded transient/torn-write retries."""
    try:
        return device.write_blocks(lba, data)
    except (TransientIOError, TornWriteError) as fault:
        return _retrying(fault, device.write_blocks, (lba, data), stats, attempts, True)


def trim_retrying(
    device: _RetryableDevice,
    lba: int,
    count: int = 1,
    stats: Optional[FaultStats] = None,
    attempts: int = RETRY_ATTEMPTS,
) -> None:
    """``device.trim`` with bounded transient-fault retries.

    A *dropped* TRIM is silent by nature and cannot be retried; this only
    absorbs transient command failures.
    """
    try:
        device.trim(lba, count)
    except (TransientIOError, TornWriteError) as fault:
        _retrying(fault, device.trim, (lba, count), stats, attempts, True)


__all__ = [
    "CRASH_MODES",
    "FaultInjectingDevice",
    "FaultPlan",
    "InjectionStats",
    "RETRY_ATTEMPTS",
    "SCRIPTED_KINDS",
    "ScriptedFault",
    "read_block_retrying",
    "read_blocks_retrying",
    "trim_retrying",
    "write_block_retrying",
    "write_blocks_retrying",
]
