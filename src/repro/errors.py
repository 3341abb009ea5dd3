"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so callers
can catch library failures with a single ``except`` clause while still being
able to distinguish device-level, tree-level, and log-level faults.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class DeviceError(ReproError):
    """Base class for block-device failures."""


class OutOfRangeError(DeviceError):
    """An I/O request addressed an LBA outside the device's logical span."""


class AlignmentError(DeviceError):
    """An I/O request was not aligned to the device block size."""


class CapacityError(DeviceError):
    """The device ran out of physical capacity (thin provisioning overcommit)."""


class TornWriteError(DeviceError):
    """A multi-block write was only partially persisted (torn write).

    Raised by the fault-injection layer when a write request tears: a strict
    prefix of the request's 4KB blocks reached the device before the fault.
    Each block is individually atomic, so callers may retry the whole request
    (block writes are idempotent) — see the pager's bounded-retry path.
    """


class TransientIOError(DeviceError):
    """A read/write request failed transiently (media retry, link reset).

    The operation had no effect; retrying the identical request is expected
    to succeed.  Injected by :class:`repro.csd.faults.FaultInjectingDevice`
    and absorbed by the consumers' bounded-retry helpers.
    """


class FaultInjectionError(DeviceError):
    """A fault-injection plan is invalid or was used incorrectly."""


class SimulatedCrashError(DeviceError):
    """Control-flow signal: a scripted crash point fired.

    The fault-injecting device already applied the crash semantics (pending
    writes dropped or partially applied) before raising; the test harness
    catches this and proceeds to recovery.
    """


class ChecksumError(ReproError):
    """A page failed checksum verification when loaded from storage."""


class PageError(ReproError):
    """Base class for page-format violations."""


class PageFullError(PageError):
    """A record does not fit into the target page; the caller must split."""


class PageFormatError(PageError):
    """A page image is structurally invalid (bad magic, offsets, or slots)."""


class TreeError(ReproError):
    """Base class for B+-tree structural failures."""


class KeyNotFoundError(TreeError, KeyError):
    """A lookup or delete referenced a key that is not present."""


class RecoveryError(ReproError):
    """Crash recovery could not reconstruct a consistent state."""


class ReadRepairError(RecoveryError):
    """A self-healing read-repair attempt itself failed.

    Raised when a corrupt shadow slot was detected, a healthy sibling was
    available to serve the read, but rewriting the corrupt slot failed even
    after bounded retries — the store is readable but could not be scrubbed.
    """


class WalError(ReproError):
    """The write-ahead log is corrupt or was used incorrectly."""


class LsmError(ReproError):
    """Base class for LSM-tree failures."""


class CompactionError(LsmError):
    """A compaction produced an inconsistent level layout."""


class ConfigError(ReproError, ValueError):
    """An engine, component, or experiment received invalid parameters.

    Also a :class:`ValueError`: parameter validation is what ``ValueError``
    means in Python, and the dual inheritance lets the public API keep the
    everything-is-a-``ReproError`` contract (the ERR010 lint rule) without
    breaking callers that idiomatically catch ``ValueError``.
    """


class ServiceError(ReproError):
    """Base class for serving-layer (multi-client front-end) failures."""


class ServiceOverloadError(ServiceError):
    """An operation was shed by admission control (submission queue full).

    Graceful-degradation signal: the op was rejected *before* touching the
    engine, so no partial state exists; the client may back off and resubmit.
    Every shed is counted on :class:`repro.service.ServiceStats` — the
    serving layer never drops work silently.
    """


class DeadlineExceededError(ServiceError):
    """An admitted operation expired in queue before its commit window.

    The op was never applied to the engine (deadlines are checked before
    execution), so expiry is exact-once: either a result or this error.
    """


class RetryExhaustedError(ServiceError):
    """Transient faults persisted past the service's bounded retry budget.

    The engine's own bounded retries (``csd.faults.RETRY_ATTEMPTS``) were
    exhausted on every service-level attempt; the op's effect is not
    acknowledged and the failure is counted, never swallowed.
    """
