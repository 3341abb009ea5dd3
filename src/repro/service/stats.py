"""Serving-layer accounting: the zero-silent-drops ledger.

:class:`ServiceStats` counts what the serving front-end did with every
operation a client submitted — admitted, completed, shed by admission
control, expired in queue, retried, or failed after the retry budget — plus
the group-commit and write-stall activity behind them.  The counters form a
closed ledger: :meth:`ServiceStats.unaccounted` is zero on every run, which
is how tests (and the ``repro serve-sim`` CLI) prove graceful degradation
never turned into silent loss.
"""

from __future__ import annotations

from dataclasses import dataclass, fields


@dataclass
class ServiceStats:
    """Cumulative serving-layer counters (one instance per service)."""

    #: Client operations that reached admission control.
    submitted: int = 0
    #: Operations accepted into the bounded submission queue.
    admitted: int = 0
    #: Operations applied and acknowledged (the only success counter).
    completed: int = 0
    #: Operations rejected at admission because the queue was full
    #: (each surfaced as a typed ``ServiceOverloadError``).
    shed_overload: int = 0
    #: Admitted operations that expired in queue before their commit window
    #: (each surfaced as a typed ``DeadlineExceededError``).
    deadline_expired: int = 0
    #: Transient-fault retry attempts made by the service (each after the
    #: engine's own bounded retries were exhausted once).
    transient_retries: int = 0
    #: Operations failed after the service's full retry budget
    #: (each surfaced as a typed ``RetryExhaustedError``).
    retry_exhausted: int = 0
    #: Commit windows sealed (one WAL flush each — the group-commit count).
    group_commits: int = 0
    #: Operations applied through the engines' amortised batch API.
    batched_ops: int = 0
    #: Write-stall episodes absorbed before applying a window.
    write_stalls: int = 0
    #: Simulated seconds spent waiting out write stalls.
    stall_seconds: float = 0.0
    #: Submission-queue high watermark (gauge, not a flow counter).
    queue_peak: int = 0

    def unaccounted(self) -> int:
        """Operations not covered by the ledger — zero on every run.

        Every submitted op must be admitted or shed, and every admitted op
        must complete, expire, or exhaust its retries.  A nonzero value
        means the service dropped work silently, which the test suite treats
        as a hard failure.
        """
        return (self.submitted - self.admitted - self.shed_overload) + (
            self.admitted - self.completed - self.deadline_expired - self.retry_exhausted
        )

    def as_dict(self) -> dict:
        """Plain-dict view (for the ``repro serve-sim --json`` report)."""
        out = {f.name: getattr(self, f.name) for f in fields(self)}
        out["unaccounted"] = self.unaccounted()
        return out
