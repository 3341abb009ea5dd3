"""The resilient multi-client serving layer.

A deterministic front-end that multiplexes thousands of simulated client
sessions over any engine (B⁻-tree, baseline B+-tree, or LSM), built around
three robustness mechanisms (DESIGN.md §14):

* **group commit** — concurrent client writes coalesce into one WAL
  append/flush per commit window, sealed by a COMMIT marker so an
  interrupted window fully replays or fully rolls back
  (``config.group_atomic`` on the engines);
* **admission control and backpressure** — a bounded submission queue that
  sheds overload with typed :class:`~repro.errors.ServiceOverloadError`
  (never silently), and a write-stall state machine that drains the LSM's
  frozen-memtable backlog / the B-tree's WAL-ring pressure before applying
  more work;
* **deadlines and bounded retry** — per-session op deadlines checked before
  execution, and deterministic exponential backoff (seeded via ``sim/rng``,
  clocked via ``sim/clock``) around transient device faults.

Every shed/expiry/retry/stall is counted on :class:`ServiceStats`; nothing
is dropped without a counter moving.
"""

from repro.service.session import ClientSession, SessionStats, make_sessions
from repro.service.stats import ServiceStats
from repro.service.server import ServiceConfig, ServiceReport, StorageService

__all__ = [
    "ClientSession",
    "ServiceConfig",
    "ServiceReport",
    "ServiceStats",
    "SessionStats",
    "StorageService",
    "make_sessions",
]
