"""A simulated clock.

All timing in the reproduction is *simulated*: device service times and host
CPU costs are advanced on a :class:`SimClock` instead of being measured with
wall-clock timers.  This keeps experiments deterministic and lets MB-scale
datasets stand in for the paper's 150-500GB runs (see DESIGN.md §3).
"""

from __future__ import annotations

from repro.errors import ConfigError


class SimClock:
    """Monotonically advancing simulated time, in seconds.

    The clock only moves forward.  Components call :meth:`advance` with the
    service time of each simulated action; periodic activities (background
    flushers, the log-flush-per-minute policy) register deadlines via
    :meth:`set_alarm` / :meth:`alarm_due`.
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ConfigError("clock cannot start before t=0")
        self._now = float(start)
        self._alarms: dict[str, float] = {}

    @property
    def now(self) -> float:
        """Current simulated time in seconds."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by ``seconds`` and return the new time."""
        if seconds < 0:
            raise ConfigError(f"cannot advance clock by {seconds!r} seconds")
        self._now += seconds
        return self._now

    def advance_to(self, deadline: float) -> float:
        """Advance the clock to ``deadline`` if it lies in the future."""
        if deadline > self._now:
            self._now = deadline
        return self._now

    def set_alarm(self, name: str, interval: float) -> None:
        """Arm a named periodic alarm that fires ``interval`` seconds from now."""
        if interval <= 0:
            raise ConfigError("alarm interval must be positive")
        self._alarms[name] = self._now + interval

    def alarm_due(self, name: str) -> bool:
        """Return True if the named alarm deadline has been reached."""
        deadline = self._alarms.get(name)
        return deadline is not None and self._now >= deadline

    def clear_alarm(self, name: str) -> None:
        """Disarm a named alarm (no-op if it was never armed)."""
        self._alarms.pop(name, None)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SimClock(now={self._now:.6f})"
