"""Streaming latency histograms and time-windowed counter series.

:class:`LatencyHistogram` is an HDR-histogram-style log-bucketed counter of
non-negative values (simulated latencies, in seconds).  Values are quantised
to integer units of ``min_unit`` (default 1 ns) and bucketed with a shared
exponent and ``2**sub_bits`` linear sub-buckets per octave, so the relative
quantisation error of any recorded value is bounded by ``2**(1 - sub_bits)``
(~0.8% at the default ``sub_bits=7``) while the whole dynamic range from
nanoseconds to hours fits in a small sparse dict.  Histograms serialise to
plain JSON-safe dicts.

:class:`WindowedSeries` turns sampled *cumulative* counters into per-window
deltas on the simulated clock.  Deltas are computed by exact subtraction of
consecutive samples and assigned to the window containing the sample time,
so the per-window series always sums to the end-of-run totals exactly — the
invariant the WA-over-time reporting relies on.
"""

from __future__ import annotations

import math
from typing import Callable, Dict, Iterable, List, Optional

from repro.errors import ConfigError

_DEFAULT_MIN_UNIT = 1e-9  # 1 ns resolution floor for latencies in seconds


class LatencyHistogram:
    """Log-bucketed streaming histogram of non-negative values."""

    def __init__(self, min_unit: float = _DEFAULT_MIN_UNIT, sub_bits: int = 7) -> None:
        if min_unit <= 0:
            raise ConfigError("min_unit must be positive")
        if not 1 <= sub_bits <= 20:
            raise ConfigError("sub_bits must be in [1, 20]")
        self.min_unit = min_unit
        self.sub_bits = sub_bits
        self.counts: Dict[int, int] = {}
        self.n = 0
        self.total = 0.0
        self.min_value: Optional[float] = None
        self.max_value: Optional[float] = None

    # ----------------------------------------------------------- recording

    def record(self, value: float, count: int = 1) -> None:
        """Add ``count`` observations of ``value`` (>= 0)."""
        if value < 0:
            raise ConfigError(f"cannot record negative value {value!r}")
        if count <= 0:
            raise ConfigError("count must be positive")
        index = self._index(int(value / self.min_unit))
        self.counts[index] = self.counts.get(index, 0) + count
        self.n += count
        self.total += value * count
        if self.min_value is None or value < self.min_value:
            self.min_value = value
        if self.max_value is None or value > self.max_value:
            self.max_value = value

    def _index(self, units: int) -> int:
        """Bucket index of a value expressed in integer ``min_unit`` units.

        Values below ``2**sub_bits`` units are exact; above, the value keeps
        ``sub_bits`` significant bits: ``bucket = bit_length - sub_bits``
        exponent octaves, ``units >> bucket`` linear sub-bucket.
        """
        bucket = units.bit_length() - self.sub_bits
        if bucket <= 0:
            return units
        return (bucket << self.sub_bits) | (units >> bucket)

    def value_at(self, index: int) -> float:
        """Representative (midpoint) value of bucket ``index``."""
        bucket = index >> self.sub_bits
        mantissa = index & ((1 << self.sub_bits) - 1)
        if bucket == 0:
            units: float = mantissa
        else:
            # Midpoint of the covered range [mantissa << bucket,
            # (mantissa + 1) << bucket); halves the worst-case error.
            units = (mantissa << bucket) + (1 << (bucket - 1))
        return units * self.min_unit

    #: Bound on the relative quantisation error of any recorded value.
    @property
    def relative_error(self) -> float:
        return 2.0 ** (1 - self.sub_bits)

    @property
    def mean(self) -> float:
        return self.total / self.n if self.n else 0.0

    # ----------------------------------------------------------- quantiles

    def quantile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (0.0 on an empty histogram)."""
        if not 0.0 <= q <= 1.0:
            raise ConfigError("quantile must be in [0, 1]")
        if self.n == 0:
            return 0.0
        rank = min(self.n, max(1, math.ceil(q * self.n)))
        seen = 0
        for index in sorted(self.counts):
            seen += self.counts[index]
            if seen >= rank:
                return self.value_at(index)
        return self.value_at(max(self.counts))  # pragma: no cover - defensive

    def quantiles(self, qs: Iterable[float]) -> List[float]:
        return [self.quantile(q) for q in qs]

    # ----------------------------------------------------------- serialise

    def to_dict(self) -> dict:
        """JSON-safe representation."""
        return {
            "min_unit": self.min_unit,
            "sub_bits": self.sub_bits,
            "counts": {str(index): count for index, count in sorted(self.counts.items())},
            "n": self.n,
            "total": self.total,
            "min": self.min_value,
            "max": self.max_value,
        }

    def summary(self) -> dict:
        """Headline statistics (used by ``repro stats`` reporting)."""
        return {
            "n": self.n,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
            "max": self.max_value if self.max_value is not None else 0.0,
        }


class WindowedSeries:
    """Fixed-width time windows over sampled cumulative counters.

    Feed it monotone cumulative counter dicts via :meth:`sample` (the first
    sample sets the baseline and the window origin); each later sample's
    exact delta is accumulated into the window containing the sample time.
    Crossing a window boundary closes the finished window (appending it to
    :attr:`windows` and invoking ``on_window``, the ``repro stats --watch``
    streaming hook); windows an idle period skips entirely are emitted as
    zero rows.  :meth:`finish` closes the final partial window.  Because
    every window entry is a difference of consecutive samples, the series
    sums to ``last_sample - first_sample`` exactly, field by field.
    """

    def __init__(
        self,
        window_seconds: float,
        on_window: Optional[Callable[[dict], None]] = None,
    ) -> None:
        if window_seconds <= 0:
            raise ConfigError("window width must be positive")
        self.window = window_seconds
        self.on_window = on_window
        self.windows: List[dict] = []
        self._prev: Optional[Dict[str, float]] = None
        self._start: float = 0.0
        self._accum: Optional[Dict[str, float]] = None
        self._finished = False

    def sample(self, t: float, values: Dict[str, float]) -> None:
        """Record cumulative counter ``values`` observed at simulated ``t``."""
        if self._finished:
            raise ConfigError("series already finished")
        if self._prev is None:
            self._prev = dict(values)
            self._start = t
            self._accum = {key: 0 for key in values}
            return
        while t >= self._start + self.window:
            self._close(self._start + self.window)
        accum = self._accum
        prev = self._prev
        for key in accum:
            accum[key] += values[key] - prev[key]
        self._prev = dict(values)

    def finish(self, t: float, values: Dict[str, float]) -> None:
        """Take a final sample and close the partial tail window."""
        if self._finished or self._prev is None:
            return
        self.sample(t, values)
        self._close(max(t, self._start))
        self._finished = True

    def _close(self, end: float) -> None:
        window = {"start": self._start, "end": end}
        window.update(self._accum)
        self.windows.append(window)
        self._start = end
        self._accum = {key: 0 for key in self._accum}
        if self.on_window is not None:
            self.on_window(window)

    def totals(self) -> Dict[str, float]:
        """Field-wise sum over all closed windows."""
        totals: Dict[str, float] = {}
        for window in self.windows:
            for key, value in window.items():
                if key in ("start", "end"):
                    continue
                totals[key] = totals.get(key, 0) + value
        return totals

    def to_dict(self) -> dict:
        return {"window_seconds": self.window, "windows": list(self.windows)}
