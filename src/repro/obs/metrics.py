"""Per-run metrics collection: op-latency histograms + windowed WA series.

A :class:`MetricsHub` is the object the workload runner feeds when
observability is on.  It owns

* one :class:`~repro.obs.hist.LatencyHistogram` per operation kind
  (``put`` / ``read`` / ``scan``), recording the modelled device+host
  latency of each operation (the device-stat delta of the op run through
  :class:`~repro.csd.latency.DeviceLatencyModel`, plus the host op base
  cost — simulated time, never wall clock), and
* one :class:`~repro.obs.hist.WindowedSeries` of the cumulative traffic
  and device counters, from which per-window WA decompositions
  (:func:`wa_windows`) are derived.

Hubs serialise to JSON-safe dicts that survive pickling through
``detach_result``.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from repro.csd.latency import DeviceLatencyModel, HostCostModel
from repro.csd.stats import DeviceStats
from repro.metrics.counters import TrafficSnapshot
from repro.obs.hist import LatencyHistogram, WindowedSeries

#: Cumulative counters tracked per window.  The traffic fields are exactly
#: the ones the WA decomposition (Eq. (1)-(2)) is computed from, so the
#: windowed series sums to the end-of-run WA inputs field by field.
WINDOW_FIELDS = (
    "user_bytes",
    "log_physical",
    "page_physical",
    "extra_physical",
    "total_logical",
    "operations",
    "write_ios",
    "read_ios",
    "flush_ios",
)


class MetricsHub:
    """Collects per-op latency histograms and the windowed WA series."""

    def __init__(
        self,
        window_seconds: float = 1.0,
        on_window: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.op_latency: Dict[str, LatencyHistogram] = {}
        self.series = WindowedSeries(window_seconds, on_window)
        self.device_model = DeviceLatencyModel()
        self.host_model = HostCostModel()
        #: Serving-layer counter series (fed by ``StorageService``); created
        #: lazily so runs without a service layer serialise exactly as before.
        self.service_series: Optional[WindowedSeries] = None
        #: Distribution of submission-queue depth samples (integer units).
        self.queue_depth: Optional[LatencyHistogram] = None

    # ----------------------------------------------------------- recording

    def histogram(self, kind: str) -> LatencyHistogram:
        hist = self.op_latency.get(kind)
        if hist is None:
            hist = self.op_latency[kind] = LatencyHistogram()
        return hist

    def record_batch(self, kind: str, n: int, device_delta: DeviceStats) -> None:
        """Record the modelled latency of ``n`` same-kind ops served by one
        engine call, from that call's device traffic (``n == 1``: one op).

        The call's device busy time is shared evenly across its ops (the
        device serviced one coalesced request stream), while the host op
        base cost is charged per op — so batched and single ops land in the
        same histograms and remain comparable.
        """
        if n <= 0:
            return
        latency = self.device_model.busy_time(device_delta) / n + self.host_model.op_base
        self.histogram(kind).record(latency, count=n)

    @staticmethod
    def _values(traffic: TrafficSnapshot, device: DeviceStats) -> Dict[str, float]:
        return {
            "user_bytes": traffic.user_bytes,
            "log_physical": traffic.log_physical,
            "page_physical": traffic.page_physical,
            "extra_physical": traffic.extra_physical,
            "total_logical": traffic.total_logical,
            "operations": traffic.operations,
            "write_ios": device.write_ios,
            "read_ios": device.read_ios,
            "flush_ios": device.flush_ios,
        }

    def sample(self, t: float, traffic: TrafficSnapshot, device: DeviceStats) -> None:
        """Feed the window series one cumulative sample at simulated ``t``."""
        self.series.sample(t, self._values(traffic, device))

    def finish(self, t: float, traffic: TrafficSnapshot, device: DeviceStats) -> None:
        """Close the final partial window with a last sample."""
        self.series.finish(t, self._values(traffic, device))

    # ------------------------------------------------------ service counters

    def sample_service(
        self, t: float, counters: Dict[str, float], queue_depth: int = 0
    ) -> None:
        """Feed one cumulative serving-layer counter sample at ``t``.

        ``counters`` is a plain dict of cumulative ``ServiceStats`` fields
        (duck-typed to avoid an obs → service import cycle); the per-window
        deltas become the stall/shed/retry trajectory.  ``queue_depth`` is a
        gauge and goes into its own distribution instead of the delta series.
        """
        if self.service_series is None:
            self.service_series = WindowedSeries(self.series.window)
            self.queue_depth = LatencyHistogram(min_unit=1.0)
        self.service_series.sample(t, dict(counters))
        self.queue_depth.record(float(queue_depth))

    def finish_service(self, t: float, counters: Dict[str, float]) -> None:
        """Close the serving-layer series' final partial window."""
        if self.service_series is not None:
            self.service_series.finish(t, dict(counters))

    # ----------------------------------------------------------- reporting

    def wa_windows(self) -> List[dict]:
        """The window rows with per-window WA decompositions attached.

        ``wa_*`` fields divide each window's physical byte deltas by its
        user-byte delta (0 when no user bytes landed in the window), i.e.
        the paper's WA decomposition restricted to that slice of time.
        """
        out = []
        for window in self.series.windows:
            row = dict(window)
            usr = row.get("user_bytes", 0)
            physical = (
                row.get("log_physical", 0)
                + row.get("page_physical", 0)
                + row.get("extra_physical", 0)
            )
            if usr > 0:
                row["wa_log"] = row["log_physical"] / usr
                row["wa_pg"] = row["page_physical"] / usr
                row["wa_e"] = row["extra_physical"] / usr
                row["wa_total"] = physical / usr
            else:
                row["wa_log"] = row["wa_pg"] = row["wa_e"] = row["wa_total"] = 0.0
            out.append(row)
        return out

    def summary(self) -> dict:
        """JSON-safe digest stored on ``ExperimentResult.obs``."""
        out = {
            "op_latency": {
                kind: hist.summary() for kind, hist in sorted(self.op_latency.items())
            },
            "window_seconds": self.series.window,
            "wa_windows": self.wa_windows(),
            "totals": self.series.totals(),
        }
        if self.service_series is not None:
            digest = self.queue_depth.summary()
            digest["p999"] = self.queue_depth.quantile(0.999)
            out["service"] = {
                "windows": list(self.service_series.windows),
                "totals": self.service_series.totals(),
                "queue_depth": digest,
            }
        return out

    # ----------------------------------------------------------- serialise

    def to_dict(self) -> dict:
        out = {
            "op_latency": {
                kind: hist.to_dict() for kind, hist in sorted(self.op_latency.items())
            },
            "series": self.series.to_dict(),
        }
        if self.service_series is not None:
            out["service_series"] = self.service_series.to_dict()
            out["queue_depth"] = self.queue_depth.to_dict()
        return out
