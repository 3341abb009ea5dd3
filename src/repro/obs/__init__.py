"""Observability: latency histograms and windowed metrics.

This package ``__init__`` re-exports only the dependency-free core
(:mod:`repro.obs.hist`).  :class:`~repro.obs.metrics.MetricsHub` depends on
the csd latency model; import it explicitly from :mod:`repro.obs.metrics`.
"""

from repro.obs.hist import LatencyHistogram, WindowedSeries

__all__ = ["LatencyHistogram", "WindowedSeries"]
