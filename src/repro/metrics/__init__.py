"""Metrics: the quantities the paper's evaluation reports.

* :mod:`repro.metrics.aggregates` — :class:`WorkloadMetrics` (makespan,
  average response time, average slowdown, wait times; Section 4's metric
  definitions) and the batch oracle :func:`compute_metrics`;
* :mod:`repro.metrics.streaming` — the online fold every simulation uses;
* :mod:`repro.metrics.heatmap` — the (requested nodes × runtime) category
  binning behind Figures 4–6;
* :mod:`repro.metrics.timeseries` — per-day average slowdown and per-day
  malleable-job counts (Figure 7);
* :mod:`repro.metrics.energy` — the linear node power model behind the
  energy figures.

The per-job reports (heatmaps, daily series) take the
:data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` rows a run folds.
"""

from repro.metrics.aggregates import WorkloadMetrics, compute_metrics
from repro.metrics.energy import LinearPowerModel
from repro.metrics.heatmap import CategoryGrid, category_heatmap, heatmap_ratio
from repro.metrics.streaming import ChunkedFloatBuffer, StreamingMetrics
from repro.metrics.timeseries import daily_malleable_counts, daily_slowdown

__all__ = [
    "CategoryGrid",
    "ChunkedFloatBuffer",
    "LinearPowerModel",
    "StreamingMetrics",
    "WorkloadMetrics",
    "category_heatmap",
    "compute_metrics",
    "daily_malleable_counts",
    "daily_slowdown",
    "heatmap_ratio",
]
