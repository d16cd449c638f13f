"""Job-category heatmaps (Figures 4, 5 and 6 of the paper).

The paper partitions the jobs of workload 4 into categories by requested
node count (power-of-two bins) and by runtime (hour/day bins), and shows,
per category, the *ratio* between the static backfill value and the
SD-Policy value of a metric (slowdown, runtime, wait time) — values above
1.0 mean SD-Policy improved the category.

:func:`category_heatmap` builds the per-category averages for one run from
its :data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` rows;
:func:`heatmap_ratio` divides two grids cell by cell.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

#: Default node-count bin upper edges (inclusive), paper-style powers of two.
DEFAULT_NODE_BINS: Sequence[int] = (1, 2, 4, 8, 16, 32, 64, 128, 256, 512, 1024, 1 << 20)

#: Default runtime bin upper edges in seconds: ≤1h, 4h, 12h, 1d, 4d, ∞.
DEFAULT_RUNTIME_BINS: Sequence[float] = (
    3600.0,
    4 * 3600.0,
    12 * 3600.0,
    24 * 3600.0,
    4 * 24 * 3600.0,
    math.inf,
)


def _bin_label_nodes(edges: Sequence[int], idx: int) -> str:
    low = 1 if idx == 0 else edges[idx - 1] + 1
    high = edges[idx]
    if high >= (1 << 20):
        return f">{edges[idx - 1]} nodes"
    if low == high:
        return f"{high} nodes"
    return f"{low}-{high} nodes"


def _bin_label_runtime(edges: Sequence[float], idx: int) -> str:
    names = []
    for e in edges:
        if math.isinf(e):
            names.append("inf")
        elif e < 3600 * 24:
            names.append(f"{e / 3600:g}h")
        else:
            names.append(f"{e / 86400:g}d")
    low = "0" if idx == 0 else names[idx - 1]
    return f"{low}-{names[idx]}"


@dataclass
class CategoryGrid:
    """A (node bin × runtime bin) grid of per-category aggregates."""

    node_edges: Sequence[int]
    runtime_edges: Sequence[float]
    values: np.ndarray  # shape (len(node_edges), len(runtime_edges)); NaN = empty
    counts: np.ndarray  # same shape, number of jobs per cell
    metric: str = "slowdown"

    @property
    def node_labels(self) -> List[str]:
        """Human-readable labels of the node-count bins."""
        return [_bin_label_nodes(self.node_edges, i) for i in range(len(self.node_edges))]

    @property
    def runtime_labels(self) -> List[str]:
        """Human-readable labels of the runtime bins."""
        return [_bin_label_runtime(self.runtime_edges, i) for i in range(len(self.runtime_edges))]

    def cell(self, node_bin: int, runtime_bin: int) -> float:
        """Value of one cell (NaN when the cell has no jobs)."""
        return float(self.values[node_bin, runtime_bin])

    def to_rows(self) -> List[Dict[str, object]]:
        """Flat list of dict rows (used by the text renderer and reports)."""
        rows: List[Dict[str, object]] = []
        for i, nlabel in enumerate(self.node_labels):
            for j, rlabel in enumerate(self.runtime_labels):
                rows.append(
                    {
                        "nodes": nlabel,
                        "runtime": rlabel,
                        "value": float(self.values[i, j]),
                        "count": int(self.counts[i, j]),
                    }
                )
        return rows


#: The metrics a heatmap can average; each is the record column of that name.
METRICS = ("slowdown", "runtime", "wait", "response")


def _bin_indices(values: np.ndarray, edges: Sequence[float]) -> np.ndarray:
    """Index of the first edge each value is at or below (the last bin
    takes values beyond every edge)."""
    return np.minimum(np.searchsorted(np.asarray(edges), values), len(edges) - 1)


def category_heatmap(
    rows: np.ndarray,
    metric: str = "slowdown",
    node_edges: Sequence[int] = DEFAULT_NODE_BINS,
    runtime_edges: Sequence[float] = DEFAULT_RUNTIME_BINS,
) -> CategoryGrid:
    """Average a per-job metric over (requested nodes × runtime) categories.

    ``rows`` are a run's record rows and ``metric`` is one of
    :data:`METRICS`.  Categories are defined by the job's *requested* node
    count and its *static* runtime, so the same job lands in the same cell
    under every policy — a prerequisite for the ratio plots.  Each cell
    sums its jobs in row order.
    """
    if metric not in METRICS:
        raise ValueError(f"unknown metric {metric!r}; expected one of {sorted(METRICS)}")
    shape = (len(node_edges), len(runtime_edges))
    cells = (
        _bin_indices(rows["requested_nodes"], node_edges) * shape[1]
        + _bin_indices(rows["static_runtime"], runtime_edges)
    )
    size = shape[0] * shape[1]
    counts = np.bincount(cells, minlength=size).reshape(shape)
    sums = np.bincount(cells, weights=rows[metric], minlength=size).reshape(shape)
    values = np.full(shape, np.nan)
    mask = counts > 0
    values[mask] = sums[mask] / counts[mask]
    return CategoryGrid(
        node_edges=node_edges,
        runtime_edges=runtime_edges,
        values=values,
        counts=counts,
        metric=metric,
    )


def heatmap_ratio(baseline: CategoryGrid, other: CategoryGrid) -> CategoryGrid:
    """Cell-wise ratio baseline / other (the paper's Figures 4-6 convention).

    Values above 1.0 mean ``other`` (SD-Policy) improved the category over
    ``baseline`` (static backfill).  Cells empty in either grid are NaN.
    """
    if baseline.values.shape != other.values.shape:
        raise ValueError("grids have different shapes")
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = baseline.values / other.values
    ratio[~np.isfinite(ratio)] = np.nan
    counts = np.minimum(baseline.counts, other.counts)
    return CategoryGrid(
        node_edges=baseline.node_edges,
        runtime_edges=baseline.runtime_edges,
        values=ratio,
        counts=counts,
        metric=f"{baseline.metric}_ratio",
    )
