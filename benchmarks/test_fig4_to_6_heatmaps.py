"""Figures 4, 5, 6 — per-category heatmaps on the big (CEA-Curie-like) workload.

Static backfill and SD-Policy MAXSD 10 are compared per (requested nodes ×
runtime) category; the grids report the ratio static / SD-Policy, as in the
paper (values above 1.0 mean SD-Policy improved the category).

Expected shape (paper): small and short job categories improve the most
(slowdown ratios well above 1), the wait-time heatmap improves broadly, and
the runtime heatmap shows values slightly below 1 for categories whose jobs
were dilated by malleability.
"""

from __future__ import annotations

import math

import numpy as np

from benchmarks.conftest import bench_scale, run_once, save_artifact
from repro.experiments.scenario import (
    builtin_scenario,
    render_report,
    run_scenario,
    scenario_heatmaps,
)


def test_fig4_to_6_category_heatmaps(benchmark):
    spec = builtin_scenario("figure4-6", scale=bench_scale(4), max_slowdown=10.0)
    outcome = run_once(benchmark, lambda: run_scenario(spec))
    save_artifact("fig4-6_heatmaps_workload4", render_report(outcome))
    grids = scenario_heatmaps(outcome)

    slowdown_grid = grids["slowdown"]
    populated = slowdown_grid.values[np.isfinite(slowdown_grid.values)]
    assert populated.size >= 4, "expected several populated job categories"

    # Figure 4 shape: the small/short corner improves strongly.
    small_short = slowdown_grid.values[0, 0]
    assert math.isfinite(small_short)
    assert small_short > 1.2

    # Aggregate slowdown improves (the weighted effect the paper reports).
    sd = outcome.cells[0].run.metrics.avg_slowdown
    static = outcome.baseline_run.metrics.avg_slowdown
    assert sd < static

    # Figure 5 shape: runtime ratios never exceed 1 by construction (SD can
    # only dilate runtimes), and some categories are dilated.
    runtime_grid = grids["runtime"].values
    finite_runtime = runtime_grid[np.isfinite(runtime_grid)]
    assert np.all(finite_runtime <= 1.0 + 1e-9)
    assert np.any(finite_runtime < 0.999)

    # Figure 6 shape: wait time improves on average over populated categories.
    wait_grid = grids["wait"].values
    finite_wait = wait_grid[np.isfinite(wait_grid)]
    assert np.nanmean(finite_wait) > 1.0
