"""Figure 7 — daily average slowdown trend and malleable-job counts.

Compares the per-day average slowdown of static backfill and SD-Policy
MAXSD 10 on the CEA-Curie-like workload, together with the number of jobs
scheduled with malleability each day.

Expected shape (paper): the slowdown peaks of the static run are strongly
reduced, the SD series rarely exceeds the static one, and roughly 10% of
the jobs are malleable-scheduled with a somewhat smaller share of mates.
"""

from __future__ import annotations

import math

import numpy as np

from benchmarks.conftest import bench_scale, run_once, save_artifact
from repro.experiments.scenario import (
    builtin_scenario,
    render_report,
    run_scenario,
    scenario_daily_rows,
)


def test_fig7_daily_slowdown_series(benchmark):
    spec = builtin_scenario("figure7", scale=bench_scale(4), max_slowdown=10.0)
    outcome = run_once(benchmark, lambda: run_scenario(spec))
    save_artifact("fig7_daily_slowdown_workload4", render_report(outcome))
    rows = scenario_daily_rows(outcome)
    assert len(rows) >= 3, "expected a multi-day workload"

    static = np.array([r["static_slowdown"] for r in rows if math.isfinite(r["static_slowdown"])])
    sd = np.array([r["sd_slowdown"] for r in rows if math.isfinite(r["sd_slowdown"])])

    # Peak reduction: the worst static day improves under SD-Policy.
    assert sd.max() <= static.max() * 1.05
    # The mean daily slowdown improves.
    assert sd.mean() < static.mean()
    # Malleability is actually exercised, day after day.
    assert sum(r["malleable_jobs"] for r in rows) > 0
    sd_run = outcome.cells[0].run
    malleable_fraction = sd_run.metrics.malleable_scheduled / max(1, len(sd_run.records.array))
    mate_fraction = sd_run.metrics.mate_jobs / max(1, len(sd_run.records.array))
    assert malleable_fraction > 0.02
    # Mates are never more numerous than malleable-scheduled guests by much
    # (the paper reports 10.3% guests vs 8.6% mates).
    assert mate_fraction <= malleable_fraction * 1.5
