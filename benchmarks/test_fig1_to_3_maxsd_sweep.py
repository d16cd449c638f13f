"""Figures 1, 2, 3 — MAX_SLOWDOWN parameter sweep.

For each workload, SD-Policy is simulated with MAXSD 5 / 10 / 50 / infinite
and the dynamic DynAVGSD cut-off (SharingFactor 0.5, ideal runtime model),
and makespan / average response time / average slowdown are reported
normalised to the static backfill run — the paper's Figures 1-3.

Expected shape (paper): average slowdown and response time improve under
every setting and broadly improve as the cut-off is relaxed; makespan stays
roughly constant; the biggest slowdown reductions are tens of percent.
"""

from __future__ import annotations

import pytest

from benchmarks.conftest import bench_scale, run_once, save_artifact
from repro.experiments.scenario import builtin_scenario, render_report, run_scenario

WORKLOAD_IDS = (1, 2, 3, 4)


@pytest.mark.parametrize("workload_id", WORKLOAD_IDS)
def test_fig1_to_3_maxsd_sweep(benchmark, workload_id):
    spec = builtin_scenario(
        "figure1-3", workload_id=workload_id, scale=bench_scale(workload_id)
    )
    outcome = run_once(benchmark, lambda: run_scenario(spec))
    save_artifact(f"fig1-3_maxsd_sweep_workload{workload_id}", render_report(outcome))
    normalized = outcome.normalized()
    assert set(normalized) == {"MAXSD 5", "MAXSD 10", "MAXSD 50", "MAXSD inf", "DynAVGSD"}

    slowdowns = {label: vals["avg_slowdown"] for label, vals in normalized.items()}
    responses = {label: vals["avg_response_time"] for label, vals in normalized.items()}
    makespans = {label: vals["makespan"] for label, vals in normalized.items()}

    # Figure 3 shape: SD-Policy never loses on average slowdown, and the
    # best setting achieves a clear reduction.
    assert all(value <= 1.05 for value in slowdowns.values()), slowdowns
    assert min(slowdowns.values()) < 0.9, slowdowns
    # Relaxing the cut-off from 5 upward must not make slowdown drastically
    # worse (the paper observes monotone-ish improvement with small bumps).
    assert slowdowns["MAXSD inf"] <= slowdowns["MAXSD 5"] * 1.15
    # Figure 2 shape: response time improves for the best setting.
    assert min(responses.values()) < 1.0
    # Figure 1 shape: makespan stays roughly constant.  At benchmark scale
    # the tail of the last few (possibly dilated) jobs weighs much more than
    # at paper scale, so the band is ±25%; larger scales stay much closer
    # to 1.
    assert all(0.75 <= value <= 1.25 for value in makespans.values()), makespans
