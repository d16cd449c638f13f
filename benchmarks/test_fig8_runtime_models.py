"""Figure 8 — ideal vs worst-case runtime model.

Runs SD-Policy DynAVGSD under both runtime models of Section 3.4 on
workloads 1-4 and reports makespan / response time / slowdown normalised to
static backfill.

Expected shape (paper): the worst-case model costs at most a few to ~15
percent over the ideal model, both still outperform static backfill on
slowdown, and the workload with exact requests (workload 2) is the least
affected by the model choice.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, run_once, save_artifact
from repro.experiments.scenario import (
    WorkloadRef,
    builtin_scenario,
    render_report,
    run_scenario,
)


def test_fig8_runtime_model_comparison(benchmark):
    spec = builtin_scenario("figure8", max_slowdown="dynamic")
    spec.workloads = [WorkloadRef(preset=wid, scale=bench_scale(wid)) for wid in (1, 2, 3, 4)]
    outcome = run_once(benchmark, lambda: run_scenario(spec))
    save_artifact("fig8_runtime_models", render_report(outcome))
    assert set(outcome.workloads) == {f"workload{wid}" for wid in (1, 2, 3, 4)}

    for name in outcome.workloads:
        entry = outcome.normalized(name)
        ideal = entry["ideal"]
        worst = entry["worst_case"]
        # Both models outperform (or at least match) static backfill on slowdown.
        assert ideal["avg_slowdown"] <= 1.05, name
        assert worst["avg_slowdown"] <= 1.10, name
        # The worst-case model is never dramatically worse than the ideal one
        # (the paper reports overheads up to ~16% on slowdown).
        assert worst["avg_slowdown"] <= ideal["avg_slowdown"] * 1.35 + 0.05, name
        assert worst["avg_response_time"] <= ideal["avg_response_time"] * 1.30 + 0.05, name
