"""Figure 9 — improvements of SD-Policy in the emulated MareNostrum4 run.

The real-run emulation replays workload 5 (Cirne model converted to the
Table 2 application mix) on the 49-node system with the application-aware
runtime, interference and energy models, under static backfill and under
SD-Policy.

Expected shape (paper): makespan improves by single-digit percent, average
response time and slowdown by double-digit percent, and energy by a few
percent; most malleable-scheduled jobs use resources more efficiently than
their static execution.
"""

from __future__ import annotations

from benchmarks.conftest import bench_scale, run_once, save_artifact
from repro.experiments.scenario import (
    builtin_scenario,
    realrun_improvements,
    render_report,
    run_scenario,
)


def test_fig9_real_run_improvements(benchmark):
    spec = builtin_scenario("figure9", scale=bench_scale(5), max_slowdown="dynamic")
    outcome = run_once(benchmark, lambda: run_scenario(spec))
    save_artifact("fig9_real_run", render_report(outcome))
    stats = realrun_improvements(outcome)
    improvements = stats["improvements"]

    # Response time and slowdown improve by double digits.
    assert improvements["avg_response_time"] > 10.0
    assert improvements["avg_slowdown"] > 10.0
    # Energy does not regress meaningfully (the paper reports a 6% saving).
    assert improvements["energy_joules"] > -5.0
    # Makespan stays within a few percent of static backfill.
    assert improvements["makespan"] > -8.0
    # Most malleable-scheduled jobs used resources more efficiently than the
    # static execution (paper: 449 of 539).
    assert stats["malleable_scheduled"] > 0
    assert stats["better_runtime_jobs"] >= 0.6 * stats["malleable_scheduled"]
