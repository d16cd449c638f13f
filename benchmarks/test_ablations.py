"""Ablation benches for SD-Policy's main design choices.

These go beyond the paper's figures: they vary the maximum number of mates
(the paper fixes m = 2), the SharingFactor (the paper uses 0.5 = one
socket), and the malleable fraction of the workload (the paper's
simulations assume every job is malleable), quantifying how sensitive
SD-Policy's gains are to each choice.

Each ablation is a declarative :class:`repro.experiments.scenario.ScenarioSpec`
(one grid parameter swept against the static baseline) executed through the
parallel sweep runner, so the independent simulations fan out over the
process pool instead of running in a serial loop.
"""

from __future__ import annotations

from benchmarks.conftest import run_once, save_artifact
from repro.analysis.tables import metrics_table
from repro.experiments.scenario import ScenarioSpec, WorkloadRef, run_scenario
from repro.workloads.cirne import CirneWorkloadModel


def _ablation_workload():
    return CirneWorkloadModel(
        num_jobs=400, system_nodes=48, cpus_per_node=8, max_job_nodes=16,
        target_load=1.05, median_runtime_s=2400.0, seed=911, name="ablation",
    ).generate()


def _ablation_spec(name: str, grid, baseline=True, policy="sd_policy", base=None) -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        workloads=[WorkloadRef(name="ablation")],
        policy=policy,
        grid=grid,
        base={"runtime_model": "ideal", **(base or {})},
        baseline=(
            {"policy": "static_backfill", "kwargs": {"runtime_model": "ideal"}}
            if baseline
            else None
        ),
    )


def _run_ablation(spec: ScenarioSpec, workload, baseline_label="static"):
    """Execute an ablation scenario and collect {label: metrics} rows."""
    outcome = run_scenario(spec, workloads=workload)
    runs = {}
    if outcome.baselines:
        runs[baseline_label] = outcome.baseline_run.metrics
    for cell in outcome.cells:
        runs[cell.label] = cell.run.metrics
    return runs


def test_ablation_max_mates(benchmark):
    """m = 1 vs m = 2 vs m = 3 (the paper found no benefit beyond 2)."""
    workload = _ablation_workload()
    spec = _ablation_spec(
        "ablation-max-mates",
        grid={"max_mates": [1, 2, 3]},
        base={"max_slowdown": "inf"},
    )

    runs = run_once(benchmark, lambda: _run_ablation(spec, workload))
    save_artifact("ablation_max_mates", metrics_table(runs, title="Ablation: max mates"))
    static_sd = runs["static"].avg_slowdown
    sd = {m: runs[f"max_mates={m}"].avg_slowdown for m in (1, 2, 3)}
    # Two mates help over one; three gives no substantial further gain
    # (matching the paper's observation that m = 2 is enough).
    assert sd[2] <= sd[1] * 1.02
    assert sd[3] >= sd[2] * 0.9
    assert sd[2] < static_sd


def test_ablation_sharing_factor(benchmark):
    """SharingFactor 0.25 / 0.5 / 0.75 (the paper uses 0.5 = one socket)."""
    workload = _ablation_workload()
    spec = _ablation_spec(
        "ablation-sharing-factor",
        grid={"sharing_factor": [0.25, 0.5, 0.75]},
        base={"max_slowdown": "inf"},
    )

    runs = run_once(benchmark, lambda: _run_ablation(spec, workload))
    save_artifact("ablation_sharing_factor",
                  metrics_table(runs, title="Ablation: SharingFactor"))
    static_sd = runs["static"].avg_slowdown
    for sf in (0.25, 0.5, 0.75):
        assert runs[f"sharing_factor={sf}"].avg_slowdown <= static_sd * 1.05
    # Giving guests more of the node (larger factor) must not be worse for
    # the guests' slowdown than the most conservative split.
    assert (
        runs["sharing_factor=0.5"].avg_slowdown
        <= runs["sharing_factor=0.25"].avg_slowdown * 1.10
    )


def test_ablation_malleable_fraction(benchmark):
    """0% / 50% / 100% of the workload malleable (mixed workloads)."""
    workload = _ablation_workload()
    spec = _ablation_spec(
        "ablation-malleable-fraction",
        grid={"malleable_fraction": [
            {"label": "malleable=0%", "value": 0.0},
            {"label": "malleable=50%", "value": 0.5},
            {"label": "malleable=100%", "value": 1.0},
        ]},
        base={"max_slowdown": "inf"},
        baseline=False,
    )

    runs = run_once(benchmark, lambda: _run_ablation(spec, workload))
    save_artifact("ablation_malleable_fraction",
                  metrics_table(runs, title="Ablation: malleable fraction"))
    # With no malleable jobs SD-Policy degenerates to static backfill; gains
    # grow with the malleable share.
    assert runs["malleable=0%"].malleable_scheduled == 0
    assert runs["malleable=100%"].avg_slowdown <= runs["malleable=50%"].avg_slowdown * 1.05
    assert runs["malleable=50%"].avg_slowdown <= runs["malleable=0%"].avg_slowdown * 1.05


def test_ablation_backfill_depth(benchmark):
    """Backfill depth (SLURM's bf_max_job_test) sensitivity for the baseline."""
    workload = _ablation_workload()
    spec = _ablation_spec(
        "ablation-backfill-depth",
        grid={"max_job_test": [
            {"label": "depth=10", "value": 10},
            {"label": "depth=100", "value": 100},
        ]},
        policy="static_backfill",
        baseline=False,
    )

    runs = run_once(benchmark, lambda: _run_ablation(spec, workload))
    save_artifact("ablation_backfill_depth",
                  metrics_table(runs, title="Ablation: backfill depth"))
    # A deeper backfill window can only help (or leave unchanged) the
    # average wait of the static baseline.
    assert runs["depth=100"].avg_wait_time <= runs["depth=10"].avg_wait_time * 1.05
