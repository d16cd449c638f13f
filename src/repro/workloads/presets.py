"""The five paper workloads (Table 1), plus benchmark-scale variants.

================ ============== ========= ================= ==============
ID                Log/model      # jobs    System (nodes)    Max job (nodes)
================ ============== ========= ================= ==============
1                 Cirne          5000      1024 × 48 cores   128
2                 Cirne_ideal    5000      1024 × 48 cores   128
3                 RICC-sept      10000     1024 × 8 cores    72
4                 CEA-Curie      198509    5040 × 16 cores   4988
5                 Cirne_real_run 2000      49 × 48 cores     16
================ ============== ========= ================= ==============

Each ``workload_N`` factory accepts a ``scale`` in (0, 1]; a scale below 1
shrinks the job count and system proportionally while keeping the offered
load, which is how the benchmarks regenerate the paper's figures in minutes
instead of hours.  ``scale=1.0`` reproduces the full Table 1 configuration.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

from repro.workloads.applications import assign_applications
from repro.workloads.cirne import CirneWorkloadModel
from repro.workloads.job_record import Workload
from repro.workloads.synthetic import CEACurieLikeModel, RICCLikeModel


@dataclass(frozen=True)
class WorkloadSpec:
    """Static description of one paper workload (the Table 1 row)."""

    workload_id: int
    label: str
    num_jobs: int
    system_nodes: int
    cpus_per_node: int
    max_job_nodes: int


PAPER_WORKLOADS: Dict[int, WorkloadSpec] = {
    1: WorkloadSpec(1, "Cirne", 5000, 1024, 48, 128),
    2: WorkloadSpec(2, "Cirne_ideal", 5000, 1024, 48, 128),
    3: WorkloadSpec(3, "RICC-sept", 10000, 1024, 8, 72),
    4: WorkloadSpec(4, "CEA-Curie", 198509, 5040, 16, 4988),
    5: WorkloadSpec(5, "Cirne_real_run", 2000, 49, 48, 16),
}


def _scaled(value: int, scale: float, minimum: int = 1) -> int:
    return max(minimum, int(round(value * scale)))


def workload_1(scale: float = 1.0, seed: int = 1001) -> Workload:
    """Workload 1 — Cirne model, user-requested times over-estimate runtimes."""
    spec = PAPER_WORKLOADS[1]
    nodes = _scaled(spec.system_nodes, scale, 16)
    return CirneWorkloadModel(
        num_jobs=_scaled(spec.num_jobs, scale, 50),
        system_nodes=nodes,
        cpus_per_node=spec.cpus_per_node,
        max_job_nodes=min(nodes, _scaled(spec.max_job_nodes, scale, 4)),
        exact_requests=False,
        seed=seed,
        name="workload1_cirne",
    ).generate()


def workload_2(scale: float = 1.0, seed: int = 1001) -> Workload:
    """Workload 2 — Cirne_ideal: identical to workload 1 but exact requests."""
    spec = PAPER_WORKLOADS[2]
    nodes = _scaled(spec.system_nodes, scale, 16)
    return CirneWorkloadModel(
        num_jobs=_scaled(spec.num_jobs, scale, 50),
        system_nodes=nodes,
        cpus_per_node=spec.cpus_per_node,
        max_job_nodes=min(nodes, _scaled(spec.max_job_nodes, scale, 4)),
        exact_requests=True,
        seed=seed,
        name="workload2_cirne_ideal",
    ).generate()


def workload_3(scale: float = 1.0, seed: int = 2010) -> Workload:
    """Workload 3 — RICC-like log: many small, short-to-long jobs."""
    spec = PAPER_WORKLOADS[3]
    nodes = _scaled(spec.system_nodes, scale, 16)
    return RICCLikeModel(
        num_jobs=_scaled(spec.num_jobs, scale, 100),
        system_nodes=nodes,
        cpus_per_node=spec.cpus_per_node,
        max_job_nodes=min(nodes, _scaled(spec.max_job_nodes, scale, 4)),
        seed=seed,
        name="workload3_ricc_like",
    ).generate()


def workload_4(scale: float = 1.0, seed: int = 2011) -> Workload:
    """Workload 4 — CEA-Curie-like log: the paper's big 198K-job workload."""
    spec = PAPER_WORKLOADS[4]
    model = CEACurieLikeModel(seed=seed, name="workload4_cea_curie_like")
    if scale < 1.0:
        model = model.scaled(scale, name=f"workload4_cea_curie_like_x{scale:g}")
    return model.generate()


def workload_5(scale: float = 1.0, seed: int = 5005, with_applications: bool = True) -> Workload:
    """Workload 5 — the real-run workload: 2000 jobs on a 49-node system."""
    spec = PAPER_WORKLOADS[5]
    nodes = _scaled(spec.system_nodes, scale, 8)
    wl = CirneWorkloadModel(
        num_jobs=_scaled(spec.num_jobs, scale, 50),
        system_nodes=nodes,
        cpus_per_node=spec.cpus_per_node,
        max_job_nodes=min(nodes, _scaled(spec.max_job_nodes, scale, 2)),
        median_runtime_s=30 * 60.0,
        target_load=1.0,
        seed=seed,
        name="workload5_cirne_real_run",
    ).generate()
    if with_applications:
        wl = assign_applications(wl, seed=seed, name=wl.name)
    return wl


_BUILDERS: Dict[int, Callable[..., Workload]] = {
    1: workload_1,
    2: workload_2,
    3: workload_3,
    4: workload_4,
    5: workload_5,
}


def build_workload(workload_id: int, scale: float = 1.0, seed: Optional[int] = None) -> Workload:
    """Build a paper workload by its Table 1 id (1–5) at a scale > 0."""
    if workload_id not in _BUILDERS:
        raise ValueError(f"unknown workload id {workload_id}; expected 1..5")
    if not scale > 0:
        # The factories clamp to minimum counts, so a bad scale would
        # otherwise quietly build the smallest workload.
        raise ValueError(f"workload scale must be positive, got {scale!r}")
    kwargs = {"scale": scale}
    if seed is not None:
        kwargs["seed"] = seed
    return _BUILDERS[workload_id](**kwargs)
