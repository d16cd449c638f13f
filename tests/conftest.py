"""Shared fixtures for the test suite."""

from __future__ import annotations

import logging
import math
from contextlib import contextmanager
from typing import Iterator, List

import numpy as np
import pytest

from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.metrics.streaming import StreamingMetrics
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job
from repro.simulator.simulation import Simulation
from repro.workloads.cirne import CirneWorkloadModel
from repro.workloads.job_record import JobRecord, Workload


@pytest.fixture(autouse=True)
def _reset_repro_logging():
    """Undo ``setup_logging`` after each test that calls it directly.  It
    leaves a handler on the ``repro`` logger that writes to that test's
    captured stderr, with propagation off, so later warnings would reach
    neither caplog nor an open stream.  ``cli.main`` restores the logger
    itself when it returns."""
    yield
    root = logging.getLogger("repro")
    for handler in list(root.handlers):
        root.removeHandler(handler)
    root.setLevel(logging.NOTSET)
    root.propagate = True


@pytest.fixture
def small_cluster() -> Cluster:
    """A 4-node cluster with 8 CPUs per node (2 sockets x 4 cores)."""
    return Cluster(num_nodes=4, sockets=2, cores_per_socket=4)


@pytest.fixture
def mn4_like_cluster() -> Cluster:
    """A MareNostrum4-like node geometry, small node count."""
    return Cluster(num_nodes=8, sockets=2, cores_per_socket=24)


def make_job(
    job_id: int = 1,
    submit: float = 0.0,
    nodes: int = 1,
    req_time: float = 3600.0,
    runtime: float = 1800.0,
    cpus_per_node: int = 8,
    malleable: bool = True,
    **kwargs,
) -> Job:
    """Concise job factory used across the suite."""
    return Job(
        job_id=job_id,
        submit_time=submit,
        requested_nodes=nodes,
        requested_time=req_time,
        static_runtime=runtime,
        cpus_per_node=cpus_per_node,
        malleable=malleable,
        **kwargs,
    )


@pytest.fixture
def job_factory():
    """Expose the job factory as a fixture."""
    return make_job


@pytest.fixture
def tiny_workload() -> Workload:
    """A deterministic 60-job Cirne workload on a 16-node system."""
    return CirneWorkloadModel(
        num_jobs=60,
        system_nodes=16,
        cpus_per_node=8,
        max_job_nodes=8,
        target_load=1.0,
        median_runtime_s=1800.0,
        seed=7,
        name="tiny",
    ).generate()


@pytest.fixture
def record_factory():
    """Factory for JobRecord objects."""

    def _make(
        job_id: int = 1,
        submit: float = 0.0,
        run_time: float = 100.0,
        req_time: float = 200.0,
        procs: int = 8,
        **kwargs,
    ) -> JobRecord:
        return JobRecord(
            job_id=job_id,
            submit_time=submit,
            run_time=run_time,
            requested_time=req_time,
            requested_procs=procs,
            **kwargs,
        )

    return _make


@contextmanager
def completed_jobs() -> Iterator[List[Job]]:
    """Collect every job the simulations inside the block fold, in
    completion order, by wrapping ``StreamingMetrics.fold``.

    A simulation drops each job after its fold; tests that check per-job
    state (resource histories, the ``compute_metrics`` oracle) read the
    jobs from here.
    """
    jobs: List[Job] = []
    fold = StreamingMetrics.fold

    def recording_fold(self, job: Job) -> None:
        fold(self, job)
        jobs.append(job)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(StreamingMetrics, "fold", recording_fold)
        yield jobs


def rows_of(jobs) -> np.ndarray:
    """The record rows of finished jobs, folded in the given order."""
    streaming = StreamingMetrics()
    for job in jobs:
        streaming.fold(job)
    return streaming.records()


def run_simulation(cluster: Cluster, scheduler, jobs, **kwargs):
    """Run a list of jobs to completion and return the SimulationResult."""
    sim = Simulation(cluster, scheduler, **kwargs)
    sim.submit_jobs(jobs)
    return sim.run()


@pytest.fixture
def simulate():
    """Expose the quick simulation helper as a fixture."""
    return run_simulation


@pytest.fixture
def backfill_scheduler() -> BackfillScheduler:
    """A fresh static backfill scheduler."""
    return BackfillScheduler()


@pytest.fixture
def sd_scheduler() -> SDPolicyScheduler:
    """A fresh SD-Policy scheduler with an unlimited MAX_SLOWDOWN."""
    return SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
