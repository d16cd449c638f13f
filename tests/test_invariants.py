"""Property-style invariant tests over randomized workloads.

These lock down the simulator's conservation laws so hot-path refactors
(availability-profile caching, event deduplication, ``__slots__``) cannot
silently corrupt scheduling state:

* **CPU conservation** — the CPUs held in the node table never exceed the
  total, no node is ever oversubscribed and the free-node set matches the
  table, including after arbitrary shrink/expand sequences driven by
  SD-Policy mate selection.
* **One allocation record** — at every event boundary the node table and
  the running jobs agree both ways: the nodes holding a job, with their CPU
  counts, are exactly ``job.assigned_cpus``, and ``job.allocated_nodes`` is
  ``sorted(job.assigned_cpus)``.
* **One release ledger** — at every event boundary the simulation's sorted
  ledger of predicted ends equals the releases
  ``ReservationMap.from_running_jobs`` derives from the running jobs, so no
  entry waits to be re-keyed.
* **Sharing follows the links** — a running malleable job that is no guest
  holds a shared node exactly when it hosts a guest (``job.mates``), the
  fact the mate pool reads instead of the nodes.
* **Event-time monotonicity** — simulation time never goes backwards.
* **Resource-history coverage** — every completed job's history tiles
  ``[start_time, end_time]`` exactly, with no gaps or overlaps.

The workloads are randomized (several generator seeds, mixed malleability)
but fully deterministic per seed, so failures reproduce.
"""

from __future__ import annotations

import math
import random

import pytest

from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.job import Job, JobState
from repro.simulator.node import NodeAllocationError
from repro.simulator.simulation import Simulation
from repro.workloads.cirne import CirneWorkloadModel

SEEDS = (11, 23, 47)


def _random_workload(seed: int):
    return CirneWorkloadModel(
        num_jobs=50,
        system_nodes=12,
        cpus_per_node=8,
        max_job_nodes=6,
        target_load=1.1,
        median_runtime_s=1800.0,
        seed=seed,
        name=f"invariant_{seed}",
    ).generate()


def _schedulers():
    return {
        "static_backfill": lambda: BackfillScheduler(),
        "sd_inf": lambda: SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf)),
        "sd_dynamic": lambda: SDPolicyScheduler(SDPolicyConfig(max_slowdown="dynamic")),
    }


def _used_cpus(cluster: Cluster) -> int:
    return sum(node.used_cpus for node in cluster.nodes.values())


def _check_allocations(cluster: Cluster, running) -> None:
    """CPU conservation from the node table, and the table equal to the
    running jobs' own maps in both directions."""
    cluster.validate()
    assert 0 <= _used_cpus(cluster) <= cluster.total_cpus
    held = {}
    for nid, node in cluster.nodes.items():
        for job_id, cpus in node.allocations.items():
            held.setdefault(job_id, {})[nid] = cpus
    assert set(held) == set(running)
    for job in running.values():
        assert held[job.job_id] == job.assigned_cpus
        assert job.allocated_nodes == sorted(job.assigned_cpus)


def _check_release_ledger(sim: Simulation) -> None:
    """The ledger is exactly the sorted ``(start + requested_time, nodes)``
    releases of the running jobs, the pairs ``from_running_jobs`` builds."""
    expected = {
        job.job_id: (job.start_time + job.requested_time, len(job.allocated_nodes))
        for job in sim.running.values()
    }
    assert sim._release_of == expected
    assert sim._releases == sorted(expected.values())


def _check_sharing_follows_links(sim: Simulation) -> None:
    nodes = sim.cluster.nodes
    for job in sim.running.values():
        if job.malleable and not job.guest_of:
            shared = any(nodes[nid].is_shared for nid in job.allocated_nodes)
            assert shared == bool(job.mates), f"job {job.job_id}: shared={shared}"


def _run_checked(seed: int, scheduler_factory, malleable_fraction: float = 1.0):
    """Run a workload stepwise, asserting the invariants at every event batch."""
    workload = _random_workload(seed)
    cluster = Cluster(num_nodes=workload.system_nodes, sockets=2, cores_per_socket=4)
    sim = Simulation(cluster, scheduler_factory())
    jobs = workload.to_jobs(
        cpus_per_node=cluster.cpus_per_node,
        malleable_fraction=malleable_fraction,
        seed=seed,
    )
    sim.submit_jobs(jobs)
    last_now = sim.now
    steps = 0
    while sim.step():
        steps += 1
        # Event-time monotonicity.
        assert sim.now >= last_now, f"time went backwards at step {steps}"
        last_now = sim.now
        _check_allocations(cluster, sim.running)
        _check_release_ledger(sim)
        _check_sharing_follows_links(sim)
    return sim, jobs


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", sorted(_schedulers()))
def test_conservation_and_monotonicity(seed, policy):
    sim, jobs = _run_checked(seed, _schedulers()[policy])
    assert sim.result().num_jobs == len(jobs), "every job must complete"
    # Everything released at the end.
    assert _used_cpus(sim.cluster) == 0
    assert sim.cluster.num_free_nodes == sim.cluster.num_nodes


@pytest.mark.parametrize("seed", SEEDS)
def test_mixed_malleability_conserves_cpus(seed):
    sim, jobs = _run_checked(
        seed,
        _schedulers()["sd_inf"],
        malleable_fraction=0.6,
    )
    assert sim.result().num_jobs == len(jobs)


@pytest.mark.parametrize("seed", SEEDS)
def test_resource_history_covers_run_without_gaps(seed):
    _, jobs = _run_checked(seed, _schedulers()["sd_inf"])
    for job in jobs:
        assert job.state is JobState.COMPLETED
        assert job.start_time is not None and job.end_time is not None
        assert job.submit_time <= job.start_time <= job.end_time
        history = job.resource_history
        assert history, f"job {job.job_id} has no resource history"
        assert history[0].start == job.start_time
        assert history[-1].end == job.end_time
        for prev, nxt in zip(history, history[1:]):
            assert prev.end == nxt.start, (
                f"job {job.job_id}: gap/overlap between slots "
                f"[{prev.start}, {prev.end}) and [{nxt.start}, {nxt.end})"
            )
        for slot in history:
            assert slot.start <= slot.end
            assert slot.total_cpus > 0
            assert slot.speed >= 0


def test_cluster_random_shrink_expand_never_oversubscribes():
    """Direct fuzz of the allocation primitives, independent of a scheduler."""
    rng = random.Random(99)
    cluster = Cluster(num_nodes=8, sockets=2, cores_per_socket=4)
    width = cluster.cpus_per_node
    next_id = 1
    running = {}  # job_id -> Job
    speed = 1.0  # the fuzz checks allocations, not progress

    def new_job(nodes: int) -> Job:
        nonlocal next_id
        job = Job(
            job_id=next_id,
            submit_time=0.0,
            requested_nodes=nodes,
            requested_time=1000.0,
            static_runtime=500.0,
            cpus_per_node=width,
        )
        next_id += 1
        return job

    for _ in range(600):
        action = rng.choice(("start", "shrink", "expand", "release"))
        try:
            if action == "start" and cluster.num_free_nodes:
                job = new_job(rng.randint(1, cluster.num_free_nodes))
                nodes = cluster.allocate_static(job)
                job.mark_started(0.0)
                job.reconfigure(0.0, {nid: width for nid in nodes}, speed)
                running[job.job_id] = job
            elif action in ("shrink", "expand") and running:
                job = running[rng.choice(sorted(running))]
                new_map = dict(job.assigned_cpus)
                nid = rng.choice(sorted(new_map))
                if action == "shrink":
                    new_map[nid] = rng.randint(1, max(1, new_map[nid]))
                else:
                    new_map[nid] = new_map[nid] + cluster.node(nid).free_cpus
                cluster.reconfigure_allocation(job, new_map)
                job.reconfigure(0.0, new_map, speed)
            elif action == "release" and running:
                job = running.pop(rng.choice(sorted(running)))
                cluster.release_job(job)
        except NodeAllocationError:
            pass  # an infeasible random op is fine; state must stay consistent
        _check_allocations(cluster, running)

    for job in running.values():
        cluster.release_job(job)
    _check_allocations(cluster, {})
    assert cluster.num_free_nodes == cluster.num_nodes
