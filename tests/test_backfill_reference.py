"""The static backfill pass against a naive reference that never stops early.

``BackfillScheduler.schedule`` ends a static pass once no job left in its
window can get enough free nodes, and skips the work-ahead sum and the
malleable hook.  :class:`ReferenceBackfill` is the pass without those
shortcuts: it examines the whole window, sums the work ahead and calls
``try_malleable_start`` for every job that cannot start.  Both must make the
same decisions — start times, nodes and the decision trace — and the
production pass must not probe the profile more often.
"""

from __future__ import annotations

from contextlib import contextmanager
from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments import runner
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.reservation import ReservationMap
from repro.simulator.simulation import Simulation
from repro.telemetry.trace import TraceRecorder
from repro.workloads.presets import build_workload
from tests.conftest import make_job


class ReferenceBackfill(BackfillScheduler):
    """Static backfill examining every job of the window in every pass."""

    def schedule(self, sim):
        if sim.cluster.num_free_nodes == 0 and not self.schedule_when_saturated:
            return
        self.on_pass_start(sim)
        profile = sim.availability_profile()
        work_ahead = self.running_requested_work(sim)
        trace = sim.trace
        examined = 0
        blocked_ahead = 0
        for job in sim.pending.ordered():
            if examined >= self.max_job_test:
                break
            examined += 1
            est_start = profile.earliest_start(job.requested_nodes, job.requested_time)
            if est_start <= sim.now and sim.cluster.can_allocate(job):
                sim.start_job_static(job)
                profile.add_reservation(sim.now, job.requested_time, job.requested_nodes)
                work_ahead += job.requested_cpus * job.requested_time
                if trace is not None and blocked_ahead:
                    trace.emit(
                        "backfill_hole",
                        sim.now,
                        job=job.job_id,
                        nodes=job.requested_nodes,
                        ahead=blocked_ahead,
                        est_start=est_start,
                    )
                continue
            if self.try_malleable_start(sim, job, profile, est_start, work_ahead):
                work_ahead += job.requested_cpus * job.requested_time
                continue
            if est_start != float("inf"):
                profile.add_reservation(est_start, job.requested_time, job.requested_nodes)
            work_ahead += job.requested_cpus * job.requested_time
            blocked_ahead += 1


@contextmanager
def counting_probes():
    """Count ``ReservationMap.earliest_start`` calls made inside the block."""
    production = ReservationMap.earliest_start
    calls = [0]

    def earliest_start(self, *args, **kwargs):
        calls[0] += 1
        return production(self, *args, **kwargs)

    ReservationMap.earliest_start = earliest_start
    try:
        yield calls
    finally:
        ReservationMap.earliest_start = production


def simulate(scheduler, num_nodes, jobs, cluster=None):
    """Decisions of one traced run, and the number of profile probes made."""
    trace = TraceRecorder()
    cluster = cluster or Cluster(num_nodes=num_nodes, sockets=2, cores_per_socket=4)
    sim = Simulation(cluster, scheduler, trace=trace)
    sim.submit_jobs(jobs)
    with counting_probes() as probes:
        sim.run()
    starts = {job.job_id: (job.start_time, job.allocated_nodes) for job in jobs}
    return starts, trace.to_bytes(), probes[0]


@st.composite
def static_runs(draw):
    """Job specs, not jobs: each of the two runs needs its own ``Job`` objects."""
    num_nodes = draw(st.integers(1, 16))
    custom_priority = draw(st.booleans())  # off the FIFO fast path of ``ordered``
    specs = []
    for job_id in range(1, draw(st.integers(1, 50)) + 1):
        req_time = draw(st.integers(1, 40)) * 100.0
        specs.append(dict(
            job_id=job_id,
            submit=draw(st.integers(0, 15)) * 200.0,  # coarse grid: tied submits
            nodes=draw(st.integers(1, num_nodes)),
            req_time=req_time,
            runtime=req_time * draw(st.sampled_from((0.3, 0.7, 1.0, 1.6))),
            malleable=draw(st.booleans()),
            priority=draw(st.integers(0, 3)) if custom_priority else None,
        ))
    return num_nodes, specs, draw(st.sampled_from((1, 2, 5, 100)))


@settings(
    max_examples=250,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=static_runs())
def test_static_pass_decides_like_the_reference(run):
    num_nodes, specs, depth = run
    starts, trace, probes = simulate(
        BackfillScheduler(max_job_test=depth), num_nodes, [make_job(**s) for s in specs]
    )
    ref_starts, ref_trace, ref_probes = simulate(
        ReferenceBackfill(max_job_test=depth), num_nodes, [make_job(**s) for s in specs]
    )
    assert starts == ref_starts
    assert trace == ref_trace
    assert probes <= ref_probes


def _workload_decisions(scheduler, workload):
    """``simulate`` on the cluster and jobs ``run_workload`` would build."""
    cluster = runner.cluster_for(workload)
    jobs = workload.to_jobs(cpus_per_node=cluster.cpus_per_node, malleable_fraction=1.0)
    return simulate(scheduler, cluster.num_nodes, jobs, cluster=cluster)


def test_paper_workload_decides_like_the_reference():
    workload = build_workload(4, scale=0.02)
    starts, trace, probes = _workload_decisions(BackfillScheduler(), workload)
    ref_starts, ref_trace, ref_probes = _workload_decisions(ReferenceBackfill(), workload)
    assert starts == ref_starts
    assert trace == ref_trace
    assert b'"event":"backfill_hole"' in trace
    assert probes < ref_probes


def test_probe_count_pinned_on_the_guard_curie_input():
    # The benchmark's guard-size curie input under static backfill.  The
    # pass that examined its whole window every time probed 20,764 times.
    _, _, probes = _workload_decisions(BackfillScheduler(), build_workload(4, scale=0.005))
    assert probes == 9742


def test_pass_that_cannot_start_anything_builds_no_profile():
    sim = Simulation(Cluster(num_nodes=4, sockets=2, cores_per_socket=4), BackfillScheduler())
    sim.submit_jobs([make_job(job_id=1, nodes=3, req_time=500.0),
                     make_job(job_id=2, nodes=2, submit=10.0, req_time=100.0)])
    sim.step()  # t=0: job 1 starts, one node is left
    sim.step()  # t=10: job 2 needs two nodes, so its pass ends before a profile
    assert sim.now == 10.0
    assert sim._base_profile.now == 0.0
    assert [j.job_id for j in sim.pending.ordered()] == [2]
