"""The backfill pass against a naive reference that does every pass afresh.

``BackfillScheduler.schedule`` ends a static pass once no job left in its
window can get enough free nodes, skips the work-ahead sum and the
malleable hook, starts jobs without a profile until the first one the
cluster refuses, and resumes from the reservations of the pass before it.
:class:`ReferenceBackfill` is the pass without those shortcuts: it builds
its profile at the start, examines the whole window, sums the work ahead
and calls ``try_malleable_start`` for every job that cannot start.  Both
must make the same decisions — start times, nodes and the decision trace —
and the production pass must not probe the profile more often.
:class:`ReferenceSD` mixes the same pass into SD-Policy.
"""

from __future__ import annotations

from contextlib import contextmanager
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
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


class ReferenceSD(ReferenceBackfill, SDPolicyScheduler):
    """SD-Policy on the reference pass.  Its submit-time attempt, which
    always sums the work ahead, is spelled out here so that the reference
    does not lean on the production hook."""

    def on_job_submit(self, sim, job):
        if not job.malleable or sim.cluster.can_allocate(job):
            return
        self.cutoff.update(sim)
        profile = sim.availability_profile()
        est_start = profile.earliest_start(job.requested_nodes, job.requested_time)
        work_ahead = self.running_requested_work(sim)
        for other in sim.pending.ordered():
            if other.job_id != job.job_id:
                work_ahead += other.requested_cpus * other.requested_time
        self.try_malleable_start(sim, job, profile, est_start, work_ahead)


@contextmanager
def counting_calls(name):
    """Count calls of the ``ReservationMap`` method ``name`` inside the block."""
    production = getattr(ReservationMap, name)
    calls = [0]

    def counted(self, *args, **kwargs):
        calls[0] += 1
        return production(self, *args, **kwargs)

    setattr(ReservationMap, name, counted)
    try:
        yield calls
    finally:
        setattr(ReservationMap, name, production)


def _steps(profile):
    """The profile's raw step function without change points that keep the
    count: two profiles with equal steps answer every query alike."""
    steps = []
    for time, free in zip(profile._times, profile._free):
        if not steps or steps[-1][1] != free:
            steps.append((time, free))
    return tuple(steps)


@contextmanager
def recording_probes():
    """Record each ``earliest_start`` call made inside the block as
    ``(now, nodes, duration, steps of the profile probed)``."""
    production = ReservationMap.earliest_start
    probes = []

    def earliest_start(self, nodes_needed, duration=None):
        probes.append((self.now, nodes_needed, duration, _steps(self)))
        return production(self, nodes_needed, duration)

    ReservationMap.earliest_start = earliest_start
    try:
        yield probes
    finally:
        ReservationMap.earliest_start = production


def simulate(scheduler, num_nodes, jobs, cluster=None, traced=True):
    """Decisions of one run (its trace when ``traced``), and the number of
    profile probes made."""
    trace = TraceRecorder() if traced else None
    cluster = cluster or Cluster(num_nodes=num_nodes, sockets=2, cores_per_socket=4)
    sim = Simulation(cluster, scheduler, trace=trace)
    sim.submit_jobs(jobs)
    with counting_calls("earliest_start") as probes:
        sim.run()
    starts = {job.job_id: (job.start_time, job.allocated_nodes) for job in jobs}
    return starts, trace.to_bytes() if traced else None, probes[0]


@st.composite
def static_runs(draw):
    """Job specs, not jobs: each of the two runs needs its own ``Job`` objects."""
    num_nodes = draw(st.integers(1, 16))
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
        ))
    if draw(st.booleans()):
        # Tied submits arriving in shuffled id order: off the FIFO fast
        # path of ``PendingQueue.ordered``.
        specs = draw(st.permutations(specs))
    return num_nodes, specs, draw(st.sampled_from((1, 2, 5, 100)))


@settings(
    max_examples=250,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=static_runs())
def test_static_pass_decides_like_the_reference(run):
    num_nodes, specs, depth = run
    with recording_probes() as probed:
        starts, trace, probes = simulate(
            BackfillScheduler(max_job_test=depth), num_nodes, [make_job(**s) for s in specs]
        )
    with recording_probes() as ref_probed:
        ref_starts, ref_trace, ref_probes = simulate(
            ReferenceBackfill(max_job_test=depth), num_nodes, [make_job(**s) for s in specs]
        )
    assert starts == ref_starts
    assert trace == ref_trace
    assert probes <= ref_probes
    assert set(probed) <= set(ref_probed)


SD_CUTOFFS = (10.0, "dynamic")  # MAXSD 10 and DynAVGSD


def _run(num_nodes, rows, depth):
    """A ``static_runs`` example from ``(job_id, submit, nodes, req_time,
    runtime, malleable)`` rows; rows not listed are 1-node, 100 s jobs
    submitted at 0 that run 30 s, up to the highest id given."""
    given_rows = {row[0]: row for row in rows}
    specs = []
    for job_id in range(1, max(given_rows) + 1):
        _, submit, nodes, req_time, runtime, malleable = given_rows.get(
            job_id, (job_id, 0.0, 1, 100.0, 30.0, False)
        )
        specs.append(dict(job_id=job_id, submit=submit, nodes=nodes, req_time=req_time,
                          runtime=runtime, malleable=malleable))
    return num_nodes, specs, depth


#: Shrunk examples of ``static_runs`` on which a resumed SD pass starts a
#: prefix job malleably and gives back the reservations from it on.
GIVE_BACK_RUNS = {
    10.0: _run(4, [
        (1, 200.0, 2, 100.0, 30.0, True),
        (6, 400.0, 1, 100.0, 30.0, False),
        (11, 200.0, 1, 300.0, 90.0, True),
        (17, 0.0, 1, 100.0, 160.0, False),
        (18, 0.0, 2, 300.0, 210.0, False),
        (19, 0.0, 1, 400.0, 280.0, True),
    ], 2),
    "dynamic": _run(6, [
        (1, 800.0, 1, 100.0, 30.0, False),
        (2, 200.0, 1, 1800.0, 540.0, False),
        (3, 600.0, 5, 100.0, 30.0, True),
        (6, 600.0, 1, 100.0, 70.0, False),
        (11, 400.0, 5, 600.0, 420.0, True),
    ], 2),
}


def sd_decisions(scheduler_class, cutoff, run, traced=True):
    """Starts, trace and ``stats()`` of one SD run over fresh jobs."""
    num_nodes, specs, depth = run
    scheduler = scheduler_class(SDPolicyConfig(max_slowdown=cutoff, max_job_test=depth))
    starts, trace, _ = simulate(
        scheduler, num_nodes, [make_job(**s) for s in specs], traced=traced
    )
    return starts, trace, scheduler.stats()


@pytest.mark.parametrize("cutoff", SD_CUTOFFS)
@settings(
    max_examples=60,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=static_runs())
@example(run=GIVE_BACK_RUNS[10.0])
@example(run=GIVE_BACK_RUNS["dynamic"])
def test_sd_pass_decides_like_the_reference(cutoff, run):
    with recording_probes() as reference_probes:
        reference = sd_decisions(ReferenceSD, cutoff, run)
    with recording_probes() as probes:
        assert sd_decisions(SDPolicyScheduler, cutoff, run) == reference
    # Each probe a resumed (or given-back, or lazily built) profile answers
    # is one the reference makes on its fresh profile at that instant.
    assert set(probes) <= set(reference_probes)
    # Untraced, the submit-time attempt skips the work ahead when the
    # profile alone decides; the decisions must not notice.
    starts, _, stats = sd_decisions(SDPolicyScheduler, cutoff, run, traced=False)
    assert (starts, stats) == (reference[0], reference[2])


@pytest.mark.parametrize("cutoff", SD_CUTOFFS)
def test_sd_examples_reach_the_give_back(cutoff):
    with counting_calls("remove_reservation") as give_backs:
        sd_decisions(SDPolicyScheduler, cutoff, GIVE_BACK_RUNS[cutoff])
    assert give_backs[0] > 0


def test_early_end_between_two_passes_voids_the_carried_reservations():
    sim = Simulation(Cluster(num_nodes=4, sockets=2, cores_per_socket=4), BackfillScheduler())
    jobs = [
        make_job(job_id=1, nodes=3, req_time=1000.0, runtime=300.0),
        make_job(job_id=2, nodes=4, submit=10.0, req_time=100.0, runtime=100.0),
        make_job(job_id=3, nodes=1, submit=10.0, req_time=2000.0, runtime=100.0),
        make_job(job_id=4, nodes=1, submit=20.0, req_time=2000.0, runtime=100.0),
    ]
    sim.submit_jobs(jobs)
    sim.step()  # t=0: job 1 starts
    sim.step()  # t=10: job 2 waits for job 1's requested end, job 3 behind it
    assert sim.pass_carry.slots == [(1000.0, 100.0, 4), (1100.0, 2000.0, 1)]
    with counting_calls("earliest_start") as probes:
        sim.step()  # t=20: a submit changes no allocation, so the pass resumes
    assert probes[0] == 1  # job 4 only
    carry = sim.pass_carry
    assert [job.job_id for job in carry.blocked] == [2, 3, 4]
    assert carry.slots[2] == (1100.0, 2000.0, 1)
    sim.step()  # t=300: job 1 ends early, long before any saved start
    assert sim.now == 300.0
    assert not carry.resumes(sim, jobs[1:])
    assert jobs[1].start_time == 300.0
    assert sim.pass_carry is None  # job 2 took every node: nothing left to probe


def _workload_decisions(scheduler, workload, traced=True):
    """``simulate`` on the cluster and jobs ``run_workload`` would build."""
    cluster = runner.cluster_for(workload)
    jobs = workload.to_jobs(cpus_per_node=cluster.cpus_per_node, malleable_fraction=1.0)
    return simulate(scheduler, cluster.num_nodes, jobs, cluster=cluster, traced=traced)


def test_paper_workload_decides_like_the_reference():
    workload = build_workload(4, scale=0.02)
    starts, trace, probes = _workload_decisions(BackfillScheduler(), workload)
    ref_starts, ref_trace, ref_probes = _workload_decisions(ReferenceBackfill(), workload)
    assert starts == ref_starts
    assert trace == ref_trace
    assert b'"event":"backfill_hole"' in trace
    assert probes < ref_probes


@pytest.mark.parametrize("cutoff", SD_CUTOFFS)
def test_paper_workload_sd_decides_like_the_reference(cutoff):
    workload = build_workload(4, scale=0.01)

    def decisions(scheduler_class):
        scheduler = scheduler_class(SDPolicyConfig(max_slowdown=cutoff))
        starts, _, _ = _workload_decisions(scheduler, workload, traced=False)
        return starts, scheduler.stats()

    assert decisions(SDPolicyScheduler) == decisions(ReferenceSD)


def test_probe_count_pinned_on_the_guard_curie_input():
    # The benchmark's guard-size curie input under static backfill.  The
    # pass that examined its whole window every time probed 20,764 times;
    # before passes resumed from the previous one and started jobs without
    # a profile until the first refusal, 9,742.
    _, _, probes = _workload_decisions(BackfillScheduler(), build_workload(4, scale=0.005))
    assert probes == 5668


@contextmanager
def counting_builds():
    """Count the ``ReservationMap`` step functions set up inside the block."""
    production = ReservationMap._fill
    calls = [0]

    def fill(self, *args, **kwargs):
        calls[0] += 1
        return production(self, *args, **kwargs)

    ReservationMap._fill = fill
    try:
        yield calls
    finally:
        ReservationMap._fill = production


def test_pass_that_cannot_start_anything_builds_no_profile():
    sim = Simulation(Cluster(num_nodes=4, sockets=2, cores_per_socket=4), BackfillScheduler())
    sim.submit_jobs([make_job(job_id=1, nodes=3, req_time=500.0),
                     make_job(job_id=2, nodes=2, submit=10.0, req_time=100.0)])
    with counting_builds() as builds:
        sim.step()  # t=0: job 1 starts on free nodes, with no profile
        sim.step()  # t=10: job 2 needs two nodes, so its pass ends before a profile
    assert sim.now == 10.0
    assert builds[0] == 0
    assert [j.job_id for j in sim.pending.ordered()] == [2]
