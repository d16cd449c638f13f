"""The simulation's release ledger against a from-scratch profile rebuild.

``Simulation.availability_profile`` builds its base profile from a sorted
ledger of the running jobs' predicted ends, and trims the cached base when
only time advances.  Every profile it hands out must equal
``ReservationMap.from_running_jobs`` over ``sim.running`` at that instant,
across static, SD-Policy and UB-Policy runs, and reservations a caller adds
to one profile must never show in the next.
"""

from __future__ import annotations

from datetime import timedelta

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.core.ub_policy import UBPolicyConfig, UBPolicyScheduler
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.reservation import ReservationMap
from repro.simulator.simulation import Simulation
from tests.conftest import make_job

SCHEDULERS = {
    "static_backfill": BackfillScheduler,
    "sd_maxsd_10": lambda: SDPolicyScheduler(SDPolicyConfig(max_slowdown=10.0)),
    "sd_dynavgsd": lambda: SDPolicyScheduler(SDPolicyConfig(max_slowdown="dynamic")),
    "ub_maxsd_10": lambda: UBPolicyScheduler(UBPolicyConfig(max_slowdown=10.0)),
}

APPLICATIONS = (None, "PILS", "STREAM", "CoreNeuron", "NEST", "Alya")


@st.composite
def ledger_runs(draw):
    num_nodes = draw(st.integers(1, 12))
    jobs = []
    for job_id in range(1, draw(st.integers(1, 40)) + 1):
        req_time = draw(st.integers(1, 30)) * 100.0
        jobs.append(make_job(
            job_id=job_id,
            submit=draw(st.integers(0, 12)) * 200.0,  # coarse grid: tied submits
            nodes=draw(st.integers(1, min(4, num_nodes))),
            req_time=req_time,
            # 1.6: the job outlives its request, so its predicted release
            # falls behind ``now`` while it still runs.
            runtime=req_time * draw(st.sampled_from((0.3, 0.7, 1.0, 1.6))),
            malleable=draw(st.booleans()),
            application=draw(st.sampled_from(APPLICATIONS)),
        ))
    return num_nodes, jobs, draw(st.sampled_from(sorted(SCHEDULERS)))


def check_every_profile(sim):
    """Wrap ``sim.availability_profile`` to hold each call against a rebuild.

    Returns the list the wrapper appends every profile it handed out to.
    """
    production = sim.availability_profile
    handed_out = []

    def availability_profile():
        profile = production()
        reference = ReservationMap.from_running_jobs(
            sim.cluster.num_nodes, sim.now, sim.cluster.num_free_nodes, sim.running.values()
        )
        assert profile.now == sim.now
        assert profile.profile() == reference.profile()
        if handed_out:
            # Equal to the rebuild although the caller may have reserved on
            # the previous copy: its reservations did not leak into this one.
            previous = handed_out[-1]
            assert profile._times is not previous._times
            assert profile._free is not previous._free
        handed_out.append(profile)
        return profile

    sim.availability_profile = availability_profile
    return handed_out


@settings(
    max_examples=250,
    deadline=timedelta(seconds=5),
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(run=ledger_runs())
def test_ledger_profile_matches_a_rebuild_at_every_request(run):
    num_nodes, jobs, scheduler = run
    sim = Simulation(Cluster(num_nodes=num_nodes, sockets=2, cores_per_socket=4),
                     SCHEDULERS[scheduler]())
    check_every_profile(sim)
    sim.submit_jobs(jobs)
    sim.run()
    assert not sim.running
    assert sim._releases == []


def test_reserving_on_a_copy_never_reaches_the_next_request():
    sim = Simulation(Cluster(num_nodes=4, sockets=2, cores_per_socket=4), BackfillScheduler())
    sim.submit_jobs([
        make_job(job_id=1, nodes=2, req_time=300.0, runtime=500.0),
        make_job(job_id=2, nodes=1, req_time=600.0, runtime=100.0),
    ])
    sim.step()
    handed_out = check_every_profile(sim)
    first = sim.availability_profile()
    first.add_reservation(0.0, 1000.0, 1)
    sim.now = 400.0  # past job 1's requested end, which is still running
    second = sim.availability_profile()
    assert second.profile() == [(400.0, 3), (600.0, 4)]
    assert first.profile() == [(0.0, 0), (300.0, 2), (600.0, 3), (1000.0, 4)]
    assert len(handed_out) == 2
