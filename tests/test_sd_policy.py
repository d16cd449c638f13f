"""Tests for the SD-Policy scheduler (Listing 1 + Listing 3 behaviour)."""

from __future__ import annotations

import math
from datetime import timedelta

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.penalties import DynamicAverageMaxSlowdown, StaticMaxSlowdown
from repro.core.sd_policy import SDPolicyConfig, SDPolicyScheduler
from repro.experiments import runner
from repro.schedulers.backfill import BackfillScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation
from repro.workloads.presets import build_workload
from tests.conftest import make_job


def run_jobs(scheduler, jobs, nodes=2, cpus=8, **sim_kwargs):
    cluster = Cluster(num_nodes=nodes, sockets=2, cores_per_socket=cpus // 2)
    sim = Simulation(cluster, scheduler, **sim_kwargs)
    sim.submit_jobs(jobs)
    result = sim.run()
    cluster.validate()
    return {j.job_id: j for j in jobs}, result


def saturating_scenario(guest_malleable=True, guest_req=1000.0, guest_runtime=800.0):
    """Two long 1-node jobs fill a 2-node cluster; a short job arrives later."""
    return [
        make_job(job_id=1, submit=0.0, nodes=1, req_time=20000.0, runtime=18000.0),
        make_job(job_id=2, submit=0.0, nodes=1, req_time=20000.0, runtime=18000.0),
        make_job(job_id=3, submit=50.0, nodes=1, req_time=guest_req,
                 runtime=guest_runtime, malleable=guest_malleable),
    ]


class TestConfig:
    def test_static_cutoff_built(self):
        config = SDPolicyConfig(max_slowdown=10.0)
        assert isinstance(config.build_cutoff(), StaticMaxSlowdown)

    def test_dynamic_cutoff_built(self):
        config = SDPolicyConfig(max_slowdown="dynamic")
        assert isinstance(config.build_cutoff(), DynamicAverageMaxSlowdown)

    def test_unknown_cutoff_spec_rejected(self):
        with pytest.raises(ValueError):
            SDPolicyConfig(max_slowdown="bogus").build_cutoff()

    def test_scheduler_name_mentions_cutoff_and_factor(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=10.0, sharing_factor=0.5))
        assert "MAXSD 10" in scheduler.name
        assert "0.5" in scheduler.name


class TestMalleableCoScheduling:
    def test_short_job_starts_immediately_as_guest(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, result = run_jobs(scheduler, saturating_scenario())
        guest = by_id[3]
        assert guest.scheduled_malleable
        assert guest.start_time == pytest.approx(50.0)
        # Worst-case execution at half the cores -> about twice the runtime.
        assert guest.actual_runtime == pytest.approx(1600.0)
        assert result.malleable_scheduled_jobs == 1
        assert result.mate_jobs == 1

    def test_mate_is_expanded_back_after_guest_ends(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, _ = run_jobs(scheduler, saturating_scenario())
        guest = by_id[3]
        mate_id = guest.guest_of[0] if guest.guest_of else None
        # Bookkeeping is unlinked at guest end, so look at the mate's history.
        mates = [j for j in by_id.values() if j.was_mate]
        assert len(mates) == 1
        mate = mates[0]
        # Shrunk interval followed by a full-width interval again.
        widths = [min(s.cpus_per_node.values()) for s in mate.resource_history]
        assert widths[0] == 8 and 4 in widths and widths[-1] == 8
        # The mate pays for hosting: it finishes later than its static runtime.
        assert mate.actual_runtime > mate.static_runtime

    def test_non_malleable_job_waits(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, result = run_jobs(scheduler, saturating_scenario(guest_malleable=False))
        guest = by_id[3]
        assert not guest.scheduled_malleable
        assert guest.start_time >= 18000.0
        assert result.malleable_scheduled_jobs == 0

    def test_malleability_skipped_when_static_is_better(self):
        # The running jobs end soon (short requested time), so waiting is
        # cheaper than running dilated: SD-Policy must not apply malleability.
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=1, req_time=300.0, runtime=250.0),
            make_job(job_id=2, submit=0.0, nodes=1, req_time=300.0, runtime=250.0),
            make_job(job_id=3, submit=50.0, nodes=1, req_time=1000.0, runtime=800.0),
        ]
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, result = run_jobs(scheduler, jobs)
        assert not by_id[3].scheduled_malleable
        assert result.malleable_scheduled_jobs == 0
        assert scheduler.stats()["rejected_by_estimate"] > 0

    def test_max_slowdown_cutoff_blocks_mates(self):
        # With an extremely tight cut-off no mate is admissible.
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=1.0000001))
        by_id, result = run_jobs(scheduler, saturating_scenario())
        assert result.malleable_scheduled_jobs == 0
        assert scheduler.stats()["rejected_no_mates"] > 0

    def test_requested_times_updated_after_selection(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, _ = run_jobs(scheduler, saturating_scenario())
        mate = [j for j in by_id.values() if j.was_mate][0]
        guest = by_id[3]
        assert mate.requested_time > 20000.0
        assert guest.requested_time >= 2 * 1000.0

    def test_guest_slowdown_improves_over_static_backfill(self):
        sd_by_id, _ = run_jobs(
            SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf)), saturating_scenario()
        )
        static_by_id, _ = run_jobs(BackfillScheduler(), saturating_scenario())
        assert sd_by_id[3].slowdown < static_by_id[3].slowdown

    def test_mixed_workload_static_jobs_unaffected_structurally(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, _ = run_jobs(scheduler, saturating_scenario(guest_malleable=False))
        for job in by_id.values():
            for slot in job.resource_history:
                assert all(c == 8 for c in slot.cpus_per_node.values())


class TestMateEndsBeforeGuest:
    def test_guest_takes_over_freed_cores(self):
        # The mate's real runtime is much shorter than requested, so it ends
        # while still hosting; the guest must expand onto the freed cores
        # (Listing 3's distribute_cpu behaviour).
        jobs = [
            make_job(job_id=1, submit=0.0, nodes=1, req_time=20000.0, runtime=1000.0),
            make_job(job_id=2, submit=0.0, nodes=1, req_time=20000.0, runtime=18000.0),
            make_job(job_id=3, submit=50.0, nodes=1, req_time=3000.0, runtime=2500.0),
        ]
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        by_id, _ = run_jobs(scheduler, jobs)
        guest = by_id[3]
        assert guest.scheduled_malleable
        widths = [max(s.cpus_per_node.values()) for s in guest.resource_history]
        assert widths[0] == 4          # shrunk at start
        assert widths[-1] == 8         # expanded to the full node after the mate left
        # Expansion shortens the guest versus staying shrunk the whole time.
        assert guest.actual_runtime < 2 * 2500.0


class TestSchedulerHygiene:
    def test_bind_resets_counters(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown=math.inf))
        run_jobs(scheduler, saturating_scenario())
        assert scheduler.malleable_starts > 0
        run_jobs(scheduler, saturating_scenario())
        assert scheduler.malleable_starts == 1  # reset by bind() on the new run

    def test_stats_keys(self):
        scheduler = SDPolicyScheduler()
        stats = scheduler.stats()
        assert set(stats) == {"malleable_starts", "rejected_by_estimate", "rejected_no_mates"}

    def test_dynamic_cutoff_never_blocks_empty_system(self):
        scheduler = SDPolicyScheduler(SDPolicyConfig(max_slowdown="dynamic"))
        by_id, result = run_jobs(scheduler, saturating_scenario())
        assert result.num_jobs == 3


class WorkAheadProbe(SDPolicyScheduler):
    """SD-Policy recording, at every in-pass attempt, the work ahead it was
    handed and the value summed eagerly from the state at pass start.

    The eager sum is the running jobs' remaining requested work, then each
    higher-priority window job's ``requested_cpus * requested_time`` in
    window order.  A window job's term is its value at pass start unless a
    malleable start in the pass extended its requested time first.
    """

    def __init__(self, config):
        super().__init__(config)
        self.pairs = []
        self._pass = None

    def schedule(self, sim):
        super().schedule(sim)
        self._pass = None  # attempts from on_job_submit are not in a pass

    def on_pass_start(self, sim):
        super().on_pass_start(sim)
        base = 0.0
        for job in sim.running.values():
            base += max(0.0, job.start_time + job.requested_time - sim.now) * job.requested_cpus
        window = sim.pending.ordered(self.max_job_test)
        terms = {job.job_id: job.requested_cpus * job.requested_time for job in window}
        self._pass = (base, window, terms)

    def try_malleable_start(self, sim, job, profile, estimated_start, work_ahead_cpu_seconds=0.0):
        started = super().try_malleable_start(
            sim, job, profile, estimated_start, work_ahead_cpu_seconds
        )
        if self._pass is not None:
            expected, window, terms = self._pass
            for ahead in window:
                if ahead is job:
                    break
                expected += terms[ahead.job_id]
            self.pairs.append((work_ahead_cpu_seconds.hex(), expected.hex()))
            if started:
                terms[job.job_id] = job.requested_cpus * job.requested_time
        return started


@st.composite
def work_ahead_runs(draw):
    num_nodes = draw(st.integers(1, 8))
    jobs = []
    for job_id in range(1, draw(st.integers(1, 40)) + 1):
        req_time = draw(st.integers(1, 40)) * 100.0
        jobs.append(make_job(
            job_id=job_id,
            submit=draw(st.integers(0, 15)) * 200.0,  # coarse grid: tied submits
            nodes=draw(st.integers(1, num_nodes)),
            req_time=req_time,
            runtime=req_time * draw(st.sampled_from((0.3, 0.7, 1.0))),
            malleable=draw(st.booleans()),
        ))
    config = SDPolicyConfig(
        max_slowdown=draw(st.sampled_from((10.0, math.inf, "dynamic"))),
        max_job_test=draw(st.sampled_from((2, 5, 100))),
    )
    return num_nodes, jobs, config


class TestWorkAhead:
    @settings(
        max_examples=150,
        deadline=timedelta(seconds=5),
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    @given(run=work_ahead_runs())
    def test_lazy_sum_equals_the_eager_sum_bit_for_bit(self, run):
        num_nodes, jobs, config = run
        scheduler = WorkAheadProbe(config)
        run_jobs(scheduler, jobs, nodes=num_nodes)
        for got, expected in scheduler.pairs:
            assert got == expected

    def test_lazy_sum_on_the_guard_curie_input(self):
        scheduler = WorkAheadProbe(SDPolicyConfig(max_slowdown=10.0))
        run = runner.run_workload(
            build_workload(4, scale=0.005), policy=scheduler, runtime_model="worst_case",
            malleable_fraction=1.0,
        )
        assert run.scheduler_stats["malleable_starts"] == 340
        assert len(scheduler.pairs) > 10000
        assert all(got == expected for got, expected in scheduler.pairs)
