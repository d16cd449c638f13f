"""Tests for the real-run emulation: application models, interference,
energy and the Figure 9 statistics of the ``figure9`` built-in scenario."""

from __future__ import annotations

import pytest

from repro.core.contention import ApplicationAwareRuntimeModel, co_run_slowdown
from repro.core.profiles import APPLICATIONS, DEFAULT_APPLICATION, get_application
from repro.experiments.scenario import builtin_scenario, realrun_improvements, run_scenario
from repro.realrun.energy import real_run_energy
from repro.schedulers.fcfs import FCFSScheduler
from repro.simulator.cluster import Cluster
from repro.simulator.simulation import Simulation
from tests.conftest import make_job, rows_of
from tests.test_metrics import finished_job, workload_of


class TestApplicationModels:
    def test_table2_applications_present(self):
        assert set(APPLICATIONS) == {"PILS", "STREAM", "CoreNeuron", "NEST", "Alya"}

    def test_lookup_case_insensitive(self):
        assert get_application("stream").name == "STREAM"
        assert get_application("PILS").name == "PILS"

    def test_lookup_unknown_returns_default(self):
        assert get_application("unknown") is DEFAULT_APPLICATION
        assert get_application(None) is DEFAULT_APPLICATION

    def test_stream_is_memory_bound_and_insensitive_to_shrink(self):
        stream, pils = APPLICATIONS["STREAM"], APPLICATIONS["PILS"]
        assert stream.memory_intensity > pils.memory_intensity
        assert stream.cpu_utilization < pils.cpu_utilization
        # Halving the cores barely hurts STREAM but nearly halves PILS.
        assert stream.shrink_speed(0.5) > 0.75
        assert pils.shrink_speed(0.5) < 0.55

    def test_shrink_speed_bounds(self):
        for app in APPLICATIONS.values():
            assert app.shrink_speed(1.0) == 1.0
            assert app.shrink_speed(0.0) == 0.0
            assert 0.0 < app.shrink_speed(0.5) <= 1.0


class TestInterference:
    def test_no_co_runner_no_slowdown(self):
        assert co_run_slowdown(APPLICATIONS["STREAM"], []) == 1.0

    def test_memory_bound_pair_suffers_most(self):
        stream = APPLICATIONS["STREAM"]
        pils = APPLICATIONS["PILS"]
        with_stream = co_run_slowdown(stream, [stream.memory_intensity])
        with_pils = co_run_slowdown(stream, [pils.memory_intensity])
        assert with_stream > with_pils >= 1.0

    def test_model_speed_full_allocation_alone(self):
        cluster = Cluster(num_nodes=1, sockets=2, cores_per_socket=4)
        model = ApplicationAwareRuntimeModel(cluster=cluster, job_lookup={})
        job = make_job(job_id=1, nodes=1, application="PILS")
        assert model.speed(job, {0: 8}) == pytest.approx(1.0)

    def test_model_speed_uses_application_scaling(self):
        cluster = Cluster(num_nodes=1, sockets=2, cores_per_socket=4)
        model = ApplicationAwareRuntimeModel(cluster=cluster, job_lookup={})
        stream_job = make_job(job_id=1, nodes=1, application="STREAM")
        pils_job = make_job(job_id=2, nodes=1, application="PILS")
        assert model.speed(stream_job, {0: 4}) > model.speed(pils_job, {0: 4})

    def test_model_accounts_for_co_runner(self):
        cluster = Cluster(num_nodes=1, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, FCFSScheduler())
        host = make_job(job_id=1, nodes=1, application="STREAM")
        guest = make_job(job_id=2, nodes=1, application="STREAM")
        sim.jobs.update({1: host, 2: guest})
        sim.pending.add(host)
        sim.start_job_static(host)
        sim.reconfigure_job(host, {0: 4})
        sim.pending.add(guest)
        sim.start_job_shared(guest, {0: 4}, mates=[host])
        model = ApplicationAwareRuntimeModel(cluster=cluster, job_lookup=sim.jobs)
        alone = APPLICATIONS["STREAM"].shrink_speed(0.5)
        assert model.speed(guest, {0: 4}) < alone

    def test_empty_allocation_speed_zero(self):
        model = ApplicationAwareRuntimeModel()
        assert model.speed(make_job(job_id=1), {}) == 0.0


class TestRealRunEnergy:
    def test_low_utilization_app_consumes_less(self):
        stream_job = finished_job(1, runtime=1000.0, start=0.0, submit=0.0)
        stream_job.application = "STREAM"
        pils_job = finished_job(1, runtime=1000.0, start=0.0, submit=0.0)
        pils_job.application = "PILS"
        assert real_run_energy(rows_of([stream_job]), workload_of([stream_job], 2, 8)) < \
            real_run_energy(rows_of([pils_job]), workload_of([pils_job], 2, 8))


class TestEmulator:
    """The emulated real run: the ``figure9`` scenario's static/SD pair."""

    @pytest.fixture(scope="class")
    def outcome(self):
        return run_scenario(builtin_scenario("figure9", scale=0.15, seed=77))

    @pytest.fixture(scope="class")
    def stats(self, outcome):
        return realrun_improvements(outcome)

    def test_all_jobs_complete_in_both_runs(self, outcome):
        static_rows = outcome.baseline_run.records.array
        sd_rows = outcome.cells[0].run.records.array
        assert len(static_rows) == len(sd_rows) == len(outcome.workload)
        assert len(sd_rows) > 0

    def test_sd_improves_slowdown_and_response(self, stats):
        assert stats["improvements"]["avg_slowdown"] > 0
        assert stats["improvements"]["avg_response_time"] > 0

    def test_energy_not_degraded_significantly(self, stats):
        # The paper reports a ~6% energy saving; at reduced scale we only
        # require that SD-Policy does not increase energy by more than a few
        # percent.
        assert stats["improvements"]["energy_joules"] > -5.0

    def test_malleable_jobs_mostly_better_proportional_runtime(self, stats):
        # Paper: 449 of 539 malleable-scheduled jobs used resources more
        # efficiently than the static execution.
        assert stats["malleable_scheduled"] > 0
        assert stats["better_runtime_jobs"] >= 0.6 * stats["malleable_scheduled"]

    def test_improvement_keys(self, stats):
        assert set(stats["improvements"]) >= {
            "makespan", "avg_response_time", "avg_slowdown", "energy_joules"
        }
