"""Streaming metrics: bit-identity with the batch path, and dropped jobs."""

from __future__ import annotations


import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.experiments.runner import run_workload
from repro.metrics.aggregates import WorkloadMetrics, compute_metrics
from repro.metrics.streaming import ChunkedFloatBuffer, StreamingMetrics
from repro.simulator.cluster import Cluster
from repro.simulator.job import JobState
from repro.simulator.simulation import Simulation
from repro.workloads.presets import build_workload
from tests.conftest import completed_jobs, make_job
from tests.test_metrics import finished_job


def assert_metrics_identical(a: WorkloadMetrics, b: WorkloadMetrics) -> None:
    """Exact (bitwise) equality on every field — no approx allowed."""
    assert a.num_jobs == b.num_jobs
    assert a.makespan == b.makespan
    assert a.avg_response_time == b.avg_response_time
    assert a.avg_wait_time == b.avg_wait_time
    assert a.avg_slowdown == b.avg_slowdown
    assert a.avg_bounded_slowdown == b.avg_bounded_slowdown
    assert a.median_slowdown == b.median_slowdown
    assert a.p95_slowdown == b.p95_slowdown
    assert a.avg_runtime == b.avg_runtime
    assert a.malleable_scheduled == b.malleable_scheduled
    assert a.mate_jobs == b.mate_jobs
    assert a.energy_joules == b.energy_joules


class TestChunkedFloatBuffer:
    def test_empty(self):
        buf = ChunkedFloatBuffer()
        assert len(buf) == 0
        assert buf.as_array().shape == (0,)

    def test_preserves_append_order_across_chunks(self):
        buf = ChunkedFloatBuffer(min_chunk=4, max_chunk=8)
        values = [float(i) * 1.25 for i in range(50)]
        for v in values:
            buf.append(v)
        assert len(buf) == 50
        assert buf.as_array().tolist() == values

    def test_chunks_grow_then_cap(self):
        buf = ChunkedFloatBuffer(min_chunk=2, max_chunk=4)
        for i in range(20):
            buf.append(float(i))
        # 2 + 4 + 4 + ... — no chunk beyond the cap.
        assert buf._chunks[0].shape == (2,)
        assert all(c.shape == (4,) for c in buf._chunks[1:])

    def test_as_array_folds_the_chunks_into_one_array(self):
        buf = ChunkedFloatBuffer(min_chunk=4, max_chunk=8)
        for i in range(11):
            buf.append(float(i))
        first = buf.as_array()
        assert buf.as_array() is first
        assert buf._chunks == [first] and buf._current is None
        # Appends after finalisation still land, after the folded values.
        buf.append(11.0)
        assert len(buf) == 12
        assert buf.as_array().tolist() == [float(i) for i in range(12)]

    def test_rejects_bad_chunk_sizes(self):
        with pytest.raises(ValueError):
            ChunkedFloatBuffer(min_chunk=0)
        with pytest.raises(ValueError):
            ChunkedFloatBuffer(min_chunk=8, max_chunk=4)


class TestStreamingFold:
    def test_rejects_unfinished_job(self):
        with pytest.raises(ValueError):
            StreamingMetrics().fold(make_job())

    def test_empty_accumulator_metrics(self):
        metrics = StreamingMetrics().workload_metrics(energy_joules=5.0)
        assert metrics.num_jobs == 0
        assert metrics.makespan == 0.0
        assert metrics.energy_joules == 5.0

    def test_single_job_matches_compute_metrics(self):
        job = finished_job(submit=0.0, start=50.0, runtime=100.0)
        acc = StreamingMetrics()
        acc.fold(job)
        assert_metrics_identical(acc.workload_metrics(), compute_metrics([job]))

    @given(
        specs=st.lists(
            st.tuples(
                st.floats(0.0, 1e5),   # submit
                st.floats(0.0, 1e4),   # wait before start
                st.floats(1.0, 1e5),   # runtime
                st.booleans(),          # malleable_scheduled
            ),
            min_size=1,
            max_size=30,
        )
    )
    @settings(max_examples=80, suppress_health_check=[HealthCheck.filter_too_much])
    def test_fold_matches_compute_metrics(self, specs):
        jobs = []
        acc = StreamingMetrics()
        for i, (submit, wait, runtime, malleable) in enumerate(specs):
            job = finished_job(
                job_id=i + 1,
                submit=submit,
                start=submit + wait,
                runtime=runtime,
                malleable_scheduled=malleable,
            )
            jobs.append(job)
            acc.fold(job)
        assert_metrics_identical(acc.workload_metrics(), compute_metrics(jobs))
        # Run-level origin agrees too.
        assert acc.workload_metrics(first_submit=0.0).makespan == \
            compute_metrics(jobs, first_submit=0.0).makespan


PRESET_SCALES = {1: 0.01, 2: 0.01, 3: 0.01, 4: 0.005, 5: 0.05}


class TestStreamingSimulationParity:
    @pytest.mark.parametrize("workload_id", sorted(PRESET_SCALES))
    def test_streaming_matches_batch_on_preset(self, workload_id):
        """The tentpole acceptance pin: on every workload preset the fold's
        metrics equal the batch oracle over the same jobs in completion
        order, bit for bit."""
        workload = build_workload(workload_id, scale=PRESET_SCALES[workload_id])
        with completed_jobs() as jobs:
            run = run_workload(
                workload,
                policy="sd_policy",
                runtime_model="ideal",
                max_slowdown=10.0,
                seed=workload_id,
            )
        result = run.result
        assert result.num_jobs == len(jobs) > 0
        assert run.records.array["job_id"].tolist() == [j.job_id for j in jobs]
        batch = compute_metrics(
            jobs, energy_joules=result.energy_joules, first_submit=result.first_submit
        )
        assert_metrics_identical(run.metrics, batch)
        assert result.malleable_scheduled_jobs == batch.malleable_scheduled
        assert result.mate_jobs == batch.mate_jobs

    def test_retained_sim_streaming_agrees_with_batch(self, tiny_workload, sd_scheduler):
        """Within one run, the online accumulator reproduces the post-hoc
        compute_metrics over the same completed jobs."""
        cluster = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, sd_scheduler)
        sim.submit_jobs(tiny_workload.to_jobs(cpus_per_node=8))
        with completed_jobs() as jobs:
            result = sim.run()
        assert result.num_jobs == len(tiny_workload)
        batch = compute_metrics(
            jobs,
            energy_joules=result.energy_joules,
            first_submit=result.first_submit,
        )
        online = sim.streaming.workload_metrics(
            energy_joules=result.energy_joules,
            first_submit=result.first_submit,
        )
        assert_metrics_identical(online, batch)
        # The result's sequential-sum aggregates match the accumulator too.
        n = sim.streaming.count
        assert result.avg_response_time == sim.streaming.sum_response / n
        assert result.avg_slowdown == sim.streaming.sum_slowdown / n
        assert result.avg_wait_time == sim.streaming.sum_wait / n

    def test_submit_stream_equivalent_to_submit_jobs(self, tiny_workload, backfill_scheduler):
        from repro.schedulers.backfill import BackfillScheduler

        cluster_a = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        eager = Simulation(cluster_a, backfill_scheduler)
        eager.submit_jobs(tiny_workload.to_jobs(cpus_per_node=8))
        res_eager = eager.run()

        cluster_b = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        lazy = Simulation(cluster_b, BackfillScheduler())
        lazy.submit_stream(tiny_workload.iter_jobs(cpus_per_node=8))
        res_lazy = lazy.run()

        assert res_eager.total_events == res_lazy.total_events
        assert res_eager.makespan == res_lazy.makespan
        assert res_eager.avg_response_time == res_lazy.avg_response_time
        assert res_eager.avg_slowdown == res_lazy.avg_slowdown
        assert res_eager.energy_joules == res_lazy.energy_joules
        assert np.array_equal(eager.streaming.records(), lazy.streaming.records())

    def test_completed_jobs_are_dropped(self, tiny_workload, sd_scheduler):
        cluster = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, sd_scheduler)
        sim.submit_stream(tiny_workload.iter_jobs(cpus_per_node=8))
        steps = 0
        while sim.step():
            steps += 1
            # The simulation drops each job the moment it completes.
            assert not any(job.state is JobState.COMPLETED for job in sim.jobs.values())
        assert steps > 0
        result = sim.result()
        assert result.num_jobs == len(tiny_workload)
        assert len(sim.streaming.records()) == len(tiny_workload)
        assert sim.jobs == {}  # every job folded and discarded

    def test_second_stream_rejected(self, tiny_workload, backfill_scheduler):
        cluster = Cluster(num_nodes=16, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, backfill_scheduler)
        sim.submit_stream(tiny_workload.iter_jobs(cpus_per_node=8))
        with pytest.raises(RuntimeError):
            sim.submit_stream(tiny_workload.iter_jobs(cpus_per_node=8))

    def test_unsorted_stream_rejected(self, backfill_scheduler):
        cluster = Cluster(num_nodes=4, sockets=2, cores_per_socket=4)
        sim = Simulation(cluster, backfill_scheduler)
        jobs = [make_job(job_id=1, submit=100.0), make_job(job_id=2, submit=50.0)]
        with pytest.raises(ValueError, match="not sorted"):
            sim.submit_stream(iter(jobs))

    @pytest.mark.parametrize(
        "policy, kwargs, checks",
        [("static_backfill", {}, 13732), ("sd_policy", {"max_slowdown": 10.0}, 15009)],
    )
    def test_stale_checks_pinned_on_workload_4(self, monkeypatch, policy, kwargs, checks):
        # Streamed submissions peek the heap once per batch, not once per
        # job pulled: one stale check fewer per job than the 15,716
        # (static) and 16,993 (SD MAXSD 10) of a peek per job.
        production = Simulation.is_stale_end
        calls = [0]

        def counted(self, event):
            calls[0] += 1
            return production(self, event)

        monkeypatch.setattr(Simulation, "is_stale_end", counted)
        run_workload(build_workload(4, scale=0.01), policy=policy, **kwargs)
        assert calls[0] == checks
