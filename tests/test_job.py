"""Unit tests for the Job model (states, timing metrics, progress accounting)."""

from __future__ import annotations

import math

import pytest

from repro.simulator.job import Job, JobState, ResourceSlot
from tests.conftest import make_job


class TestJobValidation:
    def test_rejects_non_positive_nodes(self):
        with pytest.raises(ValueError):
            make_job(nodes=0)

    def test_rejects_non_positive_requested_time(self):
        with pytest.raises(ValueError):
            make_job(req_time=0)

    def test_rejects_non_positive_runtime(self):
        with pytest.raises(ValueError):
            make_job(runtime=-5)

    def test_rejects_non_positive_cpus_per_node(self):
        with pytest.raises(ValueError):
            make_job(cpus_per_node=0)

    def test_rejects_non_positive_tasks_per_node(self):
        with pytest.raises(ValueError):
            make_job(tasks_per_node=0)


class TestJobDerivedQuantities:
    def test_requested_cpus(self):
        job = make_job(nodes=3, cpus_per_node=8)
        assert job.requested_cpus == 24

    def test_min_cpus_per_node_default(self):
        assert make_job().min_cpus_per_node == 1

    def test_min_cpus_per_node_with_ranks(self):
        assert make_job(tasks_per_node=4).min_cpus_per_node == 4

    def test_initial_state_is_pending(self):
        assert make_job().state is JobState.PENDING

    def test_metrics_none_before_completion(self):
        job = make_job()
        assert job.wait_time is None
        assert job.response_time is None
        assert job.slowdown is None
        assert job.actual_runtime is None


class TestJobLifecycle:
    def test_start_sets_wait_time(self):
        job = make_job(submit=100.0)
        job.mark_started(250.0)
        assert job.state is JobState.RUNNING
        assert job.wait_time == 150.0

    def test_cannot_start_twice(self):
        job = make_job()
        job.mark_started(0.0)
        with pytest.raises(RuntimeError):
            job.mark_started(1.0)

    def test_cannot_finish_before_start(self):
        with pytest.raises(RuntimeError):
            make_job().mark_finished(10.0)

    def test_finish_sets_metrics(self):
        job = make_job(submit=0.0, runtime=100.0)
        job.mark_started(50.0)
        job.reconfigure(50.0, {0: 8}, speed=1.0)
        job.mark_finished(150.0)
        assert job.state is JobState.COMPLETED
        assert job.response_time == 150.0
        assert job.actual_runtime == 100.0
        assert job.slowdown == pytest.approx(1.5)

    def test_slowdown_uses_static_runtime_denominator(self):
        # Even if the malleable execution dilates the runtime, the slowdown
        # denominator is the static execution time (paper Section 4).
        job = make_job(submit=0.0, runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 4}, speed=0.5)
        job.mark_finished(200.0)
        assert job.slowdown == pytest.approx(2.0)

    def test_bounded_slowdown_floor(self):
        job = make_job(submit=0.0, runtime=1.0, req_time=10.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 8}, speed=1.0)
        job.mark_finished(1.0)
        assert job.bounded_slowdown(tau=10.0) == 1.0


class TestProgressAccounting:
    def test_full_speed_progress(self):
        job = make_job(runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 8}, speed=1.0)
        job.advance_progress(60.0)
        assert job.work_remaining == pytest.approx(40.0)

    def test_half_speed_progress(self):
        job = make_job(runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 4}, speed=0.5)
        job.advance_progress(100.0)
        assert job.work_remaining == pytest.approx(50.0)

    def test_progress_never_negative(self):
        job = make_job(runtime=10.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 8}, speed=1.0)
        job.advance_progress(1000.0)
        assert job.work_remaining == 0.0

    def test_time_going_backwards_raises(self):
        job = make_job(runtime=10.0)
        job.mark_started(100.0)
        job.reconfigure(100.0, {0: 8}, speed=1.0)
        with pytest.raises(ValueError):
            job.advance_progress(50.0)

    def test_predicted_end_time_full_speed(self):
        job = make_job(runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 8}, speed=1.0)
        assert job.predicted_end_time() == pytest.approx(100.0)

    def test_predicted_end_time_changes_with_speed(self):
        job = make_job(runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 4}, speed=0.5)
        assert job.predicted_end_time() == pytest.approx(200.0)
        # Expanding back at t=100 (50 static-seconds of work left).
        job.reconfigure(100.0, {0: 8}, speed=1.0)
        assert job.predicted_end_time() == pytest.approx(150.0)

    def test_predicted_end_infinite_for_pending(self):
        assert make_job().predicted_end_time() == math.inf

    def test_predicted_end_infinite_at_zero_speed(self):
        job = make_job(runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 1}, speed=0.0)
        assert job.predicted_end_time() == math.inf

    def test_reconfigure_rejects_negative_speed(self):
        job = make_job()
        job.mark_started(0.0)
        with pytest.raises(ValueError):
            job.reconfigure(0.0, {0: 8}, speed=-0.1)

    def test_reconfigure_bumps_end_event_serial(self):
        job = make_job()
        job.mark_started(0.0)
        serial_before = job.end_event_serial
        job.reconfigure(0.0, {0: 8}, speed=1.0)
        assert job.end_event_serial == serial_before + 1

    def test_resource_history_closed_on_finish(self):
        job = make_job(runtime=10.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 8}, speed=1.0)
        job.mark_finished(10.0)
        assert len(job.resource_history) == 1
        slot = job.resource_history[0]
        assert slot.start == 0.0
        assert slot.end == 10.0
        assert slot.total_cpus == 8

    def test_resource_history_tracks_reconfigurations(self):
        job = make_job(runtime=100.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {0: 8, 1: 8}, speed=1.0)
        job.reconfigure(30.0, {0: 4, 1: 4}, speed=0.5)
        job.mark_finished(170.0)
        assert len(job.resource_history) == 2
        assert job.resource_history[0].duration == pytest.approx(30.0)
        assert job.resource_history[1].duration == pytest.approx(140.0)


class TestCurrentConfiguration:
    def test_views_read_the_open_slot(self):
        job = make_job(runtime=100.0)
        assert (job.assigned_cpus, job.current_speed, job.allocated_nodes) == ({}, 0.0, [])
        job.mark_started(0.0)
        cpus = {3: 8, 1: 8}
        job.reconfigure(0.0, cpus, speed=1.0)
        cpus[3] = 1  # the slot keeps its own copy
        assert job.assigned_cpus == {3: 8, 1: 8}
        assert job.allocated_nodes == [1, 3]
        job.reconfigure(10.0, {1: 4}, speed=0.5)
        assert job.assigned_cpus is job.resource_history[-1].cpus_per_node
        assert job.current_speed == 0.5
        assert job.allocated_nodes == [1]

    def test_finished_job_holds_no_cpus_and_keeps_its_nodes(self):
        job = make_job(runtime=10.0)
        job.mark_started(0.0)
        job.reconfigure(0.0, {2: 8}, speed=1.0)
        job.mark_finished(10.0)
        assert (job.assigned_cpus, job.current_speed) == ({}, 0.0)
        assert job.allocated_nodes == [2]

    def test_views_cannot_be_assigned(self):
        job = make_job()
        with pytest.raises(AttributeError):
            job.assigned_cpus = {0: 8}
        with pytest.raises(AttributeError):
            job.current_speed = 1.0


class TestResourceSlot:
    def test_total_cpus(self):
        slot = ResourceSlot(start=0.0, end=10.0, cpus_per_node={0: 4, 1: 6}, speed=1.0)
        assert slot.total_cpus == 10

    def test_duration(self):
        slot = ResourceSlot(start=5.0, end=15.0, cpus_per_node={0: 1}, speed=1.0)
        assert slot.duration == 10.0

    def test_open_slot_duration_is_inf(self):
        slot = ResourceSlot(start=5.0, end=math.inf, cpus_per_node={0: 1}, speed=1.0)
        assert math.isinf(slot.duration)
