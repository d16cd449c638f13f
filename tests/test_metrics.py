"""Tests for aggregate metrics, heatmaps, time series and energy."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from repro.metrics.aggregates import compute_metrics
from repro.metrics.energy import LinearPowerModel
from repro.metrics.heatmap import category_heatmap, heatmap_ratio
from repro.metrics.timeseries import daily_malleable_counts, daily_series_table, daily_slowdown
from repro.realrun.energy import real_run_energy
from repro.workloads.job_record import JobRecord, Workload
from tests.conftest import make_job, rows_of


def finished_job(job_id=1, submit=0.0, start=10.0, runtime=100.0, nodes=1,
                 cpus_per_node=8, malleable_scheduled=False):
    job = make_job(job_id=job_id, submit=submit, nodes=nodes, runtime=runtime,
                   req_time=runtime * 2, cpus_per_node=cpus_per_node)
    job.mark_started(start)
    job.reconfigure(start, {n: cpus_per_node for n in range(nodes)}, speed=1.0)
    job.mark_finished(start + runtime)
    job.scheduled_malleable = malleable_scheduled
    return job


def workload_of(jobs, num_nodes, cpus_per_node):
    """A workload holding the given jobs, each with its application."""
    records = [
        JobRecord(job_id=job.job_id, submit_time=job.submit_time,
                  run_time=job.static_runtime, requested_time=job.requested_time,
                  requested_procs=job.requested_cpus, application=job.application)
        for job in jobs
    ]
    return Workload("energy", records, num_nodes, cpus_per_node)


class TestAggregates:
    def test_empty_set(self):
        metrics = compute_metrics([])
        assert metrics.num_jobs == 0
        assert metrics.makespan == 0.0
        assert metrics.avg_response_time == 0.0
        assert metrics.avg_slowdown == 0.0
        assert metrics.avg_wait_time == 0.0

    def test_single_job_values(self):
        job = finished_job(submit=0.0, start=50.0, runtime=100.0)
        metrics = compute_metrics([job])
        assert metrics.makespan == 150.0
        assert metrics.avg_response_time == 150.0
        assert metrics.avg_wait_time == 50.0
        assert metrics.avg_slowdown == pytest.approx(1.5)

    def test_makespan_spans_first_arrival_to_last_end(self):
        jobs = [finished_job(1, submit=0.0, start=0.0, runtime=10.0),
                finished_job(2, submit=100.0, start=100.0, runtime=50.0)]
        assert compute_metrics(jobs).makespan == 150.0

    def test_unfinished_jobs_ignored(self):
        done = finished_job(1)
        pending = make_job(job_id=2)
        metrics = compute_metrics([done, pending])
        assert metrics.num_jobs == 1

    def test_makespan_run_level_origin_with_dropped_first_job(self):
        """Regression: the earliest-submitted job never completed, so the
        per-job origin drifts late; the run-level first submit restores the
        origin Simulation.result() uses."""
        dropped = make_job(job_id=1, submit=0.0)  # submitted first, never ran
        late = finished_job(2, submit=100.0, start=100.0, runtime=50.0)
        jobs = [dropped, late]
        assert compute_metrics(jobs).makespan == 50.0  # drifted: anchored at the survivor
        assert compute_metrics(jobs, first_submit=0.0).makespan == 150.0
        # The origin never produces a negative makespan.
        assert compute_metrics(jobs, first_submit=1e9).makespan == 0.0

    def test_compute_metrics_single_pass_matches_per_metric_helpers(self):
        jobs = [finished_job(i, submit=10.0 * i, start=10.0 * i + 5.0,
                             runtime=50.0 + 7.0 * i) for i in range(1, 8)]
        metrics = compute_metrics(jobs)
        # One NumPy reduction per metric over the per-job values.
        assert metrics.makespan == max(j.end_time for j in jobs) - jobs[0].submit_time
        assert metrics.avg_response_time == float(np.mean([j.response_time for j in jobs]))
        assert metrics.avg_wait_time == float(np.mean([j.wait_time for j in jobs]))
        assert metrics.avg_slowdown == float(np.mean([j.slowdown for j in jobs]))
        assert metrics.avg_bounded_slowdown == float(
            np.mean([j.bounded_slowdown(10.0) for j in jobs])
        )

    def test_bounded_slowdown_at_least_one(self):
        job = finished_job(runtime=1.0, start=0.0, submit=0.0)
        assert compute_metrics([job]).avg_bounded_slowdown >= 1.0

    def test_compute_metrics_fields(self):
        jobs = [finished_job(i, submit=i * 10.0, start=i * 10.0 + 5, runtime=50.0,
                             malleable_scheduled=(i % 2 == 0)) for i in range(6)]
        metrics = compute_metrics(jobs, energy_joules=123.0)
        assert metrics.num_jobs == 6
        assert metrics.energy_joules == 123.0
        assert metrics.malleable_scheduled == 3
        assert metrics.median_slowdown <= metrics.p95_slowdown
        assert set(metrics.as_dict()) >= {"makespan", "avg_slowdown", "num_jobs"}


class TestHeatmap:
    def _rows(self):
        return rows_of([
            finished_job(1, nodes=1, runtime=1800.0),     # small short
            finished_job(2, nodes=1, runtime=1800.0),
            finished_job(3, nodes=8, runtime=90000.0),    # large long
        ])

    def test_cells_average_per_category(self):
        grid = category_heatmap(self._rows(), metric="slowdown")
        rows = [r for r in grid.to_rows() if r["count"] > 0]
        assert sum(r["count"] for r in rows) == 3
        assert len(rows) == 2  # two distinct categories

    def test_unknown_metric_rejected(self):
        with pytest.raises(ValueError):
            category_heatmap(self._rows(), metric="nonsense")

    def test_ratio_grid(self):
        baseline = category_heatmap(self._rows(), metric="wait")
        # Same jobs -> ratio 1 everywhere a category exists.
        ratio = heatmap_ratio(baseline, baseline)
        finite = ratio.values[np.isfinite(ratio.values)]
        assert np.allclose(finite, 1.0)

    def test_ratio_shape_mismatch_rejected(self):
        a = category_heatmap(self._rows(), node_edges=(1, 2))
        b = category_heatmap(self._rows())
        with pytest.raises(ValueError):
            heatmap_ratio(a, b)

    def test_labels_available(self):
        grid = category_heatmap(self._rows())
        assert len(grid.node_labels) == len(grid.node_edges)
        assert len(grid.runtime_labels) == len(grid.runtime_edges)


class TestTimeSeries:
    def _rows(self):
        day = 86400.0
        return rows_of([
            finished_job(1, submit=0.0, start=10.0, runtime=100.0),
            finished_job(2, submit=0.5 * day, start=0.5 * day + 50, runtime=100.0),
            finished_job(3, submit=1.2 * day, start=1.2 * day + 10, runtime=100.0,
                         malleable_scheduled=True),
        ])

    def test_daily_slowdown_grouping(self):
        series = daily_slowdown(self._rows())
        assert set(series) == {0, 1}
        assert series[0] > 1.0

    def test_daily_malleable_counts(self):
        counts = daily_malleable_counts(self._rows())
        assert counts == {1: 1}

    def test_empty(self):
        assert daily_slowdown(rows_of([])) == {}
        assert daily_malleable_counts(rows_of([])) == {}

    def test_series_table_combines_runs(self):
        rows = daily_series_table(self._rows(), self._rows())
        assert [r["day"] for r in rows] == [0, 1]
        assert rows[1]["malleable_jobs"] == 1
        assert rows[0]["static_slowdown"] == pytest.approx(rows[0]["sd_slowdown"])

    def test_series_table_shares_one_origin_across_runs(self):
        """Regression: runs whose earliest *completed* job differs must not
        derive shifted per-run day axes."""
        day = 86400.0
        # The static run never completes the day-0 job, so it has no row
        # for it: its own earliest completion is on day 1 of the workload.
        static = rows_of([
            finished_job(2, submit=1.0 * day, start=1.0 * day + 60, runtime=100.0),
            finished_job(3, submit=2.0 * day, start=2.0 * day + 60, runtime=100.0),
        ])
        sd = rows_of([
            finished_job(1, submit=0.0, start=10.0, runtime=100.0),
            finished_job(2, submit=1.0 * day, start=1.0 * day + 30, runtime=100.0),
            finished_job(3, submit=2.0 * day, start=2.0 * day + 30, runtime=100.0),
        ])
        rows = daily_series_table(static, sd)
        by_day = {r["day"]: r for r in rows}
        # Day 0 exists only in the SD run; the static series starts on day 1
        # of the *shared* axis instead of being pulled back to its own day 0.
        assert set(by_day) == {0, 1, 2}
        assert math.isnan(by_day[0]["static_slowdown"])
        assert math.isfinite(by_day[0]["sd_slowdown"])
        assert math.isfinite(by_day[1]["static_slowdown"])

    def test_series_table_explicit_origin(self):
        rows = daily_series_table(self._rows(), self._rows(), origin=-86400.0)
        assert [r["day"] for r in rows] == [1, 2]


class TestEnergy:
    def test_power_model_bounds(self, monkeypatch):
        # One job holding both nodes' CPUs for 1000 s: every node draws idle
        # power (120 W) at zero utilisation and peak power (400 W) at full
        # (clamped) load.  Each application name here is its utilisation.
        monkeypatch.setattr(
            "repro.realrun.energy.get_application",
            lambda name: SimpleNamespace(cpu_utilization=float(name)),
        )
        job = finished_job(runtime=1000.0, start=0.0, submit=0.0, nodes=2)

        def energy(utilization):
            job.application = str(utilization)
            return real_run_energy(rows_of([job]), workload_of([job], 2, 8))

        assert energy(0.0) == 2 * 120.0 * 1000.0
        assert energy(1.0) == 2 * 400.0 * 1000.0
        assert energy(2.0) == 2 * 400.0 * 1000.0  # clamped

    def test_invalid_power_model(self):
        with pytest.raises(ValueError):
            LinearPowerModel(idle_watts=500.0, peak_watts=100.0)

    def test_energy_of_single_job(self):
        job = finished_job(runtime=1000.0, start=0.0, submit=0.0, cpus_per_node=8)
        energy = real_run_energy(rows_of([job]), workload_of([job], 2, 8))
        expected = 2 * 120.0 * 1000.0 + (400.0 - 120.0) * 1000.0
        assert energy == pytest.approx(expected)

    def test_utilization_factor_scales_dynamic_part(self):
        job = finished_job(runtime=1000.0, start=0.0, submit=0.0)
        full = real_run_energy(rows_of([job]), workload_of([job], 2, 8))
        job.application = "STREAM"  # 40% CPU utilisation
        partial = real_run_energy(rows_of([job]), workload_of([job], 2, 8))
        assert partial < full

    def test_empty_jobs(self):
        assert real_run_energy(rows_of([]), workload_of([], 4, 8)) == 0.0
