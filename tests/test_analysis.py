"""Tests for comparisons, table formatting and text figures."""

from __future__ import annotations

import math

import pytest

from repro.analysis.comparison import improvement_percent, normalize_to_baseline
from repro.analysis.figures import render_bar_chart, render_heatmap, render_series
from repro.analysis.tables import format_table, metrics_table
from repro.metrics.aggregates import compute_metrics
from repro.metrics.heatmap import category_heatmap
from tests.conftest import rows_of
from tests.test_metrics import finished_job


@pytest.fixture
def sample_metrics():
    fast = compute_metrics([finished_job(1, submit=0.0, start=0.0, runtime=100.0)])
    slow = compute_metrics([finished_job(1, submit=0.0, start=100.0, runtime=100.0)])
    return fast, slow


class TestComparison:
    def test_normalize(self, sample_metrics):
        fast, slow = sample_metrics
        normalized = normalize_to_baseline(fast, slow)
        assert normalized["avg_slowdown"] == pytest.approx(0.5)
        assert normalized["avg_response_time"] == pytest.approx(0.5)

    def test_improvement_percent(self, sample_metrics):
        fast, slow = sample_metrics
        improvements = improvement_percent(fast, slow, keys=("avg_slowdown",))
        assert improvements["avg_slowdown"] == pytest.approx(50.0)

    def test_zero_baseline_gives_nan(self, sample_metrics):
        fast, _ = sample_metrics
        normalized = normalize_to_baseline(fast, {"makespan": 0.0}, keys=("makespan",))
        assert math.isnan(normalized["makespan"])

    def test_dict_inputs_accepted(self):
        normalized = normalize_to_baseline({"makespan": 50.0}, {"makespan": 100.0},
                                           keys=("makespan",))
        assert normalized["makespan"] == 0.5


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["name", "value"], [["a", 1.0], ["bbbb", 22.5]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "name" in lines[1] and "value" in lines[1]
        assert len(lines) == 5

    def test_format_table_nan_rendered_as_dash(self):
        text = format_table(["x"], [[float("nan")]])
        assert "-" in text.splitlines()[-1]

    def test_metrics_table(self):
        metrics = compute_metrics([finished_job(1)])
        text = metrics_table({"static": metrics, "sd": metrics})
        assert "static" in text and "sd" in text
        assert "avg_slowdown" in text


class TestFigures:
    def test_bar_chart_contains_labels_and_baseline(self):
        chart = render_bar_chart({"MAXSD 10": 0.5, "DynAVGSD": 0.8}, title="fig")
        assert "MAXSD 10" in chart
        assert "baseline" in chart
        assert "#" in chart

    def test_bar_chart_handles_nan(self):
        chart = render_bar_chart({"x": float("nan")})
        assert "(n/a)" in chart

    def test_bar_chart_empty(self):
        assert "(no data)" in render_bar_chart({}, title="empty")

    def test_heatmap_render_skips_empty_rows(self):
        grid = category_heatmap(rows_of([finished_job(1, nodes=1, runtime=100.0)]))
        text = render_heatmap(grid, title="hm")
        assert "hm" in text
        assert "1 nodes" in text
        # Only one populated node-bin row plus header lines.
        assert len(text.splitlines()) == 4

    def test_series_render(self):
        rows = [{"day": 0, "a": 1.0, "b": 2.0}, {"day": 1, "a": 3.0, "b": 4.0}]
        text = render_series(rows, x_key="day", series_keys=("a", "b"), title="s")
        assert "day" in text and "a" in text
        assert len(text.splitlines()) == 5
