"""Tests for the ideal (Eq. 5) and worst-case (Eq. 6) runtime models."""

from __future__ import annotations

import math

import pytest

from repro.core.runtime_model import (
    IdealRuntimeModel,
    WorstCaseRuntimeModel,
    dilated_runtime,
    get_model,
    mate_increase,
    runtime_increase_from_history,
)
from repro.simulator.job import ResourceSlot
from tests.conftest import make_job


@pytest.fixture
def two_node_job():
    return make_job(nodes=2, cpus_per_node=8, runtime=100.0, req_time=200.0)


class TestIdealModel:
    def test_full_allocation_speed_is_one(self, two_node_job):
        model = IdealRuntimeModel()
        assert model.speed(two_node_job, {0: 8, 1: 8}) == 1.0

    def test_speed_proportional_to_total_cpus(self, two_node_job):
        model = IdealRuntimeModel()
        assert model.speed(two_node_job, {0: 4, 1: 4}) == pytest.approx(0.5)
        assert model.speed(two_node_job, {0: 8, 1: 4}) == pytest.approx(0.75)

    def test_unbalanced_allocation_does_not_penalise(self, two_node_job):
        # Ideal model: only the total matters, not the distribution.
        model = IdealRuntimeModel()
        assert model.speed(two_node_job, {0: 2, 1: 6}) == pytest.approx(0.5)

    def test_speed_capped_at_one(self, two_node_job):
        model = IdealRuntimeModel()
        two_node_job.requested_nodes = 1
        assert model.speed(two_node_job, {0: 8, 1: 8}) <= 1.0

    def test_empty_allocation_speed_zero(self, two_node_job):
        assert IdealRuntimeModel().speed(two_node_job, {}) == 0.0


class TestWorstCaseModel:
    def test_full_allocation_speed_is_one(self, two_node_job):
        model = WorstCaseRuntimeModel()
        assert model.speed(two_node_job, {0: 8, 1: 8}) == 1.0

    def test_limited_by_most_shrunk_node(self, two_node_job):
        model = WorstCaseRuntimeModel()
        assert model.speed(two_node_job, {0: 8, 1: 4}) == pytest.approx(0.5)
        assert model.speed(two_node_job, {0: 2, 1: 8}) == pytest.approx(0.25)

    def test_worst_case_never_faster_than_ideal(self, two_node_job):
        ideal, worst = IdealRuntimeModel(), WorstCaseRuntimeModel()
        for cpus in ({0: 8, 1: 8}, {0: 4, 1: 8}, {0: 2, 1: 6}, {0: 1, 1: 1}):
            assert worst.speed(two_node_job, cpus) <= ideal.speed(two_node_job, cpus) + 1e-12

    def test_empty_allocation_speed_zero(self, two_node_job):
        assert WorstCaseRuntimeModel().speed(two_node_job, {}) == 0.0


class TestEstimationHelpers:
    def test_dilated_runtime_half(self):
        assert dilated_runtime(100.0, 0.5) == pytest.approx(200.0)

    def test_dilated_runtime_full_fraction(self):
        assert dilated_runtime(100.0, 1.0) == pytest.approx(100.0)

    def test_dilated_runtime_zero_fraction_is_inf(self):
        assert math.isinf(dilated_runtime(100.0, 0.0))

    def test_mate_increase_half_kept(self):
        # Shrunk to half for 200s => falls behind by 100 static-seconds.
        assert mate_increase(200.0, 0.5) == pytest.approx(100.0)

    def test_mate_increase_full_kept_is_zero(self):
        assert mate_increase(500.0, 1.0) == 0.0

    def test_mate_increase_negative_duration_rejected(self):
        with pytest.raises(ValueError):
            mate_increase(-1.0, 0.5)


class TestRuntimeIncreaseFromHistory:
    def test_static_history_has_no_increase(self, two_node_job):
        history = [ResourceSlot(0.0, 100.0, {0: 8, 1: 8}, speed=1.0)]
        assert runtime_increase_from_history(two_node_job, history) == pytest.approx(0.0)

    def test_shrunk_history_matches_equation(self, two_node_job):
        # 100 wall seconds at half speed do 50 static seconds of work:
        # increase = wall - work = 50.
        history = [ResourceSlot(0.0, 100.0, {0: 4, 1: 4}, speed=0.5)]
        assert runtime_increase_from_history(two_node_job, history) == pytest.approx(50.0)

    def test_model_override_recomputes_speeds(self, two_node_job):
        history = [ResourceSlot(0.0, 100.0, {0: 4, 1: 8}, speed=1.0)]
        ideal = runtime_increase_from_history(two_node_job, history, IdealRuntimeModel())
        worst = runtime_increase_from_history(two_node_job, history, WorstCaseRuntimeModel())
        assert worst > ideal

    def test_empty_history(self, two_node_job):
        assert runtime_increase_from_history(two_node_job, []) == 0.0


class TestModelLookup:
    def test_get_ideal(self):
        assert isinstance(get_model("ideal"), IdealRuntimeModel)

    def test_get_worst_case_aliases(self):
        assert isinstance(get_model("worst_case"), WorstCaseRuntimeModel)
        assert isinstance(get_model("worst"), WorstCaseRuntimeModel)
        assert isinstance(get_model("EQ6"), WorstCaseRuntimeModel)

    def test_unknown_model_rejected(self):
        with pytest.raises(ValueError):
            get_model("quantum")
