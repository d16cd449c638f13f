"""Tests for the Cirne / RICC-like / CEA-Curie-like workload generators,
scaling utilities, application assignment and the paper presets."""

from __future__ import annotations

import numpy as np
import pytest

from repro.workloads.applications import APPLICATION_MIX, application_shares, assign_applications
from repro.workloads.cirne import CirneWorkloadModel
from repro.workloads.presets import PAPER_WORKLOADS, build_workload, workload_5
from repro.workloads.scaling import scale_to_system, subsample
from repro.workloads.synthetic import CEACurieLikeModel, RICCLikeModel


class TestCirneModel:
    def test_job_count_and_bounds(self):
        wl = CirneWorkloadModel(num_jobs=200, system_nodes=64, max_job_nodes=16,
                                cpus_per_node=8, seed=1).generate()
        assert len(wl) == 200
        assert wl.max_job_nodes <= 16
        assert all(r.run_time > 0 for r in wl.records)
        assert all(r.requested_time >= r.run_time for r in wl.records)

    def test_deterministic_for_same_seed(self):
        a = CirneWorkloadModel(num_jobs=50, system_nodes=32, max_job_nodes=8, seed=3).generate()
        b = CirneWorkloadModel(num_jobs=50, system_nodes=32, max_job_nodes=8, seed=3).generate()
        assert [(r.submit_time, r.run_time, r.requested_procs) for r in a.records] == [
            (r.submit_time, r.run_time, r.requested_procs) for r in b.records
        ]

    def test_different_seeds_differ(self):
        a = CirneWorkloadModel(num_jobs=50, system_nodes=32, max_job_nodes=8, seed=3).generate()
        b = CirneWorkloadModel(num_jobs=50, system_nodes=32, max_job_nodes=8, seed=4).generate()
        assert [r.run_time for r in a.records] != [r.run_time for r in b.records]

    def test_exact_requests_mode(self):
        wl = CirneWorkloadModel(num_jobs=80, system_nodes=32, max_job_nodes=8,
                                exact_requests=True, seed=5).generate()
        assert all(r.requested_time == r.run_time for r in wl.records)
        assert wl.name == "cirne_ideal"

    def test_offered_load_near_target(self):
        wl = CirneWorkloadModel(num_jobs=600, system_nodes=64, max_job_nodes=16,
                                cpus_per_node=8, target_load=1.0, seed=9).generate()
        assert wl.offered_load() == pytest.approx(1.0, rel=0.35)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            CirneWorkloadModel(num_jobs=0).generate()
        with pytest.raises(ValueError):
            CirneWorkloadModel(num_jobs=10, system_nodes=8, max_job_nodes=16).generate()
        with pytest.raises(ValueError):
            CirneWorkloadModel(num_jobs=10, target_load=0.0).generate()


class TestSyntheticModels:
    def test_ricc_like_shape(self):
        wl = RICCLikeModel(num_jobs=400, system_nodes=128, max_job_nodes=72, seed=2).generate()
        assert len(wl) == 400
        assert wl.cpus_per_node == 8
        nodes = [r.requested_nodes(8) for r in wl.records]
        assert max(nodes) <= 72
        # RICC is dominated by small jobs.
        assert np.mean([n == 1 for n in nodes]) > 0.4

    def test_cea_curie_like_shape(self):
        wl = CEACurieLikeModel(num_jobs=500, system_nodes=5040, seed=2).generate()
        nodes = [r.requested_nodes(16) for r in wl.records]
        assert max(nodes) <= 4988
        assert np.mean([n == 1 for n in nodes]) > 0.3

    def test_cea_curie_scaled_preserves_relative_sizes(self):
        full = CEACurieLikeModel(num_jobs=2000, seed=7)
        small = full.scaled(0.02)
        wl = small.generate()
        assert small.system_nodes == 100
        mean_rel = np.mean([r.requested_nodes(16) for r in wl.records]) / small.system_nodes
        # Mean relative job size stays small (a few percent), like the real log.
        assert mean_rel < 0.06

    def test_scaled_invalid_fraction(self):
        with pytest.raises(ValueError):
            CEACurieLikeModel().scaled(0.0)

    def test_deterministic(self):
        a = RICCLikeModel(num_jobs=50, seed=11).generate()
        b = RICCLikeModel(num_jobs=50, seed=11).generate()
        assert [r.run_time for r in a.records] == [r.run_time for r in b.records]


class TestScaling:
    def test_scale_to_system_preserves_relative_sizes(self, tiny_workload):
        scaled = scale_to_system(tiny_workload, target_nodes=8)
        assert scaled.system_nodes == 8
        assert scaled.max_job_nodes <= 8
        assert len(scaled) == len(tiny_workload)

    def test_scale_to_system_invalid(self, tiny_workload):
        with pytest.raises(ValueError):
            scale_to_system(tiny_workload, target_nodes=0)

    def test_subsample_fraction(self, tiny_workload):
        sub = subsample(tiny_workload, 0.5, seed=1)
        assert 0 < len(sub) < len(tiny_workload)

    def test_subsample_identity(self, tiny_workload):
        assert subsample(tiny_workload, 1.0) is tiny_workload

    def test_subsample_invalid(self, tiny_workload):
        with pytest.raises(ValueError):
            subsample(tiny_workload, 0.0)

    def test_subsample_compresses_time(self, tiny_workload):
        sub = subsample(tiny_workload, 0.25, seed=2, compress_time=True)
        assert sub.span <= tiny_workload.span


class TestApplications:
    def test_every_record_labelled(self, tiny_workload):
        labelled = assign_applications(tiny_workload)
        assert all(r.application is not None for r in labelled.records)

    def test_shares_roughly_match_table2(self):
        wl = CirneWorkloadModel(num_jobs=3000, system_nodes=64, max_job_nodes=16,
                                cpus_per_node=8, seed=21).generate()
        shares = application_shares(assign_applications(wl, seed=3))
        table2 = {m.name: m.share for m in APPLICATION_MIX}
        for app, expected in table2.items():
            assert shares.get(app, 0.0) == pytest.approx(expected, abs=0.08)

    def test_alya_prefers_small_long_jobs(self):
        wl = CirneWorkloadModel(num_jobs=4000, system_nodes=64, max_job_nodes=16,
                                cpus_per_node=8, seed=22).generate()
        labelled = assign_applications(wl, seed=4)
        alya = [r for r in labelled.records if r.application == "Alya"]
        others = [r for r in labelled.records if r.application != "Alya"]
        if alya:
            assert np.mean([r.requested_procs for r in alya]) <= np.mean(
                [r.requested_procs for r in others]
            )

    def test_deterministic_assignment(self, tiny_workload):
        a = assign_applications(tiny_workload, seed=9)
        b = assign_applications(tiny_workload, seed=9)
        assert [r.application for r in a.records] == [r.application for r in b.records]


class TestPresets:
    def test_paper_specs_match_table1(self):
        assert PAPER_WORKLOADS[1].num_jobs == 5000
        assert PAPER_WORKLOADS[4].num_jobs == 198509
        assert PAPER_WORKLOADS[4].system_nodes == 5040
        assert PAPER_WORKLOADS[5].system_nodes == 49

    @pytest.mark.parametrize("wid", [1, 2, 3, 4, 5])
    def test_build_scaled_workloads(self, wid):
        wl = build_workload(wid, scale=0.02)
        assert len(wl) > 0
        assert wl.max_job_nodes <= wl.system_nodes

    def test_build_unknown_id(self):
        with pytest.raises(ValueError):
            build_workload(9)

    @pytest.mark.parametrize("scale", [0, 0.0, -1, -0.5, float("nan")])
    def test_build_rejects_non_positive_scale(self, scale):
        # The factories clamp to minimum counts: without the check a bad
        # scale would quietly build the smallest workload.
        with pytest.raises(ValueError, match=f"scale must be positive, got {scale!r}"):
            build_workload(1, scale=scale)

    def test_workload2_has_exact_requests(self):
        wl = build_workload(2, scale=0.02)
        assert all(r.requested_time == r.run_time for r in wl.records)

    def test_workload5_labelled_with_applications(self):
        wl = workload_5(scale=0.25)
        assert all(r.application for r in wl.records)
