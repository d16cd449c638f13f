"""Tests for the declarative scenario subsystem (:mod:`repro.experiments.scenario`)."""

from __future__ import annotations

import json
import math

import pytest

from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    ScenarioSpec,
    WorkloadRef,
    builtin_scenario,
    decode_value,
    encode_value,
    load_spec,
    render_report,
    run_scenario,
    save_spec,
    _resolve_workloads,
)
from repro.experiments.sweep import SweepRunner, task_cache_key
from repro.workloads.cirne import CirneWorkloadModel


@pytest.fixture(scope="module")
def workload():
    return CirneWorkloadModel(
        num_jobs=60, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
        target_load=1.0, median_runtime_s=1800.0, seed=7, name="scenario_test",
    ).generate()


def _spec(**overrides) -> ScenarioSpec:
    fields = dict(
        name="test",
        workloads=[WorkloadRef(name="scenario_test")],
        policy="sd_policy",
        grid={"max_slowdown": [10.0, {"label": "MAXSD inf", "value": "inf"}]},
        base={"runtime_model": "ideal", "sharing_factor": 0.5},
        baseline={"policy": "static_backfill", "kwargs": {"runtime_model": "ideal"}},
    )
    fields.update(overrides)
    return ScenarioSpec(**fields)


class TestValueCoding:
    def test_inf_round_trip(self):
        assert encode_value(math.inf) == "inf"
        assert encode_value(-math.inf) == "-inf"
        assert decode_value("inf") == math.inf
        assert decode_value("-inf") == -math.inf

    def test_nested_structures(self):
        original = {"a": [1.5, math.inf], "b": {"c": "dynamic"}}
        encoded = encode_value(original)
        json.dumps(encoded)  # must be strict-JSON safe
        assert decode_value(encoded) == original

    def test_plain_strings_survive(self):
        assert decode_value("ideal") == "ideal"
        assert decode_value("dynamic") == "dynamic"

    def test_nan_rejected(self):
        with pytest.raises(ScenarioError):
            encode_value(math.nan)


class TestSpecRoundTrip:
    def test_dict_round_trip(self):
        spec = _spec()
        clone = ScenarioSpec.from_dict(spec.to_dict())
        assert clone == spec

    def test_json_round_trip_with_inf_and_labels(self, tmp_path):
        spec = _spec()
        path = tmp_path / "spec.json"
        save_spec(spec, path)
        clone = load_spec(path)
        assert clone == spec
        # The inf cell survived as a real float infinity.
        points = clone.grid["max_slowdown"]
        assert points[1].label == "MAXSD inf"
        assert points[1].value == math.inf

    def test_builtin_specs_round_trip(self):
        for name in BUILTIN_SCENARIOS:
            spec = builtin_scenario(name)
            assert ScenarioSpec.from_json(spec.to_json()) == spec, name

    def test_single_workload_key_accepted(self):
        spec = ScenarioSpec.from_dict(
            {"name": "x", "workload": {"preset": 3, "scale": 0.01}, "grid": {}}
        )
        assert [ref.preset for ref in spec.workloads] == [3]

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown scenario fields"):
            ScenarioSpec.from_dict({"name": "x", "workload": {"preset": 1}, "loops": 3})
        with pytest.raises(ScenarioError, match="unknown workload ref fields"):
            ScenarioSpec.from_dict({"name": "x", "workload": {"id": 1}})

    def test_unknown_report_rejected(self):
        with pytest.raises(ScenarioError, match="unknown report"):
            _spec(report="piechart")

    def test_scalar_grid_value_rejected(self):
        """Regression: a scalar string must not explode into per-char cells."""
        with pytest.raises(ScenarioError, match="list of values"):
            ScenarioSpec.from_dict(
                {"name": "x", "workload": {"preset": 3}, "grid": {"max_slowdown": "inf"}}
            )
        with pytest.raises(ScenarioError, match="list of values"):
            _spec(grid={"max_slowdown": 10.0})

    def test_unknown_builtin_rejected(self):
        with pytest.raises(ScenarioError, match="unknown built-in"):
            builtin_scenario("figure99")


class TestExpansion:
    def test_grid_order_and_labels(self):
        cells = _spec().cells()
        assert [label for label, _, _ in cells] == ["max_slowdown=10", "MAXSD inf"]
        for _, policy, params in cells:
            assert policy == "sd_policy"
            assert params["runtime_model"] == "ideal"
        assert cells[1][2]["max_slowdown"] == math.inf

    def test_cartesian_product_is_ordered(self):
        spec = _spec(grid={"max_slowdown": [5.0, 10.0], "sharing_factor": [0.25, 0.5]})
        labels = [label for label, _, _ in spec.cells()]
        assert labels == [
            "max_slowdown=5, sharing_factor=0.25",
            "max_slowdown=5, sharing_factor=0.5",
            "max_slowdown=10, sharing_factor=0.25",
            "max_slowdown=10, sharing_factor=0.5",
        ]

    def test_policy_grid_parameter_overrides_policy(self):
        spec = _spec(
            grid={"policy": [
                {"label": "fcfs", "value": "fcfs"},
                {"label": "backfill", "value": "static_backfill"},
            ]},
            base={},
            baseline=None,
        )
        assert [(label, policy) for label, policy, _ in spec.cells()] == [
            ("fcfs", "fcfs"), ("backfill", "static_backfill"),
        ]

    def test_empty_grid_single_cell(self):
        spec = _spec(grid={})
        cells = spec.cells()
        assert len(cells) == 1
        assert cells[0][0] == "sd_policy"

    def test_workload_only_scenario_has_no_cells(self):
        spec = _spec(policy=None, grid={}, baseline=None, report="mix")
        assert spec.cells() == []

    def test_duplicate_grid_labels_rejected(self):
        with pytest.raises(ScenarioError, match="duplicate labels"):
            _spec(grid={"max_slowdown": [10.0, 10.0]})

    def test_tasks_have_unique_keys_and_seed(self, workload):
        spec = _spec(seed=3)
        tasks = spec.tasks({"scenario_test": workload})
        keys = [t.resolved_key() for t in tasks]
        assert len(set(keys)) == len(keys)
        assert all(t.resolved_seed() == 3 for t in tasks)
        assert keys[0].endswith("::baseline")


class TestExecution:
    def test_run_scenario_normalises_to_baseline(self, workload):
        outcome = run_scenario(_spec(), workloads=workload)
        assert outcome.baseline_run is not None
        assert len(outcome.cells) == 2
        for cell in outcome.cells:
            assert set(cell.normalized) == {"makespan", "avg_response_time", "avg_slowdown"}
            expected = (
                cell.run.metrics.avg_slowdown
                / outcome.baseline_run.metrics.avg_slowdown
            )
            assert cell.normalized["avg_slowdown"] == pytest.approx(expected)

    def test_runner_cache_is_hit_on_rerun(self, workload, tmp_path):
        runner = SweepRunner(max_workers=1, cache_dir=tmp_path)
        first = run_scenario(_spec(), runner=runner, workloads=workload)
        assert first.sweep_cache_hits == 0
        second = run_scenario(_spec(), runner=runner, workloads=workload)
        assert second.sweep_cache_hits == 3  # baseline + 2 cells
        for a, b in zip(first.cells, second.cells):
            assert a.run.metrics.as_dict() == b.run.metrics.as_dict()

    def test_serial_parallel_equivalence(self, workload):
        serial = run_scenario(_spec(), runner=SweepRunner(max_workers=1), workloads=workload)
        parallel = run_scenario(_spec(), runner=SweepRunner(max_workers=2), workloads=workload)
        for a, b in zip(serial.cells, parallel.cells):
            assert a.run.metrics.as_dict() == b.run.metrics.as_dict()

    def test_abstract_ref_requires_override(self):
        with pytest.raises(ScenarioError, match="abstract"):
            run_scenario(_spec())

    def test_single_override_needs_single_workload(self, workload):
        spec = _spec(workloads=[WorkloadRef(name="a"), WorkloadRef(name="b")])
        with pytest.raises(ScenarioError, match="single-workload"):
            run_scenario(spec, workloads=workload)

    def test_multi_workload_baselines_are_per_workload(self, workload):
        other = CirneWorkloadModel(
            num_jobs=40, system_nodes=16, cpus_per_node=8, max_job_nodes=8,
            target_load=1.0, seed=11, name="scenario_other",
        ).generate()
        spec = _spec(
            workloads=[WorkloadRef(name="scenario_test"), WorkloadRef(name="scenario_other")],
            grid={"max_slowdown": [10.0]},
        )
        outcome = run_scenario(
            spec, workloads={"scenario_test": workload, "scenario_other": other}
        )
        assert set(outcome.baselines) == {"scenario_test", "scenario_other"}
        assert len(outcome.cells_for("scenario_test")) == 1
        assert len(outcome.cells_for("scenario_other")) == 1
        # Each cell normalises against its own workload's baseline.
        for wkey in outcome.baselines:
            cell = outcome.cells_for(wkey)[0]
            expected = cell.run.metrics.avg_slowdown / outcome.baselines[wkey].metrics.avg_slowdown
            assert cell.normalized["avg_slowdown"] == pytest.approx(expected)

    def test_report_table_renders(self, workload):
        outcome = run_scenario(_spec(), workloads=workload)
        text = render_report(outcome)
        assert "Scenario test" in text
        assert "MAXSD inf" in text
        assert "Normalised to static_backfill" in text

    def test_table_report_works_with_streamed_runs(self, workload):
        spec = _spec(
            base={"runtime_model": "ideal", "sharing_factor": 0.5,
                  "retain_jobs": False},
        )
        outcome = run_scenario(spec, workloads=workload)
        text = render_report(outcome)
        assert "Normalised to static_backfill" in text

    def test_per_job_report_rejects_streamed_runs(self, workload):
        """Heatmaps need retained jobs; a streamed run must fail loudly
        instead of rendering an empty figure."""
        spec = _spec(
            grid={"max_slowdown": [10.0]},
            base={"runtime_model": "ideal", "sharing_factor": 0.5,
                  "retain_jobs": False},
            report="heatmaps",
        )
        outcome = run_scenario(spec, workloads=workload)
        with pytest.raises(ScenarioError, match="retain_jobs=False"):
            render_report(outcome)

    def test_streamed_run_error_names_report_and_suggests_recovery(self, workload):
        """The streamed-run error must say which report needs per-job data
        and point at both escape hatches (--retain-jobs and --analytics)."""
        spec = _spec(
            grid={"max_slowdown": [10.0]},
            base={"runtime_model": "ideal", "sharing_factor": 0.5,
                  "retain_jobs": False},
            report="daily",
        )
        outcome = run_scenario(spec, workloads=workload)
        with pytest.raises(ScenarioError) as excinfo:
            render_report(outcome)
        message = str(excinfo.value)
        assert "'daily'" in message
        assert "--retain-jobs" in message
        assert "--analytics" in message
        assert "repro-sdpolicy query" in message

    def test_workload_only_scenario_runs_nothing(self):
        spec = ScenarioSpec(
            name="mixonly",
            workloads=[WorkloadRef(preset=5, scale=0.05)],
            policy=None,
            grid={},
            baseline=None,
            report="mix",
        )
        outcome = run_scenario(spec)
        assert outcome.sweep is None
        assert outcome.cells == []
        assert "Table 2" in render_report(outcome)


class TestBuiltinSeedConsistency:
    """``--seed`` (and the builders' defaults) must apply to *both* workload
    generation (``WorkloadRef.seed``) and the simulation seed
    (``ScenarioSpec.seed``) — the two used to be set independently and could
    drift."""

    SEEDED_BUILTINS = ("table1", "figure1-3", "figure4-6", "figure7", "figure8", "figure9")

    def test_seed_override_applies_to_workloads_and_simulation(self):
        for name in self.SEEDED_BUILTINS:
            spec = builtin_scenario(name, seed=42)
            assert spec.seed == 42, name
            assert all(ref.seed == 42 for ref in spec.workloads), name

    def test_figure9_default_seeds_agree(self):
        spec = builtin_scenario("figure9")
        assert spec.seed == 5005
        assert spec.workloads[0].seed == 5005

    def test_tasks_carry_the_override_seed(self, workload):
        spec = builtin_scenario("figure4-6", seed=11)
        spec.workloads = [WorkloadRef(name=workload.name)]
        tasks = spec.tasks({workload.name: workload})
        assert tasks and all(t.resolved_seed() == 11 for t in tasks)

    def test_scale_override_applies_to_every_ref(self):
        spec = builtin_scenario("figure8", scale=0.02, seed=9)
        assert all(ref.scale == 0.02 and ref.seed == 9 for ref in spec.workloads)


class TestBuiltinCacheKeys:
    """The Table 1 and Figures 1-3 built-ins expand to the exact cache keys
    the tasks had before they became built-ins (workload 3 at scale 0.01,
    default seed), so existing stores and ``--analytics`` records stay
    reachable.  A release that bumps ``repro.__version__`` or
    ``CACHE_KEY_VERSION`` changes every key on purpose: re-pin then."""

    TABLE1 = {
        "workload1::baseline": "9d698b6bd75f782a26329adcd826e47c6828231890c94e9af913c5e777b03643",
        "workload3::baseline": "b0599c25ffed0fd04b40339cd9ecd324fe01505ffcb2c60aaac3b7d579bcca42",
    }
    FIGURE1_3 = {
        "baseline": "a851a66b46b94d571abd28c534896e77230fe20dae15c8edb1788c6b12e45e45",
        "MAXSD 5": "4f87b97831bc2020bd439ae9e12ce98f88f8fa8c1d7567866229cc9982c97f22",
        "MAXSD 10": "82f7b326039f64d6280138df67c3f827d35c74bf32985386f07deb0e513aacd2",
        "MAXSD 50": "a1ed38d59dcb642b55881e7daffdda2e5309940d83387ce006370e64360f68d8",
        "MAXSD inf": "c9bfd72190a5725f26e35e7248fb69b38440ab853ff9015bce8992cb00687030",
        "DynAVGSD": "8cbea4c42318649b08d38e4c9aadefa7c5309d82fb7e61dbbc91b62d1a15b8c4",
    }

    @staticmethod
    def _keys(spec):
        return {
            task.resolved_key(): task_cache_key(task)
            for task in spec.tasks(_resolve_workloads(spec, None))
        }

    def test_table1_keys_are_pinned(self):
        spec = builtin_scenario("table1", scale=0.01, workload_ids=(1, 3))
        assert self._keys(spec) == self.TABLE1

    def test_figure1_3_keys_are_pinned(self):
        spec = builtin_scenario("figure1-3", workload_id=3, scale=0.01)
        keys = {k.split("::", 1)[1]: v for k, v in self._keys(spec).items()}
        assert keys == self.FIGURE1_3


class TestShardedScenario:
    def test_partial_outcome_has_no_cells(self, workload, tmp_path):
        from repro.experiments.sweep import ShardedExecutor

        runner = SweepRunner(
            max_workers=1, cache_dir=tmp_path / "c", executor=ShardedExecutor(0, 2)
        )
        outcome = run_scenario(_spec(), runner=runner, workloads=workload)
        assert not outcome.complete
        assert outcome.cells == [] and outcome.baselines == {}
        assert outcome.sweep is not None and not outcome.sweep.complete


class TestWorkloadRef:
    def test_preset_build(self):
        ref = WorkloadRef(preset=3, scale=0.01)
        workload = ref.build()
        assert len(workload) == 100
        assert ref.key() == "workload3"

    def test_swf_build(self, tmp_path, tiny_workload):
        from repro.workloads.swf import write_swf

        path = tmp_path / "log.swf"
        write_swf(tiny_workload, path)
        ref = WorkloadRef(swf=str(path))
        assert ref.key() == "log"
        assert len(ref.build()) == len(tiny_workload)

    def test_preset_and_swf_mutually_exclusive(self):
        with pytest.raises(ScenarioError, match="mutually exclusive"):
            WorkloadRef(preset=1, swf="x.swf").build()


class TestMixedPaperScale:
    """The ROADMAP's paper-scale mixed rigid/malleable + SWF-replay study
    (`mixed_paper_scale`): a built-in sized for sharded fan-out."""

    def test_builtin_expands_the_full_grid(self):
        spec = builtin_scenario("mixed_paper_scale")
        assert [ref.preset for ref in spec.workloads] == [1, 2, 3, 4]
        assert all(ref.scale == 1.0 for ref in spec.workloads)  # paper scale
        cells = spec.cells()
        assert len(cells) == 8  # 4 malleable fractions x 2 MAXSD settings
        fractions = {params["malleable_fraction"] for _, _, params in cells}
        assert fractions == {0.25, 0.5, 0.75, 1.0}
        assert spec.baseline is not None

    def test_swf_override_adds_a_replay_ref(self, tmp_path, tiny_workload):
        from repro.workloads.swf import write_swf

        swf = tmp_path / "replay.swf"
        write_swf(tiny_workload, swf)
        spec = builtin_scenario("mixed_paper_scale", swf=str(swf))
        assert spec.workloads[-1].key() == "swf_replay"
        assert spec.workloads[-1].swf == str(swf)

    def test_example_spec_round_trips(self):
        from pathlib import Path

        path = Path(__file__).resolve().parent.parent / "examples" / "mixed_paper_scale.json"
        spec = load_spec(path)
        assert spec.name == "mixed_paper_scale"
        assert spec.report == "table"
        assert [ref.key() for ref in spec.workloads] == [
            "workload1", "workload2", "workload3", "workload4", "swf_replay",
        ]
        # The referenced sample log ships with the repo and parses.
        swf = path.parent / "sample.swf"
        assert swf.is_file()
        ref = spec.workloads[-1]
        assert ref.swf == "examples/sample.swf"
        assert spec.to_dict() == load_spec(path).to_dict()

    def test_sharded_run_and_merge_through_a_store(self, tmp_path, tiny_workload):
        """A scaled-down instance fans out across 2 shards against a shared
        store and merges into a full report."""
        from repro.experiments.sweep import MergeExecutor, ShardedExecutor
        from repro.workloads.swf import write_swf

        swf = tmp_path / "replay.swf"
        write_swf(tiny_workload, swf)
        spec = builtin_scenario(
            "mixed_paper_scale", scale=0.01, seed=3, swf=str(swf), workload_ids=(3,)
        )
        store = f"file://{tmp_path / 'store'}"
        for i in range(2):
            partial = run_scenario(
                spec,
                runner=SweepRunner(
                    max_workers=1, store=store, executor=ShardedExecutor(i, 2)
                ),
            )
            assert not partial.complete or i == 1
        merged = run_scenario(
            spec, runner=SweepRunner(max_workers=1, store=store, executor=MergeExecutor())
        )
        assert merged.complete
        assert {c.workload_key for c in merged.cells} == {"workload3", "swf_replay"}
        assert len(merged.cells) == 16  # 2 workloads x 8 grid cells
        report = render_report(merged)
        assert "Scenario mixed_paper_scale" in report
        assert "Normalised to static_backfill" in report
