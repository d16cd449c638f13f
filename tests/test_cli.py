"""Tests for the command-line interface."""

from __future__ import annotations

import json
import math
import re
import shlex

import pytest

from repro.cli import build_parser, main
from repro.experiments.scenario import builtin_scenario
from repro.simulator.simulation import Simulation
from repro.workloads.swf import write_swf


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.workload == 1
        assert args.policy == "sd_policy"

    @pytest.mark.parametrize("command", ["table", "figure", "sweep"])
    def test_per_artifact_commands_are_gone(self, command, capsys):
        # Every paper artifact is one built-in: `scenario NAME`.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args([command])
        assert exc.value.code == 2
        assert "invalid choice" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--workload", "1", "--scale", "-1"],
            ["compare", "--scale", "0"],
            ["query", "--report", "table1", "--scale", "-0.5"],
            ["scenario", "table2", "--scale", "0"],
        ],
        ids=["run", "compare", "query", "scenario"],
    )
    def test_non_positive_scale_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--scale: must be > 0" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--sharing-factor", "5"], "--sharing-factor: sharing_factor must be in (0, 1)"),
            (["run", "--sharing-factor", "x"], "--sharing-factor: could not convert"),
            (["run", "--maxsd", "-3"], "--maxsd: MAX_SLOWDOWN must be positive"),
            (["compare", "--maxsd", "bogus"], "--maxsd: unknown max_slowdown spec 'bogus'"),
            (["compare", "--sharing-factor", "1"], "--sharing-factor: sharing_factor must be in"),
            (["run", "--runtime-model", "nope"], "--runtime-model: unknown runtime model 'nope'"),
            (["run", "--profiles", "nope"], "--profiles: unknown profile set 'nope'"),
        ],
        ids=["sf-range", "sf-text", "maxsd-negative", "maxsd-bogus", "compare-sf-one",
             "runtime-model", "profiles"],
    )
    def test_bad_run_parameter_flag_exits_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"error: argument {message}" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "flag, text, value",
        [("--maxsd", "avg", "dynamic"), ("--maxsd", "DynAVGSD", "dynamic"),
         ("--maxsd", "dyn", "dynamic"), ("--maxsd", "+inf", math.inf),
         ("--maxsd", "infinity", math.inf), ("--maxsd", "10", 10.0),
         ("--runtime-model", "contention", "contention")],
    )
    def test_run_parameter_spellings_parse_to_the_canonical_value(self, flag, text, value):
        # RUN_PARAMS is the one check: a spelling specs accept, flags accept.
        for command in ("run", "compare"):
            args = build_parser().parse_args([command, flag, text])
            assert getattr(args, flag[2:].replace("-", "_")) == value

    def test_maxsd_defaults_are_canonical(self):
        parser = build_parser()
        assert parser.parse_args(["run"]).maxsd == "dynamic"
        assert parser.parse_args(["compare"]).maxsd == "dynamic"


class TestCommands:
    def test_run_command(self, capsys):
        assert main(["run", "--workload", "3", "--scale", "0.01",
                     "--policy", "static_backfill"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out

    def test_compare_command(self, capsys):
        assert main(["compare", "--workload", "3", "--scale", "0.01", "--maxsd", "10"]) == 0
        out = capsys.readouterr().out
        assert "Improvement of SD-Policy" in out

    def test_compare_accepts_the_avg_spelling(self, capsys):
        assert main(["compare", "--workload", "3", "--scale", "0.01", "--maxsd", "avg"]) == 0
        captured = capsys.readouterr()
        assert "DynAVGSD" in captured.out
        assert "Traceback" not in captured.err

    def test_compare_streaming(self, capsys, monkeypatch):
        sims = []

        class Recorded(Simulation):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                sims.append(self)

        monkeypatch.setattr("repro.experiments.runner.Simulation", Recorded)
        assert main(["compare", "--workload", "3", "--scale", "0.01",
                     "--maxsd", "10"]) == 0
        assert "Improvement of SD-Policy" in capsys.readouterr().out
        # Both runs dropped every job after folding it into its record row.
        assert len(sims) == 2
        assert all(sim.jobs == {} and sim.streaming.count > 0 for sim in sims)

    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_retain_jobs_flags_are_gone(self, command, capsys):
        # Every run keeps one record row per job; there is nothing to retain.
        for flag in ("--retain-jobs", "--no-retain-jobs"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command, flag])
            assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_analytics_flag_is_gone(self, capsys):
        # Every cached run's records are queryable; there is nothing to turn on.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["scenario", "table1", "--analytics"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --analytics" in capsys.readouterr().err

    def test_figure_1_to_3_on_a_cli_workload(self, capsys):
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01"]) == 0
        out = capsys.readouterr().out
        assert "Figure 3" in out and "workload3_ricc_like" in out

    def test_swf_command(self, tmp_path, tiny_workload, capsys):
        path = tmp_path / "log.swf"
        write_swf(tiny_workload, path)
        assert main(["swf", str(path)]) == 0
        assert "jobs" in capsys.readouterr().out

    def test_run_with_swf_input(self, tmp_path, tiny_workload, capsys):
        path = tmp_path / "log.swf"
        write_swf(tiny_workload, path)
        assert main(["run", "--swf", str(path), "--policy", "static_backfill"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_figure_4_honours_workers_and_cache(self, tmp_path, capsys):
        """A rerun with the same cache directory is served from it."""
        cache = tmp_path / "cache"
        argv = ["scenario", "figure4-6", "--workload", "3", "--scale", "0.01",
                "--workers", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        assert "Figure 4" in capsys.readouterr().out
        assert any(cache.glob("*.pkl")), "cache directory was not populated"
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Figure 4" in captured.out
        assert "cache hits: 2" in captured.err

    def test_figure_7_honours_workers(self, tmp_path, capsys):
        assert main(["scenario", "figure7", "--workload", "3", "--scale", "0.01",
                     "--workers", "2", "--cache-dir", str(tmp_path / "c")]) == 0
        captured = capsys.readouterr()
        assert "Figure 7" in captured.out
        assert "workers: 2" in captured.err

    @pytest.mark.parametrize("argv, flag", [
        (["scenario", "figure9", "--workload", "3"], "--workload"),
        (["scenario", "table1", "--swf", "log.swf"], "--swf"),
        (["query", "--report", "figure8", "--workload", "2"], "--workload"),
    ], ids=["figure9", "table1", "query-figure8"])
    def test_workload_flags_only_retarget_single_workload_builtins(
        self, tmp_path, argv, flag, capsys
    ):
        assert main(argv + ["--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert f"error: {flag} applies only to" in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("command", [
        ["run"], ["compare"], ["scenario", "figure1-3"],
    ], ids=["run", "compare", "scenario"])
    def test_missing_swf_file_exits_2_without_traceback(self, tmp_path, command, capsys):
        missing = tmp_path / "missing.swf"
        with pytest.raises(SystemExit) as exc:
            main(command + ["--swf", str(missing)])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "error: cannot load the workload: " in err and str(missing) in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("flags", [
        ["--workload", "2"], ["--swf", "log.swf"], ["--scale", "0.5"], ["--seed", "3"],
    ], ids=["workload", "swf", "scale", "seed"])
    def test_query_without_report_refuses_workload_flags(self, tmp_path, flags, capsys):
        assert main(["query", "--cache-dir", str(tmp_path), "--list"] + flags) == 2
        err = capsys.readouterr().err
        assert f"error: {flags[0]} applies only to query --report NAME" in err

    def test_figure_9_runs_on_its_own_workload(self, capsys):
        assert main(["scenario", "figure9", "--scale", "0.02"]) == 0
        assert "Figure 9" in capsys.readouterr().out


class TestPaperArtifactCommands:
    """``scenario NAME`` runs a built-in, and ``query --report NAME``
    rebuilds the same outcome from the stored runs."""

    def test_table1_query_is_byte_identical(self, tmp_path, capsys):
        cache = str(tmp_path / "cache")
        assert main(["scenario", "table1", "--scale", "0.01", "--cache-dir", cache]) == 0
        table = capsys.readouterr().out
        assert table.startswith("Table 1 (scale=0.01)")
        assert main(["query", "--report", "table1", "--scale", "0.01",
                     "--cache-dir", cache]) == 0
        assert capsys.readouterr().out == table

    def test_table1_query_on_empty_store_names_real_commands(self, tmp_path, capsys):
        assert main(["query", "--report", "table1", "--scale", "0.01",
                     "--cache-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert "run that scenario into this store" in err
        assert "--analytics" not in err
        # Every command the message suggests must parse.
        for command in re.findall(r"repro-sdpolicy ([^'\"`]+)", err):
            build_parser().parse_args(shlex.split(command))

    def test_builtin_query_defaults_to_the_scenario_scale(self, tmp_path, capsys):
        """Without --scale, ``query --report figure4-6`` looks for the runs
        ``scenario figure4-6`` stored at the built-in's own scale."""
        cache = str(tmp_path / "cache")
        assert main(["scenario", "figure4-6", "--cache-dir", cache]) == 0
        live = capsys.readouterr().out
        assert main(["query", "--report", "figure4-6", "--cache-dir", cache]) == 0
        assert capsys.readouterr().out == live

    def test_spec_file_query_is_byte_identical(self, tmp_path, capsys):
        spec = tmp_path / "spec.json"
        spec.write_text(builtin_scenario("figure7", scale=0.005).to_json(), encoding="utf-8")
        cache = str(tmp_path / "cache")
        assert main(["scenario", str(spec), "--cache-dir", cache]) == 0
        live = capsys.readouterr().out
        assert main(["query", "--report", str(spec), "--cache-dir", cache]) == 0
        assert capsys.readouterr().out == live

    @pytest.mark.parametrize("argv", [
        ["scenario", "figure1-3", "--workload", "3", "--scale", "0.01", "--seed", "7"],
        ["scenario", "figure7", "--workload", "3", "--scale", "0.01", "--seed", "7"],
        ["scenario", "figure7", "--scale", "0.005", "--seed", "7"],
    ], ids=["figure1-3-workload", "figure7-workload", "figure7"])
    def test_explicit_seed_reaches_the_simulation(self, monkeypatch, capsys, argv):
        import repro.cli as cli_mod

        seeds = set()
        real_run = cli_mod.SweepRunner.run

        def recording_run(self, tasks):
            seeds.update(task.resolved_seed() for task in tasks)
            return real_run(self, tasks)

        monkeypatch.setattr(cli_mod.SweepRunner, "run", recording_run)
        assert main(argv + ["--workers", "1"]) == 0
        capsys.readouterr()
        assert seeds == {7}


class TestWorkersPrecedence:
    """An explicit ``--workers`` must beat ``REPRO_SWEEP_WORKERS`` on every
    sweep-backed subcommand; the env var applies only when the flag is
    absent."""

    def test_explicit_workers_beats_env_on_sweep(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "1")
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01",
                     "--workers", "2"]) == 0
        assert "workers: 2" in capsys.readouterr().err

    def test_env_applies_without_flag(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "3")
        assert main(["scenario", "figure1-3", "--workload", "3", "--scale", "0.01"]) == 0
        assert "workers: 3" in capsys.readouterr().err

    def test_all_scenarios_forward_explicit_workers(self, monkeypatch, capsys):
        """Every way of running a scenario constructs its runner with the
        explicit flag value — never ``None`` (which would let the env var
        win on that path)."""
        import repro.cli as cli_mod

        created = []
        real_runner = cli_mod.SweepRunner

        class RecordingRunner(real_runner):
            def __init__(self, max_workers=None, **kwargs):
                created.append(max_workers)
                super().__init__(max_workers=max_workers, **kwargs)

        monkeypatch.setattr(cli_mod, "SweepRunner", RecordingRunner)
        monkeypatch.setenv("REPRO_SWEEP_WORKERS", "7")
        for argv in (
            ["scenario", "figure1-3", "--workload", "3", "--scale", "0.01", "--workers", "2"],
            ["scenario", "table2", "--scale", "0.2", "--workers", "2"],
            ["scenario", "table1", "--scale", "0.01", "--workers", "2"],
        ):
            assert main(argv) == 0, argv
            capsys.readouterr()
        assert created == [2] * len(created) and created, (
            f"a subcommand dropped --workers: {created}"
        )


class TestShardCLI:
    FIGURE_1_TO_3 = ["scenario", "figure1-3", "--workload", "3", "--scale", "0.01"]

    def _sweep_argv(self, cache, extra=()):
        return [*self.FIGURE_1_TO_3, "--cache-dir", str(cache), *extra]

    def test_shard_requires_cache_dir(self, capsys):
        assert main([*self.FIGURE_1_TO_3, "--shard", "1/2"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", ["0/2", "3/2", "x", "1/0"])
    def test_shard_argument_validation(self, bad):
        with pytest.raises(SystemExit):
            build_parser().parse_args(
                ["scenario", "figure1-3", "--cache-dir", "c", "--shard", bad]
            )

    def test_merge_requires_cache_dir(self, capsys):
        assert main([*self.FIGURE_1_TO_3, "--merge"]) == 2
        assert "--cache-dir" in capsys.readouterr().err

    def test_merge_refuses_a_shard(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(self._sweep_argv(tmp_path, ["--merge", "--shard", "1/2"]))
        assert exc.value.code == 2
        assert "--shard cannot be combined with --merge" in capsys.readouterr().err

    def test_merge_without_manifests_is_clean_error(self, tmp_path, capsys):
        assert main(self._sweep_argv(tmp_path, ["--merge"])) == 2
        assert "no shard manifests" in capsys.readouterr().err

    def test_shard_then_merge_matches_single_process(self, tmp_path, capsys):
        assert main([*self.FIGURE_1_TO_3, "--workers", "1"]) == 0
        golden = capsys.readouterr().out

        cache = tmp_path / "cache"
        assert main(self._sweep_argv(cache, ["--shard", "1/2"])) == 0
        first = capsys.readouterr().out
        assert "shard run finished" in first
        assert main(self._sweep_argv(cache, ["--shard", "2/2"])) == 0
        capsys.readouterr()
        assert main(self._sweep_argv(cache, ["--merge"])) == 0
        merged = capsys.readouterr().out
        assert merged == golden, "merged output diverged from single-process run"

    def test_merge_fails_with_missing_shard(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        assert main(self._sweep_argv(cache, ["--shard", "1/2"])) == 0
        capsys.readouterr()
        assert main(self._sweep_argv(cache, ["--merge"])) == 2
        assert "2/2" in capsys.readouterr().err

    def test_scenario_shard_prints_progress_not_report(self, tmp_path, capsys):
        cache = tmp_path / "cache"
        argv = ["scenario", "figure4-6", "--scale", "0.01",
                "--cache-dir", str(cache)]
        assert main(argv + ["--shard", "1/2"]) == 0
        captured = capsys.readouterr()
        assert "shard run finished" in captured.out
        assert "Figure 4" not in captured.out
        assert main(argv + ["--shard", "2/2"]) == 0
        capsys.readouterr()
        # All shards done: the unsharded rerun assembles from the cache.
        assert main(argv) == 0
        captured = capsys.readouterr()
        assert "Figure 4" in captured.out
        assert "cache hits: 2" in captured.err


class TestScenarioCommand:
    def _spec_path(self, tmp_path, tiny_workload, **overrides):
        swf = tmp_path / "tiny.swf"
        write_swf(tiny_workload, swf)
        spec = {
            "name": "cli-test",
            "workloads": [{"swf": str(swf)}],
            "policy": "sd_policy",
            "grid": {"max_slowdown": [{"label": "MAXSD inf", "value": "inf"}]},
            "base": {"runtime_model": "ideal"},
            "baseline": {"policy": "static_backfill",
                         "kwargs": {"runtime_model": "ideal"}},
        }
        spec.update(overrides)
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        return path

    def test_list_builtins(self, capsys):
        assert main(["scenario", "--list"]) == 0
        out = capsys.readouterr().out
        for name in ("figure1-3", "figure4-6", "figure7", "figure8", "figure9", "table2"):
            assert name in out

    def test_no_spec_is_an_error_with_usage(self, capsys):
        assert main(["scenario"]) == 2
        captured = capsys.readouterr()
        assert "built-in scenarios" in captured.out
        assert "usage" in captured.err

    def test_unknown_spec_rejected(self, capsys):
        assert main(["scenario", "no-such-scenario"]) == 2
        assert "neither a spec file nor a built-in" in capsys.readouterr().err

    def test_spec_file_runs_with_workers_and_cache(self, tmp_path, tiny_workload, capsys):
        path = self._spec_path(tmp_path, tiny_workload)
        cache = tmp_path / "cache"
        argv = ["scenario", str(path), "--workers", "2", "--cache-dir", str(cache)]
        assert main(argv) == 0
        first = capsys.readouterr()
        assert "Scenario cli-test" in first.out
        assert "MAXSD inf" in first.out
        assert "cache hits: 0" in first.err
        # Rerun: both runs come from the on-disk cache.
        assert main(argv) == 0
        assert "cache hits: 2" in capsys.readouterr().err

    def test_builtin_table2_runs(self, capsys):
        assert main(["scenario", "table2"]) == 0
        assert "Table 2" in capsys.readouterr().out

    def test_builtin_accepts_scale_override(self, capsys):
        assert main(["scenario", "table2", "--scale", "0.1"]) == 0
        assert "Table 2 (scale=0.1)" in capsys.readouterr().out

    def test_spec_file_refuses_workload_flag(self, tmp_path, tiny_workload, capsys):
        path = self._spec_path(tmp_path, tiny_workload)
        assert main(["scenario", str(path), "--workload", "2"]) == 2
        assert "error: --workload applies only to" in capsys.readouterr().err

    def test_spec_file_notes_ignored_scale(self, tmp_path, tiny_workload, capsys):
        path = self._spec_path(tmp_path, tiny_workload)
        assert main(["scenario", str(path), "--scale", "0.5"]) == 0
        assert "only apply to built-in scenarios" in capsys.readouterr().err

    def test_malformed_spec_reports_error(self, tmp_path, tiny_workload, capsys):
        path = self._spec_path(tmp_path, tiny_workload, report="piechart")
        assert main(["scenario", str(path)]) == 2
        assert "unknown report" in capsys.readouterr().err

    def test_invalid_json_reports_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        assert main(["scenario", str(path)]) == 2
        assert "invalid scenario spec" in capsys.readouterr().err

    def test_report_cell_mismatch_reports_error(self, tmp_path, tiny_workload, capsys):
        # 'daily' needs exactly one cell; a two-cell grid fails at render
        # time with a clean message, not a traceback.
        path = self._spec_path(
            tmp_path, tiny_workload, report="daily",
            grid={"max_slowdown": [5.0, 10.0]},
        )
        assert main(["scenario", str(path)]) == 2
        assert "exactly one" in capsys.readouterr().err


class TestLintCommand:
    """`repro-sdpolicy lint` — the same engine as python -m repro.devtools.lint."""

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["lint", str(target)]) == 0
        assert "0 finding(s)" in capsys.readouterr().out

    def test_violation_exits_one(self, tmp_path, capsys):
        scoped = tmp_path / "simulator"
        scoped.mkdir()
        target = scoped / "bad.py"
        target.write_text(
            "import random\n\n\ndef f():\n    return random.random()\n",
            encoding="utf-8",
        )
        assert main(["lint", str(target)]) == 1
        assert "det-unseeded-random" in capsys.readouterr().out

    def test_list_rules(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "det-wallclock" in out
        assert "store-pickle" in out

    def test_json_flag(self, tmp_path, capsys):
        target = tmp_path / "clean.py"
        target.write_text("VALUE = 1\n", encoding="utf-8")
        assert main(["lint", "--json", str(target)]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["ok"] is True
