"""Tests for the pluggable co-scheduling policy family.

Covers the promoted profile/contention layer, the policy registry, the
contention-aware UB-Policy — including the pinned regression that it
refuses bandwidth-oversubscribed pairings, visible through the decision
trace — and the ``policy_faceoff`` built-in scenario's determinism across
serial and sharded execution.
"""

from __future__ import annotations

import json

import pytest

from repro.core.contention import (
    DEFAULT_CONTENTION_COEFFICIENT,
    DEFAULT_NODE_BANDWIDTH_CAPACITY,
    ApplicationAwareRuntimeModel,
    ContentionModel,
)
from repro.core.policy import (
    available_policies,
    make_policy,
    policy_accepts_profiles,
    resolve_policy_name,
)
from repro.core.profiles import (
    APPLICATIONS,
    DEFAULT_APPLICATION,
    PROFILE_SET_NAMES,
    get_profile_set,
    lookup_application,
)
from repro.core.runtime_model import get_model
from repro.core.sd_policy import SDPolicyScheduler
from repro.core.ub_policy import UBPolicyConfig, UBPolicyScheduler
from repro.experiments.runner import make_scheduler, run_workload
from repro.experiments.scenario import (
    ScenarioError,
    WorkloadRef,
    builtin_scenario,
    render_report,
    run_scenario,
)
from repro.experiments.sweep import (
    MergeExecutor,
    ShardedExecutor,
    SweepRunner,
    fingerprint_workload,
)
from repro.workloads.applications import assign_applications
from repro.workloads.presets import build_workload


# --------------------------------------------------------------------- #
# The real run's runtime model is the promoted core layer
# --------------------------------------------------------------------- #
class TestRealrunParity:
    def test_emulator_model_is_core_model(self):
        # The real run's application-aware runtime model consults the same
        # ContentionModel class the schedulers do, with the same defaults.
        model = ApplicationAwareRuntimeModel()
        assert isinstance(model.contention, ContentionModel)
        assert model.contention.contention_coefficient == DEFAULT_CONTENTION_COEFFICIENT
        assert (
            model.contention.node_bandwidth_capacity
            == DEFAULT_NODE_BANDWIDTH_CAPACITY
        )


# --------------------------------------------------------------------- #
# Profiles and profile sets
# --------------------------------------------------------------------- #
class TestProfileSets:
    def test_table2_set_is_the_applications_table(self):
        assert get_profile_set("table2") is APPLICATIONS

    def test_uniform_set_neutralises_every_label(self):
        uniform = get_profile_set("uniform")
        assert lookup_application("STREAM", uniform) is DEFAULT_APPLICATION

    def test_unknown_set_error_names_candidates(self):
        with pytest.raises(ValueError, match="available: table2, uniform"):
            get_profile_set("mystery")

    def test_set_names_fingerprint_stable(self):
        assert PROFILE_SET_NAMES == ("table2", "uniform")


# --------------------------------------------------------------------- #
# The policy registry
# --------------------------------------------------------------------- #
class TestPolicyRegistry:
    def test_available_policies(self):
        assert available_policies() == (
            "fcfs",
            "sd_policy",
            "static_backfill",
            "ub_policy",
        )

    @pytest.mark.parametrize(
        "alias, canonical",
        [
            ("backfill", "static_backfill"),
            ("static", "static_backfill"),
            ("sd", "sd_policy"),
            ("sdpolicy", "sd_policy"),
            ("ub", "ub_policy"),
            ("uberun", "ub_policy"),
            ("sd_policy", "sd_policy"),
        ],
    )
    def test_aliases_resolve(self, alias, canonical):
        assert resolve_policy_name(alias) == canonical

    def test_unknown_policy_error_names_available(self):
        with pytest.raises(ValueError, match="available: fcfs, sd_policy"):
            make_policy("slurm")

    def test_only_ub_accepts_profiles(self):
        flagged = [n for n in available_policies() if policy_accepts_profiles(n)]
        assert flagged == ["ub_policy"]

    def test_make_scheduler_delegates_to_registry(self):
        scheduler = make_scheduler("uberun", max_slowdown=10.0)
        assert isinstance(scheduler, UBPolicyScheduler)

    def test_unknown_runtime_model_error_names_available(self):
        with pytest.raises(ValueError, match="available:.*ideal.*worst_case"):
            get_model("quantum")


# --------------------------------------------------------------------- #
# UB-Policy behaviour
# --------------------------------------------------------------------- #
class TestUBPolicy:
    def test_config_builds_contention_model(self):
        config = UBPolicyConfig(node_bandwidth_capacity=1.1)
        contention = config.build_contention()
        assert isinstance(contention, ContentionModel)
        assert contention.node_bandwidth_capacity == 1.1

    def test_is_an_sd_policy_refinement(self):
        scheduler = make_policy("ub_policy")
        assert isinstance(scheduler, SDPolicyScheduler)
        assert scheduler.name.startswith("ub_policy[")
        assert "BW=1.4" in scheduler.name

    def test_selector_carries_contention(self):
        scheduler = make_policy("ub_policy")
        assert scheduler.selector.contention is not None
        assert make_policy("sd_policy").selector.contention is None

    def test_uniform_profiles_neutralise_bandwidth_check(self):
        # Under the uniform set every job demands 0.3: no pair (0.6) can
        # oversubscribe the 1.4 node, so UB degenerates to SD.
        scheduler = make_policy("ub_policy", profiles="uniform")
        contention = scheduler.selector.contention
        stream = contention.application("STREAM")
        assert contention.bandwidth_feasible([stream, stream])


class TestUBPolicyRefusalRegression:
    """Pinned regression: UB-Policy refuses oversubscribed pairings.

    Workload 3 (scale 0.01, seed 0) with the Table 2 application mix is
    deterministic, so the decision counts are exact pins, not tolerances.
    """

    @pytest.fixture(scope="class")
    def workload(self):
        return assign_applications(build_workload(3, scale=0.01, seed=0))

    @pytest.fixture(scope="class")
    def runs(self, workload):
        return {
            policy: run_workload(
                workload,
                policy,
                runtime_model="application_aware",
                power_model=None,
                seed=0,
                trace=True,
            )
            for policy in ("sd_policy", "ub_policy")
        }

    def test_ub_refuses_bandwidth_oversubscribed_pairings(self, runs):
        stats = runs["ub_policy"].scheduler_stats
        assert stats["rejected_bandwidth"] == 84
        assert stats["malleable_starts"] == 8
        # SD-Policy has no bandwidth notion and pairs more aggressively.
        sd_stats = runs["sd_policy"].scheduler_stats
        assert "rejected_bandwidth" not in sd_stats
        assert sd_stats["malleable_starts"] == 15

    def test_bandwidth_reason_lands_in_trace(self, runs):
        reasons = {}
        for line in runs["ub_policy"].trace.lines:
            record = json.loads(line)
            if record["event"] == "mate_rejected":
                reasons[record["reason"]] = reasons.get(record["reason"], 0) + 1
        assert reasons == {"no_mates": 14, "estimate": 5, "bandwidth": 84}

    def test_refusals_visible_in_trace_summary(self, workload):
        from repro.experiments.sweep import SweepTask
        from repro.store import open_store
        from repro.telemetry.report import trace_summary

        store = open_store("memory://ub-refusal")
        task = SweepTask(
            workload=workload,
            policy="ub_policy",
            key="w3::ub",
            label="ub",
            kwargs={"runtime_model": "application_aware", "power_model": None},
        )
        SweepRunner(max_workers=1, store=store, trace=True).run([task])
        summary = trace_summary(store)
        assert "rejected:" in summary
        assert "bandwidth 84" in summary


# --------------------------------------------------------------------- #
# The policy_faceoff scenario
# --------------------------------------------------------------------- #
class TestPolicyFaceoff:
    def test_workload_ref_applications_round_trip(self):
        ref = WorkloadRef(preset=3, scale=0.01, applications="table2")
        data = ref.to_dict()
        assert data["applications"] == "table2"
        assert WorkloadRef.from_dict(data) == ref
        assert "applications" not in WorkloadRef(preset=3).to_dict()

    def test_unknown_mix_rejected(self):
        ref = WorkloadRef(preset=3, scale=0.01, applications="table3")
        with pytest.raises(ScenarioError, match="unknown application mix"):
            ref.build()

    def test_stamped_mix_changes_the_workload_fingerprint(self):
        plain = build_workload(3, scale=0.01, seed=0)
        stamped = assign_applications(plain)
        assert fingerprint_workload(stamped) != fingerprint_workload(plain)

    def test_spec_round_trips_through_json(self):
        spec = builtin_scenario("policy_faceoff", scale=0.01)
        again = type(spec).from_json(spec.to_json())
        assert again.to_dict() == spec.to_dict()
        assert [ref.applications for ref in again.workloads] == ["table2"] * 4

    def test_serial_and_sharded_reports_byte_identical(self, tmp_path):
        spec = builtin_scenario("policy_faceoff", scale=0.005, workload_ids=(3,))
        store = f"file://{tmp_path / 'store'}"
        serial = run_scenario(spec, runner=SweepRunner(max_workers=1, store=store))
        assert serial.complete
        report = render_report(serial)
        assert "Who wins where" in report
        assert "ub_policy" in report
        assert "rejected_bandwidth" in report

        shard_store = f"file://{tmp_path / 'shards'}"
        for i in range(2):
            run_scenario(
                spec,
                runner=SweepRunner(
                    max_workers=1, store=shard_store, executor=ShardedExecutor(i, 2)
                ),
            )
        merged = run_scenario(
            spec,
            runner=SweepRunner(
                max_workers=1, store=shard_store, executor=MergeExecutor()
            ),
        )
        assert merged.complete
        assert render_report(merged) == report
