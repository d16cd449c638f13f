"""Experiment harness: the code paths that regenerate each paper table/figure.

:mod:`repro.experiments.runner` runs one workload under one policy and
returns the metrics; :mod:`repro.experiments.sweep` serves independent
runs from a result cache in a pluggable :mod:`repro.store` backend (local
directory or memory) and runs the misses in process
or over a fork pool (:func:`~repro.experiments.executors.run_tasks`) — all
of them, one shard's slice (:class:`ShardedExecutor`), or none, merging
completed shards (:class:`MergeExecutor`);
:mod:`repro.experiments.scenario` turns a declarative spec (workload ref ×
policy × parameter grid, JSON round-trippable) into sweep tasks and reports,
and holds one built-in scenario per table and figure of the paper's
evaluation (:data:`~repro.experiments.scenario.BUILTIN_SCENARIOS`).  The
benchmarks and the CLI are thin wrappers around this package.
"""

from repro.experiments.executors import (
    ExecutorError,
    MergeExecutor,
    ShardedExecutor,
    parse_shard,
)
from repro.experiments.runner import PolicyRun, cluster_for, run_workload
from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioCell,
    ScenarioError,
    ScenarioOutcome,
    ScenarioSpec,
    WorkloadRef,
    builtin_scenario,
    load_spec,
    render_report,
    run_scenario,
    save_spec,
)
from repro.experiments.sweep import (
    SweepEntry,
    SweepError,
    SweepResult,
    SweepRunner,
    SweepTask,
    fingerprint_workload,
    task_cache_key,
)

__all__ = [
    "BUILTIN_SCENARIOS",
    "ExecutorError",
    "MergeExecutor",
    "PolicyRun",
    "ShardedExecutor",
    "parse_shard",
    "ScenarioCell",
    "ScenarioError",
    "ScenarioOutcome",
    "ScenarioSpec",
    "SweepEntry",
    "SweepError",
    "SweepResult",
    "SweepRunner",
    "SweepTask",
    "WorkloadRef",
    "builtin_scenario",
    "cluster_for",
    "fingerprint_workload",
    "load_spec",
    "render_report",
    "run_scenario",
    "run_workload",
    "save_spec",
    "task_cache_key",
]
