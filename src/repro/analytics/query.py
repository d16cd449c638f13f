"""Cross-sweep queries over persisted per-job records.

Two modes, both reading *only* the store (no simulation):

* **Generic** — :func:`run_query` filters (``--where``), groups
  (``--group-by``) and aggregates (``--metrics col:agg``) the per-job rows
  of every analytics run in a store.  "p99 slowdown of malleable jobs by
  MAX_SLOWDOWN across every workload ever run" is one invocation.
* **Reports** — :func:`render_stored_report` regenerates Figure 1-3,
  Figure 7 and Table 1 *byte-identically* to their sweep-rendered
  versions.  The trick is shared machinery, not parallel reimplementation:
  the same built-in scenarios
  (:func:`repro.experiments.scenario.builtin_scenario`) expand to the same
  tasks, :func:`repro.experiments.sweep.task_cache_key` locates each run's
  records, :func:`repro.analytics.metrics_from_records` rebuilds the
  aggregates bit-for-bit, and :func:`~repro.experiments.scenario.render_report`
  produces the text.

This module imports the experiments layer, so it is *not* re-exported from
``repro.analytics`` (which the sweep layer imports) — import it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.tables import format_table
from repro.analytics.records import (
    JOB_RECORD_DTYPE,
    RECORDS,
    RunRecords,
    load_run_records,
    metrics_from_records,
)
from repro.experiments.runner import PolicyRun
from repro.experiments.scenario import (
    ScenarioOutcome,
    ScenarioSpec,
    WorkloadRef,
    assemble_outcome,
    builtin_scenario,
    render_report,
    report_figures_1_to_3,
    _resolve_workloads,
)
from repro.experiments.sweep import task_cache_key
from repro.simulator.simulation import SimulationResult
from repro.store import ResultStore
from repro.store.attachments import AttachmentError, iter_attachments
from repro.workloads.job_record import Workload

__all__ = [
    "QueryError",
    "REPORT_CHOICES",
    "list_runs",
    "outcome_from_records",
    "render_stored_report",
    "run_query",
]


class QueryError(RuntimeError):
    """The query cannot be answered from the store's records."""


#: Run-level fields usable in ``--where``/``--group-by`` (from run meta).
_META_FIELDS = ("workload", "policy", "label", "seed", "task_key")

#: Aggregations usable in ``--metrics col:agg``.
_AGGREGATIONS: Dict[str, Callable[[np.ndarray], float]] = {
    "mean": lambda a: float(np.mean(a)),
    "median": lambda a: float(np.median(a)),
    "p50": lambda a: float(np.percentile(a, 50)),
    "p95": lambda a: float(np.percentile(a, 95)),
    "p99": lambda a: float(np.percentile(a, 99)),
    "min": lambda a: float(np.min(a)),
    "max": lambda a: float(np.max(a)),
    "count": len,
}


@dataclass
class _RunSlice:
    """One analytics run, with its (possibly row-filtered) record array."""

    meta: Dict[str, Any]
    array: np.ndarray
    cache_key: str = ""


def _load_slices(
    store: ResultStore, where: Sequence[Tuple[str, str]]
) -> List[_RunSlice]:
    """Every analytics run in the store, filtered by the where clauses."""
    run_filters = [(f, v) for f, v in where if f in _META_FIELDS]
    row_filters = [(f, v) for f, v in where if f not in _META_FIELDS]
    for field_name, _ in row_filters:
        if field_name not in JOB_RECORD_DTYPE.names:
            raise QueryError(
                f"unknown query field {field_name!r}; run-level fields: "
                f"{', '.join(_META_FIELDS)}; record columns: "
                f"{', '.join(JOB_RECORD_DTYPE.names)}"
            )
    slices: List[_RunSlice] = []
    for _name, manifest in sorted(iter_attachments(store, RECORDS)):
        meta = dict(manifest.get("meta") or {})
        if any(str(meta.get(f)) != v for f, v in run_filters):
            continue
        cache_key = str(manifest.get("cache_key", ""))
        records = load_run_records(store, cache_key)
        arr = records.array
        for field_name, value in row_filters:
            try:
                needle = float(value)
            except ValueError:
                raise QueryError(
                    f"record column filter {field_name}={value!r} needs a "
                    "numeric value"
                ) from None
            arr = arr[arr[field_name] == needle]
        slices.append(_RunSlice(meta=meta, array=arr, cache_key=cache_key))
    return slices


def parse_where(clauses: Sequence[str]) -> List[Tuple[str, str]]:
    """Parse ``field=value`` strings (the ``--where`` arguments)."""
    out: List[Tuple[str, str]] = []
    for clause in clauses:
        if "=" not in clause:
            raise QueryError(f"--where needs field=value, got {clause!r}")
        field_name, _, value = clause.partition("=")
        out.append((field_name.strip(), value.strip()))
    return out


def parse_metrics(spec: str) -> List[Tuple[str, str]]:
    """Parse a ``col:agg,col:agg`` metrics spec."""
    out: List[Tuple[str, str]] = []
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        column, _, agg = item.partition(":")
        column, agg = column.strip(), (agg.strip() or "mean")
        if column not in JOB_RECORD_DTYPE.names:
            raise QueryError(
                f"unknown record column {column!r}; "
                f"columns: {', '.join(JOB_RECORD_DTYPE.names)}"
            )
        if agg not in _AGGREGATIONS:
            raise QueryError(
                f"unknown aggregation {agg!r}; "
                f"aggregations: {', '.join(_AGGREGATIONS)}"
            )
        out.append((column, agg))
    if not out:
        raise QueryError("--metrics selected nothing")
    return out


def list_runs(store: ResultStore) -> str:
    """Table of every analytics run in the store (the ``--list`` mode)."""
    rows: List[List[object]] = []
    for _name, manifest in sorted(iter_attachments(store, RECORDS)):
        meta = manifest.get("meta") or {}
        rows.append(
            [
                str(meta.get("workload", "?")),
                str(meta.get("task_key", meta.get("label", "?"))),
                str(meta.get("policy", "?")),
                str(meta.get("seed", "?")),
                int(manifest.get("rows", 0)),
                str(manifest.get("cache_key", ""))[:12],
            ]
        )
    if not rows:
        return "no analytics runs in this store (run a sweep with --analytics)"
    rows.sort(key=lambda r: (r[0], r[1]))
    return format_table(
        ["workload", "task", "policy", "seed", "jobs", "cache key"],
        rows,
        title=f"analytics runs ({len(rows)})",
    )


def run_query(
    store: ResultStore,
    where: Sequence[Tuple[str, str]] = (),
    group_by: Optional[str] = None,
    metrics: Sequence[Tuple[str, str]] = (("slowdown", "mean"), ("slowdown", "p95")),
) -> str:
    """Aggregate per-job records across every matching run in the store."""
    if group_by is not None and group_by not in _META_FIELDS + JOB_RECORD_DTYPE.names:
        raise QueryError(
            f"unknown group-by field {group_by!r}; run-level fields: "
            f"{', '.join(_META_FIELDS)}; record columns: "
            f"{', '.join(JOB_RECORD_DTYPE.names)}"
        )
    for column, agg in metrics:
        if column not in JOB_RECORD_DTYPE.names:
            raise QueryError(
                f"unknown record column {column!r}; "
                f"columns: {', '.join(JOB_RECORD_DTYPE.names)}"
            )
        if agg not in _AGGREGATIONS:
            raise QueryError(
                f"unknown aggregation {agg!r}; "
                f"aggregations: {', '.join(_AGGREGATIONS)}"
            )
    slices = _load_slices(store, where)
    if not slices:
        raise QueryError(
            "no analytics runs match (is the store populated? "
            "try 'query --list')"
        )
    # Group: by a run-level meta field (runs partition), a record column
    # (row partition over the concatenated rows), or not at all.
    groups: Dict[str, List[np.ndarray]] = {}
    if group_by in _META_FIELDS:
        for s in slices:
            groups.setdefault(str(s.meta.get(group_by)), []).append(s.array)
    else:
        merged = (
            np.concatenate([s.array for s in slices])
            if len(slices) > 1
            else slices[0].array
        )
        if group_by is None:
            groups["all"] = [merged]
        else:
            for value in np.unique(merged[group_by]):
                groups[str(value)] = [merged[merged[group_by] == value]]
    headers = [group_by or "group"] + [f"{col}:{agg}" for col, agg in metrics]
    rows: List[List[object]] = []
    total_jobs = 0
    for key in sorted(groups):
        arrays = [a for a in groups[key] if len(a)]
        if not arrays:
            continue
        merged = arrays[0] if len(arrays) == 1 else np.concatenate(arrays)
        total_jobs += len(merged)
        row: List[object] = [key]
        for column, agg in metrics:
            values = np.ascontiguousarray(merged[column], dtype=np.float64)
            row.append(_AGGREGATIONS[agg](values))
        rows.append(row)
    if not rows:
        raise QueryError("the where clauses filtered out every job row")
    title = f"query over {len(slices)} run(s), {total_jobs} job row(s)"
    return format_table(headers, rows, precision=3, title=title)


# --------------------------------------------------------------------- #
# Figure/table regeneration from stored records
# --------------------------------------------------------------------- #
REPORT_CHOICES = ("fig1", "fig2", "fig3", "fig1-3", "fig7", "table1")


class _RecordJob:
    """Per-job shim over one record row for job-based report machinery.

    Exposes exactly the attributes the time-series helpers read
    (``submit_time``/``end_time``/``slowdown``/``scheduled_malleable`` …)
    with the stored values, so per-job reports over records reproduce the
    retained-run output bit for bit.
    """

    __slots__ = (
        "job_id",
        "submit_time",
        "start_time",
        "end_time",
        "slowdown",
        "malleable",
        "scheduled_malleable",
        "was_mate",
    )

    def __init__(self, row: np.void) -> None:
        self.job_id = int(row["job_id"])
        self.submit_time = float(row["submit"])
        self.start_time = float(row["start"])
        self.end_time = float(row["end"])
        self.slowdown = float(row["slowdown"])
        self.malleable = bool(row["malleable"])
        self.scheduled_malleable = bool(row["scheduled_malleable"])
        self.was_mate = bool(row["was_mate"])


def _stub_run(
    label: str, workload_name: str, records: RunRecords, with_jobs: bool
) -> PolicyRun:
    """A :class:`PolicyRun` reconstructed from stored records (no sim)."""
    metrics = metrics_from_records(records)
    jobs = [_RecordJob(row) for row in records.array] if with_jobs else []
    result = SimulationResult(
        jobs=jobs,
        makespan=metrics.makespan,
        avg_response_time=metrics.avg_response_time,
        avg_slowdown=metrics.avg_slowdown,
        avg_wait_time=metrics.avg_wait_time,
        energy_joules=metrics.energy_joules,
        malleable_scheduled_jobs=metrics.malleable_scheduled,
        mate_jobs=metrics.mate_jobs,
        scheduler_name=str(records.meta.get("policy", label)),
        total_events=0,
        first_submit=float(records.meta.get("first_submit", 0.0)),
        completed_jobs=metrics.num_jobs,
    )
    return PolicyRun(
        label=label,
        workload_name=workload_name,
        result=result,
        metrics=metrics,
        wall_clock_seconds=0.0,
    )


def outcome_from_records(
    spec: ScenarioSpec,
    workloads: Optional[Union[Workload, Mapping[str, Workload]]],
    store: ResultStore,
    with_jobs: Optional[bool] = None,
) -> ScenarioOutcome:
    """Rebuild a scenario outcome purely from stored records.

    Expands the spec to the same tasks the sweep path would run, resolves
    each task's records through its cache key, and assembles stub runs with
    bit-identical metrics — so every aggregate report renderer produces the
    same bytes it would over fresh simulations.  Raises
    :class:`QueryError` naming every task whose records are missing.
    """
    if with_jobs is None:
        with_jobs = spec.report in ("daily", "heatmaps")
    resolved = _resolve_workloads(spec, workloads)
    task_by_key = {t.resolved_key(): t for t in spec.tasks(resolved)}
    missing: List[str] = []

    def load(task_key: str, workload_name: str, label: str) -> Optional[PolicyRun]:
        task = task_by_key[task_key]
        try:
            records = load_run_records(store, task_cache_key(task))
        except AttachmentError:
            missing.append(task_key)
            return None
        return _stub_run(label, workload_name, records, with_jobs)

    outcome = assemble_outcome(spec, resolved, load)
    if missing:
        raise QueryError(
            f"no stored records for task(s) {missing} of scenario "
            f"{spec.name!r} — run that scenario with --analytics into this "
            "store first (query renders from records alone; it never simulates)"
        )
    return outcome


def render_stored_report(
    store: ResultStore,
    report: str,
    workload: Optional[Workload] = None,
    scale: float = 0.05,
    seed: Optional[int] = None,
    sharing_factor: float = 0.5,
    runtime_model: str = "ideal",
    max_slowdown: float = 10.0,
    workload_ids: Sequence[int] = (1, 2, 3, 4, 5),
) -> str:
    """Regenerate one paper report from stored records (no simulation).

    ``seed`` follows the built-in rule: it seeds both the workload and the
    simulation, as ``--seed`` does on the commands that wrote the records.
    """
    if report == "table1":
        spec = builtin_scenario(
            "table1", scale=scale, seed=seed, workload_ids=tuple(workload_ids)
        )
        return render_report(outcome_from_records(spec, None, store))
    if workload is None:
        raise QueryError(f"report {report!r} needs a workload (--workload/--swf)")
    if report in ("fig1", "fig2", "fig3", "fig1-3"):
        spec = builtin_scenario(
            "figure1-3",
            seed=seed,
            sharing_factor=sharing_factor,
            runtime_model=runtime_model,
        )
    elif report == "fig7":
        spec = builtin_scenario(
            "figure7", seed=seed, max_slowdown=max_slowdown, runtime_model=runtime_model
        )
    else:
        raise QueryError(
            f"unknown report {report!r}; choices: {', '.join(REPORT_CHOICES)}"
        )
    spec.workloads = [WorkloadRef(name=workload.name)]
    outcome = outcome_from_records(spec, workload, store)
    if report in ("fig1", "fig2", "fig3"):
        return report_figures_1_to_3(outcome, figures=(int(report[-1]),))
    return render_report(outcome)
