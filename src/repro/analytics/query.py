"""Cross-sweep queries over the per-job records of cached runs.

Every cached run blob holds its run's header facts and per-job record
rows (:func:`repro.experiments.sweep.iter_cached_runs`), so every run a
sweep stored is queryable.  Two modes, both reading *only* the store (no
simulation, and nothing written: a corrupt blob is an error, left for
``store verify``):

* **Generic** — :func:`run_query` filters (``--where``), groups
  (``--group-by``) and aggregates (``--metrics col:agg``) the per-job rows
  of every cached run in a store.  "p99 slowdown of malleable jobs by
  MAX_SLOWDOWN across every workload ever run" is one invocation.
* **Reports** — ``query --report NAME`` renders a scenario's report
  *byte-identically* to ``scenario NAME`` from stored runs alone.  The
  trick is shared machinery, not parallel reimplementation: the CLI builds
  the same spec, :func:`outcome_from_records` expands it to the same tasks
  and locates each cached run through
  :func:`repro.experiments.sweep.task_cache_keys` (the run a cache hit
  would serve), and :func:`~repro.experiments.scenario.render_report`
  produces the text.

This module imports the experiments layer, so it is *not* re-exported from
``repro.analytics`` (which the runner imports) — import it directly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from repro.analysis.tables import format_table
from repro.analytics.records import JOB_RECORD_DTYPE
from repro.experiments.runner import PolicyRun
from repro.experiments.scenario import (
    ScenarioOutcome,
    ScenarioSpec,
    assemble_outcome,
    _resolve_workloads,
)
from repro.experiments.sweep import iter_cached_runs, read_cached_run, task_cache_keys
from repro.store import ResultStore
from repro.workloads.job_record import Workload

__all__ = [
    "QueryError",
    "list_runs",
    "outcome_from_records",
    "run_query",
]


class QueryError(RuntimeError):
    """The query cannot be answered from the store's cached runs."""


#: Run-level fields usable in ``--where``/``--group-by``.
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
    """One cached run, with its (possibly row-filtered) record array."""

    meta: Dict[str, Any]
    array: np.ndarray


def _load_slices(
    store: ResultStore, where: Sequence[Tuple[str, str]]
) -> List[_RunSlice]:
    """Every cached run in the store, filtered by the where clauses."""
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
    for _key, payload in iter_cached_runs(store):
        meta = _run_meta(payload)
        if any(str(meta.get(f)) != v for f, v in run_filters):
            continue
        arr = payload["run"].records.array
        for field_name, value in row_filters:
            try:
                needle = float(value)
            except ValueError:
                raise QueryError(
                    f"record column filter {field_name}={value!r} needs a "
                    "numeric value"
                ) from None
            arr = arr[arr[field_name] == needle]
        slices.append(_RunSlice(meta=meta, array=arr))
    return slices


def _run_meta(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The run-level fields of one cached run payload."""
    return {
        "workload": payload["workload"],
        "policy": payload["policy"],
        "label": payload["run"].label,
        "seed": payload["seed"],
        "task_key": payload["key"],
    }


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
    """Table of every cached run in the store (the ``--list`` mode)."""
    rows: List[List[object]] = [
        [
            str(payload["workload"]),
            str(payload["key"]),
            str(payload["policy"]),
            str(payload["seed"]),
            len(payload["run"].records),
            cache_key[:12],
        ]
        for cache_key, payload in iter_cached_runs(store)
    ]
    if not rows:
        return "no stored runs in this store (run a sweep into it first)"
    rows.sort(key=lambda r: (r[0], r[1]))
    return format_table(
        ["workload", "task", "policy", "seed", "jobs", "cache key"],
        rows,
        title=f"stored runs ({len(rows)})",
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
            "no stored runs match (is the store populated? "
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
# Scenario reports from stored runs
# --------------------------------------------------------------------- #
def outcome_from_records(
    spec: ScenarioSpec,
    workloads: Optional[Union[Workload, Mapping[str, Workload]]],
    store: ResultStore,
) -> ScenarioOutcome:
    """Rebuild a scenario outcome purely from the store's cached runs.

    Expands the spec to the same tasks the sweep path would run and loads
    each task's cached run through its cache key — the run a cache hit
    would serve — so every report renderer produces the same bytes it
    would over fresh simulations.  Raises :class:`QueryError` naming every
    task the store lacks.
    """
    resolved = _resolve_workloads(spec, workloads)
    tasks = spec.tasks(resolved)
    cache_keys = dict(zip((t.resolved_key() for t in tasks), task_cache_keys(tasks)))
    missing: List[str] = []

    def load(task_key: str, _workload_name: str, _label: str) -> Optional[PolicyRun]:
        payload = read_cached_run(store, cache_keys[task_key])
        if payload is None:
            missing.append(task_key)
            return None
        return payload["run"]

    outcome = assemble_outcome(spec, resolved, load)
    if missing:
        raise QueryError(
            f"no stored runs for task(s) {missing} of scenario "
            f"{spec.name!r} — run that scenario into this store first "
            "(query renders from stored runs alone; it never simulates)"
        )
    return outcome
