"""Declarative scenario subsystem: spec in, paper artifact out.

A :class:`ScenarioSpec` describes one experiment the way the paper's
evaluation section does — *which workload(s)* (a Table 1 preset at a scale,
or a real SWF log), *which policy*, and *which parameter grid*
(``max_slowdown``, ``sharing_factor``, ``malleable_fraction``,
``runtime_model``, …) — without any Python control flow.  The spec

* round-trips through a plain dict / JSON file (``to_dict``/``from_dict``,
  ``load_spec``/``save_spec``), so scenarios are data, not code;
* expands its grid into :class:`repro.experiments.sweep.SweepTask` lists
  with stable per-cell keys (grid order is preserved);
* executes through :class:`repro.experiments.sweep.SweepRunner`, so every
  cell fans out over the process pool and hits the on-disk result cache;
* normalises every cell to the scenario's baseline run (the paper's
  "normalised to static backfill" convention).

Every paper table and figure is a built-in scenario
(:data:`BUILTIN_SCENARIOS`) rendered by one of the report renderers below;
the CLI's ``table``/``figure``/``sweep``/``scenario`` commands, the
benchmarks and the ablations all go through :func:`run_scenario`, and
``repro-sdpolicy scenario`` also runs a user-written JSON spec.  Writing a
new experiment means writing a spec, not a loop.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.analysis.comparison import improvement_percent, normalize_to_baseline
from repro.analysis.figures import render_bar_chart, render_heatmap, render_series
from repro.analysis.tables import format_table, metrics_table
from repro.experiments.runner import PolicyRun
from repro.experiments.sweep import SweepResult, SweepRunner, SweepTask
from repro.metrics.heatmap import CategoryGrid, category_heatmap, heatmap_ratio
from repro.metrics.timeseries import daily_series_table
from repro.workloads.job_record import Workload

#: Metrics normalised against the baseline (the paper's Figures 1-3/8 keys).
NORMALIZED_KEYS = ("makespan", "avg_response_time", "avg_slowdown")


class ScenarioError(ValueError):
    """Raised for malformed scenario specs."""


# --------------------------------------------------------------------- #
# JSON-safe value encoding (inf does not exist in strict JSON)
# --------------------------------------------------------------------- #
def encode_value(value: Any) -> Any:
    """Encode one parameter value into a JSON-safe form (inf → ``"inf"``)."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        if math.isnan(value):
            raise ScenarioError("NaN is not a valid scenario parameter value")
    if isinstance(value, dict):
        return {k: encode_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [encode_value(v) for v in value]
    return value


def decode_value(value: Any) -> Any:
    """Inverse of :func:`encode_value` (``"inf"`` → ``math.inf``)."""
    if isinstance(value, str):
        lowered = value.lower()
        if lowered in ("inf", "+inf", "infinity"):
            return math.inf
        if lowered in ("-inf", "-infinity"):
            return -math.inf
        return value
    if isinstance(value, dict):
        return {k: decode_value(v) for k, v in value.items()}
    if isinstance(value, list):
        return [decode_value(v) for v in value]
    return value


def _format_value(value: Any) -> str:
    """Compact display form of a grid value for auto-generated labels."""
    if isinstance(value, float):
        if math.isinf(value):
            return "inf" if value > 0 else "-inf"
        return f"{value:g}"
    return str(value)


# --------------------------------------------------------------------- #
# Workload references
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class WorkloadRef:
    """Reference to a workload: a Table 1 preset at a scale, or an SWF log.

    Exactly one of ``preset`` (a paper workload id, 1-5) and ``swf`` (a path
    to a Standard Workload Format file) should be set.  A ref with neither
    is *abstract* — valid only when :func:`run_scenario` is handed a
    pre-built workload override (the ablation benchmarks do this for their
    custom generator models).

    ``applications`` optionally names an application mix to stamp onto the
    materialised workload (``"table2"``, the paper's real-run mix), giving
    every job an application name the contention-aware policies and the
    application-aware runtime model can resolve against a profile set.  The
    stamped names flow into the workload fingerprint, so refs with and
    without a mix never share cache entries.
    """

    preset: Optional[int] = None
    swf: Optional[str] = None
    scale: float = 1.0
    seed: Optional[int] = None
    name: Optional[str] = None
    applications: Optional[str] = None

    def key(self) -> str:
        """Stable key identifying this ref inside the scenario."""
        if self.name:
            return self.name
        if self.preset is not None:
            return f"workload{self.preset}"
        if self.swf:
            return os.path.splitext(os.path.basename(self.swf))[0]
        return "workload"

    def build(self) -> Workload:
        """Materialise the referenced workload (and stamp its app mix)."""
        if self.preset is not None and self.swf:
            raise ScenarioError(
                f"workload ref {self.key()!r}: preset and swf are mutually exclusive"
            )
        if self.preset is not None:
            from repro.workloads.presets import build_workload

            workload = build_workload(self.preset, scale=self.scale, seed=self.seed)
        elif self.swf:
            from repro.workloads.swf import read_swf

            workload = read_swf(self.swf)
        else:
            raise ScenarioError(
                f"workload ref {self.key()!r} is abstract (no preset or swf); "
                "pass a pre-built workload to run_scenario()"
            )
        return self._stamp_applications(workload)

    def _stamp_applications(self, workload: Workload) -> Workload:
        """Assign the named application mix to every job, if one is set."""
        if not self.applications:
            return workload
        if self.applications != "table2":
            raise ScenarioError(
                f"workload ref {self.key()!r}: unknown application mix "
                f"{self.applications!r}; available: table2"
            )
        from repro.workloads.applications import assign_applications

        return assign_applications(workload)

    def to_dict(self) -> Dict[str, Any]:
        out: Dict[str, Any] = {}
        if self.preset is not None:
            out["preset"] = self.preset
        if self.swf is not None:
            out["swf"] = self.swf
        if self.scale != 1.0:
            out["scale"] = self.scale
        if self.seed is not None:
            out["seed"] = self.seed
        if self.name is not None:
            out["name"] = self.name
        if self.applications is not None:
            out["applications"] = self.applications
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "WorkloadRef":
        known = {"preset", "swf", "scale", "seed", "name", "applications"}
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown workload ref fields: {sorted(unknown)}")
        return cls(
            preset=data.get("preset"),
            swf=data.get("swf"),
            scale=float(data.get("scale", 1.0)),
            seed=data.get("seed"),
            name=data.get("name"),
            applications=data.get("applications"),
        )


# --------------------------------------------------------------------- #
# Grid points
# --------------------------------------------------------------------- #
@dataclass(frozen=True)
class GridPoint:
    """One value of one grid parameter, with its display label."""

    param: str
    value: Any
    label: str

    def __hash__(self) -> int:  # value may be unhashable; label is unique
        return hash((self.param, self.label))


def _as_grid(grid: Mapping[str, Sequence[Any]]) -> Dict[str, List[GridPoint]]:
    """Normalise a grid mapping into labelled :class:`GridPoint` lists.

    Accepts plain values (auto-labelled ``param=value``) or
    ``{"label": ..., "value": ...}`` dicts for custom labels.
    """
    out: Dict[str, List[GridPoint]] = {}
    for param, values in grid.items():
        if isinstance(values, (str, bytes)) or not isinstance(values, (list, tuple)):
            raise ScenarioError(f"grid parameter {param!r} must map to a list of values")
        points: List[GridPoint] = []
        for value in values:
            if isinstance(value, GridPoint):
                points.append(value)
                continue
            if isinstance(value, Mapping):
                extra = set(value) - {"label", "value"}
                if extra or "value" not in value:
                    raise ScenarioError(
                        f"grid parameter {param!r}: labelled values need exactly "
                        f"'label' and 'value' keys, got {sorted(value)}"
                    )
                raw = decode_value(value["value"])
                label = str(value.get("label") or f"{param}={_format_value(raw)}")
            else:
                raw = decode_value(value)
                label = f"{param}={_format_value(raw)}"
            points.append(GridPoint(param=param, value=raw, label=label))
        labels = [p.label for p in points]
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"grid parameter {param!r} has duplicate labels: {labels}")
        out[param] = points
    return out


# --------------------------------------------------------------------- #
# The spec
# --------------------------------------------------------------------- #
@dataclass
class ScenarioSpec:
    """Declarative description of one experiment.

    Parameters
    ----------
    name / description:
        Identification, echoed in the default report.
    workloads:
        One or more :class:`WorkloadRef`; with several refs the whole grid
        runs per workload and cells normalise to *their own* workload's
        baseline (the Figure 8 shape).
    policy:
        Scheduler name for every grid cell (``sd_policy`` by default).  A
        grid parameter named ``"policy"`` overrides it per cell.
    grid:
        Mapping of run/scheduler parameter → list of values (plain, or
        ``{"label", "value"}`` dicts).  The cartesian product over the
        parameters (in mapping order) defines the cells; an empty grid is a
        single cell running ``policy`` with ``base`` alone.
    base:
        Parameters shared by every cell (e.g. ``runtime_model``,
        ``sharing_factor``); grid values win on conflict.
    baseline:
        Optional ``{"policy": ..., "kwargs": {...}}`` run executed once per
        workload and used to normalise every cell.  ``None`` disables
        normalisation.
    seed:
        Simulation seed forwarded to every task (the paper runs use 0).
    report:
        Name of the report renderer used by :func:`render_report` — one of
        ``table``, ``workloads``, ``figures1-3``, ``heatmaps``, ``daily``,
        ``runtime_models``, ``realrun``, ``mix``, ``faceoff``.
    analytics:
        If true, every executed task publishes per-job records to the
        result store (requires one), queryable later with
        ``repro-sdpolicy query``.
    """

    name: str
    workloads: List[WorkloadRef] = field(default_factory=list)
    policy: Optional[str] = "sd_policy"
    grid: Dict[str, List[GridPoint]] = field(default_factory=dict)
    base: Dict[str, Any] = field(default_factory=dict)
    baseline: Optional[Dict[str, Any]] = None
    seed: int = 0
    report: str = "table"
    description: str = ""
    #: Capture per-job records for every executed task (see
    #: :mod:`repro.analytics`).  Off the cache key: an analytics scenario
    #: reuses plain cached runs and vice versa.
    analytics: bool = False

    def __post_init__(self) -> None:
        if isinstance(self.workloads, WorkloadRef):
            self.workloads = [self.workloads]
        self.grid = _as_grid(self.grid)
        self.base = decode_value(dict(self.base))
        if self.baseline is not None:
            extra = set(self.baseline) - {"policy", "kwargs"}
            if extra:
                raise ScenarioError(f"unknown baseline fields: {sorted(extra)}")
            self.baseline = {
                "policy": self.baseline.get("policy", "static_backfill"),
                "kwargs": decode_value(dict(self.baseline.get("kwargs") or {})),
            }
        if not self.workloads:
            raise ScenarioError(f"scenario {self.name!r} needs at least one workload ref")
        keys = [ref.key() for ref in self.workloads]
        if len(set(keys)) != len(keys):
            raise ScenarioError(f"duplicate workload keys in scenario {self.name!r}: {keys}")
        if self.report not in REPORTS:
            raise ScenarioError(
                f"unknown report {self.report!r}; expected one of {sorted(REPORTS)}"
            )

    # ------------------------------------------------------------------ #
    @property
    def baseline_label(self) -> Optional[str]:
        """Display label of the baseline run (its policy name)."""
        if self.baseline is None:
            return None
        return str(self.baseline["policy"])

    def cells(self) -> List[Tuple[str, str, Dict[str, Any]]]:
        """Expand the grid into ``(label, policy, params)`` cells, in order.

        A spec with ``policy=None`` and no ``"policy"`` grid parameter has
        no cells at all — a *workload-only* scenario (Table 2 is one).
        """
        if self.policy is None and "policy" not in self.grid:
            return []
        combos: List[List[GridPoint]] = [[]]
        for points in self.grid.values():
            combos = [combo + [point] for combo in combos for point in points]
        out: List[Tuple[str, str, Dict[str, Any]]] = []
        for combo in combos:
            params = dict(self.base)
            params.update({point.param: point.value for point in combo})
            policy = str(params.pop("policy", self.policy or "sd_policy"))
            label = ", ".join(point.label for point in combo) or policy
            out.append((label, policy, params))
        labels = [label for label, _, _ in out]
        if len(set(labels)) != len(labels):
            raise ScenarioError(f"scenario {self.name!r} has duplicate cell labels")
        return out

    def tasks(self, workloads: Mapping[str, Workload]) -> List[SweepTask]:
        """Expand the scenario into sweep tasks, one per (workload × cell).

        ``workloads`` maps each ref key to its materialised workload.  Task
        keys are ``<workload key>::<cell label>`` (``::baseline`` for the
        baseline run), unique by construction.
        """
        tasks: List[SweepTask] = []
        for ref in self.workloads:
            wkey = ref.key()
            workload = workloads[wkey]
            if self.baseline is not None:
                tasks.append(
                    SweepTask(
                        workload=workload,
                        policy=str(self.baseline["policy"]),
                        key=f"{wkey}::baseline",
                        seed=self.seed,
                        kwargs=dict(self.baseline["kwargs"]),
                    )
                )
            for label, policy, params in self.cells():
                tasks.append(
                    SweepTask(
                        workload=workload,
                        policy=policy,
                        key=f"{wkey}::{label}",
                        label=label,
                        seed=self.seed,
                        kwargs=params,
                    )
                )
        return tasks

    # ------------------------------------------------------------------ #
    # Dict / JSON round-trip
    # ------------------------------------------------------------------ #
    def to_dict(self) -> Dict[str, Any]:
        """Plain-dict (JSON-safe) form of the spec."""
        out: Dict[str, Any] = {
            "name": self.name,
            "workloads": [ref.to_dict() for ref in self.workloads],
            "policy": self.policy,
            "grid": {
                param: [
                    {"label": p.label, "value": encode_value(p.value)} for p in points
                ]
                for param, points in self.grid.items()
            },
            "base": encode_value(self.base),
            "seed": self.seed,
            "report": self.report,
        }
        if self.baseline is not None:
            out["baseline"] = {
                "policy": self.baseline["policy"],
                "kwargs": encode_value(self.baseline["kwargs"]),
            }
        if self.description:
            out["description"] = self.description
        if self.analytics:
            out["analytics"] = True
        return out

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "ScenarioSpec":
        """Build a spec from its dict form (inverse of :meth:`to_dict`)."""
        known = {
            "name", "workload", "workloads", "policy", "grid", "base",
            "baseline", "seed", "report", "description", "analytics",
        }
        unknown = set(data) - known
        if unknown:
            raise ScenarioError(f"unknown scenario fields: {sorted(unknown)}")
        if "name" not in data:
            raise ScenarioError("scenario spec needs a 'name'")
        refs_data = data.get("workloads")
        if refs_data is None:
            single = data.get("workload")
            refs_data = [single] if single is not None else []
        workloads = [WorkloadRef.from_dict(ref) for ref in refs_data]
        baseline = data.get("baseline")
        if isinstance(baseline, str):
            baseline = {"policy": baseline, "kwargs": {}}
        elif baseline is not None:
            baseline = {
                "policy": baseline.get("policy", "static_backfill"),
                "kwargs": decode_value(baseline.get("kwargs") or {}),
            }
        return cls(
            name=str(data["name"]),
            workloads=workloads,
            policy=data.get("policy", "sd_policy"),
            # Values pass through verbatim; _as_grid rejects non-list values
            # (list("inf") would otherwise explode into per-character cells).
            grid=dict(data.get("grid") or {}),
            base=decode_value(data.get("base") or {}),
            baseline=baseline,
            seed=int(data.get("seed", 0)),
            report=str(data.get("report", "table")),
            description=str(data.get("description", "")),
            analytics=bool(data.get("analytics", False)),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))


def load_spec(path: Union[str, os.PathLike]) -> ScenarioSpec:
    """Load a scenario spec from a JSON file."""
    return ScenarioSpec.from_json(Path(path).read_text(encoding="utf-8"))


def save_spec(spec: ScenarioSpec, path: Union[str, os.PathLike]) -> None:
    """Write a scenario spec to a JSON file."""
    Path(path).write_text(spec.to_json() + "\n", encoding="utf-8")


# --------------------------------------------------------------------- #
# Execution
# --------------------------------------------------------------------- #
@dataclass
class ScenarioCell:
    """One executed grid cell of a scenario."""

    label: str
    workload_key: str
    policy: str
    params: Dict[str, Any]
    run: PolicyRun
    normalized: Optional[Dict[str, float]] = None


@dataclass
class ScenarioOutcome:
    """All runs of one scenario, with per-workload baselines."""

    spec: ScenarioSpec
    workloads: Dict[str, Workload]
    baselines: Dict[str, PolicyRun]
    cells: List[ScenarioCell]
    sweep: Optional[SweepResult] = None
    #: Memo for derived statistics (heatmap grids, daily rows, real-run
    #: improvements), so the figure data and its rendered report share one
    #: computation over the job lists.
    _cache: Dict[str, Any] = field(default_factory=dict, repr=False, compare=False)

    @property
    def complete(self) -> bool:
        """``False`` when a sharded run left sweep tasks unfinished."""
        return self.sweep is None or self.sweep.complete

    # -- single-workload conveniences ---------------------------------- #
    @property
    def workload(self) -> Workload:
        """The workload of a single-workload scenario."""
        if len(self.workloads) != 1:
            raise ValueError("scenario has several workloads; index by key")
        return next(iter(self.workloads.values()))

    @property
    def baseline_run(self) -> Optional[PolicyRun]:
        """The baseline run of a single-workload scenario (or ``None``)."""
        if not self.baselines:
            return None
        if len(self.workloads) != 1:
            raise ValueError("scenario has several workloads; use .baselines")
        return next(iter(self.baselines.values()))

    def cells_for(self, workload_key: str) -> List[ScenarioCell]:
        """The cells of one workload, in grid order."""
        return [c for c in self.cells if c.workload_key == workload_key]

    def normalized(self, workload_key: Optional[str] = None) -> Dict[str, Dict[str, float]]:
        """``{cell label: normalised metrics}`` for one workload."""
        if workload_key is None:
            key = next(iter(self.workloads))
        else:
            key = workload_key
        return {
            c.label: c.normalized
            for c in self.cells_for(key)
            if c.normalized is not None
        }

    @property
    def runs(self) -> Dict[str, PolicyRun]:
        """All runs keyed by their sweep key (``wkey::label``)."""
        out = {f"{k}::baseline": run for k, run in self.baselines.items()}
        for cell in self.cells:
            out[f"{cell.workload_key}::{cell.label}"] = cell.run
        return out

    # -- sweep statistics ---------------------------------------------- #
    @property
    def sweep_wall_clock_seconds(self) -> float:
        return self.sweep.total_wall_clock_seconds if self.sweep else 0.0

    @property
    def sweep_workers(self) -> int:
        return self.sweep.workers if self.sweep else 0

    @property
    def sweep_cache_hits(self) -> int:
        return self.sweep.cache_hits if self.sweep else 0


def _resolve_workloads(
    spec: ScenarioSpec,
    override: Optional[Union[Workload, Mapping[str, Workload]]],
) -> Dict[str, Workload]:
    keys = [ref.key() for ref in spec.workloads]
    if override is None:
        return {ref.key(): ref.build() for ref in spec.workloads}
    if isinstance(override, Workload):
        if len(keys) != 1:
            raise ScenarioError(
                "a single workload override needs a single-workload scenario"
            )
        return {keys[0]: override}
    resolved: Dict[str, Workload] = {}
    for ref in spec.workloads:
        key = ref.key()
        resolved[key] = override[key] if key in override else ref.build()
    return resolved


def assemble_outcome(
    spec: ScenarioSpec,
    workloads: Dict[str, Workload],
    load: Callable[[str, str, str], Optional[PolicyRun]],
    sweep: Optional[SweepResult] = None,
) -> ScenarioOutcome:
    """Assemble a scenario's baselines and cells from its runs.

    ``load(task_key, workload_name, label)`` returns the run of one sweep
    task (``<workload key>::<cell label>``, ``::baseline`` for the
    baseline) or ``None`` when it has none; a missing run is left out and
    a missing baseline leaves its workload's cells unnormalised.  Live
    sweeps (:func:`run_scenario`) and stored records
    (:func:`repro.analytics.query.outcome_from_records`) both assemble
    their outcomes here.
    """
    baselines: Dict[str, PolicyRun] = {}
    cells: List[ScenarioCell] = []
    for ref in spec.workloads:
        wkey = ref.key()
        workload_name = workloads[wkey].name
        baseline = None
        if spec.baseline is not None:
            baseline = load(f"{wkey}::baseline", workload_name, "baseline")
            if baseline is not None:
                baselines[wkey] = baseline
        for label, policy, params in spec.cells():
            run = load(f"{wkey}::{label}", workload_name, label)
            if run is None:
                continue
            cells.append(
                ScenarioCell(
                    label=label,
                    workload_key=wkey,
                    policy=policy,
                    params=params,
                    run=run,
                    normalized=(
                        normalize_to_baseline(run.metrics, baseline.metrics)
                        if baseline is not None
                        else None
                    ),
                )
            )
    return ScenarioOutcome(
        spec=spec, workloads=workloads, baselines=baselines, cells=cells, sweep=sweep
    )


def run_scenario(
    spec: ScenarioSpec,
    runner: Optional[SweepRunner] = None,
    workloads: Optional[Union[Workload, Mapping[str, Workload]]] = None,
    store: Optional[Any] = None,
) -> ScenarioOutcome:
    """Execute a scenario through the parallel sweep runner.

    ``workloads`` optionally overrides the spec's workload refs with
    pre-built :class:`Workload` objects — a bare workload for
    single-workload scenarios, or a mapping keyed like the refs.  Cells are
    normalised to their workload's baseline run when the spec has one.
    ``store`` selects the result-store backend (URL or
    :class:`repro.store.ResultStore`) when no explicit ``runner`` is given;
    with both passed the runner — which already carries a store — wins.
    A runner carrying a sharded executor runs only its slice of the tasks
    and returns a partial outcome (``outcome.complete`` is ``False``).
    """
    resolved = _resolve_workloads(spec, workloads)
    tasks = spec.tasks(resolved)
    sweep = None
    if tasks:
        runner = runner or SweepRunner(store=store)
        if spec.analytics and not runner.analytics:
            if runner.store is None:
                raise ScenarioError(
                    f"scenario {spec.name!r} sets analytics=true, which needs "
                    "a result store to publish records (pass --store or "
                    "--cache-dir)"
                )
            runner.analytics = True
        sweep = runner.run(tasks)
    # A sharded invocation ran only its slice, so it assembles no cells or
    # baselines; callers check ``.complete`` before reading them.
    runs = sweep.runs if sweep is not None and sweep.complete else {}
    return assemble_outcome(
        spec, resolved, lambda task_key, _name, _label: runs.get(task_key), sweep
    )


# --------------------------------------------------------------------- #
# Report renderers
# --------------------------------------------------------------------- #
def report_table(outcome: ScenarioOutcome) -> str:
    """Generic report: per-workload metrics table plus normalised columns."""
    spec = outcome.spec
    blocks: List[str] = []
    for wkey, workload in outcome.workloads.items():
        runs: Dict[str, Any] = {}
        baseline = outcome.baselines.get(wkey)
        if baseline is not None:
            runs[spec.baseline_label] = baseline.metrics
        for cell in outcome.cells_for(wkey):
            runs[cell.label] = cell.run.metrics
        title = f"Scenario {spec.name} ({workload.name}, {len(workload)} jobs)"
        if not runs:
            blocks.append(f"{title}\n(no simulations: workload-only scenario)")
            continue
        blocks.append(metrics_table(runs, title=title))
        if baseline is not None:
            headers = ["cell"] + list(NORMALIZED_KEYS)
            rows = [
                [cell.label] + [cell.normalized.get(k, float("nan")) for k in NORMALIZED_KEYS]
                for cell in outcome.cells_for(wkey)
                if cell.normalized is not None
            ]
            blocks.append(
                format_table(
                    headers,
                    rows,
                    title=f"Normalised to {spec.baseline_label} (values < 1 improve)",
                )
            )
    return "\n\n".join(blocks)


def report_workloads(outcome: ScenarioOutcome) -> str:
    """The Table 1 workload table: each workload's size and baseline metrics."""
    from repro.workloads.presets import PAPER_WORKLOADS

    rows: List[List[Any]] = []
    for ref in outcome.spec.workloads:
        wkey = ref.key()
        workload = outcome.workloads[wkey]
        baseline = outcome.baselines.get(wkey)
        if baseline is None:
            raise ScenarioError(
                f"report 'workloads' needs a baseline run of {wkey!r}"
            )
        metrics = baseline.metrics
        preset = ref.preset
        rows.append([
            wkey if preset is None else preset,
            workload.name if preset is None else PAPER_WORKLOADS[preset].label,
            len(workload),
            workload.system_nodes,
            workload.system_cpus,
            workload.max_job_nodes,
            metrics.avg_response_time,
            metrics.avg_slowdown,
            metrics.makespan,
        ])
    headers = [
        "ID", "Log/model", "#jobs", "nodes", "cores", "max job nodes",
        "avg resp (s)", "avg slowdown", "makespan (s)",
    ]
    scale = outcome.spec.workloads[0].scale
    return format_table(headers, rows, precision=1, title=f"Table 1 (scale={scale:g})")


#: The metric and title of Figures 1, 2 and 3, in figure order.
_FIGURES_1_TO_3 = (
    ("makespan", "Figure 1 - makespan"),
    ("avg_response_time", "Figure 2 - average response time"),
    ("avg_slowdown", "Figure 3 - average slowdown"),
)


def report_figures_1_to_3(outcome: ScenarioOutcome, figures: Sequence[int] = (1, 2, 3)) -> str:
    """The Figures 1-3 bar charts (normalised makespan/response/slowdown);
    ``figures`` selects which of the three to draw."""
    workload = outcome.workload
    normalized = outcome.normalized()
    charts = []
    for number in figures:
        metric, figure_name = _FIGURES_1_TO_3[number - 1]
        charts.append(
            render_bar_chart(
                {label: vals[metric] for label, vals in normalized.items()},
                title=f"{figure_name} ({workload.name}, normalised to static backfill)",
            )
        )
    return "\n\n".join(charts)


def _require_complete(outcome: ScenarioOutcome) -> None:
    """Reject a partial (sharded) outcome, which has no cells to report."""
    if not outcome.complete:
        sweep = outcome.sweep
        raise ScenarioError(
            f"scenario {outcome.spec.name!r} is a shard's partial outcome: "
            f"{len(sweep)}/{sweep.total_tasks} sweep tasks complete; run the "
            "remaining shards against the same store, then run it again "
            "unsharded (or merge) to get the full outcome"
        )


def _static_sd_pair(outcome: ScenarioOutcome) -> Tuple[PolicyRun, PolicyRun]:
    """The (baseline, single-cell) run pair of a two-run scenario."""
    _require_complete(outcome)
    baseline = outcome.baseline_run
    if baseline is None or len(outcome.cells) != 1:
        raise ScenarioError(
            f"report {outcome.spec.report!r} needs a baseline and exactly one "
            f"grid cell; got {len(outcome.cells)} cells"
        )
    pair = (baseline, outcome.cells[0].run)
    for run in pair:
        if not run.jobs and run.result.num_jobs > 0:
            raise ScenarioError(
                f"the {outcome.spec.report!r} report of scenario "
                f"{outcome.spec.name!r} needs per-job data, but run "
                f"{run.label!r} was executed with retain_jobs=False and its "
                f"{run.result.num_jobs} jobs were folded into aggregates only; "
                "re-run with --retain-jobs (keep Job objects in memory) or "
                "with --analytics (persist per-job records to the store and "
                "render via 'repro-sdpolicy query --report')"
            )
    return pair


def scenario_heatmaps(outcome: ScenarioOutcome) -> Dict[str, CategoryGrid]:
    """Figures 4-6 grids: per-category static/SD ratios of the run pair."""
    if "heatmaps" not in outcome._cache:
        static, sd = _static_sd_pair(outcome)
        grids: Dict[str, CategoryGrid] = {}
        for metric in ("slowdown", "runtime", "wait"):
            grids[metric] = heatmap_ratio(
                category_heatmap(static.jobs, metric=metric),
                category_heatmap(sd.jobs, metric=metric),
            )
        outcome._cache["heatmaps"] = grids
    return outcome._cache["heatmaps"]


def report_heatmaps(outcome: ScenarioOutcome) -> str:
    """The Figures 4-6 text heatmaps."""
    workload = outcome.workload
    grids = scenario_heatmaps(outcome)
    texts = []
    for metric, figure_name in (
        ("slowdown", "Figure 4 - slowdown ratio (static / SD-Policy)"),
        ("runtime", "Figure 5 - runtime ratio (static / SD-Policy)"),
        ("wait", "Figure 6 - wait-time ratio (static / SD-Policy)"),
    ):
        texts.append(render_heatmap(grids[metric], title=f"{figure_name} ({workload.name})"))
    return "\n\n".join(texts)


def scenario_daily_rows(outcome: ScenarioOutcome) -> List[Dict[str, float]]:
    """Figure 7 rows: per-day slowdowns and malleable counts of the pair."""
    if "daily_rows" not in outcome._cache:
        static, sd = _static_sd_pair(outcome)
        outcome._cache["daily_rows"] = daily_series_table(static.jobs, sd.jobs)
    return outcome._cache["daily_rows"]


def report_daily(outcome: ScenarioOutcome) -> str:
    """The Figure 7 day table (daily slowdown + malleable counts)."""
    return render_series(
        scenario_daily_rows(outcome),
        x_key="day",
        series_keys=("static_slowdown", "sd_slowdown", "malleable_jobs"),
        title=f"Figure 7 - daily average slowdown ({outcome.workload.name})",
    )


def report_runtime_models(outcome: ScenarioOutcome) -> str:
    """The Figure 8 charts: ideal vs worst-case model per workload."""
    charts: List[str] = []
    for wkey in outcome.workloads:
        entry = {
            str(cell.params.get("runtime_model", cell.label)): cell.normalized
            for cell in outcome.cells_for(wkey)
            if cell.normalized is not None
        }
        chart_values = {
            f"{model}/{metric}": entry[model][metric]
            for model in entry
            for metric in NORMALIZED_KEYS
        }
        charts.append(
            render_bar_chart(
                chart_values,
                title=f"Figure 8 - runtime models ({wkey}, normalised to static backfill)",
            )
        )
    return "\n\n".join(charts)


def realrun_improvements(outcome: ScenarioOutcome) -> Dict[str, Any]:
    """Figure 9 statistics of a real-run scenario (energy recomputed).

    The real-run pair simulates with the application-aware runtime model
    and no in-simulation power integration; each run's metrics are kept and
    only the energy is recomputed, with the application-weighted model of
    :mod:`repro.realrun.energy`.  Returns ``improvements`` (percent, SD-Policy
    over static backfill), ``static_metrics``/``sd_metrics`` and the
    ``better_runtime_jobs``/``malleable_scheduled`` counts.
    """
    from repro.realrun.energy import better_runtime_jobs, real_run_energy

    if "realrun" not in outcome._cache:
        static, sd = _static_sd_pair(outcome)
        workload = outcome.workload
        static_metrics, sd_metrics = (
            replace(
                run.metrics,
                energy_joules=real_run_energy(
                    run.jobs, workload.system_nodes, workload.cpus_per_node
                ),
            )
            for run in (static, sd)
        )
        outcome._cache["realrun"] = {
            "improvements": improvement_percent(sd_metrics, static_metrics),
            "static_metrics": static_metrics,
            "sd_metrics": sd_metrics,
            "better_runtime_jobs": better_runtime_jobs(sd.jobs),
            "malleable_scheduled": sd_metrics.malleable_scheduled,
        }
    return outcome._cache["realrun"]


def report_realrun(outcome: ScenarioOutcome) -> str:
    """The Figure 9 improvement chart."""
    stats = realrun_improvements(outcome)
    return render_bar_chart(
        stats["improvements"],
        title="Figure 9 - improvement (%) of SD-Policy over static backfill",
        reference=0.0,
        fmt="{:.1f}%",
    )


def report_mix(outcome: ScenarioOutcome) -> str:
    """The Table 2 application-mix table (a workload-only scenario)."""
    from repro.workloads.applications import application_shares

    workload = outcome.workload
    shares = application_shares(workload)
    rows = [[app, f"{100 * share:.1f}%"] for app, share in shares.items()]
    scale = outcome.spec.workloads[0].scale
    return format_table(
        ["Application", "% of workload"], rows, title=f"Table 2 (scale={scale:g})"
    )


def report_faceoff(outcome: ScenarioOutcome) -> str:
    """The policy face-off report: who wins where, by workload mix.

    Per workload: every policy cell's normalised metrics.  Then a winners
    table naming, per workload × metric, the policy with the lowest
    normalised value — ties resolve to the first cell in grid order, so
    the report is deterministic — an overall win tally, and the
    schedulers' decision counters (where UB-Policy's bandwidth refusals
    become visible next to SD-Policy's pairings).
    """
    spec = outcome.spec
    blocks: List[str] = []
    wins: Dict[str, int] = {}
    winner_rows: List[List[Any]] = []
    counter_rows: List[List[Any]] = []
    stat_keys = (
        "malleable_starts",
        "rejected_by_estimate",
        "rejected_no_mates",
        "rejected_bandwidth",
    )
    for wkey, workload in outcome.workloads.items():
        cells = [c for c in outcome.cells_for(wkey) if c.normalized is not None]
        if not cells:
            blocks.append(f"{wkey}: no normalised cells (incomplete run?)")
            continue
        rows = [
            [c.label] + [c.normalized.get(k, float("nan")) for k in NORMALIZED_KEYS]
            for c in cells
        ]
        blocks.append(
            format_table(
                ["policy"] + list(NORMALIZED_KEYS),
                rows,
                title=(
                    f"{wkey} ({workload.name}, {len(workload)} jobs), "
                    f"normalised to {spec.baseline_label}"
                ),
            )
        )
        row: List[Any] = [wkey]
        for metric in NORMALIZED_KEYS:
            # min() keeps the first of equals, and cells are in grid order,
            # so ties break deterministically.
            best = min(cells, key=lambda c: c.normalized.get(metric, math.inf))
            row.append(best.label)
            wins[best.label] = wins.get(best.label, 0) + 1
        winner_rows.append(row)
        for c in cells:
            stats = c.run.scheduler_stats or {}
            counter_rows.append(
                [wkey, c.label] + [stats.get(k, "-") for k in stat_keys]
            )
    if winner_rows:
        blocks.append(
            format_table(
                ["workload"] + [f"best {m}" for m in NORMALIZED_KEYS],
                winner_rows,
                title="Who wins where (lowest normalised value wins)",
            )
        )
        tally = sorted(wins.items(), key=lambda kv: (-kv[1], kv[0]))
        blocks.append(
            "Overall wins: " + ", ".join(f"{label} {count}" for label, count in tally)
        )
    if counter_rows:
        blocks.append(
            format_table(
                ["workload", "policy"] + list(stat_keys),
                counter_rows,
                title="Scheduler decision counters",
            )
        )
    return "\n\n".join(blocks)


REPORTS = {
    "table": report_table,
    "workloads": report_workloads,
    "figures1-3": report_figures_1_to_3,
    "heatmaps": report_heatmaps,
    "daily": report_daily,
    "runtime_models": report_runtime_models,
    "realrun": report_realrun,
    "mix": report_mix,
    "faceoff": report_faceoff,
}


def render_report(outcome: ScenarioOutcome) -> str:
    """Render a scenario outcome with the report its spec selects.

    A shard's partial outcome raises :class:`ScenarioError` naming how
    many sweep tasks are complete.
    """
    _require_complete(outcome)
    return REPORTS[outcome.spec.report](outcome)


# --------------------------------------------------------------------- #
# Built-in scenarios (one per paper figure/table)
# --------------------------------------------------------------------- #
#: MAX_SLOWDOWN grid of Figures 1-3, with the paper's display labels.
MAXSD_GRID: List[Dict[str, Any]] = [
    {"label": "MAXSD 5", "value": 5.0},
    {"label": "MAXSD 10", "value": 10.0},
    {"label": "MAXSD 50", "value": 50.0},
    {"label": "MAXSD inf", "value": "inf"},
    {"label": "DynAVGSD", "value": "dynamic"},
]

#: Benchmark scales per preset: the default scale of the built-ins and the
#: base of ``benchmarks/conftest.bench_scale``.
BENCH_SCALES = {1: 0.04, 2: 0.04, 3: 0.02, 4: 0.01, 5: 0.35}


def _sim_seed(seed: Optional[int], default: int = 0) -> int:
    """Simulation seed matching a builder's workload-generation seed.

    Built-in builders forward one ``seed`` override to *both*
    :attr:`WorkloadRef.seed` (workload generation) and
    :attr:`ScenarioSpec.seed` (the simulation seed on every task), so the
    two cannot drift apart — ``--seed 42`` means 42 everywhere.
    """
    return default if seed is None else int(seed)


def _spec_table_1(scale: float = 0.05, seed: Optional[int] = None,
                  workload_ids: Sequence[int] = (1, 2, 3, 4, 5)) -> ScenarioSpec:
    return ScenarioSpec(
        name="table1",
        description="Table 1: workload descriptions under static backfill",
        workloads=[WorkloadRef(preset=wid, scale=scale, seed=seed) for wid in workload_ids],
        policy=None,
        seed=_sim_seed(seed),
        baseline={"policy": "static_backfill", "kwargs": {}},
        report="workloads",
    )


def _spec_figure_1_to_3(workload_id: int = 1, scale: Optional[float] = None,
                        seed: Optional[int] = None, sharing_factor: float = 0.5,
                        runtime_model: str = "ideal") -> ScenarioSpec:
    return ScenarioSpec(
        name=f"figure1-3-workload{workload_id}",
        description="Figures 1-3: MAX_SLOWDOWN sweep, normalised to static backfill",
        workloads=[WorkloadRef(preset=workload_id,
                               scale=BENCH_SCALES[workload_id] if scale is None else scale,
                               seed=seed)],
        policy="sd_policy",
        seed=_sim_seed(seed),
        grid={"max_slowdown": MAXSD_GRID},
        base={"runtime_model": runtime_model, "malleable_fraction": 1.0,
              "sharing_factor": sharing_factor},
        baseline={"policy": "static_backfill",
                  "kwargs": {"runtime_model": runtime_model, "malleable_fraction": 1.0}},
        report="figures1-3",
    )


def _spec_static_sd_pair(name: str, report: str, description: str,
                         scale: Optional[float] = None,
                         seed: Optional[int] = None,
                         max_slowdown: Any = 10.0,
                         runtime_model: str = "ideal") -> ScenarioSpec:
    return ScenarioSpec(
        name=name,
        description=description,
        workloads=[WorkloadRef(preset=4, scale=BENCH_SCALES[4] if scale is None else scale,
                               seed=seed)],
        policy="sd_policy",
        seed=_sim_seed(seed),
        grid={"max_slowdown": [max_slowdown]},
        base={"runtime_model": runtime_model},
        baseline={"policy": "static_backfill", "kwargs": {"runtime_model": runtime_model}},
        report=report,
    )


def _spec_figure_8(scale: Optional[float] = None, seed: Optional[int] = None,
                   max_slowdown: Any = "dynamic",
                   sharing_factor: float = 0.5) -> ScenarioSpec:
    return ScenarioSpec(
        name="figure8",
        description="Figure 8: ideal vs worst-case runtime model on workloads 1-4",
        workloads=[
            WorkloadRef(preset=wid, scale=BENCH_SCALES[wid] if scale is None else scale,
                        seed=seed)
            for wid in (1, 2, 3, 4)
        ],
        policy="sd_policy",
        seed=_sim_seed(seed),
        grid={"runtime_model": [
            {"label": "ideal", "value": "ideal"},
            {"label": "worst_case", "value": "worst_case"},
        ]},
        base={"max_slowdown": max_slowdown, "sharing_factor": sharing_factor},
        baseline={"policy": "static_backfill", "kwargs": {}},
        report="runtime_models",
    )


def _spec_figure_9(scale: float = BENCH_SCALES[5], seed: int = 5005,
                   sharing_factor: float = 0.5,
                   max_slowdown: Any = "dynamic") -> ScenarioSpec:
    return ScenarioSpec(
        name="figure9",
        description="Figure 9: the emulated MareNostrum4 real run (workload 5)",
        workloads=[WorkloadRef(preset=5, scale=scale, seed=seed)],
        policy="sd_policy",
        seed=_sim_seed(seed),
        grid={"max_slowdown": [max_slowdown]},
        base={
            "runtime_model": "application_aware",
            "power_model": None,
            "sharing_factor": sharing_factor,
        },
        baseline={
            "policy": "static_backfill",
            "kwargs": {"runtime_model": "application_aware", "power_model": None},
        },
        report="realrun",
    )


def _spec_mixed_paper_scale(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    swf: Optional[str] = None,
    workload_ids: Sequence[int] = (1, 2, 3, 4),
) -> ScenarioSpec:
    """The ROADMAP's paper-scale mixed rigid/malleable (+ SWF replay) study.

    Every Table 1 synthetic workload (and, when ``swf`` is given, a real
    SWF-log replay) is swept over a rigid/malleable mix × MAX_SLOWDOWN
    grid and normalised to its own static-backfill baseline.  At the
    default paper scale this expands to ``len(workloads) × (8 + 1)`` heavy
    simulations — deliberately sized for sharded fan-out: run it with
    ``--shard I/N`` against a shared ``--store`` and merge anywhere.
    """
    refs = [
        WorkloadRef(preset=wid, scale=1.0 if scale is None else scale, seed=seed)
        for wid in workload_ids
    ]
    if swf:
        refs.append(WorkloadRef(swf=swf, name="swf_replay"))
    return ScenarioSpec(
        name="mixed_paper_scale",
        description=(
            "Paper-scale mixed rigid/malleable sweep over workloads 1-4 "
            "(plus an optional SWF replay), sized for sharded fan-out"
        ),
        workloads=refs,
        policy="sd_policy",
        seed=_sim_seed(seed),
        grid={
            "malleable_fraction": [
                {"label": "rigid-75%", "value": 0.25},
                {"label": "mixed-50/50", "value": 0.5},
                {"label": "malleable-75%", "value": 0.75},
                {"label": "malleable-100%", "value": 1.0},
            ],
            "max_slowdown": [
                {"label": "MAXSD 10", "value": 10.0},
                {"label": "DynAVGSD", "value": "dynamic"},
            ],
        },
        base={"runtime_model": "ideal", "sharing_factor": 0.5},
        baseline={"policy": "static_backfill", "kwargs": {"runtime_model": "ideal"}},
        report="table",
    )


def _spec_policy_faceoff(
    scale: Optional[float] = None,
    seed: Optional[int] = None,
    workload_ids: Sequence[int] = (1, 2, 3, 4),
) -> ScenarioSpec:
    """The policy face-off: every co-scheduling policy over the paper grid.

    Workloads 1-4 get the Table 2 application mix stamped on, then every
    registered first-class policy — FCFS, static backfill, SD-Policy and
    the contention-aware UB-Policy — runs under the application-aware
    runtime model and is normalised to its workload's static-backfill
    baseline.  The ``faceoff`` report answers *who wins where, by workload
    mix*, and surfaces UB-Policy's bandwidth refusals next to SD-Policy's
    pairings.
    """
    return ScenarioSpec(
        name="policy_faceoff",
        description=(
            "Policy face-off: FCFS vs static backfill vs SD-Policy vs "
            "UB-Policy under the contention-aware runtime model"
        ),
        workloads=[
            WorkloadRef(
                preset=wid,
                scale=BENCH_SCALES[wid] if scale is None else scale,
                seed=seed,
                applications="table2",
            )
            for wid in workload_ids
        ],
        policy=None,
        seed=_sim_seed(seed),
        grid={
            "policy": [
                {"label": "fcfs", "value": "fcfs"},
                {"label": "static_backfill", "value": "static_backfill"},
                {"label": "sd_policy", "value": "sd_policy"},
                {"label": "ub_policy", "value": "ub_policy"},
            ]
        },
        base={
            "runtime_model": "application_aware",
            "power_model": None,
            "profiles": "table2",
        },
        baseline={
            "policy": "static_backfill",
            "kwargs": {
                "runtime_model": "application_aware",
                "power_model": None,
                "profiles": "table2",
            },
        },
        report="faceoff",
    )


def _spec_table_2(scale: float = 1.0, seed: int = 5005) -> ScenarioSpec:
    return ScenarioSpec(
        name="table2",
        description="Table 2: application mix of the real-run workload (no simulation)",
        workloads=[WorkloadRef(preset=5, scale=scale, seed=seed)],
        policy=None,
        grid={},
        base={},
        baseline=None,
        report="mix",
    )


BUILTIN_SCENARIOS: Dict[str, Any] = {
    "table1": _spec_table_1,
    "figure1-3": _spec_figure_1_to_3,
    "figure4-6": lambda **kw: _spec_static_sd_pair(
        "figure4-6", "heatmaps",
        "Figures 4-6: per-category static/SD ratios on the CEA-Curie-like workload",
        **kw,
    ),
    "figure7": lambda **kw: _spec_static_sd_pair(
        "figure7", "daily",
        "Figure 7: daily slowdown trend and malleable counts (CEA-Curie-like)",
        **kw,
    ),
    "figure8": _spec_figure_8,
    "figure9": _spec_figure_9,
    "table2": _spec_table_2,
    "mixed_paper_scale": _spec_mixed_paper_scale,
    "policy_faceoff": _spec_policy_faceoff,
}


def builtin_scenario(name: str, **overrides) -> ScenarioSpec:
    """Build a named built-in scenario (see :data:`BUILTIN_SCENARIOS`).

    Keyword overrides are forwarded to the spec factory (``scale``, ``seed``
    and, where meaningful, ``max_slowdown`` / ``sharing_factor`` …).
    """
    if name not in BUILTIN_SCENARIOS:
        raise ScenarioError(
            f"unknown built-in scenario {name!r}; available: {sorted(BUILTIN_SCENARIOS)}"
        )
    return BUILTIN_SCENARIOS[name](**overrides)
