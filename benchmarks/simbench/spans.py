"""Outside-in span tracing of the simulator's layers.

A traced repetition replaces each callable in :data:`TARGETS` on its class
(or module) with a wrapper that records a span — name, start, end and the
enclosing span — for every call made inside a measured region
(:meth:`Tracer.root`).  Nothing in ``src/`` knows about it.

Wrapping happens before the simulation is built, because ``Simulation``
caches its sinks' bound ``fold`` methods at construction.  A class
attribute is wrapped only on the class that defines it, and a target that
no longer exists is reported in :attr:`Tracer.absent` instead of raised,
so a refactor cannot break the traced run; its metrics read 0.

Spans live in flat arrays while the run lasts and are aggregated (and
optionally written out) when it ends.  A span's self time is its duration
minus the time its direct children cover, so the self times of all spans
sum to the roots' duration.
"""

from __future__ import annotations

import importlib
import json
import time
from array import array
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

import numpy as np

ROOT = "root"

#: (span name, module, attribute path).  Several targets may share a span
#: name: every runtime model's ``speed`` is one layer.
TARGETS: Tuple[Tuple[str, str, str], ...] = (
    # event dispatch
    ("simulation.step", "repro.simulator.simulation", "Simulation.step"),
    ("engine.push", "repro.simulator.engine", "EventQueue.push"),
    ("engine.pop_batch", "repro.simulator.engine", "EventQueue.pop_batch"),
    # availability profile
    (
        "reservation.availability_profile",
        "repro.simulator.simulation",
        "Simulation.availability_profile",
    ),
    (
        "reservation.from_running_jobs",
        "repro.simulator.reservation",
        "ReservationMap.from_running_jobs",
    ),
    (
        "reservation.add_reservation",
        "repro.simulator.reservation",
        "ReservationMap.add_reservation",
    ),
    # backfill scan
    ("reservation.earliest_start", "repro.simulator.reservation", "ReservationMap.earliest_start"),
    ("backfill.schedule", "repro.schedulers.backfill", "BackfillScheduler.schedule"),
    (
        "backfill.running_requested_work",
        "repro.schedulers.backfill",
        "BackfillScheduler.running_requested_work",
    ),
    ("fcfs.schedule", "repro.schedulers.fcfs", "FCFSScheduler.schedule"),
    # malleable attempt
    (
        "sd_policy.try_malleable_start",
        "repro.core.sd_policy",
        "SDPolicyScheduler.try_malleable_start",
    ),
    ("sd_policy.on_job_submit", "repro.core.sd_policy", "SDPolicyScheduler.on_job_submit"),
    ("sd_policy.on_job_end", "repro.core.sd_policy", "SDPolicyScheduler.on_job_end"),
    # mate selection
    ("mate_selection.select", "repro.core.mate_selection", "MateSelector.select"),
    ("mate_selection.candidate_mates", "repro.core.mate_selection", "MateSelector.candidate_mates"),
    # mate_selection imports plan_node_sharing by name, so wrap it there.
    ("sharing.plan_node_sharing", "repro.core.mate_selection", "plan_node_sharing"),
    ("contention.allows_pairing", "repro.core.contention", "ContentionModel.allows_pairing"),
    # runtime model
    ("runtime_model.speed", "repro.core.runtime_model", "IdealRuntimeModel.speed"),
    ("runtime_model.speed", "repro.core.runtime_model", "WorstCaseRuntimeModel.speed"),
    ("runtime_model.speed", "repro.core.contention", "ApplicationAwareRuntimeModel.speed"),
    # allocation
    ("cluster.allocate", "repro.simulator.cluster", "Cluster.allocate_static"),
    ("cluster.allocate", "repro.simulator.cluster", "Cluster.allocate_shared"),
    ("cluster.reconfigure_allocation", "repro.simulator.cluster", "Cluster.reconfigure_allocation"),
    ("cluster.release_job", "repro.simulator.cluster", "Cluster.release_job"),
    # completion sinks and metric finalisation
    ("sinks.fold", "repro.metrics.streaming", "StreamingMetrics.fold"),
    ("sinks.fold", "repro.simulator.simulation", "RetainedJobsSink.fold"),
    ("sinks.fold", "repro.analytics.records", "JobRecordSink.fold"),
    # runner imports compute_metrics by name, so wrap it there.
    ("metrics.finalize", "repro.experiments.runner", "compute_metrics"),
    ("metrics.finalize", "repro.metrics.streaming", "StreamingMetrics.workload_metrics"),
    # sweep and store
    ("sweep.run", "repro.experiments.sweep", "SweepRunner.run"),
    ("sweep.task_cache_key", "repro.experiments.sweep", "task_cache_key"),
    ("sweep.cache_load", "repro.experiments.sweep", "SweepRunner._cache_load"),
    ("sweep.cache_store", "repro.experiments.sweep", "SweepRunner._cache_store"),
    ("store.get", "repro.store.base", "ResultStore.get"),
    ("store.put", "repro.store.base", "ResultStore.put"),
)

Note = Callable[[tuple, dict, Any], Tuple[Tuple[str, float], ...]]


def _arg(args: tuple, kwargs: dict, index: int, name: str) -> Any:
    return args[index] if len(args) > index else kwargs[name]


#: Counters derived from a call's arguments or result, keyed by span name.
NOTES: Dict[str, Note] = {
    "sd_policy.try_malleable_start": lambda a, k, r: (("sd_policy.started", int(bool(r))),),
    "mate_selection.select": lambda a, k, r: (("mate_selection.selected", int(r is not None)),),
    "mate_selection.candidate_mates": lambda a, k, r: (
        ("mate_selection.running_scanned", len(_arg(a, k, 1, "sim").running)),
        ("mate_selection.candidates_admitted", len(r)),
    ),
    "store.get": lambda a, k, r: (("store.get.bytes", len(r) if r is not None else 0),),
    "store.put": lambda a, k, r: (("store.put.bytes", len(_arg(a, k, 2, "data"))),),
}


class Tracer:
    """In-memory span recorder plus the wrappers that feed it."""

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: List[int] = []
        self.counters: Dict[str, float] = {}
        #: ``module:attribute`` of every target that could not be wrapped.
        self.absent: List[str] = []

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _open(self, name_id: int) -> int:
        index = len(self.start)
        self.span_name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(index)
        return index

    def wrap(self, name: str, fn: Callable, note: Optional[Note] = None) -> Callable:
        """``fn`` recording a span per call made inside a root span."""
        name_id = self._name_id(name)
        stack, start, end, counters = self._stack, self.start, self.end, self.counters
        open_span, clock = self._open, time.perf_counter

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            index = open_span(name_id)
            start[index] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end[index] = clock()
                stack.pop()
            if note is not None:
                for key, amount in note(args, kwargs, result):
                    counters[key] = counters.get(key, 0) + amount
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    @contextmanager
    def root(self) -> Iterator[None]:
        """One measured call: spans are recorded only inside a root."""
        if self._stack:
            raise RuntimeError("root spans do not nest")
        index = self._open(self._name_id(ROOT))
        self.start[index] = time.perf_counter()
        try:
            yield
        finally:
            self.end[index] = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Wrap every target for the duration of the block, then restore."""
        restore: List[Tuple[Any, str, Any]] = []
        try:
            for name, module, path in TARGETS:
                patched = _patch(
                    module, path, lambda fn, name=name: self.wrap(name, fn, NOTES.get(name))
                )
                if patched is None:
                    self.absent.append(f"{module}:{path}")
                else:
                    restore.append(patched)
            yield self
        finally:
            for owner, attr, original in reversed(restore):
                setattr(owner, attr, original)

    # ------------------------------------------------------------------ #
    def aggregate(self) -> Dict[str, Tuple[int, float, float]]:
        """Per span name: ``(calls, total seconds, self seconds)``."""
        names = np.array(self.span_name, dtype=np.int64)
        parent = np.array(self.parent, dtype=np.int64)
        duration = np.array(self.end) - np.array(self.start)
        nested = parent >= 0
        covered = np.bincount(parent[nested], weights=duration[nested], minlength=len(duration))
        own = duration - covered
        width = len(self.names)
        calls = np.bincount(names, minlength=width)
        total = np.bincount(names, weights=duration, minlength=width)
        self_s = np.bincount(names, weights=own, minlength=width)
        return {
            name: (int(calls[i]), float(total[i]), float(self_s[i]))
            for i, name in enumerate(self.names)
        }

    def count_children(self, child: str, parent: str) -> int:
        """Number of ``child`` spans whose enclosing span is a ``parent`` span."""
        if child not in self._ids or parent not in self._ids:
            return 0
        names = np.array(self.span_name, dtype=np.int64)
        parents = np.array(self.parent, dtype=np.int64)
        mask = (names == self._ids[child]) & (parents >= 0)
        return int(np.count_nonzero(names[parents[mask]] == self._ids[parent]))

    def dump(self, path: Path, meta: Dict[str, Any]) -> None:
        """Write every span as ``[name, start, end, parent index]``."""
        spans = [
            [self.names[n], s, e, p]
            for n, s, e, p in zip(self.span_name, self.start, self.end, self.parent)
        ]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({**meta, "spans": spans}) + "\n", encoding="utf-8")


def _patch(module_name: str, path: str, make: Callable[[Callable], Callable]):
    """Replace ``module:path`` with ``make(original)``; ``None`` if absent."""
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *owners, attr = path.split(".")
    for part in owners:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    if isinstance(original, (staticmethod, classmethod)):
        replacement: Any = type(original)(make(original.__func__))
    elif callable(original):
        replacement = make(original)
    else:
        return None
    setattr(owner, attr, replacement)
    return owner, attr, original


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(tracer: Tracer, processed_events: int) -> Dict[str, float]:
    """Every per-layer metric of a traced repetition except the overhead.

    Times are reported as shares of the measured (root) time: ``total_share``
    covers a layer's spans, ``self_share`` subtracts their direct children.
    Shares stay comparable when the host's speed drifts, and a layer a
    workload never enters reads 0 of the measured time rather than a
    duration.  ``trace.overhead_frac`` compares against untraced
    repetitions, so the caller adds it.  ``processed_events`` is the
    simulations' own ``total_events``, the base of ``engine.stale_frac``.
    """
    spans = tracer.aggregate()
    counters = tracer.counters

    def calls(name: str) -> int:
        return spans.get(name, (0, 0.0, 0.0))[0]

    measured = spans.get(ROOT, (0, 0.0, 0.0))[1]

    def total_share(name: str) -> float:
        return _ratio(spans.get(name, (0, 0.0, 0.0))[1], measured)

    def self_share(name: str) -> float:
        return _ratio(spans.get(name, (0, 0.0, 0.0))[2], measured)

    cluster = ("cluster.allocate", "cluster.reconfigure_allocation", "cluster.release_job")
    pushes = calls("engine.push")
    return {
        "simulation.step.calls": calls("simulation.step"),
        "simulation.step.self_share": self_share("simulation.step"),
        "engine.push.calls": pushes,
        "engine.pop_batch.calls": calls("engine.pop_batch"),
        "engine.stale_frac": _ratio(pushes - processed_events, pushes),
        "reservation.availability_profile.calls": calls("reservation.availability_profile"),
        "reservation.availability_profile.self_share": self_share(
            "reservation.availability_profile"
        ),
        "reservation.from_running_jobs.calls": calls("reservation.from_running_jobs"),
        "reservation.from_running_jobs.total_share": total_share("reservation.from_running_jobs"),
        "reservation.profile_hit_frac": (
            1.0
            - _ratio(
                calls("reservation.from_running_jobs"), calls("reservation.availability_profile")
            )
            if calls("reservation.availability_profile")
            else 0.0
        ),
        "reservation.add_reservation.calls": calls("reservation.add_reservation"),
        "reservation.earliest_start.calls": calls("reservation.earliest_start"),
        "reservation.earliest_start.total_share": total_share("reservation.earliest_start"),
        "backfill.schedule.calls": calls("backfill.schedule"),
        "backfill.schedule.self_share": self_share("backfill.schedule"),
        "backfill.jobs_examined": tracer.count_children(
            "reservation.earliest_start", "backfill.schedule"
        ),
        "backfill.running_requested_work.calls": calls("backfill.running_requested_work"),
        "backfill.running_requested_work.total_share": total_share(
            "backfill.running_requested_work"
        ),
        "sd_policy.try_malleable_start.calls": calls("sd_policy.try_malleable_start"),
        "sd_policy.try_malleable_start.self_share": self_share("sd_policy.try_malleable_start"),
        "sd_policy.start_frac": _ratio(
            counters.get("sd_policy.started", 0), calls("sd_policy.try_malleable_start")
        ),
        "sd_policy.on_job_submit.calls": calls("sd_policy.on_job_submit"),
        "sd_policy.on_job_submit.total_share": total_share("sd_policy.on_job_submit"),
        "sd_policy.on_job_end.total_share": total_share("sd_policy.on_job_end"),
        "mate_selection.select.calls": calls("mate_selection.select"),
        "mate_selection.select.self_share": self_share("mate_selection.select"),
        "mate_selection.select_success_frac": _ratio(
            counters.get("mate_selection.selected", 0), calls("mate_selection.select")
        ),
        "mate_selection.candidate_mates.calls": calls("mate_selection.candidate_mates"),
        "mate_selection.candidate_mates.total_share": total_share("mate_selection.candidate_mates"),
        "mate_selection.running_scanned": counters.get("mate_selection.running_scanned", 0),
        "mate_selection.candidates_admitted": counters.get(
            "mate_selection.candidates_admitted", 0
        ),
        "sharing.plan_node_sharing.calls": calls("sharing.plan_node_sharing"),
        "sharing.plan_node_sharing.total_share": total_share("sharing.plan_node_sharing"),
        "contention.allows_pairing.calls": calls("contention.allows_pairing"),
        "contention.allows_pairing.total_share": total_share("contention.allows_pairing"),
        "runtime_model.speed.calls": calls("runtime_model.speed"),
        "runtime_model.speed.total_share": total_share("runtime_model.speed"),
        "cluster.allocate.calls": calls("cluster.allocate"),
        "cluster.reconfigure_allocation.calls": calls("cluster.reconfigure_allocation"),
        "cluster.release_job.calls": calls("cluster.release_job"),
        "cluster.self_share": sum(self_share(name) for name in cluster),
        "sinks.fold.calls": calls("sinks.fold"),
        "sinks.fold.total_share": total_share("sinks.fold"),
        "metrics.finalize.total_share": total_share("metrics.finalize"),
        "sweep.run.self_share": self_share("sweep.run"),
        "sweep.task_cache_key.total_share": total_share("sweep.task_cache_key"),
        "sweep.cache_load.self_share": self_share("sweep.cache_load"),
        "sweep.cache_store.self_share": self_share("sweep.cache_store"),
        "store.get.calls": calls("store.get"),
        "store.get.bytes": counters.get("store.get.bytes", 0),
        "store.get.total_share": total_share("store.get"),
        "store.put.calls": calls("store.put"),
        "store.put.bytes": counters.get("store.put.bytes", 0),
        "store.put.total_share": total_share("store.put"),
        "trace.spans": len(tracer.start),
        "trace.unattributed_frac": self_share(ROOT),
    }


def work_counts(metrics: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metrics that count work rather than time it.

    They repeat exactly for a given input and code, so the counter guard
    pins upper bounds on them.
    """
    extra = (
        "backfill.jobs_examined",
        "mate_selection.running_scanned",
        "mate_selection.candidates_admitted",
    )
    return {k: v for k, v in metrics.items() if k.endswith(".calls") or k in extra}


def self_time_check(tracer: Tracer) -> Dict[str, float]:
    """Root duration next to the sum of every span's self time."""
    spans = tracer.aggregate()
    return {
        "root_s": spans.get(ROOT, (0, 0.0, 0.0))[1],
        "self_sum_s": sum(own for _, _, own in spans.values()),
    }
