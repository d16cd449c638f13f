"""The simulator benchmark's workloads and one measured repetition of each.

Each workload builds its inputs from a seed (``prepare``: set-up, timed as
``setup_s``) and then makes one measured pass through the simulator's two
public entry points, ``run_workload`` and ``run_scenario`` (``measure``).
It checks its own outputs and returns the simulated statistics, which the
caller compares across passes, repetitions and pinned values.  A
repetition makes several passes over the same inputs and keeps the
fastest (``run_rep``).

Why the seed does not regenerate the logs: the cost of simulating a
congested log depends on how congested the generated log is.  Measured on
a 2-vCPU Intel Xeon VM, static backfill over workload 4 at scale 0.01
took 3.4 to 7.8 CPU seconds across generator seeds 2011-2018 (quartile
spread 44% of the median), and changing the seed or jittering arrivals by
±10 s moved one SD-Policy run between 2.6 and 6.8 s.  A benchmark whose
seeds give work of such different cost cannot hold any regression bound
across seeds.  So in the Curie and face-off workloads the seed keeps the
job population and arrival times and draws new job ids in the same order
(``relabel``); ids only break ties, so every simulated statistic is
invariant under it, which the pinned values check.  In ``swf_stream`` the
ids are kept and the seed chooses which 75% of the jobs are malleable,
which does change the schedule; that uncongested replay costs about the
same on every seed.

The benchmark's child processes import this module after starting the
set-up clock, so importing ``repro`` is part of ``setup_s``.
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import resource
import shutil
import tempfile
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

import numpy as np
import spans

from repro.experiments import runner
from repro.experiments.scenario import builtin_scenario, render_report, run_scenario
from repro.experiments.sweep import SweepRunner
from repro.workloads.job_record import Workload
from repro.workloads.presets import build_workload
from repro.workloads.swf import read_swf

REPO_ROOT = Path(__file__).resolve().parents[2]
SAMPLE_SWF = REPO_ROOT / "examples" / "sample.swf"


def relabel(workload: Workload, seed: int) -> Workload:
    """The workload with new job ids drawn from ``seed``, in the same order.

    Seed 0 keeps the preset's own ids.
    """
    if seed == 0:
        return workload
    rng = np.random.default_rng(seed)
    records = sorted(workload.records, key=lambda r: r.job_id)
    ids = int(rng.integers(1, 1_000_000)) + np.cumsum(rng.integers(1, 1000, len(records)))
    return Workload(
        workload.name,
        [dataclasses.replace(r, job_id=i) for r, i in zip(records, ids.tolist())],
        workload.system_nodes,
        workload.cpus_per_node,
    )


def tiled_swf(tiles: int) -> Workload:
    """``examples/sample.swf`` repeated ``tiles`` times end to end.

    Each tile is shifted by one submission period, so the offered load is
    the log's own, and its ids by a fixed stride, so ids stay unique.
    """
    base = read_swf(SAMPLE_SWF)
    submits = [r.submit_time for r in base.records]
    period = (max(submits) - min(submits)) * (len(base) + 1) / len(base)
    stride = max(r.job_id for r in base.records) + 1
    records = [
        dataclasses.replace(r, job_id=r.job_id + t * stride, submit_time=r.submit_time + t * period)
        for t in range(tiles)
        for r in base.records
    ]
    return Workload(f"{base.name}x{tiles}", records, base.system_nodes, base.cpus_per_node)


def peak_rss_mib() -> float:
    """This process's peak resident set size (``VmHWM``), in MiB.

    ``ru_maxrss`` is not used: Linux carries the parent's resident set at
    fork time into it across ``exec``, so a child started by a large
    parent would report the parent's size.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stats(run) -> Dict[str, Any]:
    """The simulated statistics of one run, as pinned in ``baseline.json``."""
    result = run.result
    return {
        "jobs": result.num_jobs,
        "makespan": result.makespan,
        "avg_response_time": result.avg_response_time,
        "avg_wait_time": result.avg_wait_time,
        "avg_slowdown": result.avg_slowdown,
        "energy_joules": result.energy_joules,
        "malleable_scheduled_jobs": result.malleable_scheduled_jobs,
        "mate_jobs": result.mate_jobs,
        "total_events": result.total_events,
        "scheduler_stats": dict(run.scheduler_stats),
    }


@dataclass
class Outcome:
    """What one repetition's measured calls produced."""

    jobs: int
    #: Events the simulations processed (their ``total_events``).
    events: int
    stats: Dict[str, Any]
    failures: List[str] = field(default_factory=list)


class Timer:
    """Sums the measured seconds; each measured call is a root span when traced."""

    def __init__(self, tracer: Optional[spans.Tracer] = None) -> None:
        self.seconds = 0.0
        self._tracer = tracer

    @contextmanager
    def __call__(self) -> Iterator[None]:
        with self._tracer.root() if self._tracer is not None else nullcontext():
            started = time.perf_counter()
            try:
                yield
            finally:
                self.seconds += time.perf_counter() - started


def _simulation_outcome(run, expected_jobs: int) -> Outcome:
    failures = []
    if run.result.num_jobs != expected_jobs:
        failures.append(f"{run.result.num_jobs} of {expected_jobs} jobs completed")
    return Outcome(run.result.num_jobs, run.result.total_events, run_stats(run), failures)


@dataclass(frozen=True)
class CurieWorkload:
    """Paper workload 4 (CEA-Curie-like) through ``run_workload``, jobs retained."""

    policy: str
    scale: float = 0.01

    def prepare(self, seed: int, scratch: Path) -> Workload:
        return relabel(build_workload(4, scale=self.scale), seed)

    def measure(self, workload: Workload, seed: int, scratch: Path, timer: Timer) -> Outcome:
        policy_kwargs = {"max_slowdown": 10.0} if self.policy == "sd_policy" else {}
        with timer():
            run = runner.run_workload(
                workload,
                policy=self.policy,
                runtime_model="worst_case",
                malleable_fraction=1.0,
                seed=seed,
                **policy_kwargs,
            )
        return _simulation_outcome(run, len(workload))


@dataclass(frozen=True)
class SwfStreamWorkload:
    """The tiled sample log, streamed, with the analytics sink attached."""

    tiles: int = 100

    def prepare(self, seed: int, scratch: Path) -> Workload:
        return tiled_swf(self.tiles)

    def measure(self, workload: Workload, seed: int, scratch: Path, timer: Timer) -> Outcome:
        with timer():
            run = runner.run_workload(
                workload,
                policy="sd_policy",
                runtime_model="ideal",
                malleable_fraction=0.75,
                max_slowdown=10.0,
                seed=seed,
                retain_jobs=False,
                analytics=True,
            )
        outcome = _simulation_outcome(run, len(workload))
        if run.records is None or len(run.records.array) != len(workload):
            outcome.failures.append("analytics records do not cover every job")
        return outcome


@dataclass(frozen=True)
class FaceoffWorkload:
    """The ``policy_faceoff`` scenario through ``SweepRunner`` and a file store.

    ``warm=False`` measures a cold pass into a fresh store (simulate,
    serialise, put).  ``warm=True`` measures a pass that only reads a store
    (get, verify, unpickle, render), filled beforehand by ``fill`` in a
    process of its own, so no repetition's time, set-up or memory includes
    it; filling is exactly the cold pass ``faceoff_cold`` measures.
    """

    warm: bool
    workload_ids: Tuple[int, ...] = (1, 2, 3)
    scale: float = 0.08

    def prepare(self, seed: int, scratch: Path):
        spec = builtin_scenario("policy_faceoff", scale=self.scale, workload_ids=self.workload_ids)
        spec.seed = seed
        workloads = {ref.key(): relabel(ref.build(), seed) for ref in spec.workloads}
        return spec, workloads

    def fill(self, seed: int, scratch: Path) -> Optional[List[str]]:
        """Fill the warm store once per scratch directory; ``None`` if already done."""
        store = scratch / "store"
        if not self.warm or store.exists():
            return None
        spec, workloads = self.prepare(seed, scratch)
        outcome, report = self._pass(spec, workloads, store)
        (scratch / "cold_report.txt").write_text(report, encoding="utf-8")
        return self._check_hits(outcome, 0)

    @staticmethod
    def _pass(spec, workloads, store: Path):
        outcome = run_scenario(
            spec, runner=SweepRunner(max_workers=1, store=f"file://{store}"), workloads=workloads
        )
        return outcome, render_report(outcome)

    def measure(self, inputs, seed: int, scratch: Path, timer: Timer) -> Outcome:
        spec, workloads = inputs
        failures: List[str] = []
        if self.warm:
            cold_report = (scratch / "cold_report.txt").read_text(encoding="utf-8")
            with timer():
                outcome, report = self._pass(spec, workloads, scratch / "store")
            failures += self._check_hits(outcome, len(outcome.runs))
            if report != cold_report:
                failures.append("a warm pass rendered a different report than the cold pass")
            events = 0
        else:
            store = Path(tempfile.mkdtemp(prefix="store-", dir=scratch))
            try:
                with timer():
                    outcome, report = self._pass(spec, workloads, store)
            finally:
                shutil.rmtree(store, ignore_errors=True)
            failures += self._check_hits(outcome, 0)
            events = sum(e.run.result.total_events for e in outcome.sweep.entries)
        jobs = sum(run.result.num_jobs for run in outcome.runs.values())
        for key, run in outcome.runs.items():
            expected = len(workloads[key.split("::")[0]])
            if run.result.num_jobs != expected:
                failures.append(f"{key}: {run.result.num_jobs} of {expected} jobs completed")
        stats = {
            "runs": {key: run_stats(run) for key, run in sorted(outcome.runs.items())},
            "report_sha256": hashlib.sha256(report.encode("utf-8")).hexdigest(),
        }
        return Outcome(jobs, events, stats, failures)

    @staticmethod
    def _check_hits(outcome, expected: int) -> List[str]:
        if outcome.sweep_cache_hits == expected:
            return []
        return [f"{outcome.sweep_cache_hits}/{len(outcome.runs)} cache hits, expected {expected}"]


#: The benchmark's workloads, named as in ``BENCHMARK.json``.
WORKLOADS = {
    "curie_sd": CurieWorkload("sd_policy"),
    "curie_static": CurieWorkload("static_backfill"),
    "swf_stream": SwfStreamWorkload(),
    "faceoff_cold": FaceoffWorkload(warm=False),
    "faceoff_warm": FaceoffWorkload(warm=True),
}

#: Reduced inputs for the counter guard: the same code paths in seconds.
GUARD = {
    "curie_sd": CurieWorkload("sd_policy", scale=0.005),
    "swf_stream": SwfStreamWorkload(tiles=2),
    "faceoff_cold": FaceoffWorkload(warm=False, workload_ids=(1,)),
}


def run_rep(
    workload,
    seed: int,
    scratch: Path,
    traced: bool = False,
    started: Optional[float] = None,
    trace_file: Optional[Path] = None,
    min_passes: int = 1,
    min_measured_s: float = 0.0,
) -> Dict[str, Any]:
    """Set up once, then measure passes; returns the repetition's JSON-ready record.

    Passes continue until there are ``min_passes`` of them and they took
    ``min_measured_s`` together; with neither, the repetition only sets up
    and its record carries no measurement but ``setup_s``.  The record's
    ``measured_s`` is the
    fastest pass: on a shared host the noise only ever slows a pass down,
    so the fastest one is the closest to the program's own cost.  Every
    pass must simulate the same statistics.

    ``started`` is the ``perf_counter`` reading taken before ``repro`` was
    imported, so ``setup_s`` covers imports as well as input generation.
    A workload with a ``fill`` step that still had to fill its scratch
    directory returns ``{"filled": True, ...}`` instead of measuring; the
    caller then runs the repetition in a fresh process.
    A traced repetition traces every pass and also carries the fastest
    pass's ``layers`` (every per-layer metric but ``trace.overhead_frac``),
    the absent targets and the self-time sum.
    """
    started = time.perf_counter() if started is None else started
    scratch.mkdir(parents=True, exist_ok=True)
    fill = getattr(workload, "fill", None)
    failures = fill(seed, scratch) if fill is not None else None
    if failures is not None:
        return {"seed": seed, "traced": traced, "filled": True, "failures": failures}
    inputs = workload.prepare(seed, scratch)
    setup_s = time.perf_counter() - started
    if min_passes == 0 and min_measured_s == 0.0:
        return {"seed": seed, "traced": traced, "setup_s": setup_s, "failures": []}
    pass_s: List[float] = []
    failures = []
    best: Optional[Tuple[Outcome, Optional[spans.Tracer]]] = None
    while len(pass_s) < min_passes or sum(pass_s) < min_measured_s:
        gc.collect()
        tracer = spans.Tracer() if traced else None
        with tracer.installed() if tracer is not None else nullcontext():
            timer = Timer(tracer)
            outcome = workload.measure(inputs, seed, scratch, timer)
        failures += outcome.failures
        if best is not None and outcome.stats != best[0].stats:
            failures.append("passes over the same inputs simulated different statistics")
        if best is None or timer.seconds < min(pass_s):
            best = (outcome, tracer)
        pass_s.append(timer.seconds)
    outcome, tracer = best
    rep: Dict[str, Any] = {
        "seed": seed,
        "traced": traced,
        "jobs": outcome.jobs,
        "measured_s": min(pass_s),
        "pass_s": pass_s,
        "setup_s": setup_s,
        "peak_rss_mib": peak_rss_mib(),
        "stats": outcome.stats,
        "failures": sorted(set(failures)),
    }
    if tracer is not None:
        rep["layers"] = spans.layer_metrics(tracer, outcome.events)
        rep["absent"] = tracer.absent
        rep["self_time"] = spans.self_time_check(tracer)
        if trace_file is not None:
            tracer.dump(trace_file, {"seed": seed, "absent": tracer.absent})
            rep["trace_file"] = str(trace_file)
    return rep
