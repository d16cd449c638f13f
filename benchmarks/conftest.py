"""Shared configuration for the benchmark harness.

Every benchmark regenerates one table or figure of the paper by running its
built-in scenario (``repro-sdpolicy scenario --list`` is the experiment
index).  The paper-scale workloads are far too large for a benchmark
budget, so each experiment runs on a proportionally scaled workload; the
scales (``repro.experiments.scenario.BENCH_SCALES``, also the built-ins'
default scales) were chosen so the full suite completes in roughly ten
minutes while preserving the qualitative shape of every result.
Set the environment variable ``REPRO_BENCH_SCALE_FACTOR`` (e.g. ``2.0`` or
``10.0``) to enlarge all workloads towards paper scale.

Each benchmark also writes the rendered text of its figure/table to
``benchmarks/output/`` so the regenerated artefacts can be inspected and
compared against the paper.  ``tests/test_regression_golden.py`` pins the Table 1 and Figures 1-3 values
against the committed artefacts, so regenerate them deliberately.

The sweep-shaped benchmarks (Table 1, Figures 1-3, Figure 8) fan their
independent simulations out over a process pool via
:class:`repro.experiments.sweep.SweepRunner`; set ``REPRO_SWEEP_WORKERS``
to control the worker count (default: the CPU count; serial and parallel
execution produce identical metrics).
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.experiments.scenario import BENCH_SCALES

OUTPUT_DIR = Path(__file__).parent / "output"


def bench_scale(workload_id: int) -> float:
    """Benchmark scale for a paper workload, honouring the env override."""
    factor = float(os.environ.get("REPRO_BENCH_SCALE_FACTOR", "1.0"))
    return min(1.0, BENCH_SCALES[workload_id] * factor)


def save_artifact(name: str, text: str) -> Path:
    """Write a regenerated figure/table to benchmarks/output/<name>.txt."""
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    path = OUTPUT_DIR / f"{name}.txt"
    path.write_text(text + "\n", encoding="utf-8")
    return path


def run_once(benchmark, func):
    """Run an experiment exactly once under pytest-benchmark timing."""
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)


@pytest.fixture(scope="session")
def scales():
    """Expose the per-workload benchmark scales to the benchmark modules."""
    return {wid: bench_scale(wid) for wid in BENCH_SCALES}
