#!/usr/bin/env python3
"""Layer-attributed benchmark of the SD-Policy simulator.

Run from the repository root::

    python3 benchmarks/simbench/bench.py [--workload NAME ...] [--seed S]
        [--reps N | --seconds T] [--trace 0|1] [--trace-dir DIR] [--out PATH]
    python3 benchmarks/simbench/bench.py --compare A.json B.json
    python3 benchmarks/simbench/bench.py --check [--baseline PATH]
    python3 benchmarks/simbench/bench.py --write-baseline [--baseline PATH]

Every repetition runs in a fresh child process, one child at a time, and
repetitions are interleaved round-robin across the selected workloads.
A child sets up once and then makes passes over the same inputs (at least
``MIN_PASSES``, and at least ``MIN_MEASURED_S`` seconds of them); its
repetition's time is the fastest pass.
With ``--trace 0`` each workload reports the end-to-end metrics of
``BENCHMARK.json`` as medians over its repetitions; with ``--trace 1``
each round runs one untraced and one traced repetition and the workload
reports the per-layer metrics of the traced ones (see ``spans.py``).
Every repetition's simulated statistics must equal the pinned values in
``baseline.json`` (or, where none are pinned for the seed, those of the
run's first repetition); a repetition that fails any check counts in
``failed``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With several
workloads the metric names are prefixed with ``<workload>.``.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence

BENCH_DIR = Path(__file__).resolve().parent
REPO_ROOT = BENCH_DIR.parents[1]
SRC = REPO_ROOT / "src"
BENCHMARK_JSON = REPO_ROOT / "BENCHMARK.json"
DEFAULT_BASELINE = BENCH_DIR / "baseline.json"
SCRATCH_ROOT = REPO_ROOT / ".simbench_tmp"

#: Repetitions per workload of a run bounded by ``--seconds`` (untraced).
MIN_REPS = 2
#: A ``--seconds`` run starts no new round after this many seconds.
HARD_LIMIT_S = 100.0
CHILD_TIMEOUT_S = 90.0
DEFAULT_REPS = 4
#: Each child makes at least this many passes, and passes until they took
#: :data:`MIN_MEASURED_S` together; its repetition reports the fastest.
MIN_PASSES = 2
MIN_MEASURED_S = 4.0
#: Children per workload and untraced round that only set up and exit.  A
#: set-up takes about 0.3 s and one sample of it is noisy, so these give
#: ``setup_s`` four samples a round for about a second.
SETUP_ONLY_CHILDREN = 3
#: Headroom of the counter guard's upper bounds over the measured counts.
COUNTER_HEADROOM = 1.10

#: End-to-end metrics of one repetition, named as in ``BENCHMARK.json``;
#: ``None`` where the repetition did not measure it (set-up-only children).
END_TO_END: Dict[str, Callable[[Dict[str, Any]], Optional[float]]] = {
    "jobs_per_s": lambda rep: rep["jobs"] / rep["measured_s"] if "measured_s" in rep else None,
    "setup_s": lambda rep: rep.get("setup_s"),
    "peak_rss_mib": lambda rep: rep.get("peak_rss_mib"),
}


def load_definition() -> Dict[str, Any]:
    """``BENCHMARK.json``: workload names, metric units, directions, bounds."""
    return json.loads(BENCHMARK_JSON.read_text(encoding="utf-8"))


@contextmanager
def scratch_dir(kind: str) -> Iterator[Path]:
    """A private directory inside the checkout, removed with its parent when empty."""
    path = SCRATCH_ROOT / f"{kind}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            SCRATCH_ROOT.rmdir()
        except OSError:  # another run still uses it
            pass


def _proc_fields(path: str, keys: Sequence[str]) -> Dict[str, str]:
    """The first value of each of ``keys`` in a ``key : value`` file of ``/proc``."""
    fields: Dict[str, str] = {}
    try:
        for line in Path(path).read_text(encoding="utf-8").splitlines():
            key, _, value = line.partition(":")
            key = key.strip()
            if key in keys and key not in fields:
                fields[key] = value.strip()
    except OSError:
        pass
    return fields


def host_info() -> Dict[str, Any]:
    """What identifies the host a measurement was taken on.

    A VM's CPU model string is often generic (``Intel(R) Xeon(R)
    Processor``), so ``cpu_fingerprint`` also hashes the CPU's family,
    model, stepping, cache size and feature flags and the memory size.
    """
    cpu = _proc_fields(
        "/proc/cpuinfo", ("model name", "cpu family", "model", "stepping", "cache size", "flags")
    )
    memory = _proc_fields("/proc/meminfo", ("MemTotal",))
    fingerprint = hashlib.sha256(json.dumps([cpu, memory], sort_keys=True).encode()).hexdigest()
    try:
        numpy_version = importlib.metadata.version("numpy")
    except importlib.metadata.PackageNotFoundError:
        numpy_version = "unknown"
    return {
        "cpu_model": cpu.get("model name") or platform.processor() or "unknown",
        "cpu_fingerprint": fingerprint[:16],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy_version,
    }


# --------------------------------------------------------------------- #
# Child side: one repetition in a fresh process
# --------------------------------------------------------------------- #
def child_main(args: argparse.Namespace) -> int:
    started = time.perf_counter()
    import harness  # imports repro: part of the measured set-up

    trace_file = None
    if args.traced and args.trace_dir is not None:
        trace_file = args.trace_dir / f"{args.child}-seed{args.seed}-rep{args.rep}.spans.json"
    rep = harness.run_rep(
        harness.WORKLOADS[args.child],
        args.seed,
        args.scratch,
        traced=args.traced,
        started=started,
        trace_file=trace_file,
        min_passes=0 if args.setup_only else MIN_PASSES,
        min_measured_s=0.0 if args.setup_only else MIN_MEASURED_S,
    )
    print(json.dumps(rep))
    return 0


def run_child(
    name: str,
    seed: int,
    scratch: Path,
    traced: bool,
    rep: int,
    trace_dir: Optional[Path],
    setup_only: bool = False,
) -> Dict[str, Any]:
    """Run one repetition in a fresh interpreter and parse its record."""
    scratch.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child", name,
        "--seed", str(seed), "--scratch", str(scratch), "--rep", str(rep),
    ]
    if setup_only:
        command.append("--setup-only")
    if traced:
        command.append("--traced")
    if trace_dir is not None:
        command += ["--trace-dir", str(trace_dir)]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(scratch)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    try:
        proc = subprocess.run(
            command, capture_output=True, text=True, env=env, timeout=CHILD_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return {"traced": traced, "failures": [f"child timed out after {CHILD_TIMEOUT_S:.0f} s"]}
    lines = [line for line in proc.stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        return {"traced": traced, "failures": [f"child exited {proc.returncode}: {tail}"]}
    return json.loads(lines[-1])


# --------------------------------------------------------------------- #
# Parent side: schedule, check, summarise
# --------------------------------------------------------------------- #
def run_rounds(
    names: Sequence[str],
    seed: int,
    reps: Optional[int],
    seconds: Optional[float],
    traced: bool,
    scratch: Path,
    trace_dir: Optional[Path],
) -> Dict[str, List[Dict[str, Any]]]:
    """Round-robin repetitions over ``names``; each round runs every workload once.

    An untraced round also runs :data:`SETUP_ONLY_CHILDREN` set-up-only
    children per workload.  With ``seconds`` a new round starts only while
    it is expected to end within the budget, after at least
    :data:`MIN_REPS` rounds (one when tracing); the first round's time
    includes filling ``faceoff_warm``'s store, so the estimate is the mean
    round.
    """
    results: Dict[str, List[Dict[str, Any]]] = {name: [] for name in names}
    kinds = (False, True) if traced else (False,)
    minimum = 1 if traced else MIN_REPS
    started = time.monotonic()
    rounds = 0
    while True:
        elapsed = time.monotonic() - started
        if reps is not None and rounds >= reps:
            break
        if reps is None and rounds >= minimum:
            if elapsed + elapsed / rounds > seconds or elapsed > HARD_LIMIT_S:
                break
        for name in names:
            for kind in kinds:
                rep = run_child(name, seed, scratch / name, kind, rounds, trace_dir)
                if rep.get("filled") and not rep["failures"]:
                    rep = run_child(name, seed, scratch / name, kind, rounds, trace_dir)
                results[name].append(rep)
            if not traced:
                results[name] += [
                    run_child(name, seed, scratch / name, False, rounds, None, setup_only=True)
                    for _ in range(SETUP_ONLY_CHILDREN)
                ]
        rounds += 1
    return results


def pinned_for(pins: Dict[str, Any], name: str, seed: int) -> Optional[Any]:
    """Pinned statistics of a workload at a seed (``"*"`` pins every seed)."""
    by_seed = pins.get(name, {})
    return by_seed.get(str(seed), by_seed.get("*"))


def check_reps(reps: List[Dict[str, Any]], expected: Optional[Any]) -> None:
    """Mark repetitions whose statistics differ from ``expected`` or each other."""
    reference = expected
    for rep in reps:
        if "stats" not in rep:
            continue
        if reference is None:
            reference = rep["stats"]
        elif rep["stats"] != reference:
            which = "pinned" if expected is not None else "first repetition's"
            kind = "traced " if rep.get("traced") else ""
            rep["failures"].append(f"{kind}statistics differ from the {which}")


def describe(values: List[float], unit: str) -> Dict[str, Any]:
    """Median with quartiles (``statistics.quantiles``, n=4) and the sample."""
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {
        "value": statistics.median(values),
        "unit": unit,
        "q1": q1,
        "q3": q3,
        "n": len(values),
        "values": values,
    }


def summarise(
    reps: List[Dict[str, Any]], definition: Dict[str, Any], traced: bool
) -> Dict[str, Any]:
    """Metrics of one workload from its checked repetitions.

    Every repetition that completed its measurement counts in the metrics,
    whether or not it passed the checks; ``failed`` says how many did not.
    """
    measured = [rep for rep in reps if "measured_s" in rep]
    plain = [rep for rep in measured if not rep["traced"]]
    summary: Dict[str, Any] = {
        "attempted": len(reps),
        "failed": sum(1 for rep in reps if rep["failures"]),
        "failures": sorted({f for rep in reps for f in rep["failures"]}),
        "stats": measured[0]["stats"] if measured else None,
        "metrics": {},
    }
    if not plain:
        return summary
    if not traced:
        for metric in definition["end_to_end"]:
            values = [END_TO_END[metric["name"]](rep) for rep in reps if not rep["traced"]]
            values = [value for value in values if value is not None]
            summary["metrics"][metric["name"]] = describe(values, metric["unit"])
        return summary
    layered = [rep for rep in measured if rep["traced"]]
    if not layered:
        return summary
    untraced_s = statistics.median(rep["measured_s"] for rep in plain)
    for rep in layered:
        rep["layers"]["trace.overhead_frac"] = rep["measured_s"] / untraced_s - 1.0
    for metric in definition["per_layer"]:
        values = [rep["layers"][metric["name"]] for rep in layered]
        summary["metrics"][metric["name"]] = describe(values, metric["unit"])
    summary["absent"] = sorted({a for rep in layered for a in rep["absent"]})
    summary["self_time"] = [rep["self_time"] for rep in layered]
    return summary


def run_benchmark(
    names: Sequence[str],
    seed: int,
    reps: Optional[int],
    seconds: Optional[float],
    traced: bool,
    trace_dir: Optional[Path],
    pins: Dict[str, Any],
) -> Dict[str, Any]:
    """Run, check and summarise; returns the results document."""
    definition = load_definition()
    with scratch_dir("run") as scratch:
        results = run_rounds(names, seed, reps, seconds, traced, scratch, trace_dir)
    workloads = {}
    for name in names:
        check_reps(results[name], pinned_for(pins, name, seed))
        workloads[name] = summarise(results[name], definition, traced)
    return {
        "schema": 1,
        "seed": seed,
        "trace": int(traced),
        "host": host_info(),
        "protocol": {
            "reps": reps,
            "seconds": seconds,
            "min_passes": MIN_PASSES,
            "min_measured_s": MIN_MEASURED_S,
            "fresh_process_per_rep": True,
            "interleaved": list(names),
        },
        "workloads": workloads,
    }


def result_line(doc: Dict[str, Any]) -> Optional[Dict[str, Any]]:
    """The one-line result; ``None`` when a workload has no metrics."""
    workloads = doc["workloads"]
    metrics: Dict[str, Any] = {}
    for name, summary in workloads.items():
        if not summary["metrics"]:
            return None
        prefix = "" if len(workloads) == 1 else f"{name}."
        for metric, entry in summary["metrics"].items():
            metrics[prefix + metric] = {"value": entry["value"], "unit": entry["unit"]}
    attempted = sum(s["attempted"] for s in workloads.values())
    failed = sum(s["failed"] for s in workloads.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def print_table(doc: Dict[str, Any]) -> None:
    for name, summary in doc["workloads"].items():
        print(f"{name}: {summary['attempted']} attempted, {summary['failed']} failed")
        for failure in summary["failures"]:
            print(f"  FAILED: {failure}")
        for metric, entry in summary["metrics"].items():
            print(
                f"  {metric:<42} {entry['value']:>14.6g} {entry['unit']:<6} "
                f"[q1 {entry['q1']:.6g}, q3 {entry['q3']:.6g}, n={entry['n']}]"
            )
        for target in summary.get("absent", []):
            print(f"  absent: {target}")


# --------------------------------------------------------------------- #
# Comparison of two result files
# --------------------------------------------------------------------- #
def compare(
    before: Dict[str, Any], after: Dict[str, Any], definition: Dict[str, Any]
) -> List[Dict[str, Any]]:
    """One row per workload × end-to-end metric present in both documents.

    The verdict is ``regression`` when the median got worse by more than
    the metric's bound, ``unresolved`` when either side's quartile spread
    is wider than the bound (unless every run after beats every run
    before), and ``ok`` otherwise.
    """
    rows = []
    for name, summary in after["workloads"].items():
        old_summary = before["workloads"].get(name)
        if old_summary is None:
            continue
        for metric in definition["end_to_end"]:
            old = old_summary["metrics"].get(metric["name"])
            new = summary["metrics"].get(metric["name"])
            if old is None or new is None:
                continue
            lower = metric["better"] == "lower"
            change = (new["value"] - old["value"]) / old["value"]
            worse = change if lower else -change
            spread = max((e["q3"] - e["q1"]) / e["value"] for e in (old, new))
            old_values = old.get("values", [old["value"]])
            new_values = new.get("values", [new["value"]])
            if lower:
                all_better = max(new_values) < min(old_values)
            else:
                all_better = min(new_values) > max(old_values)
            if spread > metric["bound"] and not all_better:
                verdict = "unresolved"
            elif worse > metric["bound"]:
                verdict = "regression"
            else:
                verdict = "ok"
            rows.append({
                "workload": name,
                "metric": metric["name"],
                "unit": metric["unit"],
                "before": old,
                "after": new,
                "change": change,
                "bound": metric["bound"],
                "verdict": verdict,
            })
    return rows


def print_comparison(rows: List[Dict[str, Any]]) -> None:
    print(
        f"{'workload':<14} {'metric':<13} {'before [q1, q3]':<30} "
        f"{'after [q1, q3]':<30} {'change':>8} {'bound':>6}  verdict"
    )
    for row in rows:
        cells = [
            f"{e['value']:.4g} [{e['q1']:.4g}, {e['q3']:.4g}]"
            for e in (row["before"], row["after"])
        ]
        print(
            f"{row['workload']:<14} {row['metric']:<13} {cells[0]:<30} {cells[1]:<30} "
            f"{row['change']:>+8.1%} {row['bound']:>6.0%}  {row['verdict']}"
        )


# --------------------------------------------------------------------- #
# Baseline: pinned statistics, counter guard, recorded medians
# --------------------------------------------------------------------- #
def run_guard(scratch: Path) -> Dict[str, Dict[str, Any]]:
    """Untraced and traced repetition of every reduced guard input, in-process."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import harness

    out = {}
    for name, workload in harness.GUARD.items():
        plain = harness.run_rep(workload, 0, scratch / name)
        traced = harness.run_rep(workload, 0, scratch / name, traced=True)
        out[name] = {"plain": plain, "traced": traced}
    return out


def guard_problems(guard: Dict[str, Dict[str, Any]], baseline: Dict[str, Any]) -> List[str]:
    """Everything the counter guard rejects, as messages."""
    import spans

    problems = []
    pins = baseline["guard"]
    for name, pair in guard.items():
        plain, traced = pair["plain"], pair["traced"]
        problems += [f"guard {name}: {f}" for f in plain["failures"] + traced["failures"]]
        if plain["stats"] != pins["stats"].get(name):
            problems.append(f"guard {name}: statistics differ from the pinned values")
        if traced["stats"] != plain["stats"]:
            problems.append(f"guard {name}: traced statistics differ from untraced")
        self_time = traced["self_time"]
        if not math.isclose(self_time["self_sum_s"], self_time["root_s"], rel_tol=1e-6):
            problems.append(f"guard {name}: self times do not sum to the root span")
        bounds = pins["counter_bounds"].get(name, {})
        for counter, value in spans.work_counts(traced["layers"]).items():
            bound = bounds.get(counter)
            if bound is not None and value > bound:
                problems.append(f"guard {name}: {counter} = {value} exceeds its bound {bound}")
    return problems


def check_main(args: argparse.Namespace) -> int:
    """CI gate: counter guard, checked end-to-end run, bounds on the baseline's host.

    The bounds are enforced only when every recorded host field matches
    (CPU model and fingerprint, ``nproc``, Python and NumPy versions);
    medians measured on another host say nothing about a regression.
    """
    baseline = json.loads(args.baseline.read_text(encoding="utf-8"))
    definition = load_definition()
    with scratch_dir("guard") as scratch:
        problems = guard_problems(run_guard(scratch), baseline)
    doc = run_benchmark(
        list(baseline["workloads"]), 0, args.reps or baseline["protocol"]["reps"],
        None, False, None, baseline["pinned"],
    )
    print_table(doc)
    for name, summary in doc["workloads"].items():
        problems += [f"{name}: {failure}" for failure in summary["failures"]]
    differs = sorted(
        key for key in baseline["host"].keys() | doc["host"].keys()
        if baseline["host"].get(key) != doc["host"].get(key)
    )
    if not differs:
        rows = compare(baseline, doc, definition)
        print_comparison(rows)
        problems += [
            f"{r['workload']} {r['metric']}: {r['change']:+.1%} exceeds the {r['bound']:.0%} bound"
            for r in rows
            if r["verdict"] == "regression"
        ]
    else:
        print(f"host differs from the baseline's in {', '.join(differs)}; bounds not checked")
    for problem in problems:
        print(f"CHECK FAILED: {problem}", file=sys.stderr)
    print("check passed" if not problems else f"{len(problems)} check(s) failed")
    return 1 if problems else 0


def write_baseline_main(args: argparse.Namespace) -> int:
    """Measure seed 0, pin seeds 0 and 1, pin the guard, write ``--baseline``."""
    import spans

    names = [w["name"] for w in load_definition()["workloads"]]
    reps = args.reps or DEFAULT_REPS
    doc = run_benchmark(names, 0, reps, None, False, None, {})
    seed1 = run_benchmark(names, 1, 1, None, False, None, {})
    pinned = {}
    for name in names:
        stats0 = doc["workloads"][name]["stats"]
        stats1 = seed1["workloads"][name]["stats"]
        pinned[name] = {"*": stats0} if stats0 == stats1 else {"0": stats0, "1": stats1}
    with scratch_dir("guard") as scratch:
        guard = run_guard(scratch)
    baseline = {
        "bench_id": 11,
        "host": doc["host"],
        "protocol": {
            "reps": reps,
            "seed": 0,
            "min_passes": MIN_PASSES,
            "min_measured_s": MIN_MEASURED_S,
        },
        "workloads": {
            name: {"metrics": summary["metrics"]} for name, summary in doc["workloads"].items()
        },
        "pinned": pinned,
        "guard": {
            "stats": {name: pair["plain"]["stats"] for name, pair in guard.items()},
            "counter_bounds": {
                name: {
                    k: math.ceil(v * COUNTER_HEADROOM)
                    for k, v in spans.work_counts(pair["traced"]["layers"]).items()
                }
                for name, pair in guard.items()
            },
        },
    }
    failures = [f for s in doc["workloads"].values() for f in s["failures"]]
    failures += [f for s in seed1["workloads"].values() for f in s["failures"]]
    if failures:
        print("\n".join(failures), file=sys.stderr)
        return 1
    args.baseline.write_text(json.dumps(baseline, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.baseline}")
    return 0


# --------------------------------------------------------------------- #
def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", action="append", help="repeatable; default: all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--reps", type=int, help=f"rounds (default {DEFAULT_REPS})")
    parser.add_argument("--seconds", type=float, help="time budget instead of --reps")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-dir", type=Path, help="write every traced span here")
    parser.add_argument("--out", type=Path, help="write the results document here")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("BEFORE", "AFTER"))
    parser.add_argument("--check", action="store_true", help="CI gate against --baseline")
    parser.add_argument("--write-baseline", action="store_true")
    parser.add_argument("--baseline", type=Path, default=DEFAULT_BASELINE)
    parser.add_argument("--child", help=argparse.SUPPRESS)
    parser.add_argument("--scratch", type=Path, help=argparse.SUPPRESS)
    parser.add_argument("--rep", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        before, after = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        rows = compare(before, after, load_definition())
        print_comparison(rows)
        return 1 if any(row["verdict"] == "regression" for row in rows) else 0
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"bench: simulator sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.check:
        return check_main(args)
    if args.write_baseline:
        return write_baseline_main(args)
    definition = load_definition()
    known = [w["name"] for w in definition["workloads"]]
    names = args.workload or known
    unknown = sorted(set(names) - set(known))
    if unknown:
        print(f"bench: unknown workload(s) {unknown}; known: {known}", file=sys.stderr)
        return 2
    reps = args.reps
    if reps is None and args.seconds is None:
        reps = 1 if args.trace else DEFAULT_REPS
    pins = {}
    if args.baseline.is_file():
        pins = json.loads(args.baseline.read_text(encoding="utf-8")).get("pinned", {})
    doc = run_benchmark(
        names, args.seed, reps, args.seconds, bool(args.trace), args.trace_dir, pins
    )
    print_table(doc)
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    line = result_line(doc)
    if line is None:
        print("bench: a workload completed no repetition", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
