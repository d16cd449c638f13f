"""Command-line driver.

Provides a small set of subcommands to run the paper's experiments from the
shell (installed as ``repro-sdpolicy`` or via ``python -m repro``):

* ``run`` — simulate one workload under one policy and print the metrics;
* ``compare`` — run static backfill and SD-Policy on a workload and print
  the normalised comparison;
* ``scenario`` — run a declarative scenario spec (a JSON file, or a named
  built-in: every paper table and figure is one, ``table1`` … ``figure9``)
  through the parallel sweep runner, with ``--workers`` and an optional
  result store; ``--shard I/N`` executes one deterministic slice
  (resumable via a shard manifest in the store) and ``--merge`` assembles
  the full, bit-identical result once every shard has run;
* ``store`` — inspect and manage result stores (``stats``, manifest-aware
  ``gc``, integrity ``verify``); the store is a memo, so a blob that fails
  its envelope is a miss the next run overwrites;
* ``query`` — aggregate the per-job records of every run cached in a
  store, or (``--report NAME``) render what ``scenario NAME`` prints
  byte-identically from the cached runs without re-simulating;
* ``trace`` — inspect stored scheduler decision traces recorded by
  ``--trace`` runs (``summary``, ``grep``, ``timeline``);
* ``swf`` — inspect a Standard Workload Format file;
* ``lint`` — the repro-lint static-analysis pass (determinism, store
  discipline, exception discipline; ``--list-rules`` prints the catalog).

``scenario`` and ``query --report`` resolve NAME the same way: a built-in
keeps its own scale and seed unless ``--scale``/``--seed`` is given, and
``--workload``/``--swf`` point the single-workload built-ins
``figure1-3``, ``figure4-6`` and ``figure7`` at another workload.

Every store-backed subcommand accepts ``--store URL`` selecting a result
store backend (``file://…`` or ``memory://…``) instead of the local
``--cache-dir``; with neither flag set, ``REPRO_STORE_URL`` applies.

Example::

    repro-sdpolicy scenario figure1-3 --workload 3 --scale 0.05
    repro-sdpolicy compare --workload 1 --scale 0.05 --maxsd 10
    repro-sdpolicy scenario figure1-3 --scale 0.04 --workers 4 --cache-dir auto
    repro-sdpolicy scenario figure1-3 --scale 0.04 --store file:///shared/repro --shard 1/2
    repro-sdpolicy scenario figure1-3 --scale 0.04 --store file:///shared/repro --merge
    repro-sdpolicy query --report figure1-3 --scale 0.04 --store file:///shared/repro
    repro-sdpolicy store stats file:///shared/repro
    repro-sdpolicy scenario examples/figure7_scenario.json --workers 2
    repro-sdpolicy scenario --list
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
import time
from typing import Any, Dict, Optional, Sequence, Tuple

from repro.analysis.tables import metrics_table
from repro.analytics.query import (
    QueryError,
    list_runs,
    outcome_from_records,
    parse_metrics,
    parse_where,
    run_query,
)
from repro.core.policy import available_policies
from repro.devtools.lint import cli as lint_cli
from repro.experiments.executors import parse_shard
from repro.experiments.runner import POLICY, RUN_PARAMS, resolve_run, run_workload
from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    ScenarioSpec,
    WorkloadRef,
    builtin_scenario,
    load_spec,
    render_report,
    run_scenario,
)
from repro.experiments.sweep import (
    ExecutorError,
    MergeExecutor,
    ShardedExecutor,
    SweepRunner,
)
from repro.store import (
    ResultStore,
    StoreError,
    gc,
    open_store,
    parse_age,
    resolve_store,
    verify,
)
from repro.telemetry import LOG_LEVELS, setup_logging
from repro.telemetry.trace import AttachmentError
from repro.workloads.job_record import Workload
from repro.workloads.presets import build_workload
from repro.workloads.swf import read_swf, summarize_swf


def _run_param_flag(name: str) -> Dict[str, Any]:
    """``type=`` and ``help=`` of the flag that sets run parameter ``name``:
    its :data:`RUN_PARAMS` kind parses and checks the text and SD-Policy's
    constructors range-check a policy value, so a bad value is an argparse
    error naming the flag."""
    row = RUN_PARAMS[name]

    def parse(text: str) -> Any:
        try:
            value = row.kind.parse(text)
            row.kind.check(value)
            if row.layer == POLICY:
                resolve_run("sd_policy", **{name: value})
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
        return value

    return {"type": parse, "help": f"{row.kind.expected}, for the {row.layer} ({name})"}


#: Workload scale of ``run``/``compare`` when ``--scale`` is not given.
_DEFAULT_SCALE = 0.05

#: The single-workload built-ins ``--workload``/``--swf`` may point at
#: another workload.
_RETARGETABLE = ("figure1-3", "figure4-6", "figure7")


def _add_workload_args(parser: argparse.ArgumentParser, builtin: bool = False) -> None:
    """``--workload``/``--scale``/``--seed``/``--swf``; with ``builtin`` they
    override a scenario NAME, and each one not given keeps its own value."""
    only = f"; only for {', '.join(_RETARGETABLE)}" if builtin else ""
    scale_default = "the built-in's own" if builtin else _DEFAULT_SCALE
    parser.add_argument(
        "--workload", type=int, default=None if builtin else 1, choices=[1, 2, 3, 4, 5],
        help=f"paper workload id (Table 1){only}",
    )
    parser.add_argument(
        "--scale", type=_positive_float, default=None if builtin else _DEFAULT_SCALE,
        help="fraction of the full workload/system size (1.0 = paper scale); "
             f"default: {scale_default}",
    )
    parser.add_argument("--seed", type=int, default=None, help="workload generation seed")
    parser.add_argument(
        "--swf", type=str, default=None,
        help=f"path to a real SWF log to use instead of the synthetic workload{only}",
    )


def _load_workload(args: argparse.Namespace, scale: float) -> Workload:
    """The workload ``--swf`` or ``--workload`` names; a load error is
    printed and exits 2."""
    try:
        if args.swf:
            return read_swf(args.swf)
        return build_workload(args.workload, scale=scale, seed=args.seed)
    except (ValueError, OSError) as exc:
        print(f"error: cannot load the workload: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _positive_float(value: str) -> float:
    parsed = float(value)
    if not parsed > 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return parsed


def _parse_shard_arg(value: str):
    try:
        return parse_shard(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_store_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="result store as a local directory; 'auto' selects the XDG "
             "cache dir (default: no store, so no caching)",
    )
    parser.add_argument(
        "--store", type=str, default=None, metavar="URL",
        help="result-store backend URL (file://… or memory://…); "
             "REPRO_STORE_URL applies when neither --store nor --cache-dir "
             "is given",
    )


def _cli_store(args: argparse.Namespace) -> Optional[ResultStore]:
    """The store ``--store``/``--cache-dir`` select (else ``REPRO_STORE_URL``)."""
    if args.store and args.cache_dir:
        print(
            "error: --store and --cache-dir are mutually exclusive "
            "(--cache-dir PATH is shorthand for --store file://PATH)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return resolve_store(args.store or args.cache_dir)


def _cli_scenario(
    args: argparse.Namespace, name: str
) -> Tuple[ScenarioSpec, Optional[Workload]]:
    """The scenario ``scenario NAME`` runs and ``query --report NAME``
    renders, with the prebuilt workload to run it on (else ``None``).

    NAME is a spec file or a built-in.  A built-in keeps its own scale and
    seed unless ``--scale``/``--seed`` is given, and ``--workload``/``--swf``
    point one of :data:`_RETARGETABLE` at another workload.  A bad NAME or
    flag raises :class:`ScenarioError`; a workload that does not load
    exits 2 (:func:`_load_workload`).
    """
    is_file = os.path.exists(name)
    if not is_file and name not in BUILTIN_SCENARIOS:
        raise ScenarioError(
            f"{name!r} is neither a spec file nor a built-in scenario "
            f"(available: {', '.join(sorted(BUILTIN_SCENARIOS))})"
        )
    retarget = args.workload is not None or args.swf is not None
    if retarget and (is_file or name not in _RETARGETABLE):
        flag = "--swf" if args.swf is not None else "--workload"
        raise ScenarioError(
            f"{flag} applies only to the single-workload built-ins "
            f"{', '.join(_RETARGETABLE)}, not {name!r}"
        )
    overrides = {
        key: getattr(args, key) for key in ("scale", "seed") if getattr(args, key) is not None
    }
    if name == "figure1-3" and args.workload is not None:
        overrides["workload_id"] = args.workload
    try:
        spec = load_spec(name) if is_file else builtin_scenario(name, **overrides)
    except (ScenarioError, ValueError, OSError) as exc:
        # ValueError covers malformed JSON / wrong-typed scalar fields.
        raise ScenarioError(f"invalid scenario spec {name!r}: {exc}") from None
    if is_file and overrides:
        print(
            "note: --scale/--seed only apply to built-in scenarios; "
            "spec files define their own workload refs",
            file=sys.stderr,
        )
    if not retarget:
        return spec, None
    workload = _load_workload(args, spec.workloads[0].scale)
    spec.workloads = [WorkloadRef(name=workload.name)]
    return spec, workload


def _make_runner(args: argparse.Namespace) -> SweepRunner:
    callback = None
    if not args.merge:
        def callback(done, total, entry):  # noqa: ANN001 - argparse-local helper
            origin = "cache" if entry.from_cache else " ".join(
                f"{name} {seconds:.2f}s" for name, seconds in entry.phases.items()
            )
            print(f"  [{done}/{total}] {entry.key} ({origin})", file=sys.stderr)
    store = _cli_store(args)
    if args.trace and store is None:
        print(
            "error: --trace needs a result store to publish trace "
            "(--cache-dir or --store)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    executor = None
    if args.merge:
        if args.shard is not None:
            print("error: --shard cannot be combined with --merge", file=sys.stderr)
            raise SystemExit(2)
        executor = MergeExecutor()
    elif args.shard is not None:
        executor = ShardedExecutor(args.shard[0], args.shard[1])
    return SweepRunner(
        max_workers=args.workers,
        store=store,
        progress=callback,
        executor=executor,
        trace=args.trace,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    workload = _load_workload(args, args.scale)
    kwargs = {}
    if args.policy in ("sd_policy", "ub_policy"):
        # Only the malleable policies take the SD-Policy family knobs.
        kwargs["max_slowdown"] = args.maxsd
        kwargs["sharing_factor"] = args.sharing_factor
    started = time.perf_counter()
    run = run_workload(
        workload,
        args.policy,
        runtime_model=args.runtime_model,
        profiles=args.profiles,
        **kwargs,
    )
    elapsed = time.perf_counter() - started
    print(metrics_table({run.label: run.metrics}, title=f"{workload.name} ({len(workload)} jobs)"))
    print(f"wall-clock: {elapsed:.1f}s  scheduler stats: {run.scheduler_stats}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import improvement_percent

    workload = _load_workload(args, args.scale)
    static = run_workload(workload, "static_backfill", runtime_model=args.runtime_model)
    sd = run_workload(
        workload,
        "sd_policy",
        runtime_model=args.runtime_model,
        max_slowdown=args.maxsd,
        sharing_factor=args.sharing_factor,
    )
    print(metrics_table({"static_backfill": static.metrics, sd.label: sd.metrics},
                        title=f"{workload.name} ({len(workload)} jobs)"))
    improvements = improvement_percent(sd.metrics, static.metrics)
    print("\nImprovement of SD-Policy over static backfill (%):")
    for key, value in improvements.items():
        print(f"  {key:20s} {value:+7.1f}%")
    return 0


def _cmd_scenario(args: argparse.Namespace) -> int:
    """Run a scenario through the sweep runner and print its report.

    A shard run that leaves tasks unfinished prints its progress instead;
    the run summary goes to stderr.
    """
    if args.list or not args.spec:
        print("built-in scenarios:")
        for name in sorted(BUILTIN_SCENARIOS):
            print(f"  {name:12s} {builtin_scenario(name).description}")
        if not args.spec and not args.list:
            print("\nusage: repro-sdpolicy scenario <spec.json | builtin name>",
                  file=sys.stderr)
            return 2
        return 0
    try:
        spec, workload = _cli_scenario(args, args.spec)
        outcome = run_scenario(spec, runner=_make_runner(args), workloads=workload)
        report = render_report(outcome) if outcome.complete else None
    except ScenarioError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if report is None:
        sweep = outcome.sweep
        print(
            f"scenario {spec.name}: shard run finished — {len(sweep)}/"
            f"{sweep.total_tasks} sweep tasks complete."
        )
        print(
            "run the remaining shards with the same --cache-dir, then re-run "
            "without --shard to render the report",
            file=sys.stderr,
        )
        return 0
    print(report)
    if outcome.sweep is not None:
        print(
            f"\nscenario {spec.name}: {len(outcome.sweep)} runs  "
            f"wall-clock: {outcome.sweep_wall_clock_seconds:.1f}s  "
            f"workers: {outcome.sweep_workers}  "
            f"cache hits: {outcome.sweep_cache_hits}",
            file=sys.stderr,
        )
    return 0


def _human_bytes(count: int) -> str:
    size = float(count)
    for unit in ("B", "KiB", "MiB", "GiB"):
        if size < 1024 or unit == "GiB":
            return f"{size:.1f} {unit}" if unit != "B" else f"{int(size)} B"
        size /= 1024
    return f"{int(size)} B"  # pragma: no cover - unreachable


def _open_cli_store(url: Optional[str]):
    """Open a store for the ``store`` subcommands (REPRO_STORE_URL fallback)."""
    url = url or os.environ.get("REPRO_STORE_URL")
    if not url:
        print(
            "error: give a store URL (file://… or memory://…) "
            "or set REPRO_STORE_URL",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return open_store(url)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    store = _open_cli_store(args.url)
    stats = store.stats()
    print(f"store:       {store.url}")
    print(f"blobs:       {stats.blobs} ({_human_bytes(stats.blob_bytes)})")
    print(f"manifests:   {stats.manifests} ({_human_bytes(stats.manifest_bytes)})")
    return 0


def _cmd_store_gc(args: argparse.Namespace) -> int:
    try:
        grace = parse_age(args.grace)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = _open_cli_store(args.url)
    stats = gc(store, grace_seconds=grace, dry_run=args.dry_run)
    verb = "would delete" if args.dry_run else "deleted"
    print(
        f"{store.url}: {verb} {stats.blobs_deleted} unreferenced blob(s) "
        f"({_human_bytes(stats.blob_bytes_freed)}) and {stats.temp_deleted} "
        f"stale temp file(s); kept {stats.kept_referenced} referenced by "
        f"{stats.manifests_walked} shard manifest(s), "
        f"{stats.kept_young} within the grace period"
    )
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    import json as _json

    store = _open_cli_store(args.url)
    report = verify(store, delete=args.delete)
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"store:    {store.url}")
        print(f"checked:  {report.checked} blob(s)")
        print(f"ok:       {report.ok}")
        print(f"corrupt:  {len(report.corrupt)}")
        for entry in report.corrupt:
            action = "deleted" if args.delete else "corrupt"
            print(f"  {action} {entry['key']}: {entry['error']}")
        for entry in report.drift:
            print(
                f"warning: {entry['key']} verifies but differs from the digest "
                f"its shard manifest recorded (manifest {entry['manifest'][:12]}…, "
                f"blob {entry['blob'][:12]}…) — replaced since, by another version?",
                file=sys.stderr,
            )
        for key in report.missing_referenced:
            print(
                f"warning: manifest-referenced blob {key} is missing "
                "(collected by gc, or wrong URL?)",
                file=sys.stderr,
            )
    return 0 if report.clean else 1


def _read_store(args: argparse.Namespace, command: str) -> Optional[ResultStore]:
    """The store ``query``/``trace`` read; ``None`` after printing why
    there is none."""
    store = _cli_store(args)
    if store is None:
        print(
            f"error: {command} reads a result store; give --cache-dir or --store "
            "(or set REPRO_STORE_URL)",
            file=sys.stderr,
        )
    return store


def _cmd_query(args: argparse.Namespace) -> int:
    if not args.report:
        for flag in ("workload", "swf", "scale", "seed"):
            if getattr(args, flag) is not None:
                print(f"error: --{flag} applies only to query --report NAME", file=sys.stderr)
                return 2
    store = _read_store(args, "query")
    if store is None:
        return 2
    try:
        if args.phases:
            from repro.telemetry.report import phase_report

            print(phase_report(store))
            return 0
        if args.list:
            print(list_runs(store))
            return 0
        if args.report:
            spec, workload = _cli_scenario(args, args.report)
            print(render_report(outcome_from_records(spec, workload, store)))
            return 0
        print(
            run_query(
                store,
                where=parse_where(args.where),
                group_by=args.group_by,
                metrics=parse_metrics(args.metrics),
            )
        )
        return 0
    except (QueryError, ScenarioError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.report import trace_grep, trace_summary, trace_timeline

    store = _read_store(args, "trace")
    if store is None:
        return 2
    if args.trace_command == "summary":
        print(trace_summary(store, key_prefix=args.key))
    elif args.trace_command == "grep":
        output = trace_grep(
            store,
            pattern=args.pattern,
            event=args.event,
            job=args.job,
            key_prefix=args.key,
        )
        if output:
            print(output)
    else:
        print(trace_timeline(store, job=args.job, key_prefix=args.key))
    return 0


def _cmd_lint(args: argparse.Namespace) -> int:
    return lint_cli.run(
        paths=args.paths,
        rules=args.rules,
        as_json=args.json,
        list_rules=args.list_rules,
        show_suppressed=args.show_suppressed,
    )


def _cmd_swf(args: argparse.Namespace) -> int:
    # One streaming pass: same output as read_swf().describe(), without
    # materialising the record list (100k-line logs inspect in ~1.6 MiB).
    for key, value in summarize_swf(args.path, max_jobs=args.max_jobs).items():
        print(f"{key:20s} {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Build the command-line parser."""
    parser = argparse.ArgumentParser(
        prog="repro-sdpolicy",
        description="SD-Policy (ICPP 2019) reproduction: simulate, compare, regenerate figures.",
    )
    parser.add_argument(
        "--log-level", choices=LOG_LEVELS, default=None,
        help="stderr logging verbosity for repro.* loggers "
             "(default: REPRO_LOG_LEVEL or 'warning')",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one workload under one policy")
    _add_workload_args(p_run)
    p_run.add_argument("--policy", default="sd_policy",
                       choices=list(available_policies()),
                       help="co-scheduling policy (the registered policy family)")
    p_run.add_argument("--runtime-model", default="ideal", **_run_param_flag("runtime_model"))
    p_run.add_argument("--maxsd", default="dynamic", **_run_param_flag("max_slowdown"))
    p_run.add_argument("--sharing-factor", default=0.5, **_run_param_flag("sharing_factor"))
    p_run.add_argument("--profiles", default=None, **_run_param_flag("profiles"))
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare SD-Policy against static backfill")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--runtime-model", default="ideal", **_run_param_flag("runtime_model"))
    p_cmp.add_argument("--maxsd", default="dynamic", **_run_param_flag("max_slowdown"))
    p_cmp.add_argument("--sharing-factor", default=0.5, **_run_param_flag("sharing_factor"))
    p_cmp.set_defaults(func=_cmd_compare)

    p_sc = sub.add_parser(
        "scenario",
        help="run a declarative scenario spec (JSON file or built-in name, "
             "one per paper table/figure)",
    )
    p_sc.add_argument(
        "spec", nargs="?", default=None,
        help="path to a scenario spec JSON file, or a built-in scenario name",
    )
    p_sc.add_argument(
        "--list", action="store_true", help="list the built-in scenarios and exit"
    )
    _add_workload_args(p_sc, builtin=True)
    p_sc.add_argument(
        "--workers", type=_positive_int, default=None,
        help="sweep worker processes; an explicit value always beats "
             "REPRO_SWEEP_WORKERS (default: the env var or the CPU count)",
    )
    _add_store_args(p_sc)
    p_sc.add_argument(
        "--shard", type=_parse_shard_arg, default=None, metavar="I/N",
        help="run only shard I of N (1-based) of the expanded sweep tasks and "
             "record a resumable manifest; requires --cache-dir or --store",
    )
    p_sc.add_argument(
        "--merge", action="store_true",
        help="validate the shard manifests and render the full result from "
             "the store, simulating nothing",
    )
    p_sc.add_argument(
        "--trace", action="store_true",
        help="record scheduler decision traces and publish them to the "
             "store under <cache_key>-trace, for 'repro-sdpolicy trace'; "
             "requires --cache-dir or --store",
    )
    p_sc.set_defaults(func=_cmd_scenario)

    p_store = sub.add_parser(
        "store",
        help="inspect/manage result stores (stats, gc, verify)",
    )
    store_sub = p_store.add_subparsers(dest="store_command", required=True)

    p_st_stats = store_sub.add_parser(
        "stats", help="blob/manifest counts and sizes of a store"
    )
    p_st_stats.add_argument(
        "url", nargs="?", default=None,
        help="store URL (default: REPRO_STORE_URL)",
    )
    p_st_stats.set_defaults(func=_cmd_store_stats)

    p_st_gc = store_sub.add_parser(
        "gc",
        help="delete blobs no shard manifest references (plus stale *.tmp "
             "debris); referenced blobs are never deleted",
    )
    p_st_gc.add_argument("url", nargs="?", default=None,
                         help="store URL (default: REPRO_STORE_URL)")
    p_st_gc.add_argument(
        "--grace", default="1h", metavar="AGE",
        help="age floor: unreferenced blobs younger than this are kept "
             "(default: 1h; 90s, 45m, 12h, 30d — a bare number means days)",
    )
    p_st_gc.add_argument("--dry-run", action="store_true",
                         help="report what would be deleted, delete nothing")
    p_st_gc.set_defaults(func=_cmd_store_gc)

    p_st_verify = store_sub.add_parser(
        "verify",
        help="re-hash every blob against its integrity envelope and report "
             "mismatches, changing nothing (exit 1 when any are found)",
    )
    p_st_verify.add_argument("url", nargs="?", default=None,
                             help="store URL (default: REPRO_STORE_URL)")
    p_st_verify.add_argument("--json", action="store_true",
                             help="emit the machine-readable report as JSON")
    p_st_verify.add_argument("--delete", action="store_true",
                             help="delete the mismatching blobs (a sweep would "
                                  "read them as misses and overwrite them anyway)")
    p_st_verify.set_defaults(func=_cmd_store_verify)

    p_trace = sub.add_parser(
        "trace",
        help="inspect stored scheduler decision traces (--trace sweeps): "
             "summary, grep, timeline",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def _add_trace_store_args(sub_parser: argparse.ArgumentParser) -> None:
        _add_store_args(sub_parser)
        sub_parser.add_argument(
            "--key", type=str, default=None, metavar="PREFIX",
            help="only traces whose cache key starts with PREFIX",
        )

    p_tr_summary = trace_sub.add_parser(
        "summary",
        help="per-policy decision counts and phase-timer breakdown "
             "(every blob envelope-verified)",
    )
    _add_trace_store_args(p_tr_summary)
    p_tr_summary.set_defaults(func=_cmd_trace)

    p_tr_grep = trace_sub.add_parser(
        "grep", help="print matching raw JSONL trace events (pipe into jq)"
    )
    p_tr_grep.add_argument(
        "pattern", nargs="?", default=None,
        help="regex matched against each canonical JSON event line",
    )
    p_tr_grep.add_argument(
        "--event", type=str, default=None,
        help="only events of this type (job_submit, mate_selected, …)",
    )
    p_tr_grep.add_argument(
        "--job", type=int, default=None,
        help="only events mentioning this job id (as job, guest, or mate)",
    )
    _add_trace_store_args(p_tr_grep)
    p_tr_grep.set_defaults(func=_cmd_trace)

    p_tr_timeline = trace_sub.add_parser(
        "timeline",
        help="human chronology of a stored run; --job N answers 'why did "
             "SD-Policy pair these two jobs'",
    )
    p_tr_timeline.add_argument(
        "--job", type=int, default=None,
        help="collapse to the decisions that touched this job id",
    )
    _add_trace_store_args(p_tr_timeline)
    p_tr_timeline.set_defaults(func=_cmd_trace)

    p_query = sub.add_parser(
        "query",
        help="filter/group/aggregate the per-job records of every run cached "
             "in a store, or render a scenario's report from the cached runs",
    )
    _add_workload_args(p_query, builtin=True)
    _add_store_args(p_query)
    p_query.add_argument(
        "--list", action="store_true",
        help="list every run cached in the store and exit",
    )
    p_query.add_argument(
        "--phases", action="store_true",
        help="print the per-run phase-timer table from stored trace "
             "manifests (--trace sweeps) and exit",
    )
    p_query.add_argument(
        "--where", action="append", default=[], metavar="FIELD=VALUE",
        help="filter clause, repeatable; run-level fields (workload, policy, "
             "label, seed, task_key) select runs, record columns (slowdown, "
             "malleable, …) select job rows",
    )
    p_query.add_argument(
        "--group-by", type=str, default=None, metavar="FIELD",
        help="group the aggregation by a run-level field or a record column",
    )
    p_query.add_argument(
        "--metrics", type=str, default="slowdown:mean,slowdown:p95",
        metavar="COL:AGG,...",
        help="aggregations to compute (aggs: mean, median, p50, p95, p99, "
             "min, max, count); default: slowdown:mean,slowdown:p95",
    )
    p_query.add_argument(
        "--report", type=str, default=None, metavar="NAME",
        help="print what 'scenario NAME' prints (a built-in or a spec file, "
             "with the same --workload/--swf/--scale/--seed) from the stored "
             "runs alone, simulating nothing",
    )
    p_query.set_defaults(func=_cmd_query)

    p_lint = sub.add_parser(
        "lint",
        help="run the repro-lint static-analysis pass (determinism, store "
             "discipline, exception discipline) over source paths",
    )
    lint_cli.add_lint_arguments(p_lint)
    p_lint.set_defaults(func=_cmd_lint)

    p_swf = sub.add_parser("swf", help="inspect a Standard Workload Format log")
    p_swf.add_argument("path")
    p_swf.add_argument("--max-jobs", type=int, default=None)
    p_swf.set_defaults(func=_cmd_swf)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point for the ``repro-sdpolicy`` console script.

    The ``repro`` logger is configured for the call and restored when it
    returns, so an in-process caller keeps its own logging.
    """
    parser = build_parser()
    args = parser.parse_args(argv)
    logger = logging.getLogger("repro")
    saved = logger.handlers[:], logger.level, logger.propagate
    setup_logging(args.log_level)
    try:
        return args.func(args)
    except BrokenPipeError:
        # The downstream consumer (head, less, …) closed the pipe: not an
        # error.  Point stdout at devnull so the interpreter's shutdown
        # flush does not raise a second time.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 0
    except (ExecutorError, StoreError, AttachmentError) as exc:
        # Sharded-execution / result-store / trace problems (missing cache
        # dir, bad store URL, corrupt run blob, incomplete shard manifests,
        # no traces recorded) are user-fixable: no traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        logger.handlers[:], level, logger.propagate = saved
        logger.setLevel(level)  # which also drops the loggers' level caches


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
