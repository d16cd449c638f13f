"""Command-line driver.

Provides a small set of subcommands to run the paper's experiments from the
shell (installed as ``repro-sdpolicy`` or via ``python -m repro``):

* ``run`` — simulate one workload under one policy and print the metrics;
* ``compare`` — run static backfill and SD-Policy on a workload and print
  the normalised comparison;
* ``sweep`` — run the MAX_SLOWDOWN sweep (Figures 1-3) through the parallel
  sweep runner, with ``--workers`` and an optional on-disk result cache;
  ``--shard I/N`` executes one deterministic slice (resumable via a shard
  manifest next to the cache) and ``sweep merge`` assembles the full,
  bit-identical result once every shard has run;
* ``scenario`` — run a declarative scenario spec (a JSON file, or a named
  built-in such as ``figure4-6``) through the sweep runner;
* ``table 1|2`` — regenerate a paper table (the ``table1``/``table2``
  built-in scenarios);
* ``figure`` — regenerate a figure by number (1–9; 1/2/3 and 4/5/6 are
  grouped as in the paper) through its built-in scenario; figures 1-7 run
  on the workload ``--workload``/``--swf`` select;
* ``store`` — inspect and manage result stores (``stats``, ``prune``,
  manifest-aware ``gc``, integrity ``verify``/``repair``,
  ``push``/``pull`` mirroring, and ``serve`` — an in-process
  S3-compatible endpoint for tests and CI);
* ``query`` — aggregate persisted per-job records (``--analytics`` runs)
  across every sweep in a store, or regenerate Figures 1-3/7 and Table 1
  byte-identically from the records without re-simulating;
* ``trace`` — inspect stored scheduler decision traces recorded by
  ``--trace`` sweeps (``summary``, ``grep``, ``timeline``);
* ``swf`` — inspect a Standard Workload Format file;
* ``lint`` — the repro-lint static-analysis pass (determinism, store
  discipline, exception discipline; ``--list-rules`` prints the catalog).

Every sweep-backed subcommand accepts ``--store URL`` selecting a result
store backend (``file://…``, ``memory://…``, ``s3+http(s)://…``) instead
of the local ``--cache-dir``; with neither flag set, ``REPRO_STORE_URL``
applies.

Example::

    repro-sdpolicy figure 3 --workload 3 --scale 0.05
    repro-sdpolicy compare --workload 1 --scale 0.05 --maxsd 10
    repro-sdpolicy sweep --workload 1 --scale 0.04 --workers 4 --cache-dir auto
    repro-sdpolicy sweep --workload 1 --scale 0.04 --store s3+http://cache:9000/repro --shard 1/2
    repro-sdpolicy sweep merge --workload 1 --scale 0.04 --store s3+http://cache:9000/repro
    repro-sdpolicy store stats s3+http://cache:9000/repro
    repro-sdpolicy store pull s3+http://cache:9000/repro ~/.cache/repro/sweeps
    repro-sdpolicy scenario examples/figure7_scenario.json --workers 2
    repro-sdpolicy scenario --list
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from typing import Optional, Sequence

from repro.analysis.tables import metrics_table
from repro.analytics.query import (
    REPORT_CHOICES,
    QueryError,
    list_runs,
    parse_metrics,
    parse_where,
    render_stored_report,
    run_query,
)
from repro.core.policy import available_policies
from repro.core.profiles import PROFILE_SET_NAMES
from repro.devtools.lint import cli as lint_cli
from repro.experiments.executors import parse_shard
from repro.experiments.runner import run_workload
from repro.experiments.scenario import (
    BUILTIN_SCENARIOS,
    ScenarioError,
    WorkloadRef,
    builtin_scenario,
    load_spec,
    render_report,
    run_scenario,
)
from repro.experiments.sweep import (
    ATTACHMENT_FLAGS,
    ExecutorError,
    MergeExecutor,
    ShardedExecutor,
    SweepRunner,
)
from repro.store import (
    ResultStore,
    StoreError,
    gc,
    mirror,
    open_store,
    parse_age,
    prune,
    repair,
    resolve_store,
    verify,
)
from repro.store.attachments import AttachmentError
from repro.telemetry import LOG_LEVELS, setup_logging
from repro.workloads.presets import build_workload
from repro.workloads.swf import read_swf, summarize_swf


def _parse_maxsd(value: str):
    if value.lower() in ("dynamic", "dynavgsd", "dyn"):
        return "dynamic"
    if value.lower() in ("inf", "infinite", "infinity"):
        return math.inf
    return float(value)


def _add_workload_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workload", type=int, default=1, choices=[1, 2, 3, 4, 5],
        help="paper workload id (Table 1)",
    )
    parser.add_argument(
        "--scale", type=float, default=0.05,
        help="fraction of the full workload/system size (1.0 = paper scale)",
    )
    parser.add_argument("--seed", type=int, default=None, help="workload generation seed")
    parser.add_argument(
        "--swf", type=str, default=None,
        help="path to a real SWF log to use instead of the synthetic workload",
    )


def _load_workload(args: argparse.Namespace):
    if getattr(args, "swf", None):
        return read_swf(args.swf)
    return build_workload(args.workload, scale=args.scale, seed=args.seed)


def _positive_int(value: str) -> int:
    parsed = int(value)
    if parsed < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return parsed


def _parse_shard_arg(value: str):
    try:
        return parse_shard(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _add_sweep_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers", type=_positive_int, default=None,
        help="sweep worker processes; an explicit value always beats "
             "REPRO_SWEEP_WORKERS (default: the env var or the CPU count)",
    )
    parser.add_argument(
        "--cache-dir", type=str, default=None,
        help="on-disk sweep result cache; 'auto' selects the XDG cache dir "
             "(default: caching disabled)",
    )
    parser.add_argument(
        "--store", type=str, default=None, metavar="URL",
        help="result-store backend URL (file://…, memory://…, "
             "s3+http(s)://host/prefix); REPRO_STORE_URL applies when "
             "neither --store nor --cache-dir is given",
    )
    parser.add_argument(
        "--shard", type=_parse_shard_arg, default=None, metavar="I/N",
        help="run only shard I of N (1-based) of the expanded sweep tasks and "
             "record a resumable manifest; requires --cache-dir or --store",
    )
    parser.add_argument(
        "--manifest", type=str, default=None, metavar="DIR",
        help="local shard manifest directory override "
             "(default: the manifests/ namespace of the store)",
    )
    parser.add_argument(
        "--analytics", action="store_true",
        help="persist per-job records to the store alongside each run's "
             "aggregates, for 'repro-sdpolicy query'; requires --cache-dir "
             "or --store",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="record scheduler decision traces and publish them to the "
             "store under <cache_key>-trace, for 'repro-sdpolicy trace'; "
             "requires --cache-dir or --store",
    )


def _make_runner(
    args: argparse.Namespace, progress: bool = False, merge: bool = False
) -> SweepRunner:
    callback = None
    if progress:
        def callback(done, total, entry):  # noqa: ANN001 - argparse-local helper
            origin = "cache" if entry.from_cache else f"{entry.wall_clock_seconds:.1f}s"
            phases = getattr(entry, "phases", None)
            detail = ""
            if phases:
                detail = " [" + " ".join(
                    f"{name} {seconds:.2f}s" for name, seconds in phases.items()
                ) + "]"
            print(f"  [{done}/{total}] {entry.key} ({origin}){detail}", file=sys.stderr)
    cache_dir = getattr(args, "cache_dir", None)
    store = getattr(args, "store", None)
    shard = getattr(args, "shard", None)
    manifest = getattr(args, "manifest", None)
    if store and cache_dir:
        print(
            "error: --store and --cache-dir are mutually exclusive "
            "(--cache-dir PATH is shorthand for --store file://PATH)",
            file=sys.stderr,
        )
        raise SystemExit(2)
    has_store = bool(store or cache_dir or os.environ.get("REPRO_STORE_URL"))
    flags = {flag: bool(getattr(args, flag, False)) for flag, _kind in ATTACHMENT_FLAGS}
    for flag, kind in ATTACHMENT_FLAGS:
        if flags[flag] and not has_store:
            print(
                f"error: {kind.flag} needs a result store to publish "
                f"{kind.noun} (--cache-dir or --store)",
                file=sys.stderr,
            )
            raise SystemExit(2)
    executor = None
    if merge:
        if shard is not None:
            print("error: --shard cannot be combined with merge", file=sys.stderr)
            raise SystemExit(2)
        if not has_store:
            print(
                "error: merging a sharded sweep requires a result store "
                "(--cache-dir or --store)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        executor = MergeExecutor(manifest_dir=manifest)
    elif shard is not None:
        if not has_store:
            print(
                "error: --shard requires a result store (--cache-dir or --store; "
                "the store carries results between shard invocations)",
                file=sys.stderr,
            )
            raise SystemExit(2)
        executor = ShardedExecutor(
            shard[0], shard[1], manifest_dir=manifest,
            max_workers=getattr(args, "workers", None),
        )
    return SweepRunner(
        max_workers=getattr(args, "workers", None),
        cache_dir=cache_dir,
        store=store,
        progress=callback,
        executor=executor,
        **flags,
    )


def _cmd_run(args: argparse.Namespace) -> int:
    workload = _load_workload(args)
    kwargs = {}
    if args.policy in ("sd_policy", "ub_policy"):
        # Only the malleable policies take the SD-Policy family knobs.
        kwargs["max_slowdown"] = _parse_maxsd(args.maxsd)
        kwargs["sharing_factor"] = args.sharing_factor
    run = run_workload(
        workload,
        args.policy,
        runtime_model=args.runtime_model,
        retain_jobs=args.retain_jobs,
        profiles=args.profiles,
        **kwargs,
    )
    print(metrics_table({run.label: run.metrics}, title=f"{workload.name} ({len(workload)} jobs)"))
    print(f"wall-clock: {run.wall_clock_seconds:.1f}s  scheduler stats: {run.scheduler_stats}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.comparison import improvement_percent

    workload = _load_workload(args)
    static = run_workload(
        workload, "static_backfill", runtime_model=args.runtime_model,
        retain_jobs=args.retain_jobs,
    )
    sd = run_workload(
        workload,
        "sd_policy",
        runtime_model=args.runtime_model,
        retain_jobs=args.retain_jobs,
        max_slowdown=_parse_maxsd(args.maxsd),
        sharing_factor=args.sharing_factor,
    )
    print(metrics_table({"static_backfill": static.metrics, sd.label: sd.metrics},
                        title=f"{workload.name} ({len(workload)} jobs)"))
    improvements = improvement_percent(sd.metrics, static.metrics)
    print("\nImprovement of SD-Policy over static backfill (%):")
    for key, value in improvements.items():
        print(f"  {key:20s} {value:+7.1f}%")
    return 0


def _on_cli_workload(spec, args: argparse.Namespace):
    """Point a single-workload built-in at the workload ``--workload``/``--swf``
    select; returns that workload, the prebuilt override to run it on."""
    workload = _load_workload(args)
    spec.workloads = [WorkloadRef(name=workload.name)]
    return workload


def _run_and_print(args: argparse.Namespace, spec, workloads=None, merge: bool = False) -> int:
    """Run a scenario through the sweep runner and print its report.

    A shard run that leaves tasks unfinished prints its progress instead;
    the run summary goes to stderr.
    """
    try:
        outcome = run_scenario(
            spec,
            runner=_make_runner(args, progress=not merge, merge=merge),
            workloads=workloads,
        )
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


def _cmd_sweep(args: argparse.Namespace) -> int:
    spec = builtin_scenario(
        "figure1-3",
        workload_id=args.workload,
        seed=args.seed,
        sharing_factor=args.sharing_factor,
        runtime_model=args.runtime_model,
    )
    workload = _on_cli_workload(spec, args)
    return _run_and_print(args, spec, workloads=workload, merge=args.mode == "merge")


def _cmd_table(args: argparse.Namespace) -> int:
    return _run_and_print(args, builtin_scenario(f"table{args.table}", scale=args.scale))


#: The built-in scenario behind each figure number.
_FIGURE_SCENARIOS = {
    1: "figure1-3", 2: "figure1-3", 3: "figure1-3",
    4: "figure4-6", 5: "figure4-6", 6: "figure4-6",
    7: "figure7", 8: "figure8", 9: "figure9",
}


def _cmd_figure(args: argparse.Namespace) -> int:
    name = _FIGURE_SCENARIOS[args.figure]
    if args.figure <= 7:
        # Figures 1-7 run on the workload --workload/--swf select.
        if args.figure <= 3:
            spec = builtin_scenario(name, workload_id=args.workload, seed=args.seed)
        else:
            spec = builtin_scenario(name, seed=args.seed, max_slowdown=_parse_maxsd(args.maxsd))
        return _run_and_print(args, spec, workloads=_on_cli_workload(spec, args))
    if args.figure == 9 and (args.swf or args.workload != 1):
        print(
            "warning: figure 9 always replays the real-run workload 5; "
            "--workload/--swf are ignored (use --scale/--seed to vary it)",
            file=sys.stderr,
        )
    overrides = {"scale": args.scale}
    if args.seed is not None:
        overrides["seed"] = args.seed
    return _run_and_print(args, builtin_scenario(name, **overrides))


def _cmd_scenario(args: argparse.Namespace) -> int:
    if args.list or not args.spec:
        print("built-in scenarios:")
        for name in sorted(BUILTIN_SCENARIOS):
            print(f"  {name:12s} {builtin_scenario(name).description}")
        if not args.spec and not args.list:
            print("\nusage: repro-sdpolicy scenario <spec.json | builtin name>",
                  file=sys.stderr)
            return 2
        return 0
    overrides = {}
    if args.scale is not None:
        overrides["scale"] = args.scale
    if args.seed is not None:
        overrides["seed"] = args.seed
    try:
        if os.path.exists(args.spec):
            spec = load_spec(args.spec)
            if overrides:
                print(
                    "note: --scale/--seed only apply to built-in scenarios; "
                    "spec files define their own workload refs",
                    file=sys.stderr,
                )
        elif args.spec in BUILTIN_SCENARIOS:
            spec = builtin_scenario(args.spec, **overrides)
        else:
            print(
                f"error: {args.spec!r} is neither a spec file nor a built-in "
                f"scenario (available: {', '.join(sorted(BUILTIN_SCENARIOS))})",
                file=sys.stderr,
            )
            return 2
    except (ScenarioError, ValueError, OSError) as exc:
        # ValueError covers malformed JSON / wrong-typed scalar fields.
        print(f"error: invalid scenario spec {args.spec!r}: {exc}", file=sys.stderr)
        return 2
    return _run_and_print(args, spec)


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
            "error: give a store URL (file://…, memory://…, s3+http(s)://…) "
            "or set REPRO_STORE_URL",
            file=sys.stderr,
        )
        raise SystemExit(2)
    return open_store(url)


def _cmd_store_stats(args: argparse.Namespace) -> int:
    from repro.telemetry import InstrumentedStore

    store = InstrumentedStore(_open_cli_store(args.url))
    stats = store.stats()
    print(f"store:       {store.url}")
    print(f"blobs:       {stats.blobs} ({_human_bytes(stats.blob_bytes)})")
    print(f"manifests:   {stats.manifests} ({_human_bytes(stats.manifest_bytes)})")
    print(f"quarantined: {stats.quarantined}")
    snapshot = store.snapshot()
    counters = snapshot["counters"]
    print(
        f"requests:    {counters.get('requests', 0)} "
        f"({_human_bytes(counters.get('bytes_read', 0))} read, "
        f"{counters.get('retries', 0)} retries)"
    )
    for op, timer in snapshot["timers"].items():
        print(
            f"latency:     {op} p50 {timer['p50'] * 1000:.1f}ms  "
            f"p95 {timer['p95'] * 1000:.1f}ms  p99 {timer['p99'] * 1000:.1f}ms  "
            f"max {timer['max'] * 1000:.1f}ms  (n={timer['count']})"
        )
    if stats.unknown_size:
        print(
            f"note: {stats.unknown_size} object(s) reported no size; "
            "byte totals are a lower bound",
            file=sys.stderr,
        )
    return 0


def _cmd_store_prune(args: argparse.Namespace) -> int:
    try:
        age = parse_age(args.older_than)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    store = _open_cli_store(args.url)
    stats = prune(store, age, dry_run=args.dry_run)
    verb = "would remove" if args.dry_run else "removed"
    print(
        f"{store.url}: {verb} {stats.blobs_removed} blob(s) "
        f"({_human_bytes(stats.blob_bytes_freed)}) and "
        f"{stats.quarantined_removed} quarantined entr"
        f"{'y' if stats.quarantined_removed == 1 else 'ies'}; "
        f"kept {stats.kept}"
        + (
            f", kept {stats.kept_referenced} manifest-referenced"
            if stats.kept_referenced
            else ""
        )
        + (f", skipped {stats.unknown_age} of unknown age" if stats.unknown_age else "")
    )
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
        + (f", skipped {stats.unknown_age} of unknown age" if stats.unknown_age else "")
    )
    return 0


def _cmd_store_verify(args: argparse.Namespace) -> int:
    import json as _json

    store = _open_cli_store(args.url)
    report = verify(store, dry_run=args.dry_run)
    if args.json:
        print(_json.dumps(report.as_dict(), indent=2, sort_keys=True))
    else:
        print(f"store:    {store.url}")
        print(f"checked:  {report.checked} blob(s)")
        print(f"ok:       {report.ok}")
        print(f"corrupt:  {len(report.corrupt)}")
        for entry in report.corrupt:
            action = "would quarantine" if args.dry_run else "quarantined"
            print(f"  {action} {entry['key']}: {entry['error']}")
        for entry in report.drift:
            print(
                f"warning: {entry['key']} verifies but differs from the digest "
                f"its shard manifest recorded (manifest {entry['manifest'][:12]}…, "
                f"blob {entry['blob'][:12]}…) — recomputed, or replaced?",
                file=sys.stderr,
            )
        for key in report.missing_referenced:
            print(
                f"warning: manifest-referenced blob {key} is missing "
                "(pruned store, or wrong URL?)",
                file=sys.stderr,
            )
    return 0 if report.clean else 1


def _cmd_store_repair(args: argparse.Namespace) -> int:
    store = _open_cli_store(args.url)
    source = open_store(args.source)
    stats = repair(store, source, dry_run=args.dry_run)
    verb = "would repair" if args.dry_run else "repaired"
    print(
        f"{store.url}: {verb} {stats.repaired} quarantined blob(s) from "
        f"{source.url}; {stats.missing_in_source} missing in the mirror, "
        f"{stats.still_corrupt} corrupt there too"
    )
    return 0 if stats.missing_in_source == 0 and stats.still_corrupt == 0 else 1


def _cmd_store_mirror(args: argparse.Namespace) -> int:
    source = _open_cli_store(args.source)
    target = _open_cli_store(args.dest)
    stats = mirror(source, target, overwrite=args.overwrite)
    print(
        f"{source.url} -> {target.url}: copied {stats.blobs_copied} blob(s) "
        f"({_human_bytes(stats.blob_bytes_copied)}), skipped "
        f"{stats.blobs_skipped} already present, "
        f"{stats.manifests_copied} manifest(s)"
        + (
            f", {stats.quarantined_copied} quarantined entr"
            f"{'y' if stats.quarantined_copied == 1 else 'ies'}"
            if stats.quarantined_copied
            else ""
        )
    )
    return 0


def _cmd_store_serve(args: argparse.Namespace) -> int:
    from repro.store.fake import ObjectStoreServer

    try:
        server = ObjectStoreServer(host=args.host, port=args.port, verbose=args.verbose)
    except OSError as exc:  # port in use, unresolvable host…
        print(f"error: cannot bind {args.host}:{args.port}: {exc}", file=sys.stderr)
        return 2
    print(
        f"serving object store on {server.store_url()} "
        "(in-memory, unauthenticated — testing/CI only; Ctrl-C to stop)",
        flush=True,
    )
    try:
        server.serve_forever()
    except KeyboardInterrupt:  # pragma: no cover - interactive
        pass
    return 0


def _attachment_store(args: argparse.Namespace, command: str) -> Optional[ResultStore]:
    """The store ``query``/``trace`` read run attachments from; ``None``
    after printing why there is none."""
    if args.store and args.cache_dir:
        print(
            "error: --store and --cache-dir are mutually exclusive "
            "(--cache-dir PATH is shorthand for --store file://PATH)",
            file=sys.stderr,
        )
        return None
    store = resolve_store(args.store, args.cache_dir)
    if store is None:
        print(
            f"error: {command} reads a result store; give --cache-dir or --store "
            "(or set REPRO_STORE_URL)",
            file=sys.stderr,
        )
    return store


def _cmd_query(args: argparse.Namespace) -> int:
    store = _attachment_store(args, "query")
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
            workload = None
            if args.report != "table1":
                workload = _load_workload(args)
            print(
                render_stored_report(
                    store,
                    args.report,
                    workload=workload,
                    scale=args.scale,
                    seed=args.seed,
                    sharing_factor=args.sharing_factor,
                    runtime_model=args.runtime_model,
                    max_slowdown=_parse_maxsd(args.maxsd),
                )
            )
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
    except QueryError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _cmd_trace(args: argparse.Namespace) -> int:
    from repro.telemetry.report import trace_grep, trace_summary, trace_timeline

    store = _attachment_store(args, "trace")
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
    p_run.add_argument("--runtime-model", default="ideal",
                       choices=["ideal", "worst_case", "application_aware"])
    p_run.add_argument("--maxsd", default="dynamic", help="MAX_SLOWDOWN: number, 'inf' or 'dynamic'")
    p_run.add_argument("--sharing-factor", type=float, default=0.5)
    p_run.add_argument(
        "--profiles", default=None, choices=list(PROFILE_SET_NAMES),
        help="application-profile set for profile-aware policies (UB-Policy) "
             "and the application-aware runtime model",
    )
    p_run.add_argument(
        "--retain-jobs", action=argparse.BooleanOptionalAction, default=True,
        help="keep per-job records (default); --no-retain-jobs streams the run "
             "in near-constant memory (aggregates only)",
    )
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare SD-Policy against static backfill")
    _add_workload_args(p_cmp)
    p_cmp.add_argument("--runtime-model", default="ideal", choices=["ideal", "worst_case"])
    p_cmp.add_argument("--maxsd", default="dynamic")
    p_cmp.add_argument("--sharing-factor", type=float, default=0.5)
    p_cmp.add_argument(
        "--retain-jobs", action=argparse.BooleanOptionalAction, default=True,
        help="keep per-job records (default); --no-retain-jobs streams both "
             "runs in near-constant memory (aggregates only)",
    )
    p_cmp.set_defaults(func=_cmd_compare)

    p_sweep = sub.add_parser(
        "sweep", help="run the MAX_SLOWDOWN sweep (figures 1-3) in parallel"
    )
    p_sweep.add_argument(
        "mode", nargs="?", choices=["run", "merge"], default="run",
        help="'run' executes the sweep (optionally one --shard of it); "
             "'merge' validates the shard manifests and renders the full "
             "result from the cache",
    )
    _add_workload_args(p_sweep)
    _add_sweep_args(p_sweep)
    p_sweep.add_argument("--runtime-model", default="ideal", choices=["ideal", "worst_case"])
    p_sweep.add_argument("--sharing-factor", type=float, default=0.5)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_sc = sub.add_parser(
        "scenario",
        help="run a declarative scenario spec (JSON file or built-in name)",
    )
    p_sc.add_argument(
        "spec", nargs="?", default=None,
        help="path to a scenario spec JSON file, or a built-in scenario name",
    )
    p_sc.add_argument(
        "--list", action="store_true", help="list the built-in scenarios and exit"
    )
    p_sc.add_argument(
        "--scale", type=float, default=None,
        help="workload scale override for built-in scenarios (1.0 = paper scale)",
    )
    p_sc.add_argument(
        "--seed", type=int, default=None,
        help="workload seed override for built-in scenarios",
    )
    _add_sweep_args(p_sc)
    p_sc.set_defaults(func=_cmd_scenario)

    p_tab = sub.add_parser("table", help="regenerate Table 1 or Table 2")
    p_tab.add_argument("table", type=int, choices=[1, 2])
    p_tab.add_argument("--scale", type=float, default=0.05)
    _add_sweep_args(p_tab)
    p_tab.set_defaults(func=_cmd_table)

    p_fig = sub.add_parser("figure", help="regenerate a figure (1-9)")
    p_fig.add_argument("figure", type=int, choices=range(1, 10))
    _add_workload_args(p_fig)
    p_fig.add_argument("--maxsd", default="10")
    _add_sweep_args(p_fig)
    p_fig.set_defaults(func=_cmd_figure)

    p_store = sub.add_parser(
        "store",
        help="inspect/manage result stores (stats, prune, gc, verify, "
             "repair, push/pull, serve)",
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

    p_st_prune = store_sub.add_parser(
        "prune",
        help="delete blobs older than a cutoff (quarantined entries always go)",
    )
    p_st_prune.add_argument("url", nargs="?", default=None,
                            help="store URL (default: REPRO_STORE_URL)")
    p_st_prune.add_argument(
        "--older-than", required=True, metavar="AGE",
        help="age cutoff: 90s, 45m, 12h, 30d, 2w (a bare number means days)",
    )
    p_st_prune.add_argument("--dry-run", action="store_true",
                            help="report what would be removed, delete nothing")
    p_st_prune.set_defaults(func=_cmd_store_prune)

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
        help="re-hash every blob against its integrity envelope, "
             "quarantining mismatches (exit 1 when any are found)",
    )
    p_st_verify.add_argument("url", nargs="?", default=None,
                             help="store URL (default: REPRO_STORE_URL)")
    p_st_verify.add_argument("--json", action="store_true",
                             help="emit the machine-readable report as JSON")
    p_st_verify.add_argument("--dry-run", action="store_true",
                             help="report mismatches without quarantining them")
    p_st_verify.set_defaults(func=_cmd_store_verify)

    p_st_repair = store_sub.add_parser(
        "repair",
        help="re-fetch quarantined blobs from a mirror store and republish "
             "the ones that verify",
    )
    p_st_repair.add_argument("url", nargs="?", default=None,
                             help="store URL to repair (default: REPRO_STORE_URL)")
    p_st_repair.add_argument(
        "--from", dest="source", required=True, metavar="URL",
        help="mirror store to re-fetch good copies from",
    )
    p_st_repair.add_argument("--dry-run", action="store_true",
                             help="report what would be repaired, change nothing")
    p_st_repair.set_defaults(func=_cmd_store_repair)

    p_st_push = store_sub.add_parser(
        "push", help="mirror a local cache into a (remote) store"
    )
    p_st_push.add_argument("source", help="local cache dir or store URL to copy from")
    p_st_push.add_argument("dest", help="store URL to copy into")
    p_st_push.add_argument("--overwrite", action="store_true",
                           help="re-copy blobs already present in the target")
    p_st_push.set_defaults(func=_cmd_store_mirror)

    p_st_pull = store_sub.add_parser(
        "pull", help="mirror a (remote) store into a local cache"
    )
    p_st_pull.add_argument("source", help="store URL to copy from")
    p_st_pull.add_argument("dest", help="local cache dir or store URL to copy into")
    p_st_pull.add_argument("--overwrite", action="store_true",
                           help="re-copy blobs already present in the target")
    p_st_pull.set_defaults(func=_cmd_store_mirror)

    p_st_serve = store_sub.add_parser(
        "serve",
        help="run the in-process S3-compatible object endpoint (testing/CI)",
    )
    p_st_serve.add_argument("--host", default="127.0.0.1")
    p_st_serve.add_argument("--port", type=int, default=9317)
    p_st_serve.add_argument("--verbose", action="store_true",
                            help="log every request to stderr")
    p_st_serve.set_defaults(func=_cmd_store_serve)

    p_trace = sub.add_parser(
        "trace",
        help="inspect stored scheduler decision traces (--trace sweeps): "
             "summary, grep, timeline",
    )
    trace_sub = p_trace.add_subparsers(dest="trace_command", required=True)

    def _add_trace_store_args(sub_parser: argparse.ArgumentParser) -> None:
        sub_parser.add_argument(
            "--cache-dir", type=str, default=None,
            help="result store to read, as a local cache dir ('auto' = XDG dir)",
        )
        sub_parser.add_argument(
            "--store", type=str, default=None, metavar="URL",
            help="result store to read, as a URL (file://…, memory://…, "
                 "s3+http(s)://…); REPRO_STORE_URL applies when neither "
                 "--store nor --cache-dir is given",
        )
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
        help="filter/group/aggregate persisted per-job records across every "
             "sweep in a store, or regenerate figures/tables from them",
    )
    _add_workload_args(p_query)
    p_query.add_argument(
        "--cache-dir", type=str, default=None,
        help="result store to query, as a local cache dir ('auto' = XDG dir)",
    )
    p_query.add_argument(
        "--store", type=str, default=None, metavar="URL",
        help="result store to query, as a URL (file://…, memory://…, "
             "s3+http(s)://…); REPRO_STORE_URL applies when neither "
             "--store nor --cache-dir is given",
    )
    p_query.add_argument(
        "--list", action="store_true",
        help="list every analytics run in the store and exit",
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
        "--report", type=str, default=None,
        choices=REPORT_CHOICES,
        help="regenerate a paper figure/table from stored records alone "
             "(no simulation); output is byte-identical to the sweep-"
             "rendered version",
    )
    p_query.add_argument("--maxsd", default="10",
                         help="MAX_SLOWDOWN for --report fig7")
    p_query.add_argument("--sharing-factor", type=float, default=0.5)
    p_query.add_argument("--runtime-model", default="ideal",
                         choices=["ideal", "worst_case"])
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
    """Entry point for the ``repro-sdpolicy`` console script."""
    parser = build_parser()
    args = parser.parse_args(argv)
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
        # Sharded-execution / result-store / run-attachment problems (missing
        # cache dir, bad store URL, unreachable endpoint, incomplete shard
        # manifests, no records or traces recorded) are user-fixable: no
        # traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
