"""Render stored decision traces for the ``repro-sdpolicy trace`` CLI.

Three views over the same stored artifacts, all answerable from a store
alone (no re-simulation):

* ``summary`` — per-policy decision counts and the phase-timer breakdown;
  every trace blob is re-verified through its integrity envelope first.
* ``grep`` — raw JSONL event lines filtered by event type, job id, or a
  substring/regex, suitable for piping into ``jq``.
* ``timeline`` — a human chronology of one (or every) run; with
  ``--job N`` it collapses to the decisions that touched that job, which
  is the "why did SD-Policy pair these two jobs" view.

Everything here returns strings; printing is the CLI's job.
"""

from __future__ import annotations

import json
import re
from typing import Any, Dict, List, Optional, Tuple

from repro.store import ResultStore
from repro.telemetry.trace import (
    PHASE_FIELDS,
    AttachmentError,
    iter_trace_manifests,
    load_trace,
)

__all__ = ["phase_report", "trace_grep", "trace_summary", "trace_timeline"]


def _select_manifests(
    store: ResultStore, key_prefix: Optional[str] = None
) -> List[Tuple[str, Dict[str, Any]]]:
    selected = [
        (name, manifest)
        for name, manifest in iter_trace_manifests(store)
        if not key_prefix or str(manifest.get("cache_key", "")).startswith(key_prefix)
    ]
    if not selected:
        detail = f" matching key prefix {key_prefix!r}" if key_prefix else ""
        raise AttachmentError(
            f"no decision traces{detail} in {store.url} — run the sweep "
            "with --trace to record them"
        )
    selected.sort(
        key=lambda item: (
            str((item[1].get("meta") or {}).get("label", "")),
            str(item[1].get("cache_key", "")),
        )
    )
    return selected


def _phase_line(phases: Dict[str, float]) -> str:
    parts = [
        f"{name} {phases[name]:.3f}s" for name in PHASE_FIELDS if name in phases
    ]
    for name in sorted(phases):
        if name not in PHASE_FIELDS:
            parts.append(f"{name} {phases[name]:.3f}s")
    return "  ".join(parts) if parts else "(not recorded)"


def trace_summary(store: ResultStore, key_prefix: Optional[str] = None) -> str:
    """Per-policy decision counts + phase breakdown, envelope-verified."""
    selected = _select_manifests(store, key_prefix)
    by_policy: Dict[str, Dict[str, Any]] = {}
    total_events = 0
    for _name, manifest in selected:
        cache_key = str(manifest.get("cache_key", ""))
        meta, events = load_trace(store, cache_key)  # verifies the envelope
        counts: Dict[str, int] = {}
        reasons: Dict[str, int] = {}
        for record in events:
            event = str(record.get("event", "?"))
            counts[event] = counts.get(event, 0) + 1
            if event == "mate_rejected":
                reason = str(record.get("reason", "?"))
                reasons[reason] = reasons.get(reason, 0) + 1
        total_events += len(events)
        policy = str(meta.get("scheduler") or meta.get("policy") or "?")
        bucket = by_policy.setdefault(
            policy,
            {"runs": 0, "counts": {}, "reasons": {}, "phases": {}, "labels": []},
        )
        bucket["runs"] += 1
        bucket["labels"].append(str(meta.get("label", "")))
        for event, count in counts.items():
            bucket["counts"][event] = bucket["counts"].get(event, 0) + count
        for reason, count in reasons.items():
            bucket["reasons"][reason] = bucket["reasons"].get(reason, 0) + count
        for phase, seconds in (manifest.get("phases") or {}).items():
            bucket["phases"][phase] = bucket["phases"].get(phase, 0.0) + float(seconds)
    lines = [f"decision traces ({len(selected)} runs, {total_events} events)", ""]
    for policy in sorted(by_policy):
        bucket = by_policy[policy]
        lines.append(f"policy {policy} ({bucket['runs']} run(s))")
        labels = ", ".join(sorted(set(filter(None, bucket["labels"]))))
        if labels:
            lines.append(f"  labels:    {labels}")
        counts = bucket["counts"]
        ordered = ", ".join(f"{event} {counts[event]}" for event in sorted(counts))
        lines.append(f"  events:    {sum(counts.values())} ({ordered})")
        pairs = counts.get("mate_selected", 0)
        rejections = counts.get("mate_rejected", 0)
        if pairs or rejections:
            lines.append(
                f"  decisions: {pairs} malleable pairings, {rejections} rejections"
            )
        reasons = bucket["reasons"]
        if reasons:
            ordered_reasons = ", ".join(
                f"{reason} {reasons[reason]}" for reason in sorted(reasons)
            )
            lines.append(f"  rejected:  {ordered_reasons}")
        lines.append(f"  phases:    {_phase_line(bucket['phases'])}")
        lines.append("")
    return "\n".join(lines).rstrip()


def _mentions_job(record: Dict[str, Any], job_id: int) -> bool:
    for field in ("job", "guest"):
        if record.get(field) == job_id:
            return True
    mates = record.get("mates")
    return isinstance(mates, list) and job_id in mates


def trace_grep(
    store: ResultStore,
    pattern: Optional[str] = None,
    event: Optional[str] = None,
    job: Optional[int] = None,
    key_prefix: Optional[str] = None,
) -> str:
    """Matching raw JSONL event lines (pipe into ``jq`` for structure)."""
    regex = re.compile(pattern) if pattern else None
    lines: List[str] = []
    for _name, manifest in _select_manifests(store, key_prefix):
        cache_key = str(manifest.get("cache_key", ""))
        _meta, events = load_trace(store, cache_key)
        for record in events:
            if event and record.get("event") != event:
                continue
            if job is not None and not _mentions_job(record, job):
                continue
            line = json.dumps(record, sort_keys=True, separators=(",", ":"))
            if regex and not regex.search(line):
                continue
            lines.append(line)
    return "\n".join(lines)


def _describe(record: Dict[str, Any]) -> str:
    event = record.get("event")
    if event == "job_submit":
        malleable = "malleable" if record.get("malleable") else "rigid"
        return (
            f"submit    job {record.get('job')} "
            f"({record.get('nodes')} nodes, {record.get('cpus')} cpus, {malleable})"
        )
    if event == "job_start":
        mates = record.get("mates") or []
        shared = f" sharing with {mates}" if mates else ""
        return (
            f"start     job {record.get('job')} {record.get('kind')} "
            f"on {record.get('nodes')} node(s){shared}"
        )
    if event == "job_end":
        return f"end       job {record.get('job')} (waited {record.get('wait')})"
    if event == "backfill_hole":
        return (
            f"backfill  job {record.get('job')} takes a hole on "
            f"{record.get('nodes')} node(s) ahead of {record.get('ahead')} "
            f"reserved job(s), est_start {record.get('est_start')}"
        )
    if event == "mate_rejected":
        return (
            f"reject    guest {record.get('guest')} ({record.get('reason')}: "
            f"static_end {record.get('static_end')} vs "
            f"mall_end {record.get('mall_end')})"
        )
    if event == "mate_selected":
        return (
            f"pair      guest {record.get('guest')} with mates "
            f"{record.get('mates')} (penalty {record.get('penalty')}, "
            f"{record.get('free_nodes')} free node(s), "
            f"est_runtime {record.get('est_runtime')})"
        )
    if event == "reconfigure":
        return (
            f"reconfig  job {record.get('job')} {record.get('direction')} "
            f"{record.get('cpus_before')} -> {record.get('cpus_after')} cpus"
        )
    return f"{event}  {record}"


def trace_timeline(
    store: ResultStore,
    job: Optional[int] = None,
    key_prefix: Optional[str] = None,
) -> str:
    """Human chronology of the stored trace(s), optionally one job's."""
    blocks: List[str] = []
    for _name, manifest in _select_manifests(store, key_prefix):
        cache_key = str(manifest.get("cache_key", ""))
        meta, events = load_trace(store, cache_key)
        selected = [
            record
            for record in events
            if job is None or _mentions_job(record, job)
        ]
        header = (
            f"run {cache_key[:24]}… label={meta.get('label', '?')} "
            f"policy={meta.get('scheduler') or meta.get('policy', '?')} "
            f"({len(selected)}/{len(events)} events)"
        )
        lines = [header]
        for record in selected:
            lines.append(f"  t={record.get('t'):>12}  {_describe(record)}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks)


def phase_report(store: ResultStore, key_prefix: Optional[str] = None) -> str:
    """Per-run phase-timer table from the stored trace manifests."""
    selected = _select_manifests(store, key_prefix)
    header = f"{'label':<20} {'key':<14}"
    for phase in PHASE_FIELDS:
        header += f" {phase:>10}"
    header += f" {'events':>8}"
    lines = [f"phase timers ({len(selected)} runs)", "", header]
    for _name, manifest in selected:
        meta = manifest.get("meta") or {}
        phases = manifest.get("phases") or {}
        row = (
            f"{str(meta.get('label', '?')):<20} "
            f"{str(manifest.get('cache_key', ''))[:12] + '…':<14}"
        )
        for phase in PHASE_FIELDS:
            value = phases.get(phase)
            row += f" {value:>9.3f}s" if value is not None else f" {'-':>10}"
        row += f" {manifest.get('events', 0):>8}"
        lines.append(row)
    return "\n".join(lines)
