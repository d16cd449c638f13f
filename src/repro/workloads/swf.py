"""Standard Workload Format (SWF) reader and writer.

The SWF (Feitelson, Parallel Workloads Archive) stores one job per line with
18 whitespace-separated fields; comment/header lines start with ``;``.  The
paper's simulated workloads 3 and 4 come from SWF logs (RICC 2010 and
CEA-Curie 2011).  The reproduction ships synthetic stand-ins for those logs,
but the parser below accepts the real files unchanged, so they can be used
directly when available.

Field order (0-based index → meaning)::

    0  job number                9  requested number of processors
    1  submit time              10  requested time
    2  wait time                11  requested memory
    3  run time                 12  status
    4  allocated processors     13  user id
    5  average cpu time used    14  group id
    6  used memory              15  executable (application) number
    7  requested processors*    16  queue number
    8  ... (see note)           17  partition number

Note: the archive's canonical ordering is (4) allocated processors,
(5) average CPU time, (6) used memory, (7) requested processors,
(8) requested time, (9) requested memory, (10) status, (11) user,
(12) group, (13) executable, (14) queue, (15) partition,
(16) preceding job, (17) think time.  That canonical ordering is what this
module implements.
"""

from __future__ import annotations

import math
import os
from typing import Dict, Iterator, Optional, Sequence, TextIO, Union

import numpy as np

from repro.workloads.job_record import JobRecord, Workload

#: Number of data fields in a canonical SWF line.
SWF_FIELDS = 18


class SWFFormatError(ValueError):
    """Raised when a line cannot be parsed as an SWF record."""


#: Canonical SWF field names, in line order (used in error messages).
_FIELD_NAMES = (
    "job number",
    "submit time",
    "wait time",
    "run time",
    "allocated processors",
    "average cpu time",
    "used memory",
    "requested processors",
    "requested time",
    "requested memory",
    "status",
    "user id",
    "group id",
    "executable number",
    "queue number",
    "partition number",
    "preceding job",
    "think time",
)


def _parse_line(line: str, lineno: int) -> Optional[JobRecord]:
    parts = line.split()
    if len(parts) < SWF_FIELDS:
        raise SWFFormatError(
            f"line {lineno}: expected {SWF_FIELDS} fields, found {len(parts)}"
        )
    values = []
    for name, text in zip(_FIELD_NAMES, parts):
        try:
            value = float(text)
        except ValueError:
            value = math.nan
        if not math.isfinite(value):
            raise SWFFormatError(
                f"line {lineno}: field {name!r} is {text!r}, not a finite number"
            )
        values.append(value)
    (
        job_id,
        submit,
        wait,
        run_time,
        alloc_procs,
        avg_cpu,
        used_mem,
        req_procs,
        req_time,
        req_mem,
        status,
        user,
        group,
        executable,
        queue,
        partition,
        preceding,
        think,
    ) = values
    procs = int(req_procs) if req_procs > 0 else int(alloc_procs)
    if run_time <= 0 or procs <= 0:
        # Cancelled or broken records: the paper's evaluation (and standard
        # practice) drops them.
        return None
    return JobRecord(
        job_id=int(job_id),
        submit_time=max(0.0, submit),
        run_time=run_time,
        requested_time=req_time if req_time > 0 else run_time,
        requested_procs=procs,
        user_id=int(user) if user >= 0 else 0,
        group_id=int(group) if group >= 0 else 0,
        executable=int(executable) if executable >= 0 else 0,
        status=int(status),
        wait_time=wait,
        used_procs=int(alloc_procs),
        extra={
            "avg_cpu_time": avg_cpu,
            "used_memory": used_mem,
            "requested_memory": req_mem,
            "queue": queue,
            "partition": partition,
            "preceding_job": preceding,
            "think_time": think,
        },
    )


def iter_swf(
    source: Union[str, os.PathLike, TextIO],
    max_jobs: Optional[int] = None,
    header: Optional[Dict[str, Optional[int]]] = None,
) -> Iterator[JobRecord]:
    """Stream the job records of an SWF file, one at a time.

    Memory use is constant in the log length (one line and one record at a
    time), so arbitrarily large archive logs can be scanned without
    materialising a :class:`Workload`.  Dropped records (cancelled jobs,
    non-positive run time or processor count) are skipped exactly as
    :func:`read_swf` skips them, and ``max_jobs`` bounds the number of
    records *yielded*, matching ``read_swf``'s bound on records kept.

    ``header``, when given, is filled in place with the ``; MaxNodes: N`` /
    ``; MaxProcs: N`` directive values (keys ``"nodes"`` / ``"procs"``) as
    they are encountered; it is complete once iteration finishes.
    """
    close = False
    if isinstance(source, (str, os.PathLike)):
        fh: TextIO = open(source, "r", encoding="utf-8", errors="replace")
        close = True
    else:
        fh = source
    if header is None:
        header = {}
    yielded = 0
    try:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith(";"):
                lowered = line.lower()
                if "maxnodes:" in lowered:
                    header["nodes"] = _header_int(line)
                elif "maxprocs:" in lowered:
                    header["procs"] = _header_int(line)
                continue
            record = _parse_line(line, lineno)
            if record is None:
                continue
            yield record
            yielded += 1
            if max_jobs is not None and yielded >= max_jobs:
                return
    finally:
        if close:
            fh.close()


def _infer_system_nodes(
    header: Dict[str, Optional[int]], cpus_per_node: int, max_procs: int
) -> int:
    """System size fallback chain: MaxNodes → MaxProcs → widest job."""
    header_nodes = header.get("nodes")
    header_procs = header.get("procs")
    if header_nodes:
        return header_nodes
    if header_procs:
        return max(1, header_procs // cpus_per_node)
    return max(1, -(-max_procs // cpus_per_node))


def read_swf(
    source: Union[str, os.PathLike, TextIO],
    name: Optional[str] = None,
    system_nodes: Optional[int] = None,
    cpus_per_node: int = 16,
    max_jobs: Optional[int] = None,
) -> Workload:
    """Read an SWF file (or file-like object) into a :class:`Workload`.

    Header directives of the form ``; MaxNodes: N`` and ``; MaxProcs: N``
    are honoured to infer the system size when ``system_nodes`` is not
    given.
    """
    if isinstance(source, (str, os.PathLike)):
        default_name = os.path.basename(os.fspath(source))
    else:
        default_name = "swf"
    header: Dict[str, Optional[int]] = {}
    records = list(iter_swf(source, max_jobs=max_jobs, header=header))
    if system_nodes is None:
        max_procs = max((r.requested_procs for r in records), default=cpus_per_node)
        system_nodes = _infer_system_nodes(header, cpus_per_node, max_procs)
    return Workload(
        name=name or default_name,
        records=records,
        system_nodes=system_nodes,
        cpus_per_node=cpus_per_node,
    )


def summarize_swf(
    source: Union[str, os.PathLike, TextIO],
    system_nodes: Optional[int] = None,
    cpus_per_node: int = 16,
    max_jobs: Optional[int] = None,
) -> Dict[str, float]:
    """Summary statistics of an SWF log, computed in one streaming pass.

    Returns exactly the dictionary ``read_swf(...).describe()`` would —
    bit-identically, because the means/median run the same NumPy reductions
    over the same values in the same order — without ever materialising the
    record list.  State is a handful of scalar accumulators plus two
    chunked float buffers (node counts and runtimes, needed for the exact
    mean/median), so a 100k-line log summarises in ~1.6 MiB of buffer
    instead of 100k ``JobRecord`` objects with their extra-field dicts.
    """
    from repro.metrics.streaming import ChunkedFloatBuffer

    header: Dict[str, Optional[int]] = {}
    count = 0
    max_procs = 0
    first_submit = 0.0
    last_submit = 0.0
    work = 0.0
    nodes = ChunkedFloatBuffer()
    runtimes = ChunkedFloatBuffer()
    for record in iter_swf(source, max_jobs=max_jobs, header=header):
        if count == 0:
            first_submit = record.submit_time
        last_submit = record.submit_time
        count += 1
        nodes.append(float(record.requested_nodes(cpus_per_node)))
        runtimes.append(record.run_time)
        if record.requested_procs > max_procs:
            max_procs = record.requested_procs
        work += record.area()
    if count == 0:
        return {"jobs": 0}
    if system_nodes is None:
        system_nodes = _infer_system_nodes(
            header, cpus_per_node, max_procs or cpus_per_node
        )
    node_values = nodes.as_array()
    runtime_values = runtimes.as_array()
    span = last_submit - first_submit
    system_cpus = system_nodes * cpus_per_node
    return {
        "jobs": count,
        "system_nodes": system_nodes,
        "system_cpus": system_cpus,
        "max_job_nodes": int(np.max(node_values)),
        "max_job_cpus": max_procs,
        "mean_job_nodes": float(np.mean(node_values)),
        "mean_runtime": float(np.mean(runtime_values)),
        "median_runtime": float(np.median(runtime_values)),
        "span_seconds": span,
        "offered_load": work / (system_cpus * span) if span > 0 else 0.0,
    }


def _header_int(line: str) -> Optional[int]:
    try:
        return int(float(line.split(":", 1)[1].strip().split()[0]))
    except (IndexError, ValueError):
        return None


def _num(value: float) -> str:
    """Compact numeric field: integers without a decimal point, floats exact.

    ``repr`` round-trips floats exactly through the reader's ``float()``, so
    a write → read cycle preserves fractional times and memory figures.
    """
    v = float(value)
    return str(int(v)) if v.is_integer() else repr(v)


def write_swf(
    workload: Workload,
    target: Union[str, os.PathLike, TextIO],
    comments: Sequence[str] = (),
) -> None:
    """Write a workload to SWF (canonical 18-column format).

    The fields the reader preserves in :attr:`JobRecord.extra` — average
    CPU time, used memory, requested memory, queue, partition, preceding
    job, think time — are written back out, so a read → write round-trip is
    lossless for them (missing entries are written as the SWF "unknown"
    value, ``-1``).
    """
    close = False
    if isinstance(target, (str, os.PathLike)):
        fh: TextIO = open(target, "w", encoding="utf-8")
        close = True
    else:
        fh = target
    try:
        fh.write("; Generated by repro (SD-Policy reproduction)\n")
        fh.write(f"; MaxNodes: {workload.system_nodes}\n")
        fh.write(f"; MaxProcs: {workload.system_cpus}\n")
        for comment in comments:
            fh.write(f"; {comment}\n")
        for r in workload.records:
            fields = [
                r.job_id,
                _num(r.submit_time),
                _num(r.wait_time) if r.wait_time >= 0 else -1,
                _num(r.run_time),
                r.used_procs if r.used_procs > 0 else r.requested_procs,
                _num(r.extra.get("avg_cpu_time", -1)),
                _num(r.extra.get("used_memory", -1)),
                r.requested_procs,
                _num(r.requested_time),
                _num(r.extra.get("requested_memory", -1)),
                r.status,
                r.user_id,
                r.group_id,
                r.executable,
                _num(r.extra.get("queue", -1)),
                _num(r.extra.get("partition", -1)),
                _num(r.extra.get("preceding_job", -1)),
                _num(r.extra.get("think_time", -1)),
            ]
            fh.write(" ".join(str(f) for f in fields) + "\n")
    finally:
        if close:
            fh.close()
