"""Request-level instrumentation for any :class:`ResultStore` backend.

:class:`InstrumentedStore` re-implements the five object-name primitives
(plus the bulk ``_entries``) of a wrapped store as counted, timed
delegations, so every operation of the inherited typed API is counted for
free; on :class:`~repro.store.http_store.HTTPObjectStore` it hooks
``on_retry`` to count transient-failure retries too.  It serves
diagnostics (``store stats``, tests, benchmarks), never the sweep hot
path.  Timers keep raw observations so :meth:`InstrumentedStore.snapshot`
can report latency percentiles; the snapshot layout is fingerprinted into
``formats.lock`` via :data:`TELEMETRY_SNAPSHOT_FIELDS`, so drift without a
:data:`TELEMETRY_FORMAT_VERSION` bump fails CI.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.store.base import ObjectStat, ResultStore

__all__ = [
    "TELEMETRY_FORMAT_VERSION",
    "TELEMETRY_SNAPSHOT_FIELDS",
    "TIMER_STAT_FIELDS",
    "InstrumentedStore",
    "percentile",
]

#: Version of the telemetry snapshot layout (bump on field changes).
TELEMETRY_FORMAT_VERSION = 1

#: Top-level keys of :meth:`InstrumentedStore.snapshot`.
TELEMETRY_SNAPSHOT_FIELDS = ("counters", "gauges", "timers")

#: Per-timer summary keys inside a snapshot's ``"timers"`` mapping.
TIMER_STAT_FIELDS = ("count", "total", "mean", "p50", "p95", "p99", "max")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty, sorted value list."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    rank = max(0, min(len(values) - 1, int(round(q / 100.0 * len(values))) - 1))
    return values[rank]


class InstrumentedStore(ResultStore):
    """Counts requests, bytes, retries, and latency per store operation."""

    def __init__(self, inner: ResultStore) -> None:
        self.inner = inner
        self.url = inner.url
        self.counters: Dict[str, int] = {}
        self.timers: Dict[str, List[float]] = {}
        # HTTPObjectStore exposes a retry hook; other backends never retry.
        if hasattr(inner, "on_retry"):
            inner.on_retry = self._record_retry

    def _count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def _timed(self, op: str, call: Callable[..., Any], *args: Any) -> Any:
        """One counted request to the wrapped backend, timed under ``op``."""
        self._count("requests")
        started = time.perf_counter()
        try:
            return call(*args)
        finally:
            self.timers.setdefault(op, []).append(time.perf_counter() - started)

    def _record_retry(self, method: str, url: str, attempt: int) -> None:
        self._count("retries")

    # ------------------------------------------------------------------ #
    def _read(self, name: str) -> Optional[bytes]:
        data = self._timed("read", self.inner._read, name)
        if data is not None:
            self._count("bytes_read", len(data))
        return data

    def _write(self, name: str, data: bytes) -> None:
        self._count("bytes_written", len(data))
        self._timed("write", self.inner._write, name, data)

    def _delete(self, name: str) -> bool:
        return self._timed("delete", self.inner._delete, name)

    def _names(self, prefix: str = "") -> List[str]:
        return self._timed("list", self.inner._names, prefix)

    def _stat(self, name: str) -> Optional[ObjectStat]:
        return self._timed("stat", self.inner._stat, name)

    def _entries(self, prefix: str = "") -> List[Tuple[str, Optional[ObjectStat]]]:
        return self._timed("list", self.inner._entries, prefix)

    # ------------------------------------------------------------------ #
    def snapshot(self) -> Dict[str, Dict]:
        """The wrapped traffic so far, with latency percentiles per timer."""
        timers: Dict[str, Dict[str, float]] = {}
        for name, observations in sorted(self.timers.items()):
            ordered = sorted(observations)
            timers[name] = {
                "count": len(ordered),
                "total": sum(ordered),
                "mean": sum(ordered) / len(ordered),
                "p50": percentile(ordered, 50),
                "p95": percentile(ordered, 95),
                "p99": percentile(ordered, 99),
                "max": ordered[-1],
            }
        return {
            "counters": dict(sorted(self.counters.items())),
            "gauges": {},
            "timers": timers,
        }
