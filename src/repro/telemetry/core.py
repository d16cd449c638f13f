"""Counter/gauge/timer registry.

Timers keep raw observations (seconds) so :meth:`Telemetry.snapshot` can
report latency percentiles; the snapshot layout is fingerprinted into
``formats.lock`` via :data:`TELEMETRY_SNAPSHOT_FIELDS`, so drift without a
:data:`TELEMETRY_FORMAT_VERSION` bump fails CI.
"""

from __future__ import annotations

import time
from typing import Dict, List

__all__ = [
    "TELEMETRY_FORMAT_VERSION",
    "TELEMETRY_SNAPSHOT_FIELDS",
    "TIMER_STAT_FIELDS",
    "Telemetry",
    "percentile",
]

#: Version of the telemetry snapshot layout (bump on field changes).
TELEMETRY_FORMAT_VERSION = 1

#: Top-level keys of :meth:`Telemetry.snapshot`.
TELEMETRY_SNAPSHOT_FIELDS = ("counters", "gauges", "timers")

#: Per-timer summary keys inside a snapshot's ``"timers"`` mapping.
TIMER_STAT_FIELDS = ("count", "total", "mean", "p50", "p95", "p99", "max")


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile of a non-empty, sorted value list."""
    if not values:
        raise ValueError("percentile of an empty sequence")
    rank = max(0, min(len(values) - 1, int(round(q / 100.0 * len(values))) - 1))
    return values[rank]


class _Timer:
    """Context manager appending one elapsed-seconds observation."""

    __slots__ = ("_observations", "_started")

    def __init__(self, observations: List[float]) -> None:
        self._observations = observations
        self._started = 0.0

    def __enter__(self) -> "_Timer":
        self._started = time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._observations.append(time.perf_counter() - self._started)


class Telemetry:
    """In-process registry of named counters, gauges, and timers."""

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.gauges: Dict[str, float] = {}
        self.timers: Dict[str, List[float]] = {}

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    def gauge(self, name: str, value: float) -> None:
        self.gauges[name] = value

    def observe(self, name: str, seconds: float) -> None:
        self.timers.setdefault(name, []).append(seconds)

    def time(self, name: str) -> _Timer:
        return _Timer(self.timers.setdefault(name, []))

    def snapshot(self) -> Dict[str, Dict]:
        """Summarize the registry (percentiles per timer) as plain dicts."""
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
            "gauges": dict(sorted(self.gauges.items())),
            "timers": timers,
        }
