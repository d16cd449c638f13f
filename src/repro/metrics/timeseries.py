"""Per-day time series (Figure 7 of the paper).

Figure 7 plots, for workload 4, the average slowdown per day of static
backfill and of SD-Policy, together with the number of jobs scheduled with
malleability each day.  Jobs are assigned to the day of their submission.
Every series is computed from a run's
:data:`~repro.metrics.streaming.JOB_RECORD_DTYPE` rows.
"""

from __future__ import annotations

import math
from typing import Dict, List

import numpy as np

SECONDS_PER_DAY = 86400.0


def _origin(rows: np.ndarray, origin: float | None) -> float:
    return float(rows["submit"].min()) if origin is None else origin


def _days(rows: np.ndarray, origin: float) -> np.ndarray:
    return ((rows["submit"] - origin) // SECONDS_PER_DAY).astype(np.int64)


def daily_slowdown(rows: np.ndarray, origin: float | None = None) -> Dict[int, float]:
    """Average slowdown per submission day.

    ``origin`` defaults to the earliest submission time so day 0 is the
    first day of the workload.  Each day sums its jobs in row order.
    """
    if not len(rows):
        return {}
    days, index = np.unique(_days(rows, _origin(rows, origin)), return_inverse=True)
    sums = np.bincount(index, weights=rows["slowdown"])
    counts = np.bincount(index)
    return {int(day): float(s / n) for day, s, n in zip(days, sums, counts)}


def daily_malleable_counts(rows: np.ndarray, origin: float | None = None) -> Dict[int, int]:
    """Number of jobs scheduled with malleability per submission day."""
    if not len(rows):
        return {}
    base = _origin(rows, origin)
    days, counts = np.unique(
        _days(rows[rows["scheduled_malleable"] == 1], base), return_counts=True
    )
    return {int(day): int(n) for day, n in zip(days, counts)}


def daily_series_table(
    static_rows: np.ndarray,
    sd_rows: np.ndarray,
    origin: float | None = None,
) -> List[Dict[str, float]]:
    """Rows combining both runs per day: the data behind Figure 7.

    Each row has ``day``, ``static_slowdown``, ``sd_slowdown`` and
    ``malleable_jobs``.  The day axis is aligned on one *shared* origin —
    the earliest submission among the completed jobs of *both* runs — so
    two runs whose earliest completed job differs (e.g. one run never
    finishes the first job) still report the same calendar days on the
    same rows.  Pass ``origin`` explicitly to pin day 0 elsewhere.
    """
    if origin is None:
        submits = np.concatenate([static_rows["submit"], sd_rows["submit"]])
        origin = float(submits.min()) if len(submits) else 0.0
    static = daily_slowdown(static_rows, origin=origin)
    sd = daily_slowdown(sd_rows, origin=origin)
    malleable = daily_malleable_counts(sd_rows, origin=origin)
    rows: List[Dict[str, float]] = []
    for day in sorted(set(static) | set(sd)):
        rows.append(
            {
                "day": day,
                "static_slowdown": static.get(day, math.nan),
                "sd_slowdown": sd.get(day, math.nan),
                "malleable_jobs": malleable.get(day, 0),
            }
        )
    return rows
