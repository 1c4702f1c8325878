"""Order statistics and span-interval arithmetic shared by both passes."""

from __future__ import annotations

import statistics
from typing import Iterable, Sequence

from repro.observability import SpanRecord

#: A tail percentile must leave at least this many rounds beyond it.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    return float(statistics.median(values))


def tail(latencies: Sequence[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """``(value, percentile)``: the highest percentile with ``beyond`` rounds above it.

    The value is the order statistic with exactly ``beyond`` larger rounds.
    With fewer than ``2 * beyond`` rounds that statistic would fall below
    the median, so the median (percentile 50) is reported instead.
    """
    ordered = sorted(latencies)
    n = len(ordered)
    rank = n - beyond
    if rank < (n + 1) // 2:
        return median(ordered), 50.0
    return float(ordered[rank - 1]), 100.0 * rank / n


def covered(start: float, duration: float, intervals: Iterable[tuple[float, float]]) -> float:
    """Length of ``[start, start + duration]`` covered by the union of ``intervals``.

    Each interval is ``(start, duration)``; parts outside the window are
    clipped, overlaps are counted once.
    """
    end = start + duration
    clipped = sorted(
        (max(s, start), min(s + d, end)) for s, d in intervals if s < end and s + d > start
    )
    total = 0.0
    cursor = start
    for lo, hi in clipped:
        lo = max(lo, cursor)
        if hi > lo:
            total += hi - lo
            cursor = hi
    return total


def self_time(span: SpanRecord, children: Sequence[SpanRecord]) -> float:
    """The span's duration minus the part of it its child spans cover."""
    return span.duration_s - covered(
        span.start_time_s, span.duration_s, [(c.start_time_s, c.duration_s) for c in children]
    )
