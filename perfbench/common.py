"""Shared pieces of the workloads: timing loop, latency statistics, output."""

from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable

#: Set-up runs at least ``SETUP_REPEATS`` times and until ``SETUP_SECONDS``
#: of set-up have accumulated; ``setup_s`` is the median.  A set-up of tens
#: of milliseconds (``write``) is dominated by fsync jitter, so it is
#: repeated more often than one of seconds.
SETUP_REPEATS = 3
SETUP_SECONDS = 2.0

#: Percentiles ``op_tail_ms`` may report, from low to high.  The tail is
#: the highest of these with at least ``TAIL_MIN_BEYOND`` samples above it:
#: p75 for ``expand`` (under 100 queries per run), p90 for ``write`` and
#: ``serve``.  Higher percentiles are left out: on a 2-core host p99 of
#: ``serve`` grew about five times as much as ``ops_per_s`` fell when the
#: host slowed, and its spread over six runs was 0.63 against 0.12 for p90.
TAIL_LADDER = (75.0, 90.0)
TAIL_MIN_BEYOND = 10
#: ``op_tail_ms`` is the median of the percentile over up to this many
#: consecutive windows of the run, each with at least ``TAIL_MIN_BEYOND``
#: samples beyond the percentile: a stall of a fraction of a second on a
#: shared host then moves one window, not the whole run's percentile.
TAIL_WINDOWS = 5


class CheckFailed(Exception):
    """An output check failed: the run reports ``correct: false``."""


@dataclass
class Measurement:
    """What one timed loop produced."""

    latencies: list[float] = field(default_factory=list)
    #: ``perf_counter`` at which each latency in :attr:`latencies` ended.
    ends: list[float] = field(default_factory=list)
    #: Latency of each completed step, keyed by its index in the loop.
    by_step: dict[int, float] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    elapsed: float = 0.0
    #: True when the loop stopped at its step limit before its time was up.
    exhausted: bool = False

    @property
    def ops_per_s(self) -> float:
        done = self.attempted - self.failed
        return done / self.elapsed if self.elapsed > 0 else 0.0


def closed_loop(
    seconds: float, step: Callable[[int], None], *, limit: int | None = None
) -> Measurement:
    """Run ``step(i)`` back to back for *seconds*; time each call.

    A step that raises counts as failed (and as missing every latency
    limit); a :class:`CheckFailed` aborts the run.  *limit* caps the
    number of steps when the inputs prepared in set-up run out; stopping
    there before *seconds* are up marks the result :attr:`~Measurement.exhausted`.
    """
    result = Measurement()
    start = time.perf_counter()
    deadline = start + seconds
    i = 0
    while time.perf_counter() < deadline and (limit is None or i < limit):
        t0 = time.perf_counter()
        try:
            step(i)
        except CheckFailed:
            raise
        except Exception as exc:  # counted, reported, never hidden
            result.failed += 1
            print(f"operation {i} failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        else:
            end = time.perf_counter()
            latency = end - t0
            result.latencies.append(latency)
            result.ends.append(end)
            result.by_step[i] = latency
        result.attempted += 1
        i += 1
    now = time.perf_counter()
    result.elapsed = now - start
    result.exhausted = now < deadline
    return result


def tail_percentile(n: int) -> float:
    """Highest ladder percentile with at least 10 of *n* samples beyond it."""
    chosen = 50.0
    for percentile in TAIL_LADDER:
        if n * (1.0 - percentile / 100.0) >= TAIL_MIN_BEYOND:
            chosen = percentile
    return chosen


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def windowed_tail(measurement: Measurement) -> tuple[float, float, int]:
    """The tail percentile, its median over windows, and the window count."""
    n = len(measurement.latencies)
    pct = tail_percentile(n)
    windows = max(1, min(TAIL_WINDOWS, int(n * (1.0 - pct / 100.0)) // TAIL_MIN_BEYOND))
    ordered = [latency for _, latency in sorted(zip(measurement.ends, measurement.latencies))]
    size = n // windows
    values = [
        percentile(ordered[k * size : n if k == windows - 1 else (k + 1) * size], pct)
        for k in range(windows)
    ]
    return statistics.median(values), pct, windows


def latency_metrics(measurement: Measurement) -> tuple[dict[str, float], str]:
    """``op_p50_ms``, ``op_tail_ms``, ``ops_per_s``, ``success_ratio`` + a note."""
    samples = measurement.latencies
    if not samples:
        raise CheckFailed("no operation completed")
    tail, pct, windows = windowed_tail(measurement)
    metrics = {
        "op_p50_ms": statistics.median(samples) * 1000.0,
        "op_tail_ms": tail * 1000.0,
        "ops_per_s": measurement.ops_per_s,
        "success_ratio": (measurement.attempted - measurement.failed) / measurement.attempted,
    }
    note = (
        f"op_tail_ms is the median p{pct:g} of {windows} windows of "
        f"{len(samples) // windows} operations ({len(samples)} completed); "
        f"failed_ratio = {measurement.failed}/{measurement.attempted} "
        f"= {measurement.failed / measurement.attempted:.6f}"
    )
    return metrics, note


def peak_rss_mb(children: bool = False) -> float:
    """Peak resident set size (MB) of this process or of its waited children."""
    who = resource.RUSAGE_CHILDREN if children else resource.RUSAGE_SELF
    return resource.getrusage(who).ru_maxrss / 1024.0


def timed(function: Callable[[], Any]) -> tuple[Any, float]:
    """Call *function*; return its result and the seconds it took."""
    start = time.perf_counter()
    value = function()
    return value, time.perf_counter() - start
