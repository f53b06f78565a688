"""The benchmark's own arithmetic: percentiles and the sample-count
rule, windowed tails and rates, and send lag.

Everything here is pure (lists of floats in, numbers out) so that
``selftest.py`` can pin it without a daemon.
"""

from __future__ import annotations

import math
import statistics
from typing import List, Sequence

#: A request that failed or was refused has no latency; it counts as
#: missing every latency limit, so it enters the percentile as +inf.
MISS = math.inf

#: A percentile is reportable only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values: Sequence[float], q: float) -> float:
    """Linear-interpolated ``q``-th percentile (numpy's default rule).

    ``values`` may contain :data:`MISS`; an interpolation that touches
    one returns ``inf``, so misses push the tail past any limit.
    """
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * q / 100.0
    lo = int(math.floor(pos))
    hi = min(lo + 1, len(ordered) - 1)
    frac = pos - lo
    if frac == 0.0:
        return ordered[lo]
    if math.isinf(ordered[hi]) or math.isinf(ordered[lo]):
        return MISS
    return ordered[lo] + (ordered[hi] - ordered[lo]) * frac


def samples_beyond(n: int, q: float) -> float:
    """How many of ``n`` samples lie beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0


def supports(n: int, q: float) -> bool:
    """True when ``n`` samples leave at least :data:`MIN_BEYOND` beyond
    the ``q``-th percentile (p99 needs 1000, p95 needs 200)."""
    return samples_beyond(n, q) >= MIN_BEYOND - 1e-9


def window_tails(values: Sequence[float], q: float,
                 max_windows: int = 5) -> List[float]:
    """The ``q``-th percentile of each of as many consecutive windows of
    ``values`` (up to ``max_windows``) as leave every window
    :data:`MIN_BEYOND` samples beyond ``q``."""
    windows = max(1, min(max_windows,
                         int(samples_beyond(len(values), q) // MIN_BEYOND)))
    size = len(values) // windows
    return [percentile(values[k * size:(k + 1) * size], q)
            for k in range(windows)]


def windowed_percentile(values: Sequence[float], q: float,
                        max_windows: int = 5) -> float:
    """The lower quartile of :func:`window_tails`: with five windows, the
    second-best window's ``q``-th percentile.

    ``values`` are in send order.  Noise on a shared host comes in
    episodes of 10-15 s that raise the tail of the windows they overlap
    (up to three of five in a 20 s phase) while the windows outside them
    read the program's own tail; the median of the windows would follow
    the episodes.  A program that is slower on every request, or stalls
    more often than once per window, still moves every window.
    """
    return percentile(window_tails(values, q, max_windows), 25.0)


def send_lags(due: Sequence[float], free: Sequence[float],
              sent: Sequence[float]) -> List[float]:
    """Per-request generator lag in the same unit as the inputs.

    A request may leave at ``max(due, free)``: when it was due, or when
    a connection came free if the system still held both.  Waiting for a
    busy connection is the system's backlog and is charged to latency;
    anything later than ``max(due, free)`` is the generator's own
    lateness.
    """
    return [max(0.0, s - max(d, f)) for d, f, s in zip(due, free, sent)]


def window_rates(done: Sequence[float], latencies_ms: Sequence[float],
                 start: float, end: float, limit_ms: float, q: float,
                 width: float = 1.0) -> List[float]:
    """Successful requests per second in each whole ``width``-second
    window of ``[start, end)``, by completion time.

    A window whose ``q``-th percentile of latency (misses as inf) is
    above ``limit_ms`` misses the objective and counts as 0, so failed,
    refused and wrong requests cost a window its rate once they pass
    ``100 - q`` percent of it.
    """
    windows = int((end - start) // width)
    members: List[List[float]] = [[] for _ in range(windows)]
    for t, ms in zip(done, latencies_ms):
        k = int((t - start) // width)
        if 0 <= k < windows:
            members[k].append(ms)
    return [0.0 if not ms or percentile(ms, q) > limit_ms
            else sum(1 for x in ms if x != MISS) / width
            for ms in members]


def median(values: Sequence[float]) -> float:
    return statistics.median(values)


def interquartile_mean(values: Sequence[float]) -> float:
    """The mean of ``values`` without their lowest and highest quarter:
    as robust to a few outliers as the median, but it averages the
    middle instead of reading one sample."""
    ordered = sorted(values)
    cut = len(ordered) // 4
    middle = ordered[cut:len(ordered) - cut]
    return sum(middle) / len(middle)


def peak_relative_error(got, want) -> float:
    """``max|got - want| / max|want|`` for two equal-shape arrays."""
    import numpy as np
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return math.inf
    peak = float(np.abs(want).max()) if want.size else 0.0
    diff = float(np.abs(got - want).max()) if want.size else 0.0
    return diff / peak if peak > 0 else diff
