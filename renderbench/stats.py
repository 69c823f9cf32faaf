"""Summary statistics with an explicit tail rule.

A timing is reported as its median and as the highest percentile that
still has at least :data:`MIN_BEYOND` samples beyond it, together with
the sample count.  Percentiles use the nearest-rank definition, so the
reported value is always one of the measured samples.
"""

from __future__ import annotations

import math

#: Samples that must lie strictly beyond a reported tail percentile.
MIN_BEYOND = 10

#: Tail levels considered, highest first: the usual p99.9/p99/p95/p90/
#: p50.  A fixed, coarse grid keeps the level of a workload stable when a
#: faster program serves more samples, and leaves more than ten samples
#: beyond the level for most counts (a p98 of 524 samples rests on ten;
#: its p95 on twenty-six).
TAIL_LEVELS = (0.999, 0.99, 0.95, 0.9, 0.5)


def median(values):
    """Median of a non-empty sequence (mean of the middle pair)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def mean(values):
    values = list(values)
    if not values:
        raise ValueError("mean of no samples")
    return sum(values) / float(len(values))


def rank(n, q):
    """0-based nearest-rank index of the ``q`` percentile of ``n``
    samples."""
    if n < 1:
        raise ValueError("percentile of no samples")
    if not 0.0 < q <= 1.0:
        raise ValueError("percentile level %r outside (0, 1]" % (q,))
    return max(0, int(math.ceil(q * n - 1e-9)) - 1)


def beyond(n, q):
    """How many of ``n`` samples lie beyond the ``q`` percentile's rank."""
    return n - 1 - rank(n, q)


def tail_level(n, min_beyond=MIN_BEYOND, levels=TAIL_LEVELS):
    """The highest level in ``levels`` with at least ``min_beyond`` of
    ``n`` samples beyond it, or None when even the lowest has fewer."""
    for q in levels:
        if beyond(n, q) >= min_beyond:
            return q
    return None


def tail(values, min_beyond=MIN_BEYOND, levels=TAIL_LEVELS, level_n=None):
    """``(level, value)`` of the tail rule over ``values``; with too few
    samples for any level, the maximum at level 1.0.

    ``level_n`` picks the level as if there were that many samples.  A
    run that repeats whole passes gives one pass's sample count, so the
    level stays the same whether the run fits one pass or two: taken
    from all samples, a second pass turned ``drag``'s p95 into a p99
    and its tail jumped from ~14 to ~25 ms between otherwise alike
    runs."""
    ordered = sorted(values)
    level = tail_level(
        len(ordered) if level_n is None else min(level_n, len(ordered)),
        min_beyond, levels,
    )
    if level is None:
        return 1.0, float(ordered[-1])
    return level, float(ordered[rank(len(ordered), level)])


def level_label(level):
    """``0.99`` -> ``"p99"``, ``0.999`` -> ``"p99.9"``."""
    text = ("%.1f" % (level * 100.0)).rstrip("0").rstrip(".")
    return "p" + text


def quartile_spread(values):
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``, exclusive method)."""
    import statistics

    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else float("inf")
