"""Order statistics shared by the benchmark and its steadiness check."""

from __future__ import annotations

import statistics

TAIL_BEYOND = 10


def tail_percentile(values, beyond=TAIL_BEYOND):
    """Highest nearest-rank percentile with at least ``beyond`` values above it.

    Returns ``(value, percentile, count_beyond)``.  With n values sorted
    ascending this is the value at index ``n - beyond - 1``, whose
    nearest-rank percentile is ``100 (n - beyond) / n``.  When there are
    ``beyond`` values or fewer, no percentile qualifies; the maximum is
    returned with its true count beyond (0), so the caller can report that
    the rule was not met.
    """
    xs = sorted(values)
    if not xs:
        raise ValueError("no values")
    n = len(xs)
    if n <= beyond:
        return xs[-1], 100.0, 0
    k = n - beyond - 1
    return xs[k], 100.0 * (k + 1) / n, n - k - 1


def quartile_spread(values):
    """Distance between the first and third quartile, as a share of the median."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)
