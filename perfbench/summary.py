"""Order statistics and naming rules shared by the benchmark and its tests."""

from __future__ import annotations

import math
import re
import statistics
from fractions import Fraction

#: Metric names: letters, digits, '_', '.' and '-', starting with a letter
#: or a digit, at most 64 characters.
METRIC_NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

#: The percentiles a timing may be reported at, lowest first.
PERCENTILES = (50, 90, 99, 99.9)

#: A percentile is reported only with at least this many samples beyond it.
MIN_BEYOND = 10


def valid_metric_name(name: str) -> bool:
    return METRIC_NAME.fullmatch(name) is not None


def _rank(n: int, p: float) -> int:
    """1-based nearest rank of the p-th percentile among n samples."""
    return max(1, math.ceil(Fraction(str(p)) * n / 100))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with at least p% of
    the samples at or below it."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    return ordered[_rank(len(ordered), p) - 1]


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the nearest-rank p-th percentile."""
    return n - _rank(n, p)


def top_percentile(n: int):
    """The highest of PERCENTILES with at least MIN_BEYOND samples beyond
    it among n samples, or None when even the median has fewer."""
    best = None
    for p in PERCENTILES:
        if samples_beyond(n, p) >= MIN_BEYOND:
            best = p
    return best


def quartile_spread(values) -> float:
    """(Q3 - Q1) / median, with quartiles as statistics.quantiles gives."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def describe(values, unit: str) -> str:
    """'median X unit, pNN Y unit, n=N' by the percentile rule."""
    n = len(values)
    text = f"median {statistics.median(values):.6g} {unit}"
    top = top_percentile(n)
    if top is not None and top != 50:
        text += f", p{top:g} {percentile(values, top):.6g} {unit}"
    return f"{text}, n={n}"
