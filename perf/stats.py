"""Order statistics and the regression rule shared by runs and ``compare``."""

from __future__ import annotations

import math
import statistics

__all__ = ["median", "percentile", "spread", "verdict"]


def median(values) -> float:
    return statistics.median(values)


def percentile(values, p: float) -> float:
    """Nearest-rank percentile: the smallest sample with ``p``% at or below.

    With n = 48, p75 is the 36th smallest sample and 12 samples lie
    beyond it: the highest percentile with at least ten samples beyond
    is what a run reports next to the median.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def spread(values) -> float:
    """Inter-quartile distance as a share of the median (0 for one run)."""
    values = list(values)
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    mid = median(values)
    return (q3 - q1) / abs(mid) if mid else math.inf


def verdict(parent, change, *, better: str, bound: float) -> tuple[str, float]:
    """Classify one metric on one workload; returns ``(verdict, change)``.

    ``change`` is the change's median relative to the parent's, signed so
    that positive means worse.  The verdict is ``regression`` when it is
    worse by more than ``bound``, ``better`` when better by more than
    ``bound``, else ``ok``.  When the parent's own runs spread wider than
    the bound the medians cannot be told apart: the verdict is then
    ``unresolved`` unless every run of one side beats every run of the
    other.
    """
    if better not in ("lower", "higher"):
        raise ValueError(f"better must be 'lower' or 'higher', got {better!r}")
    sign = 1.0 if better == "lower" else -1.0
    base = median(parent)
    worse = sign * (median(change) - base) / abs(base) if base else 0.0
    if spread(parent) > bound:
        if all(sign * c < sign * p for c in change for p in parent):
            return "better", worse
        if worse > bound and all(
            sign * c > sign * p for c in change for p in parent
        ):
            return "regression", worse
        return "unresolved", worse
    if worse > bound:
        return "regression", worse
    if worse < -bound:
        return "better", worse
    return "ok", worse
