"""The Monte Carlo verdict every statistical check shares: a sample's mean
and standard error, the share of its gate that a deviation uses, the gate
being an allowance plus 3 standard errors, and the effective sample size
of a weighted sample.  numpy alone.
"""

from __future__ import annotations

import math

__all__ = ["mean_se", "budget", "ess"]


def mean_se(x) -> tuple[float, float]:
    """Sample mean and standard error of the mean of a 1-D sample."""
    return float(x.mean()), float(x.std(ddof=1) / math.sqrt(x.size))


def budget(deviation: float, se: float, allowance: float = 0.0) -> float:
    """Fraction deviation / (allowance + 3 se) of the gate consumed; the
    check passes iff it is at most 1.

    A zero gate happens in degenerate regimes (for instance the intensity is
    deterministic without self-excitation); the deviation must then vanish.
    """
    gate = allowance + 3 * se
    if gate == 0.0:
        return 0.0 if deviation == 0.0 else math.inf
    return deviation / gate


def ess(w) -> float:
    """Kong's effective sample size (sum w)^2 / sum w^2 of the weights w, 0
    when the squares sum to 0 (every weight 0, or underflowed)."""
    sum_sq = float((w**2).sum())
    return float(w.sum()) ** 2 / sum_sq if sum_sq else 0.0
