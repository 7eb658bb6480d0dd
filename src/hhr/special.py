"""Closed-form moment oracles built on the confluent hypergeometric series:
negative moments of the jump-free square-root variance (via its noncentral
chi-square transition) and the exponential moment of its integrated
reciprocal (via the quadratic-drift 3/2 process).  `verification` holds them
to a quadrature of the transition's Laplace transform and to a Feynman-Kac
solve, and hyp1f1 to elementary functions on both of its branches.
"""

from __future__ import annotations

import math

from .errors import DomainError, HypothesisViolated, NonConvergence

__all__ = ["hyp1f1", "cir_neg_moment", "integrated_inverse_cir_exp"]

_Z_MAX = 700.0  # exp overflow guard for the direct series
_ASYMPTOTIC_Z = 1000.0  # beyond this k/2, cir_neg_moment sums the large-z expansion
_ASYMPTOTIC_TOL = 1e-16  # which stops at the first term below this, relative
_SERIES_TOL = 1e-12  # a 1F1 series stops after two terms below this, relative
_SERIES_TERMS = 20000  # and raises NonConvergence after this many
_LOG_SERIES_TERMS = 200000  # the log-space 1F1 series raises NonConvergence after this many


def _series_1f1(a: float, b: float, z: float) -> float:
    """Direct Taylor summation with the term recursion.

    term_{n+1} = term_n * (a+n) / ((b+n)(n+1)) * z.  Stops once two successive
    terms are below tolerance while the tail is decaying.
    """
    total = 1.0
    term = 1.0
    small_streak = 0
    for n in range(_SERIES_TERMS):
        term *= (a + n) * z / ((b + n) * (n + 1.0))
        total += term
        if term == 0.0:  # terminating (polynomial) case
            return total
        if abs(term) < _SERIES_TOL * (1.0 + abs(total)):
            small_streak += 1
            if small_streak >= 2 and abs(a + n + 1) * abs(z) < (b + n + 1) * (n + 2):
                return total
        else:
            small_streak = 0
    raise NonConvergence(
        f"series for 1F1({a}, {b}; {z}) did not converge in {_SERIES_TERMS} terms"
    )


def hyp1f1(a: float, b: float, z: float) -> float:
    """Confluent hypergeometric function sum_n (a)_n/(b)_n z^n/n!.

    Every negative argument is routed through the Kummer transform
    1F1(a,b;z) = e^z 1F1(b-a,b;-z): already at z ~ -20 the alternating sum
    cancels through nine digits, while the transformed series has an
    eventually fixed sign and stays fully accurate.
    """
    if b <= 0 and b == round(b):
        raise DomainError(f"b must not be a nonpositive integer, got {b}")
    if abs(z) > _Z_MAX:
        raise DomainError(f"|z| <= {_Z_MAX:g} required, got {z}")
    if z == 0.0:
        return 1.0
    if a == b:
        return math.exp(z)
    if z < 0.0:
        return math.exp(z) * _series_1f1(b - a, b, -z)
    return _series_1f1(a, b, z)


def _log_hyp1f1_positive(a: float, b: float, z: float) -> float:
    """log 1F1(a, b; z) for a, b, z > 0, summed in log space.

    All terms are positive, so a running log-sum-exp accumulator is exact up
    to rounding and immune to overflow for large z.
    """
    log_sum = 0.0  # log of the n=0 term
    log_term = 0.0
    for n in range(_LOG_SERIES_TERMS):
        log_term += math.log((a + n) * z / ((b + n) * (n + 1.0)))
        if log_term > log_sum:
            log_sum = log_term + math.log1p(math.exp(log_sum - log_term))
        else:
            log_sum = log_sum + math.log1p(math.exp(log_term - log_sum))
        if log_term < log_sum - 40.0 and (a + n + 1) * z < (b + n + 1) * (n + 2):
            return log_sum
    raise NonConvergence(f"log-series for 1F1({a}, {b}; {z}) did not converge")


def _large_z_sum(a: float, b: float, z: float) -> float | None:
    """The sum in 1F1(a,b;z) ~ Gamma(b)/Gamma(a) e^z z^{a-b} sum_n (b-a)_n (1-a)_n / (n! z^n),
    up to the first term below _ASYMPTOTIC_TOL of it, or None if the terms
    stop decreasing first (the expansion is asymptotic, not convergent)."""
    total = term = 1.0
    n = 0
    while abs(term) > _ASYMPTOTIC_TOL * abs(total):
        nxt = term * (b - a + n) * (1.0 - a + n) / ((n + 1.0) * z)
        if abs(nxt) >= abs(term):
            return None
        term = nxt
        total += term
        n += 1
    return total


def cir_neg_moment(
    kappa: float, vbar: float, sigma: float, v0: float, t: float, s: float
) -> float:
    """E[1/v_t^s] for the jump-free square-root process, via its noncentral
    chi-square transition.

    With k(t) = 4 kappa v0 e^{-kappa t} / (sigma^2 (1 - e^{-kappa t})) and
    delta = 4 kappa vbar / sigma^2, requires 2 kappa vbar > s sigma^2:

        (k/(e^{-kappa t} v0))^s 2^{-s} e^{-k/2}
            * Gamma(delta/2 - s)/Gamma(delta/2) * 1F1(delta/2 - s, delta/2; k/2).

    Evaluated fully in log space.  For k/2 beyond the series budget the
    large-argument expansion of the 1F1 factor (see _large_z_sum) is used
    while its terms decrease; its leading factor turns the whole into
    (e^{-kappa t} v0)^{-s} times the expansion's sum, which reproduces the
    t -> 0 limit 1/v0^s.
    """
    if t <= 0:
        raise DomainError(f"t must be > 0, got {t}")
    if not 2.0 * kappa * vbar > s * sigma**2:
        raise HypothesisViolated(
            f"need 2*kappa*vbar > s*sigma^2, got {2*kappa*vbar:.6g} <= {s*sigma**2:.6g}"
        )
    emkt = math.exp(-kappa * t)
    k = 4.0 * kappa * v0 * emkt / (sigma**2 * -math.expm1(-kappa * t))
    delta = 4.0 * kappa * vbar / sigma**2
    aa = delta / 2.0 - s
    bb = delta / 2.0
    half_k = k / 2.0

    if half_k > _ASYMPTOTIC_Z:
        corr = _large_z_sum(aa, bb, half_k)
        if corr is not None:
            # the expansion's leading factor cancels the prefactor down to
            # (e^{-kappa t} v0)^{-s}, so no e^{k/2} or Gamma term is rounded
            return corr / (emkt * v0) ** s
    log_pref = (
        s * math.log(k / (emkt * v0))
        - s * math.log(2.0)
        + math.lgamma(aa)
        - math.lgamma(bb)
    )
    log_f = _log_hyp1f1_positive(aa, bb, half_k)
    return math.exp(log_pref - half_k + log_f)


def integrated_inverse_cir_exp(
    kappa: float, vbar: float, sigma: float, v0: float, T: float, c: float
) -> float:
    """E[exp(c * int_0^T du / v_u)] for the jump-free square-root process.

    The reciprocal variance is a quadratic-drift 3/2 process, whose integrated
    exponential moment is, for 2 kappa vbar > sigma^2 and
    c <= (1/2)((2 kappa vbar - sigma^2)/(2 sigma))^2,

        Gamma(gamma - alpha~)/Gamma(gamma) (2/(sigma^2 y))^alpha~
            * 1F1(alpha~, gamma; -2/(sigma^2 y)),

    with m = kappa vbar / sigma^2,
    alpha~ = -(m - 1/2) + sqrt((m - 1/2)^2 - 2 c / sigma^2),
    gamma = 2 (alpha~ + m), y = (e^{kappa T} - 1)/(v0 kappa).
    The c = 0 identity (value exactly 1) pins the Gamma(gamma) normalization.
    """
    if not 2.0 * kappa * vbar > sigma**2:
        raise HypothesisViolated(
            f"need 2*kappa*vbar > sigma^2, got {2*kappa*vbar:.6g} <= {sigma**2:.6g}"
        )
    c_max = 0.5 * ((2.0 * kappa * vbar - sigma**2) / (2.0 * sigma)) ** 2
    if c > c_max * (1 + 1e-12):
        raise HypothesisViolated(f"need c <= {c_max:.12g}, got {c:.12g}")
    m = kappa * vbar / sigma**2
    disc = max((m - 0.5) ** 2 - 2.0 * c / sigma**2, 0.0)
    alpha_t = -(m - 0.5) + math.sqrt(disc)
    gamma = 2.0 * (alpha_t + m)
    y = math.expm1(kappa * T) / (v0 * kappa)
    w = 2.0 / (sigma**2 * y)
    log_val = (
        math.lgamma(gamma - alpha_t)
        - math.lgamma(gamma)
        + alpha_t * math.log(w)
        + math.log(hyp1f1(alpha_t, gamma, -w))
    )
    return math.exp(log_val)
