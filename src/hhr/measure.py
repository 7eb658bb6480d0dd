"""Risk-neutral measure construction: exponential-moment cap, admissible
Girsanov parameters, market price of risk, and tilted variance dynamics.

The variance process admits exponential moments E[exp(c * int v du)] < inf
for c below a threshold c_l.  That threshold gates which Girsanov parameters
`a` produce (i) an equivalent local martingale measure (|a| < sqrt(2 c_l)),
(ii) a true martingale measure (set Em), and (iii) the smaller band EmQS
under which the event-process compensator is measure-invariant.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    AdmissibilityError,
    DegenerateReversion,
    DomainError,
    NonMonotoneLambda,
    RhoTooLarge,
)
from .model import JumpDistribution, ValidatedModel

__all__ = [
    "big_d",
    "lambda_cap",
    "compute_c_l",
    "em_qs_bound",
    "a_bounds",
    "AdmissibilityReport",
    "MeasureSelection",
    "select_measure",
    "theta",
    "q_dynamics",
    "LEVELS",
]

LEVELS = ("E", "Em", "EmQS")  # the admissibility levels select_measure certifies


def _cap(model: ValidatedModel) -> float:
    if model.sigma <= 0:
        raise DomainError("exponential-moment cap requires sigma > 0")
    return model.kappa**2 / (2.0 * model.sigma**2)


def big_d(model: ValidatedModel, c: float) -> float:
    """D(c) = sqrt(kappa^2 - 2 sigma^2 c), defined for c <= kappa^2/(2 sigma^2)."""
    cap = _cap(model)
    if c > cap * (1 + 1e-15):
        raise DomainError(f"c must be <= {cap:.12g}, got {c:.12g}")
    return math.sqrt(max(model.kappa**2 - 2.0 * model.sigma**2 * c, 0.0))


def lambda_cap(model: ValidatedModel, c: float) -> float:
    """Largest possible jump-MGF argument produced by c, written stably.

    Lambda(c) = 2 eta c (e^{DT} - 1) / (D - kappa + (D + kappa) e^{DT}).
    Multiplying through by e^{-DT} gives numerator -2 eta c expm1(-DT) and
    denominator D (1 + e^{-DT}) - kappa expm1(-DT), both cancellation-free;
    the D -> 0 corner has the analytic limit 2 eta c T / (2 + kappa T).
    """
    d = big_d(model, c)
    T = model.T
    if d == 0.0:
        return 2.0 * model.eta * c * T / (2.0 + model.kappa * T)
    em = math.expm1(-d * T)
    num = -2.0 * model.eta * c * em
    den = d * (1.0 + math.exp(-d * T)) - model.kappa * em
    return num / den


def _mgf_bound(model: ValidatedModel) -> float:
    """Right side (beta/alpha) exp(alpha/beta - 1) of the jump-MGF condition.

    With alpha = 0 there is no self-excitation and the condition is vacuous.
    """
    if model.alpha == 0:
        return math.inf
    x = model.beta / model.alpha
    return x * math.exp(1.0 / x - 1.0)


@dataclass(frozen=True)
class ClResult:
    value: float
    at_cap: bool
    scan_monotone: bool


def compute_c_l(
    model: ValidatedModel,
    dist: JumpDistribution,
    *,
    tol: float = 1e-10,
) -> ClResult:
    """sup{c <= kappa^2/(2 sigma^2) : Lambda(c) < eps_J and M_J(Lambda(c)) <= bound}.

    Lambda is first verified to be nondecreasing on a 1024-point scan (the
    predicate is then an interval and bisection applies); a failed scan falls
    back to a dense grid supremum with a warning.  Returns the cap exactly when the
    predicate holds there.
    """
    cap = _cap(model)
    bound = _mgf_bound(model)

    def ok(c: float) -> bool:
        lam = lambda_cap(model, c)
        if not lam < dist.epsilon_j:
            return False
        if math.isinf(bound):
            return True
        return dist.mgf(lam) <= bound

    cs = np.linspace(cap / 1024, cap, 1024)
    lams = np.array([lambda_cap(model, c) for c in cs])
    monotone = bool(np.all(np.diff(lams) >= -1e-12 * max(lams.max(), 1.0)))
    if not monotone:
        warnings.warn(
            "Lambda(c) failed the monotonicity scan; using dense grid supremum",
            NonMonotoneLambda,
        )
        grid = np.linspace(cap / 1_000_000, cap, 1_000_000)
        sup = 0.0
        for c in grid:
            if ok(float(c)):
                sup = float(c)
        return ClResult(sup, sup == cap, False)

    if ok(cap):
        return ClResult(cap, True, True)

    lo, hi = cap / 1024, cap
    if not ok(lo):
        # predicate holds near 0 by construction; shrink until it does
        while lo > 1e-300 and not ok(lo):
            lo /= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return ClResult(lo, False, True)


def em_qs_bound(c_l: float, rho: float, q: float, s: float) -> float:
    """|a| bound of the nested band parameterized by Holder exponents (q, s).

    min{ (1/(q s)) sqrt(c_l/2),
         sqrt((1-rho^2) c_l / (q s [2 q s (1-rho^2) + rho^2 s - 1])) }.
    The bracket is strictly positive for q, s > 1 and rho^2 < 1.
    """
    if q <= 1 or s <= 1:
        raise DomainError(f"need q, s > 1, got q={q}, s={s}")
    qs = q * s
    bracket = 2.0 * qs * (1.0 - rho**2) + rho**2 * s - 1.0
    first = math.sqrt(c_l / 2.0) / qs
    second = math.sqrt((1.0 - rho**2) * c_l / (qs * bracket))
    return min(first, second)


@dataclass(frozen=True)
class AdmissibilityReport:
    """Every admissibility quantity for a model + jump-law pair."""

    c_l: float
    cap: float
    c_l_at_cap: bool
    scan_monotone: bool
    bound_e: float
    bound_em: float | None
    bound_em_qs: float | None
    q1: float | None
    q2: float | None
    epsilon1: float
    epsilon2: float
    big_d: float
    conditions: dict = field(default_factory=dict)


def a_bounds(
    model: ValidatedModel,
    dist: JumpDistribution,
    *,
    epsilon1: float = 0.1,
    epsilon2: float = 0.1,
    c_l: float | None = None,
) -> AdmissibilityReport:
    """All admissible-|a| bounds plus the precondition flags.

    The Holder exponent Q2 is placed at the geometric mean of its interval
    (1, upper); Q1 = Q2/(Q2-1) is its conjugate.  With a zero drift gap the
    upper end is infinite and Q2 defaults to 2.
    """
    if c_l is None:
        res = compute_c_l(model, dist)
        c_l_val, at_cap, mono = res.value, res.at_cap, res.scan_monotone
    else:
        c_l_val, at_cap, mono = c_l, c_l == _cap(model), True

    rho = model.rho
    d_sup = model.drift_gap_sq
    s_mom = 2.0 + epsilon1
    feller_gap = (2.0 * model.kappa * model.vbar - model.sigma**2) / (2.0 * model.sigma)

    cond_rho = rho**2 < c_l_val
    if d_sup > 0:
        q2_upper = (1.0 - rho**2) / (d_sup * (s_mom**2 - s_mom)) * feller_gap**2
    else:
        q2_upper = math.inf
    cond_moment = q2_upper > 1.0
    cond_feller = 2.0 * model.kappa * model.vbar > (1.0 + epsilon2) * model.sigma**2

    conditions = {
        "correlation_below_threshold": cond_rho,
        "drift_gap_moment": cond_moment,
        "feller_margin": cond_feller,
    }

    bound_e = math.sqrt(2.0 * c_l_val)
    bound_em = (
        min(bound_e / 2.0, math.sqrt(c_l_val - rho**2)) if cond_rho else None
    )

    q1 = q2 = bound_em_qs = None
    if cond_rho and cond_moment:
        q2 = 2.0 if math.isinf(q2_upper) else math.sqrt(q2_upper)
        q1 = q2 / (q2 - 1.0)
        bound_em_qs = min(em_qs_bound(c_l_val, rho, q1, s_mom), bound_em)

    return AdmissibilityReport(
        c_l=c_l_val,
        cap=_cap(model),
        c_l_at_cap=at_cap,
        scan_monotone=mono,
        bound_e=bound_e,
        bound_em=bound_em,
        bound_em_qs=bound_em_qs,
        q1=q1,
        q2=q2,
        epsilon1=epsilon1,
        epsilon2=epsilon2,
        big_d=d_sup,
        conditions=conditions,
    )


@dataclass(frozen=True)
class MeasureSelection:
    """A certified Girsanov parameter with the band it was checked against."""

    a: float
    level: str  # "E" | "Em" | "EmQS"
    epsilon1: float = 0.1
    epsilon2: float = 0.1


def select_measure(
    model: ValidatedModel,
    dist: JumpDistribution,
    *,
    a: float | None = None,
    fraction: float | None = None,
    level: str = "EmQS",
    epsilon1: float = 0.1,
    epsilon2: float = 0.1,
    report: AdmissibilityReport | None = None,
) -> tuple[MeasureSelection, AdmissibilityReport]:
    """Certify `a` (or `fraction` of the level's bound) against its band."""
    if report is None:
        report = a_bounds(model, dist, epsilon1=epsilon1, epsilon2=epsilon2)
    if level == "E":
        bound = report.bound_e
    elif level == "Em":
        if report.bound_em is None:
            raise RhoTooLarge(
                f"rho^2={model.rho**2:.6g} >= c_l={report.c_l:.6g}",
                condition="correlation_below_threshold",
            )
        bound = report.bound_em
    elif level == "EmQS":
        for name, okc in report.conditions.items():
            if not okc:
                raise AdmissibilityError(
                    f"admissibility precondition failed: {name}", condition=name
                )
        bound = report.bound_em_qs
    else:
        raise ValueError(f"unknown level {level!r}")

    if (a is None) == (fraction is None):
        raise ValueError("give exactly one of a= or fraction=")
    if a is None:
        a = fraction * bound
    if not abs(a) < bound:
        raise AdmissibilityError(
            f"|a|={abs(a):.6g} not strictly below the {level} bound {bound:.6g}",
            condition=f"bound_{level.lower()}",
        )
    return MeasureSelection(float(a), level, epsilon1, epsilon2), report


def theta(model: ValidatedModel, selection: MeasureSelection, t: float, v: float):
    """Market price of risk (1/sqrt(1-rho^2)) ((mu_t - r)/sqrt(v) - a rho sqrt(v))."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise DomainError("variance must be > 0")
    sv = np.sqrt(v)
    gap = model.mu(t) - model.r
    out = (gap / sv - selection.a * model.rho * sv) / math.sqrt(1.0 - model.rho**2)
    return out if out.ndim else float(out)


def q_dynamics(model: ValidatedModel, selection: MeasureSelection) -> tuple[float, float]:
    """Tilted variance parameters (kappa + a sigma, kappa vbar / (kappa + a sigma)).

    The product kappa_a * vbar_a equals kappa * vbar identically, so the
    Feller margin is preserved under every admissible tilt.
    """
    kappa_a = model.kappa + selection.a * model.sigma
    if kappa_a <= 0:
        raise DegenerateReversion(
            f"kappa + a*sigma = {kappa_a:.6g} <= 0", condition="reversion"
        )
    return kappa_a, model.kappa * model.vbar / kappa_a
