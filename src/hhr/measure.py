"""Risk-neutral measure construction: exponential-moment cap, admissible
Girsanov parameters and tilted variance dynamics.

The variance process admits exponential moments E[exp(c * int v du)] < inf
for c below a threshold c_l.  That threshold gates which Girsanov parameters
`a` produce (i) an equivalent local martingale measure (|a| < sqrt(2 c_l)),
(ii) a true martingale measure (set Em), and (iii) the smaller band EmQS
under which the event-process compensator is measure-invariant.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import (
    AdmissibilityError,
    ConfigError,
    DegenerateReversion,
    DomainError,
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
    "MeasureConfig",
    "MeasureSelection",
    "select_measure",
    "q_dynamics",
    "LEVELS",
]

LEVELS = ("E", "Em", "EmQS")  # the admissibility levels select_measure certifies


@dataclass(frozen=True)
class MeasureConfig:
    """How the tilt is chosen: `a` itself, or `fraction_of_bound` of the
    bound of `level` (0.8 when neither is given; giving both is refused),
    certified with the margins epsilon1 (moments) and epsilon2 (Feller)."""

    level: str = "EmQS"
    a: float | None = None
    fraction_of_bound: float | None = None
    epsilon1: float = 0.1
    epsilon2: float = 0.1

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ConfigError(
                f"measure.level must be one of {', '.join(LEVELS)}, got {self.level!r}"
            )
        if self.a is None and self.fraction_of_bound is None:
            object.__setattr__(self, "fraction_of_bound", 0.8)
        elif self.a is not None and self.fraction_of_bound is not None:
            raise ConfigError("give measure.a or measure.fraction_of_bound, not both")
        for name in ("epsilon1", "epsilon2"):
            if not getattr(self, name) > 0:
                raise ConfigError(f"measure.{name} must be > 0, got {getattr(self, name)!r}")


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


def compute_c_l(
    model: ValidatedModel,
    dist: JumpDistribution,
    *,
    tol: float = 1e-10,
) -> ClResult:
    """sup{c <= kappa^2/(2 sigma^2) : Lambda(c) < eps_J and M_J(Lambda(c)) <= bound}.

    Lambda(c) = eta B(T; c), where B solves the CIR Riccati equation
    B' = c - kappa B + sigma^2 B^2 / 2, B(0) = 0, whose right side increases
    in c; by the comparison theorem Lambda is nondecreasing in c on
    (0, kappa^2/(2 sigma^2)], so the predicate holds on an interval and
    bisection finds its end.  Returns the cap exactly when the predicate
    holds there.
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

    if ok(cap):
        return ClResult(cap, True)

    lo, hi = cap / 1024, cap
    if not ok(lo):
        # predicate holds near 0 by construction; shrink until it does
        while lo > 1e-300 and not ok(lo):
            lo /= 2.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):  # adjacent floats further apart than tol
            break
        if ok(mid):
            lo = mid
        else:
            hi = mid
    return ClResult(lo, False)


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
    settings: MeasureConfig,
) -> AdmissibilityReport:
    """All admissible-|a| bounds plus the precondition flags.

    The Holder exponent Q2 is placed at the geometric mean of its interval
    (1, upper); Q1 = Q2/(Q2-1) is its conjugate.  With a zero drift gap the
    upper end is infinite and Q2 defaults to 2.
    """
    res = compute_c_l(model, dist)
    c_l_val, at_cap = res.value, res.at_cap

    rho = model.rho
    d_sup = model.drift_gap_sq
    s_mom = 2.0 + settings.epsilon1
    feller_gap = (2.0 * model.kappa * model.vbar - model.sigma**2) / (2.0 * model.sigma)

    cond_rho = rho**2 < c_l_val
    if d_sup > 0:
        q2_upper = (1.0 - rho**2) / (d_sup * (s_mom**2 - s_mom)) * feller_gap**2
    else:
        q2_upper = math.inf
    cond_moment = q2_upper > 1.0
    cond_feller = 2.0 * model.kappa * model.vbar > (1.0 + settings.epsilon2) * model.sigma**2

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
        bound_e=bound_e,
        bound_em=bound_em,
        bound_em_qs=bound_em_qs,
        q1=q1,
        q2=q2,
        epsilon1=settings.epsilon1,
        epsilon2=settings.epsilon2,
        big_d=d_sup,
        conditions=conditions,
    )


@dataclass(frozen=True)
class MeasureSelection:
    """A certified Girsanov parameter with the band it was checked against."""

    a: float
    level: str  # "E" | "Em" | "EmQS"
    epsilon1: float
    epsilon2: float


def select_measure(
    model: ValidatedModel,
    dist: JumpDistribution,
    settings: MeasureConfig,
) -> tuple[MeasureSelection, AdmissibilityReport]:
    """Certify the settings' `a` (or its fraction of the level's bound)
    against the level's band."""
    report = a_bounds(model, dist, settings)
    level = settings.level
    if level == "E":
        bound = report.bound_e
    elif level == "Em":
        if report.bound_em is None:
            raise RhoTooLarge(
                f"rho^2={model.rho**2:.6g} >= c_l={report.c_l:.6g}",
                condition="correlation_below_threshold",
            )
        bound = report.bound_em
    else:  # EmQS
        for name, okc in report.conditions.items():
            if not okc:
                raise AdmissibilityError(
                    f"admissibility precondition failed: {name}", condition=name
                )
        bound = report.bound_em_qs

    a = settings.fraction_of_bound * bound if settings.a is None else settings.a
    if not abs(a) < bound:
        raise AdmissibilityError(
            f"|a|={abs(a):.6g} not strictly below the {level} bound {bound:.6g}",
            condition=f"bound_{level.lower()}",
        )
    return MeasureSelection(float(a), level, settings.epsilon1, settings.epsilon2), report


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
