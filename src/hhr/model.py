"""Model parameters, jump-size laws, and static validity checks.

The asset follows Heston dynamics whose variance receives jumps eta*dL from a
compound self-exciting (Hawkes) process: intensity jumps by alpha at each
event and decays at rate beta toward the baseline lambda0.  Each jump-size
law carries the integrals the pricing equation takes over it: a quadrature
rule for the jump integral and the tail mass beyond the variance axis's
truncation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError, InvalidModel

__all__ = [
    "PiecewiseFlat",
    "ModelParams",
    "ValidatedModel",
    "Violation",
    "violations",
    "validate",
    "JumpDistribution",
    "ConstantJump",
    "ExponentialJump",
]

_GL_NODES = 32  # Gauss-Laguerre nodes of the exponential law's quadrature


@dataclass(frozen=True)
class PiecewiseFlat:
    """Piecewise-constant function of time given as (breakpoint, value) pairs.

    The value at t is the one attached to the largest breakpoint <= t; the
    first breakpoint must be 0.
    """

    breakpoints: tuple[float, ...]
    values: tuple[float, ...]
    _breaks: np.ndarray = field(init=False, repr=False, compare=False)
    _values: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_breaks", np.asarray(self.breakpoints, dtype=float))
        object.__setattr__(self, "_values", np.asarray(self.values, dtype=float))

    @classmethod
    def from_pairs(cls, pairs) -> "PiecewiseFlat":
        pairs = sorted((float(t), float(v)) for t, v in pairs)
        if not pairs:
            raise ValueError("need at least one (t, value) pair")
        if pairs[0][0] != 0.0:
            raise ValueError("first breakpoint must be t=0")
        ts, vs = zip(*pairs)
        if len(set(ts)) != len(ts):
            raise ValueError("duplicate breakpoints")
        return cls(ts, vs)

    @classmethod
    def constant(cls, value: float) -> "PiecewiseFlat":
        return cls((0.0,), (float(value),))

    def __call__(self, t):
        # searchsorted returns at most len(breakpoints); a t before 0 gives -1
        idx = np.searchsorted(self._breaks, t, side="right") - 1
        return self._values[np.maximum(idx, 0)]

    def sup_sq_gap(self, r: float) -> float:
        """sup_t (value(t) - r)^2, exact for the piecewise representation."""
        return max((v - r) ** 2 for v in self.values)


@dataclass(frozen=True)
class Violation:
    code: str
    message: str


@dataclass(frozen=True)
class ModelParams:
    """All scalar parameters of the jump-augmented Heston model.

    Units: rates and speeds are per year, T in years.  mu is the real-world
    drift of the stock, represented piecewise-constant so that the drift-gap
    bound sup_t (mu_t - r)^2 is exact.
    """

    lambda0: float
    alpha: float
    beta: float
    S0: float
    r: float
    rho: float
    v0: float
    kappa: float
    vbar: float
    sigma: float
    eta: float
    T: float
    mu: PiecewiseFlat = field(default=None)

    def __post_init__(self):
        if self.mu is None:
            object.__setattr__(self, "mu", PiecewiseFlat.constant(self.r))

    @property
    def drift_gap_sq(self) -> float:
        """D = sup_t (mu_t - r)^2."""
        return self.mu.sup_sq_gap(self.r)


def violations(p: ModelParams) -> list[Violation]:
    """Complete list of violated validity conditions (empty when valid).

    sigma = 0 and eta = 0 are allowed: they give the deterministic-variance
    and pure-Heston degenerate modes used as reduction oracles.
    """
    out = []

    def rng(cond, code, msg):
        if not cond:
            out.append(Violation(code, msg))

    rng(p.lambda0 > 0, "range_error", f"lambda0 must be > 0, got {p.lambda0}")
    rng(p.alpha >= 0, "range_error", f"alpha must be >= 0, got {p.alpha}")
    rng(p.beta > 0, "range_error", f"beta must be > 0, got {p.beta}")
    rng(p.S0 > 0, "range_error", f"S0 must be > 0, got {p.S0}")
    rng(p.v0 > 0, "range_error", f"v0 must be > 0, got {p.v0}")
    rng(p.kappa > 0, "range_error", f"kappa must be > 0, got {p.kappa}")
    rng(p.vbar > 0, "range_error", f"vbar must be > 0, got {p.vbar}")
    rng(p.sigma >= 0, "range_error", f"sigma must be >= 0, got {p.sigma}")
    rng(p.eta >= 0, "range_error", f"eta must be >= 0, got {p.eta}")
    rng(p.T > 0, "range_error", f"T must be > 0, got {p.T}")
    rng(-1 < p.rho < 1, "range_error", f"rho must lie in (-1, 1), got {p.rho}")
    if p.beta > 0 and not p.alpha < p.beta:
        out.append(
            Violation(
                "stability_violated",
                f"alpha/beta must be < 1, got {p.alpha}/{p.beta}",
            )
        )
    if p.kappa > 0 and p.vbar > 0 and not 2 * p.kappa * p.vbar >= p.sigma**2:
        out.append(
            Violation(
                "feller_violated",
                f"need 2*kappa*vbar >= sigma^2, got "
                f"{2 * p.kappa * p.vbar:.6g} < {p.sigma**2:.6g}",
            )
        )
    if not math.isfinite(p.drift_gap_sq):
        out.append(Violation("range_error", "drift function must be bounded"))
    return out


@dataclass(frozen=True)
class ValidatedModel:
    """Certificate wrapper: construction implies all validity checks passed."""

    params: ModelParams

    def __getattr__(self, name):
        return getattr(self.params, name)


def validate(p: ModelParams) -> ValidatedModel:
    """Certify a parameter set, or raise InvalidModel with every violation."""
    v = violations(p)
    if v:
        raise InvalidModel(v)
    return ValidatedModel(p)


class JumpDistribution:
    """Law of the positive i.i.d. jump marks J_i.

    The moment generating function M(t) = E[exp(t*J)] must be finite exactly
    on (-inf, epsilon_j); all positive moments are then finite.
    """

    @property
    def epsilon_j(self) -> float:
        raise NotImplementedError

    @property
    def mean(self) -> float:
        return self.moment(1)

    def mgf(self, t: float) -> float:
        raise NotImplementedError

    def moment(self, s: int) -> float:
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, n: int) -> np.ndarray:
        raise NotImplementedError

    def quadrature(self) -> tuple[np.ndarray, np.ndarray]:
        """(nodes, weights) of E[f(J)] ~ sum_i weights[i] f(nodes[i])."""
        raise NotImplementedError

    def tail(self, y0: float, eta: float, y_max: float) -> float:
        """P(y0 + eta J >= y_max) for eta > 0: the mass of the jumps from y0
        that reach the truncation y_max."""
        raise NotImplementedError

    def _check_mgf_domain(self, t: float) -> None:
        if t >= self.epsilon_j:
            raise DomainError(
                f"mgf defined on (-inf, {self.epsilon_j:.6g}), got t={t:.6g}"
            )


@dataclass(frozen=True)
class ConstantJump(JumpDistribution):
    """Degenerate law: every mark equals `size` > 0.  MGF finite everywhere."""

    size: float

    def __post_init__(self):
        if self.size <= 0:
            raise ValueError(f"jump size must be > 0, got {self.size}")

    @property
    def epsilon_j(self) -> float:
        return math.inf

    def mgf(self, t: float) -> float:
        self._check_mgf_domain(t)
        return math.exp(t * self.size)

    def moment(self, s: int) -> float:
        if s < 1:
            raise DomainError(f"moment order must be >= 1, got {s}")
        return self.size**s

    def sample(self, rng, n):
        return np.full(n, self.size)

    def quadrature(self):
        """A single node at the size: the average is one shifted evaluation."""
        return np.array([self.size]), np.array([1.0])

    def tail(self, y0, eta, y_max):
        return float(y0 + eta * self.size >= y_max)


@dataclass(frozen=True)
class ExponentialJump(JumpDistribution):
    """Exponential(rate) marks.  MGF rate/(rate-t) diverges as t -> rate^-."""

    rate: float

    def __post_init__(self):
        if self.rate <= 0:
            raise ValueError(f"rate must be > 0, got {self.rate}")

    @property
    def epsilon_j(self) -> float:
        return self.rate

    def mgf(self, t: float) -> float:
        self._check_mgf_domain(t)
        return self.rate / (self.rate - t)

    def moment(self, s: int) -> float:
        if s < 1:
            raise DomainError(f"moment order must be >= 1, got {s}")
        return math.factorial(s) / self.rate**s

    def sample(self, rng, n):
        return rng.exponential(scale=1.0 / self.rate, size=n)

    def quadrature(self):
        """Gauss-Laguerre on _GL_NODES nodes, scaled to the rate, the
        weights normalised to sum to 1."""
        nodes, weights = np.polynomial.laguerre.laggauss(_GL_NODES)
        return nodes / self.rate, weights / weights.sum()

    def tail(self, y0, eta, y_max):
        return math.exp(-self.rate * max(y_max - y0, 0.0) / eta)
