"""Insured-state Markov chain: transition intensities, transition
probabilities through the backward equations, and contract cash flows.

Intensities are piecewise-constant in time, so each constant segment admits
the matrix-exponential closed form, and p(t, s) is the product of one
exponential per segment (transition_probs).  The exponential is expm,
Higham's (2005) scaling and squaring in numpy.  It is a different algorithm
from scipy.linalg.expm (Al-Mohy and Higham 2009): on insurance-scale
generators the two agree to a few ulps of the largest entry, not bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TimeOrderError
from .model import PiecewiseFlat
from .payoff import Payoff, ZERO, constant, guarantee

__all__ = [
    "PolicySpec",
    "expm",
    "generator_matrix",
    "transition_probs",
    "theta_rate",
    "theta_payoff",
    "pure_endowment",
    "term_insurance",
    "endowment_guarantee",
]

_AMOUNT = 1.0  # the benefit of the pure_endowment and term_insurance templates

# Higham (2005), Table 2.3 and eq. (2.4): the largest 1-norm at which the
# [m/m] Pade approximant of exp reaches double precision, and its numerator
# coefficients b_0..b_m (the denominator's are the same with alternating signs)
_PADE_THETA = {3: 1.495585217958292e-2, 5: 2.539398330063230e-1,
               7: 9.504178996162932e-1, 9: 2.097847961257068e0, 13: 5.371920351148152e0}
_PADE_B = {
    3: (120.0, 60.0, 12.0, 1.0),
    5: (30240.0, 15120.0, 3360.0, 420.0, 30.0, 1.0),
    7: (17297280.0, 8648640.0, 1995840.0, 277200.0, 25200.0, 1512.0, 56.0, 1.0),
    9: (17643225600.0, 8821612800.0, 2075673600.0, 302702400.0, 30270240.0,
        2162160.0, 110880.0, 3960.0, 90.0, 1.0),
    13: (64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
         1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
         33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0),
}


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) of a square matrix by scaling and squaring (Higham 2005): the
    [m/m] Pade approximant of the lowest degree m in 3, 5, 7, 9 whose
    threshold the 1-norm of a meets, else [13/13] of a / 2^s with s the
    fewest halvings to bring it under theta_13, squared s times.  A zero
    row of a (an absorbing state) gives the identity's row, exactly."""
    a = np.asarray(a, dtype=float)
    eye = np.eye(len(a))
    dead = ~a.any(axis=1)
    norm = float(np.abs(a).sum(axis=0).max())  # the 1-norm
    s = 0
    for m in (3, 5, 7, 9):
        if norm <= _PADE_THETA[m]:
            break
    else:
        m = 13
        if norm > _PADE_THETA[13]:
            s = math.ceil(math.log2(norm / _PADE_THETA[13]))
            a = a / 2.0**s
    b = _PADE_B[m]
    a2 = a @ a
    if m == 13:
        a4 = a2 @ a2
        a6 = a4 @ a2
        u = a @ (a6 @ (b[13] * a6 + b[11] * a4 + b[9] * a2)
                 + b[7] * a6 + b[5] * a4 + b[3] * a2 + b[1] * eye)
        v = (a6 @ (b[12] * a6 + b[10] * a4 + b[8] * a2)
             + b[6] * a6 + b[4] * a4 + b[2] * a2 + b[0] * eye)
    else:
        powers = [eye, a2]
        for _ in range(m // 2 - 1):
            powers.append(powers[-1] @ a2)
        u = a @ sum(b[2 * k + 1] * pk for k, pk in enumerate(powers))
        v = sum(b[2 * k] * pk for k, pk in enumerate(powers))
    r = np.linalg.solve(v - u, v + u)
    for _ in range(s):
        r = r @ r
    r[dead] = eye[dead]  # set after the squarings, which leave it ulps off
    return r


@dataclass(frozen=True)
class PolicySpec:
    """Multi-state contract: states, intensities mu_jk(t), and the policy
    functions (terminal benefit f_j, payment rate g_j, transition payment
    h_jk), each a payoff object of linear growth."""

    states: tuple[str, ...]
    horizon: float
    intensities: dict = field(default_factory=dict)  # (from, to) -> PiecewiseFlat
    terminal: dict = field(default_factory=dict)  # state -> Payoff
    rate: dict = field(default_factory=dict)  # state -> Payoff
    transition: dict = field(default_factory=dict)  # (from, to) -> Payoff

    def __post_init__(self):
        if len(set(self.states)) != len(self.states):
            raise ValueError("duplicate state labels")
        for (j, k), mu in self.intensities.items():
            if j == k or j not in self.states or k not in self.states:
                raise ValueError(f"bad transition ({j!r}, {k!r})")
            if any(v < 0 for v in mu.values):
                raise ValueError(f"negative intensity on ({j!r}, {k!r})")
        named = [*self.terminal, *self.rate, *(s for pair in self.transition for s in pair)]
        undeclared = sorted(set(named) - set(self.states))
        if undeclared:
            raise ValueError(f"undeclared states {', '.join(map(repr, undeclared))}")

    @property
    def n_states(self) -> int:
        return len(self.states)

    def index(self, state: str) -> int:
        return self.states.index(state)

    def terminal_payoff(self, state: str) -> Payoff:
        return self.terminal.get(state, ZERO)

    def rate_payoff(self, state: str) -> Payoff:
        return self.rate.get(state, ZERO)

    def mu(self, j: str, k: str, t):
        pw = self.intensities.get((j, k))
        if pw is None:
            return np.zeros_like(np.asarray(t, dtype=float)) if np.ndim(t) else 0.0
        return pw(t)

    def breakpoints(self) -> np.ndarray:
        pts = {0.0, self.horizon}
        for pw in self.intensities.values():
            pts.update(pw.breakpoints)
        return np.array(sorted(p for p in pts if 0.0 <= p <= self.horizon))


def generator_matrix(policy: PolicySpec, t: float) -> np.ndarray:
    """Q(t) with Q_jk = mu_jk(t) for j != k and rows summing to zero."""
    n = policy.n_states
    q = np.zeros((n, n))
    for (j, k), pw in policy.intensities.items():
        q[policy.index(j), policy.index(k)] = float(pw(t))
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


def transition_probs(policy: PolicySpec, t: float, s: float) -> np.ndarray:
    """p_ij(t, s), the probability of being in j at s given state i at t.

    Backward system d/dt p(t,s) = -Q(t) p(t,s), p(s,s) = I, solved as the
    product of matrix exponentials over the constant-intensity segments.
    """
    if not 0 <= t <= s:
        raise TimeOrderError(f"need 0 <= t <= s, got t={t}, s={s}")
    n = policy.n_states
    if t == s:
        return np.eye(n)
    cuts = [t] + [b for b in policy.breakpoints() if t < b < s] + [s]
    p = np.eye(n)
    for a, b in zip(cuts[:-1], cuts[1:]):
        q = generator_matrix(policy, a)
        p = p @ expm(q * (b - a))
    return p


def theta_rate(policy: PolicySpec, j: str, s: float, x):
    """Combined payment rate g_j(s,x) + sum_k mu_jk(s) h_jk(s,x)."""
    out = np.asarray(policy.rate_payoff(j)(s, x), dtype=float)
    for (a, b), pay in policy.transition.items():
        if a == j:
            out = out + float(policy.mu(a, b, s)) * np.asarray(pay(s, x))
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class _ThetaPayoff:
    """Payoff view of the combined payment rate of one state."""

    policy: PolicySpec
    state: str

    @property
    def kinked(self) -> bool:
        return any(
            a == self.state and pay.kinked
            for (a, _), pay in self.policy.transition.items()
        ) or self.policy.rate_payoff(self.state).kinked

    @property
    def is_zero(self) -> bool:
        return self.policy.rate_payoff(self.state).is_zero and all(
            pay.is_zero
            for (a, _), pay in self.policy.transition.items()
            if a == self.state
        )

    def __call__(self, s, x):
        return theta_rate(self.policy, self.state, s, x)


def theta_payoff(policy: PolicySpec, state: str) -> _ThetaPayoff:
    return _ThetaPayoff(policy, state)


def _two_state(mu_rate) -> tuple:
    states = ("alive", "dead")
    intensities = {("alive", "dead"): PiecewiseFlat.constant(mu_rate)}
    return states, intensities


def pure_endowment(horizon: float, mu_rate: float) -> PolicySpec:
    """Pays _AMOUNT at the horizon if still alive."""
    states, intensities = _two_state(mu_rate)
    return PolicySpec(
        states=states,
        horizon=horizon,
        intensities=intensities,
        terminal={"alive": constant(_AMOUNT)},
    )


def term_insurance(horizon: float, mu_rate: float) -> PolicySpec:
    """Pays _AMOUNT at the moment of death before the horizon."""
    states, intensities = _two_state(mu_rate)
    return PolicySpec(
        states=states,
        horizon=horizon,
        intensities=intensities,
        transition={("alive", "dead"): constant(_AMOUNT)},
    )


def endowment_guarantee(
    horizon: float, mu_rate: float, level: float, death_benefit: bool = True
) -> PolicySpec:
    """Unit-linked endowment max(G, S) at the horizon if alive; optionally the
    same guarantee paid at death."""
    states, intensities = _two_state(mu_rate)
    transition = {("alive", "dead"): guarantee(level)} if death_benefit else {}
    return PolicySpec(
        states=states,
        horizon=horizon,
        intensities=intensities,
        terminal={"alive": guarantee(level)},
        transition=transition,
    )
