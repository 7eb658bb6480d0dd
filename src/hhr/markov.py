"""Insured-state Markov chain: transition intensities, transition
probabilities through the backward equations, and contract cash flows.

Intensities are piecewise-constant in time, so each constant segment admits
the matrix-exponential closed form.  On a uniform maturity lattice the
probabilities are chained from one step exponential per segment
(lattice_probs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

from .errors import TimeOrderError
from .model import PiecewiseFlat
from .payoff import Payoff, ZERO, constant, guarantee

__all__ = [
    "PolicySpec",
    "generator_matrix",
    "transition_probs",
    "lattice_probs",
    "theta_rate",
    "theta_payoff",
    "pure_endowment",
    "term_insurance",
    "endowment_guarantee",
]


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
    np.fill_diagonal(q, 0.0)
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


def lattice_probs(policy: PolicySpec, t: float, s: float, n: int) -> list[np.ndarray]:
    """p_ij(t, u) at the n nodes u of linspace(t, s, n), chained along the
    lattice: p(t, u_{m+1}) = p(t, u_m) p(u_m, u_{m+1}).

    The step matrix exp(Q h) is computed once per constant segment of the
    intensities, and a step that straddles a breakpoint is split there, so a
    lattice costs one matrix exponential per segment and per straddled
    breakpoint instead of one per node.  Each step adds a rounding, so the
    nodes agree with transition_probs to about n ulps.
    """
    if not 0 <= t <= s:
        raise TimeOrderError(f"need 0 <= t <= s, got t={t}, s={s}")
    if n < 2:
        raise ValueError("a lattice needs at least 2 nodes")
    us = np.linspace(t, s, n)
    h = (s - t) / (n - 1)
    cuts = policy.breakpoints()
    steps = {}
    out = [np.eye(policy.n_states)]
    for a, b in zip(us[:-1], us[1:]):
        if np.any((a < cuts) & (cuts < b)):
            step = transition_probs(policy, a, b)
        else:
            segment = int(np.searchsorted(cuts, a, side="right"))
            if segment not in steps:
                steps[segment] = transition_probs(policy, a, a + h)
            step = steps[segment]
        out.append(out[-1] @ step)
    return out


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


def pure_endowment(horizon: float, mu_rate: float, amount: float = 1.0) -> PolicySpec:
    """Pays `amount` at the horizon if still alive."""
    states, intensities = _two_state(mu_rate)
    return PolicySpec(
        states=states,
        horizon=horizon,
        intensities=intensities,
        terminal={"alive": constant(amount)},
    )


def term_insurance(horizon: float, mu_rate: float, amount: float = 1.0) -> PolicySpec:
    """Pays `amount` at the moment of death before the horizon."""
    states, intensities = _two_state(mu_rate)
    return PolicySpec(
        states=states,
        horizon=horizon,
        intensities=intensities,
        transition={("alive", "dead"): constant(amount)},
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
