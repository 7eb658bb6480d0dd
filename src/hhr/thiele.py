"""Mathematical reserves two independent ways: the quadrature representation
over transition probabilities and price surfaces, and the coupled backward
reserve equation; the two routes cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import brentq

from .errors import MissingPrice
from .markov import PolicySpec, theta_payoff, transition_probs
from .measure import MeasureSelection
from .model import JumpDistribution, ValidatedModel
from .pide import Grid4, Stepper, solve_price_pide

__all__ = [
    "ReserveSurface",
    "ReserveLayer",
    "PriceTable",
    "build_price_table",
    "reserve_quadrature",
    "solve_thiele_pide",
    "equivalence_premium",
]


@dataclass
class ReserveSurface:
    """Per-state reserve layers from the backward solver; values[state][k] is
    the surface at grid.t[k]."""

    grid: Grid4
    states: tuple[str, ...]
    values: dict
    method: str
    a: float

    def layer(self, state: str, k: int) -> np.ndarray:
        return self.values[state][k]

    def z_gradient(self, state: str, k: int) -> np.ndarray:
        """dV/dz on layer k, emitted as a diagnostic: the reserve's intensity
        dependence enters only through the price surfaces and stays small at
        desk parameters, but it is surfaced rather than assumed away."""
        v = self.values[state][k]
        if len(self.grid.z) < 2:
            return np.zeros_like(v)
        return np.gradient(v, self.grid.z, axis=2)


@dataclass
class ReserveLayer:
    """Single-time reserve surfaces (the quadrature route's output)."""

    grid: Grid4
    t: float
    states: tuple[str, ...]
    values: dict
    method: str
    a: float
    diagnostics: dict = field(default_factory=dict)


class PriceTable:
    """Price surfaces keyed by (payoff label, maturity); the quadrature
    consumes these and refuses to run when one is missing."""

    def __init__(self):
        self._entries = {}

    @staticmethod
    def _key(label: str, maturity: float):
        return label, round(float(maturity), 12)

    def put(self, label: str, maturity: float, layer: np.ndarray) -> None:
        self._entries[self._key(label, maturity)] = layer

    def get(self, label: str, maturity: float) -> np.ndarray:
        key = self._key(label, maturity)
        if key not in self._entries:
            raise MissingPrice(f"no price surface for {key[0]!r} at s={key[1]}")
        return self._entries[key]

    def __contains__(self, key):
        return self._key(*key) in self._entries


def _simpson_weights(n_nodes: int) -> np.ndarray:
    if n_nodes < 3 or n_nodes % 2 == 0:
        raise ValueError("composite Simpson needs an odd node count >= 3")
    w = np.ones(n_nodes)
    w[1:-1:2] = 4.0
    w[2:-1:2] = 2.0
    return w / 3.0


def _march_layers(payoff, t, maturities, model, selection, dist, grid, dt_target):
    """t-layers of the prices of payoff(s, S_s) for every s in `maturities`.

    The generator is time-homogeneous, so U_s(t) is the layer s - t before
    the terminal of a backward march from payoff(s, .): one march per
    distinct terminal layer serves all its maturities.  The maturities lie
    on a lattice t + m*spacing; the march steps spacing/q with
    q = max(2, round(spacing/dt_target)), so every node gets at least two
    steps, the kinked half-step start included.
    """
    ss = np.asarray(maturities, dtype=float)
    spacing = ss[1] - ss[0] if len(ss) > 1 else ss[0] - t
    q = max(2, int(round(spacing / dt_target)))
    pos = np.rint((ss - t) / spacing).astype(int) if spacing > 0 else np.zeros(len(ss), int)
    if not np.allclose(t + pos * spacing, ss, rtol=0.0, atol=1e-12 * max(1.0, abs(ss[-1]))):
        raise ValueError("maturities must lie on a uniform lattice starting at t")
    groups = {}
    for m, s in zip(pos, ss):
        term = np.asarray(payoff(s, grid.x), dtype=float).tobytes()
        groups.setdefault(term, []).append((m, float(s)))
    layers = {}
    for members in groups.values():
        m_end, s_end = max(members)
        n_steps = q * m_end
        sub = Grid4(t=np.linspace(t, s_end, n_steps + 1), x=grid.x, y=grid.y, z=grid.z)
        sol = solve_price_pide(payoff, s_end, model, selection, dist, sub)
        for m, _ in members:
            layers[m] = sol.values[n_steps - q * m].copy()
    return [layers[m] for m in pos]


def build_price_table(
    policy: PolicySpec,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
    t: float,
    maturities: np.ndarray,
) -> PriceTable:
    """Solve every price surface the quadrature needs at evaluation time t.

    Every maturity node is read from one backward march per distinct payoff
    (per constant segment of the intensities for the payment rates);
    `maturities` must be uniform nodes from t, as the quadrature uses.
    """
    table = PriceTable()
    dt_target = model.T / (len(grid.t) - 1) if len(grid.t) > 1 else model.T / 64
    T = policy.horizon
    for j in policy.states:
        f = policy.terminal_payoff(j)
        if not f.is_zero:
            (layer,) = _march_layers(f, t, [T], model, selection, dist, grid, dt_target)
            table.put(f"f:{j}", T, layer)
        th = theta_payoff(policy, j)
        if not th.is_zero:
            layers = _march_layers(th, t, maturities, model, selection, dist, grid, dt_target)
            for s, layer in zip(maturities, layers):
                table.put(th.key(), s, layer)
    return table


def reserve_quadrature(
    policy: PolicySpec,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
    t: float,
    *,
    prices: PriceTable | None = None,
    n_maturities: int = 33,
    refine_budget: float = 1e-3,
) -> ReserveLayer:
    """V_i(t) = sum_j p_ij(t,T) U_T^{f_j}(t) + int_t^T sum_j p_ij(t,s) U_s^{theta_j}(t) ds.

    The maturity integral uses composite Simpson on n_maturities nodes; the
    embedded half-resolution rule on every other node gives a Richardson
    error estimate and the node count is doubled once if that estimate
    exceeds refine_budget (relative).  The price surfaces come from the
    supplied table, or are read from one backward march per distinct payoff
    (build_price_table).
    """
    T = policy.horizon
    idx = policy.index
    terminal = [j for j in policy.states if not policy.terminal_payoff(j).is_zero]
    running = [theta_payoff(policy, j) for j in policy.states]
    running = [(th.state, th.key()) for th in running if not th.is_zero]
    probs = {}

    def p(s):
        key = round(float(s), 12)
        if key not in probs:
            probs[key] = transition_probs(policy, t, s)
        return probs[key]

    def assemble(ss, table):
        w = _simpson_weights(len(ss)) * ((T - t) / (len(ss) - 1))
        out = {}
        for i in policy.states:
            acc = np.zeros(grid.shape)
            for j in terminal:
                acc += p(T)[idx(i), idx(j)] * table.get(f"f:{j}", T)
            if T > t:
                for m, s in enumerate(ss):
                    for j, key in running:
                        acc += w[m] * p(s)[idx(i), idx(j)] * table.get(key, s)
            out[i] = acc
        return out

    def solve(n_nodes):
        ss = np.linspace(t, T, n_nodes)
        table = prices
        if table is None:
            table = build_price_table(policy, model, selection, dist, grid, t, ss)
        return ss, table, assemble(ss, table)

    p(T)  # refuses t outside [0, T] (TimeOrderError) before any solve
    ss, table, fine = solve(n_maturities)
    refined = False
    if running and T > t and prices is None and n_maturities >= 5 and len(ss[::2]) % 2:
        coarse = assemble(ss[::2], table)
        worst = 0.0
        for i in policy.states:
            scale = max(float(np.max(np.abs(fine[i]))), 1e-12)
            worst = max(worst, float(np.max(np.abs(fine[i] - coarse[i]))) / 15.0 / scale)
        if worst > refine_budget:
            ss, _, fine = solve(2 * n_maturities - 1)
            refined = True
    return ReserveLayer(
        grid=grid, t=t, states=policy.states, values=fine,
        method="quadrature", a=selection.a,
        diagnostics={"n_maturities": len(ss), "refined": refined},
    )


def solve_thiele_pide(
    policy: PolicySpec,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
) -> ReserveSurface:
    """Coupled backward system over the states:

    dV_i/dt = r V_i - g_i - sum_k mu_ik (h_ik + V_k - V_i) - L V_i,
    V_i(T) = f_i(T, x).  The inter-state coupling and payment sources are
    explicit; the spatial factorizations are shared across states.
    """
    if abs(grid.t[-1] - policy.horizon) > 1e-12 * max(1.0, policy.horizon):
        raise ValueError("grid time axis must end at the policy horizon")
    st = Stepper(grid, model, selection, dist)
    nt = len(grid.t) - 1
    dt = grid.t[1] - grid.t[0]
    st.check_cfl(dt)
    nx, ny, nz = grid.shape
    T = policy.horizon

    vals = {
        i: np.empty((nt + 1, nx, ny, nz)) for i in policy.states
    }
    for i in policy.states:
        term = np.asarray(policy.terminal_payoff(i)(T, grid.x), dtype=float)
        vals[i][nt] = np.broadcast_to(term[:, None, None], (nx, ny, nz))

    for k in range(nt - 1, -1, -1):
        t_expl = grid.t[k + 1]
        cur = {i: vals[i][k + 1] for i in policy.states}
        for i in policy.states:
            source = np.zeros((nx, ny, nz))
            g = policy.rate_payoff(i)
            if not g.is_zero:
                source += np.asarray(g(t_expl, grid.x), dtype=float)[:, None, None]
            for (a, b), pay in policy.transition.items():
                if a != i:
                    continue
                mu = float(policy.mu(a, b, t_expl))
                if mu == 0.0:
                    continue
                h = np.asarray(pay(t_expl, grid.x), dtype=float)[:, None, None]
                source += mu * (h + cur[b] - cur[i])
            for (a, b), pw in policy.intensities.items():
                if a != i or (a, b) in policy.transition:
                    continue
                mu = float(pw(t_expl))
                if mu:
                    source += mu * (cur[b] - cur[i])
            vals[i][k] = st.step(cur[i], dt, source=source)
    return ReserveSurface(
        grid=grid, states=policy.states, values=vals, method="pide", a=selection.a
    )


def equivalence_premium(
    policy: PolicySpec,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
    *,
    premium_state: str = "alive",
    probe=None,
) -> float:
    """Constant premium rate pi with V(0) = 0 at the anchor point, where the
    premium is paid continuously while in `premium_state`.

    Solved as a scalar root-find of benefits(0) - pi * annuity(0).
    """
    from .markov import PolicySpec as _PS
    from .payoff import constant

    p = model.params
    if probe is None:
        probe = (p.S0, p.v0, p.lambda0)
    ix = grid.index_near("x", probe[0])
    iy = grid.index_near("y", probe[1])
    iz = grid.index_near("z", probe[2])

    benefits = reserve_quadrature(policy, model, selection, dist, grid, 0.0)
    annuity_policy = _PS(
        states=policy.states,
        horizon=policy.horizon,
        intensities=policy.intensities,
        rate={premium_state: constant(1.0)},
    )
    annuity = reserve_quadrature(annuity_policy, model, selection, dist, grid, 0.0)
    vb = benefits.values[premium_state][ix, iy, iz]
    va = annuity.values[premium_state][ix, iy, iz]
    hi = 2.0 * vb / va if va > 0 else 1.0
    return float(brentq(lambda pi: vb - pi * va, 0.0, max(hi, 1e-12), xtol=1e-12))
