"""Mathematical reserves two independent ways: the quadrature representation
over transition probabilities and price surfaces, summed node by node on one
maturity lattice, and the coupled backward reserve equation; the two routes
cross-validate each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .markov import PolicySpec, lattice_probs, theta_payoff, transition_probs
from .measure import MeasureSelection
from .model import JumpDistribution, ValidatedModel
from .payoff import ZERO, constant
from .pide import Grid4, Stepper, solve_price_pide

__all__ = [
    "ReserveSurface",
    "ReserveLayer",
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
    diagnostics: dict = field(default_factory=dict)


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


def reserve_quadrature(
    policy: PolicySpec,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
    t: float,
    *,
    n_maturities: int = 33,
    refine_budget: float = 1e-3,
) -> ReserveLayer:
    """V_i(t) = sum_j p_ij(t,T) U_T^{f_j}(t) + int_t^T sum_j p_ij(t,s) U_s^{theta_j}(t) ds.

    The maturity integral uses composite Simpson on n_maturities nodes
    ss = linspace(t, T, n_maturities); p_ij(t, s) and every U_s^{theta_j}(t)
    are held as lists indexed by node, the former chained along the lattice
    (lattice_probs), the latter read from one backward march per distinct
    payoff (_march_layers), and U_T^{f_j}(t) is marched once.  The embedded
    half-resolution rule on every other node gives a Richardson error
    estimate; if it exceeds refine_budget (relative) the node count is
    doubled once, which chains the probabilities again and marches only the
    theta payoffs again.
    """
    T = policy.horizon
    idx = policy.index
    p_T = transition_probs(policy, t, T)  # refuses t outside [0, T] before any solve
    dt_target = model.T / (len(grid.t) - 1) if len(grid.t) > 1 else model.T / 64

    def march(payoff, maturities):
        return _march_layers(payoff, t, maturities, model, selection, dist, grid, dt_target)

    terminal = []
    for j in policy.states:
        f = policy.terminal_payoff(j)
        if not f.is_zero:
            terminal.append((idx(j), march(f, [T])[0]))
    thetas = [theta_payoff(policy, j) for j in policy.states] if T > t else []
    thetas = [th for th in thetas if not th.is_zero]

    def assemble(ss, probs, running):
        w = _simpson_weights(len(ss)) * ((T - t) / (len(ss) - 1))
        out = {}
        for i in policy.states:
            acc = np.zeros(grid.shape)
            for j, layer in terminal:
                acc += p_T[idx(i), j] * layer
            for m, wm in enumerate(w):
                for j, layers in running:
                    acc += wm * probs[m][idx(i), j] * layers[m]
            out[i] = acc
        return out

    ss = np.linspace(t, T, n_maturities)
    running = [(idx(th.state), march(th, ss)) for th in thetas]
    probs = lattice_probs(policy, t, T, n_maturities) if thetas else []
    fine = assemble(ss, probs, running)
    refined = False
    if running and n_maturities >= 5 and len(ss[::2]) % 2:
        coarse = assemble(ss[::2], probs[::2], [(j, layers[::2]) for j, layers in running])
        worst = 0.0
        for i in policy.states:
            scale = max(float(np.max(np.abs(fine[i]))), 1e-12)
            worst = max(worst, float(np.max(np.abs(fine[i] - coarse[i]))) / 15.0 / scale)
        if worst > refine_budget:
            ss = np.linspace(t, T, 2 * n_maturities - 1)
            running = [(idx(th.state), march(th, ss)) for th in thetas]
            probs = lattice_probs(policy, t, T, len(ss))
            fine = assemble(ss, probs, running)
            refined = True
    return ReserveLayer(
        grid=grid, t=t, states=policy.states, values=fine,
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
            for (a, b), pw in policy.intensities.items():
                if a != i:
                    continue
                mu = float(pw(t_expl))
                if mu == 0.0:
                    continue
                pay = policy.transition.get((a, b), ZERO)
                h = np.asarray(pay(t_expl, grid.x), dtype=float)[:, None, None]
                source += mu * (h + cur[b] - cur[i])
            vals[i][k] = st.step(cur[i], dt, source=source)
    return ReserveSurface(grid=grid, states=policy.states, values=vals)


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

    The reserve is linear in the premium, so pi = benefits(0) / annuity(0).
    """
    p = model.params
    if probe is None:
        probe = (p.S0, p.v0, p.lambda0)
    ix = grid.index_near("x", probe[0])
    iy = grid.index_near("y", probe[1])
    iz = grid.index_near("z", probe[2])

    benefits = reserve_quadrature(policy, model, selection, dist, grid, 0.0)
    annuity_policy = PolicySpec(
        states=policy.states,
        horizon=policy.horizon,
        intensities=policy.intensities,
        rate={premium_state: constant(1.0)},
    )
    annuity = reserve_quadrature(annuity_policy, model, selection, dist, grid, 0.0)
    vb = benefits.values[premium_state][ix, iy, iz]
    va = annuity.values[premium_state][ix, iy, iz]
    return float(vb / va)
