"""Mathematical reserves two independent ways: the quadrature representation
over transition probabilities and price surfaces, summed node by node on one
maturity lattice, and the coupled backward reserve equation; the two routes
cross-validate each other.  Both march through the pide.Stepper they are
given, on its grid.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .markov import PolicySpec, theta_payoff, transition_probs
from .model import ValidatedModel
from .payoff import ZERO, constant
from .pide import Grid4, Layer0, Stepper, march
from .pide import solve_price_pide  # noqa: F401  (perfbench traces hhr.thiele.solve_price_pide)

__all__ = [
    "ReserveSurface",
    "ReserveLayer",
    "reserve_quadrature",
    "thiele_march",
    "solve_thiele_pide",
    "equivalence_premium",
]

# Simpson nodes of the quadrature reserve, 4m + 1 so that every other node
# (the embedded half-resolution rule) is a Simpson rule too
_N_MATURITIES = 33
_REFINE_BUDGET = 1e-3  # relative Richardson error above which they are doubled


@dataclass
class ReserveSurface:
    """Per-state t = 0 surfaces of the backward solver, the only layers kept: values[state][0]."""

    grid: Grid4
    states: tuple[str, ...]
    values: dict  # state -> Layer0

    def z_gradient(self, state: str) -> np.ndarray:
        """dV/dz at t = 0, emitted as a diagnostic: the reserve's intensity
        dependence enters only through the price surfaces and stays small at
        desk parameters, but it is surfaced rather than assumed away."""
        v = self.values[state][0]
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


def _march_layers(jobs, t, st):
    """For each (payoff, maturities) of jobs, the t-layers of the prices of
    payoff(s, S_s) for every s in maturities, marched through the Stepper st.

    The generator is time-homogeneous, so U_s(t) is the layer s - t before
    the terminal of a backward march from payoff(s, .): one march per
    distinct terminal layer of a job serves all its maturities.  The
    maturities lie on a lattice t + m*spacing; the march steps spacing/q with
    q = max(2, round(spacing/dt)), dt the step of st.grid's time axis (the
    backward route's), so every node gets at least two steps, the kinked
    half-step start included.  The marches of all jobs that share a time
    axis and a kind of start, kinked or not, step as one stack; a kept layer
    is a copy, so it holds no stack alive.
    """
    grid = st.grid
    dt = grid.t[1] - grid.t[0]
    stacks = {}  # (s_end, n_steps, kinked) -> {(job, march): (payoff, {k: m})}
    positions = []
    for n, (payoff, maturities) in enumerate(jobs):
        ss = np.asarray(maturities, dtype=float)
        spacing = ss[1] - ss[0] if len(ss) > 1 else ss[0] - t
        q = max(2, int(round(spacing / dt)))
        pos = np.rint((ss - t) / spacing).astype(int) if spacing > 0 else np.zeros(len(ss), int)
        if not np.allclose(t + pos * spacing, ss, rtol=0.0, atol=1e-12 * max(1.0, abs(ss[-1]))):
            raise ValueError("maturities must lie on a uniform lattice starting at t")
        positions.append(pos)
        groups = {}
        for m, s in zip(pos, ss):
            term = np.asarray(payoff(s, grid.x), dtype=float).tobytes()
            groups.setdefault(term, []).append((m, float(s)))
        for g, members in enumerate(groups.values()):
            m_end, s_end = max(members)
            n_steps = q * m_end
            keep = {n_steps - q * m: m for m, _ in members}
            stacks.setdefault((s_end, n_steps, payoff.kinked), {})[n, g] = (payoff, keep)
    layers = [{} for _ in jobs]
    for (s_end, n_steps, kinked), marches in stacks.items():
        start = {key: payoff(s_end, grid.x) for key, (payoff, _) in marches.items()}
        ts = np.linspace(t, s_end, n_steps + 1)
        for k, cur in march(st, start, ts, kinked=kinked):
            for (n, g), (_, keep) in marches.items():
                if k in keep:
                    layers[n][keep[k]] = cur[n, g].copy()
    return [[got[m] for m in pos] for got, pos in zip(layers, positions)]


def reserve_quadrature(policy: PolicySpec, stepper: Stepper, t: float) -> ReserveLayer:
    """V_i(t) = sum_j p_ij(t,T) U_T^{f_j}(t) + int_t^T sum_j p_ij(t,s) U_s^{theta_j}(t) ds.

    The maturity integral uses composite Simpson on _N_MATURITIES nodes
    ss = linspace(t, T, _N_MATURITIES); p_ij(t, s) and every U_s^{theta_j}(t)
    are held as lists indexed by node, the former from transition_probs at
    each node, the latter, like U_T^{f_j}(t), from one backward march
    per distinct terminal layer (_march_layers); marches on one time axis
    step as one stack, and all through `stepper`, on its grid and at its
    time step, which keeps the factors of each step size.
    The embedded half-resolution rule on every other node gives a
    Richardson error estimate; if it exceeds _REFINE_BUDGET (relative) the
    node count is doubled once, which takes the probabilities at every node
    again and marches only the theta payoffs again.
    """
    T = policy.horizon
    idx = policy.index
    p_T = transition_probs(policy, t, T)  # refuses t outside [0, T] before any solve
    grid = stepper.grid

    fs = [(idx(j), policy.terminal_payoff(j)) for j in policy.states]
    fs = [(j, f) for j, f in fs if not f.is_zero]
    thetas = [theta_payoff(policy, j) for j in policy.states] if T > t else []
    thetas = [th for th in thetas if not th.is_zero]
    ss = np.linspace(t, T, _N_MATURITIES)
    jobs = [(f, [T]) for _, f in fs] + [(th, ss) for th in thetas]
    marched = _march_layers(jobs, t, stepper)
    terminal = [(j, layers[0]) for (j, _), layers in zip(fs, marched)]
    running = [(idx(th.state), layers) for th, layers in zip(thetas, marched[len(fs):])]

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

    probs = [transition_probs(policy, t, s) for s in ss] if thetas else []
    fine = assemble(ss, probs, running)
    refined = False
    if running:
        coarse = assemble(ss[::2], probs[::2], [(j, layers[::2]) for j, layers in running])
        worst = 0.0
        for i in policy.states:
            scale = max(float(np.max(np.abs(fine[i]))), 1e-12)
            worst = max(worst, float(np.max(np.abs(fine[i] - coarse[i]))) / 15.0 / scale)
        if worst > _REFINE_BUDGET:
            ss = np.linspace(t, T, 2 * _N_MATURITIES - 1)
            marched = _march_layers([(th, ss) for th in thetas], t, stepper)
            running = [(idx(th.state), layers) for th, layers in zip(thetas, marched)]
            probs = [transition_probs(policy, t, s) for s in ss]
            fine = assemble(ss, probs, running)
            refined = True
    return ReserveLayer(
        grid=grid, t=t, states=policy.states, values=fine,
        diagnostics={"n_maturities": len(ss), "refined": refined},
    )


def thiele_march(policy: PolicySpec, stepper: Stepper):
    """march() of the coupled backward system over the states, through
    `stepper` on its grid, whose time axis must end at the horizon:

    dV_i/dt = r V_i - g_i - sum_k mu_ik (h_ik + V_k - V_i) - L V_i,
    V_i(T) = f_i(T, x).  The inter-state coupling and payment sources are
    explicit, and the states step as one stack.

    An inert state (zero terminal payoff, zero payment rate, no listed
    intensity out of it) has the reserve 0 exactly: it is not marched and
    gets no source, and every yielded map holds it as one +0.0 layer.
    """
    grid = stepper.grid
    if abs(grid.t[-1] - policy.horizon) > 1e-12 * max(1.0, policy.horizon):
        raise ValueError("grid time axis must end at the policy horizon")
    exits = {a for a, _ in policy.intensities}
    live = [i for i in policy.states if i in exits
            or not (policy.terminal_payoff(i).is_zero and policy.rate_payoff(i).is_zero)]
    zero = np.zeros(grid.shape)
    start = {i: policy.terminal_payoff(i)(policy.horizon, grid.x) for i in live}

    def source(cur, k):
        t_k = grid.t[k]
        out = np.zeros((len(cur),) + grid.shape)
        for o, i in zip(out, cur):
            g = policy.rate_payoff(i)
            if not g.is_zero:
                o += np.asarray(g(t_k, grid.x), dtype=float)[:, None, None]
            for (a, b), pw in policy.intensities.items():
                mu = float(pw(t_k)) if a == i else 0.0
                if mu != 0.0:
                    h = np.asarray(policy.transition.get((a, b), ZERO)(t_k, grid.x), dtype=float)
                    o += mu * (h[:, None, None] + cur.get(b, zero) - cur[i])
        return out

    marching = march(stepper, start, grid.t, source=source)
    return ((k, {i: cur.get(i, zero) for i in policy.states}) for k, cur in marching)


def solve_thiele_pide(policy: PolicySpec, stepper: Stepper) -> ReserveSurface:
    """The t = 0 reserve surfaces of thiele_march, the only layers kept."""
    (_, layers), = deque(thiele_march(policy, stepper), maxlen=1)
    return ReserveSurface(stepper.grid, policy.states,
                          {i: Layer0((layers[i],)) for i in policy.states})


def equivalence_premium(policy: PolicySpec, model: ValidatedModel, stepper: Stepper) -> float:
    """Constant premium rate pi with V(0) = 0 at the anchor point
    (S0, v0, lambda0) of model, where the premium is paid continuously
    while alive; both reserves march through `stepper`.

    The reserve is linear in the premium, so pi = benefits(0) / annuity(0).
    """
    p, grid = model.params, stepper.grid
    ix = grid.index_near("x", p.S0)
    iy = grid.index_near("y", p.v0)
    iz = grid.index_near("z", p.lambda0)

    benefits = reserve_quadrature(policy, stepper, 0.0)
    annuity_policy = PolicySpec(
        states=policy.states,
        horizon=policy.horizon,
        intensities=policy.intensities,
        rate={"alive": constant(1.0)},
    )
    annuity = reserve_quadrature(annuity_policy, stepper, 0.0)
    vb = benefits.values["alive"][ix, iy, iz]
    va = annuity.values["alive"][ix, iy, iz]
    return float(vb / va)
