"""Backward solver for the pricing equation dU/dt + L U = r U on the
(t, x, y, z) grid, where L is the integro-differential generator of
(stock, variance, intensity) under a tilted measure.

Scheme: dimension-wise implicit splitting of the local differential terms,
with the nonlocal jump integral and the cross xy-derivative taken explicitly
from the previous layer, and the rU reaction integrated exactly through a
discount factor per step (so constant payoffs discount without bias).
First derivatives are central unless the cell Peclet number exceeds 2, in
which case they are upwinded; boundary rows carry one-sided convection with
a vanishing second derivative, which preserves both exact solutions
U = x and U = e^{-r(s-t)} at every node including the boundary.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainError
from .hawkes import expected_events
from .measure import MeasureSelection, q_dynamics
from .model import ConstantJump, ExponentialJump, JumpDistribution, ValidatedModel

__all__ = ["Grid4", "build_grid", "PIDESolution", "solve_price_pide"]

_GL_NODES = 32


@dataclass(frozen=True)
class Grid4:
    """Axes of the solver: t uniform on [0, s]; x log-spaced with the spot a
    node; y sinh-stretched around v0 with y_min > 0; z uniform from lambda0."""

    t: np.ndarray
    x: np.ndarray
    y: np.ndarray
    z: np.ndarray

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            u = getattr(self, name)
            if len(u) > 1 and not np.all(np.diff(u) > 0):
                raise ValueError(f"{name}-axis must be strictly increasing")
        if self.y[0] <= 0:
            raise ValueError("y_min must be > 0")

    @property
    def shape(self):
        return len(self.x), len(self.y), len(self.z)

    def index_near(self, axis: str, value: float) -> int:
        u = getattr(self, axis)
        return int(np.argmin(np.abs(u - value)))


def _sinh_axis(lo: float, hi: float, anchor: float, n: int) -> np.ndarray:
    """Axis on exactly [lo, hi] clustered at `anchor`, which lands on a node.

    Nodes are anchor + b*sinh(xi) on a uniform xi-grid through 0; the spacing
    d of that grid solves sinh((n-1-k0) d)/sinh(k0 d) = (hi-anchor)/(anchor-lo)
    so that both endpoints are hit exactly.
    """
    from scipy.optimize import brentq

    if n == 1:
        return np.array([anchor])
    if n < 4 or not lo < anchor < hi:
        return np.linspace(lo, hi, n)
    ratio = (hi - anchor) / (anchor - lo)

    def solvable(k0):
        m = n - 1 - k0
        if m == k0:
            return abs(ratio - 1.0) < 1e-12
        base = m / k0
        return (ratio > base) if m > k0 else (ratio < base)

    k_pref = max(1, min(n - 2, round((n - 1) / (1.0 + ratio ** 0.5))))
    candidates = sorted(range(1, n - 1), key=lambda k: abs(k - k_pref))
    for k0 in candidates:
        if solvable(k0):
            break
    else:
        return np.linspace(lo, hi, n)
    m = n - 1 - k0

    def f(d):
        return math.sinh(m * d) / math.sinh(k0 * d) - ratio

    if m == k0:
        d = 1.0
    else:
        d_hi = 1e-4
        while f(d_hi) * f(1e-9) > 0 and d_hi < 1e3:
            d_hi *= 2.0
        d = brentq(f, 1e-9, d_hi, xtol=1e-14)
    b = (anchor - lo) / math.sinh(k0 * d)
    xi = d * (np.arange(n) - k0)
    u = anchor + b * np.sinh(xi)
    u[0], u[k0], u[-1] = lo, anchor, hi
    return u


def build_grid(
    model: ValidatedModel,
    maturity: float,
    nt: int = 64,
    nx: int = 48,
    ny: int = 24,
    nz: int = 16,
    *,
    x_span: float = 8.0,
    y_span: float = 12.0,
) -> Grid4:
    """Default truncation: x in [S0/span, ~span*S0] log-spaced (spot a node),
    y in [v0/50, y_span*vbar] sinh-clustered at v0, z from lambda0 out to
    lambda0 + 8*alpha*E[N_T]; the z-axis collapses to one node when there is
    no self-excitation.  A maturity past T is refused, because the z-axis is
    sized for the events expected by T."""
    p = model.params
    if maturity > p.T:
        raise DomainError(f"maturity {maturity:g} exceeds the model horizon T = {p.T:g}")
    k0 = nx // 2
    h = math.log(x_span) / k0
    x = p.S0 * np.exp(h * (np.arange(nx) - k0))
    y = _sinh_axis(p.v0 / 50.0, max(y_span * p.vbar, 2.0 * p.v0), p.v0, ny)
    if p.alpha == 0 or nz == 1:
        z = np.array([p.lambda0])
    else:
        z_max = p.lambda0 + 8.0 * p.alpha * max(float(expected_events(model, p.T)), 1.0)
        z = np.linspace(p.lambda0, z_max, nz)
    t = np.linspace(0.0, maturity, nt + 1)
    return Grid4(t=t, x=x, y=y, z=z)


def _axis_operator(u, conv, diff):
    """Row coefficients (lo, di, up) of c(u) d/du + d(u) d^2/du^2.

    Central first derivative unless |c| max(h-, h+) > 2 d (then upwind by the
    sign of c); boundary rows use one-sided convection into the domain and a
    vanishing second derivative.
    """
    n = len(u)
    lo = np.zeros(n)
    di = np.zeros(n)
    up = np.zeros(n)
    if n == 1:
        return lo, di, up
    if n > 2:
        hm = u[1:-1] - u[:-2]
        hp = u[2:] - u[1:-1]
        c = conv[1:-1]
        d = diff[1:-1]
        use_up = np.abs(c) * np.maximum(hm, hp) > 2.0 * d
        cl = -hp / (hm * (hm + hp))
        cc = (hp - hm) / (hm * hp)
        cr = hm / (hp * (hm + hp))
        ul = np.where(c >= 0, 0.0, -1.0 / hm)
        uc = np.where(c >= 0, -1.0 / hp, 1.0 / hm)
        ur = np.where(c >= 0, 1.0 / hp, 0.0)
        wl = np.where(use_up, ul, cl)
        wc = np.where(use_up, uc, cc)
        wr = np.where(use_up, ur, cr)
        lo[1:-1] = c * wl + 2.0 * d / (hm * (hm + hp))
        di[1:-1] = c * wc - 2.0 * d / (hm * hp)
        up[1:-1] = c * wr + 2.0 * d / (hp * (hm + hp))
    h0 = u[1] - u[0]
    hn = u[-1] - u[-2]
    di[0] += -conv[0] / h0
    up[0] += conv[0] / h0
    lo[-1] += -conv[-1] / hn
    di[-1] += conv[-1] / hn
    return lo, di, up


def _interp_matrix(axis: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """Rows of linear-interpolation weights with constant extrapolation at the
    upper truncation boundary (targets never fall below the axis here)."""
    n = len(axis)
    m = np.zeros((len(targets), n))
    for row, tval in enumerate(targets):
        if tval >= axis[-1]:
            m[row, -1] = 1.0
            continue
        j = int(np.searchsorted(axis, tval, side="right")) - 1
        j = min(max(j, 0), n - 2)
        w = (tval - axis[j]) / (axis[j + 1] - axis[j])
        m[row, j] = 1.0 - w
        m[row, j + 1] = w
    return m


def _jump_matrices(grid: Grid4, eta: float, alpha: float, dist: JumpDistribution):
    """Dense shift-and-average matrices of the jump integral.

    Returns (M_y, P_z): M_y averages f(y + eta*u) over the mark law
    (Gauss-Laguerre matched to an exponential rate; a single shifted
    evaluation for constant marks), P_z shifts by alpha; both clamp at the
    truncation boundary.
    """
    ny, nz = len(grid.y), len(grid.z)
    if eta == 0.0:
        m_y = np.eye(ny)
    else:
        if isinstance(dist, ConstantJump):
            nodes = np.array([dist.size])
            weights = np.array([1.0])
        elif isinstance(dist, ExponentialJump):
            nodes, weights = np.polynomial.laguerre.laggauss(_GL_NODES)
            nodes = nodes / dist.rate
            weights = weights / weights.sum()
        else:
            raise NotImplementedError(f"no quadrature rule for {type(dist).__name__}")
        m_y = np.zeros((ny, ny))
        for u_node, w in zip(nodes, weights):
            m_y += w * _interp_matrix(grid.y, grid.y + eta * u_node)
    p_z = _interp_matrix(grid.z, grid.z + alpha) if alpha > 0 and nz > 1 else np.eye(nz)
    return m_y, p_z


def _tail_mass(dist: JumpDistribution, eta: float, y0: float, y_max: float) -> float:
    """Mark-law mass of the jumps from y0 that reach the truncation y_max,
    where the jump integral clamps: P(y0 + eta*U >= y_max)."""
    if eta == 0.0:
        return 0.0
    if isinstance(dist, ConstantJump):
        return float(y0 + eta * dist.size >= y_max)
    if isinstance(dist, ExponentialJump):
        return math.exp(-dist.rate * max(y_max - y0, 0.0) / eta)
    raise NotImplementedError(f"no tail mass for {type(dist).__name__}")


def _apply_tridiag(op, U: np.ndarray, axis: int) -> np.ndarray:
    """Rows (lo, di, up) of a tridiagonal operator applied along `axis` of U;
    a row's trailing dimensions match U's once `axis` is moved first."""
    U = np.moveaxis(U, axis, 0)
    lo, di, up = (c.reshape(c.shape + (1,) * (U.ndim - c.ndim)) for c in op)
    out = di * U
    out[1:] += lo[1:] * U[:-1]
    out[:-1] += up[:-1] * U[1:]
    return np.moveaxis(out, 0, axis)


def _tridiag_factors(lo, di, up, dt):
    """LU factors (LAPACK dgttrf) of I - dt*A; None on a one-node axis,
    where the system is the identity."""
    if len(di) == 1:
        return None
    *fac, info = dgttrf(-dt * lo[1:], 1.0 - dt * di, -dt * up[:-1])
    if info:
        raise np.linalg.LinAlgError(f"singular implicit sweep (dgttrf info={info})")
    return fac


def _solve_lines(fac, b: np.ndarray) -> None:
    """Overwrite the Fortran-ordered columns of b with their solutions."""
    if fac is not None:
        _, info = dgttrs(*fac, b, overwrite_b=1)
        if info:
            raise ValueError(f"dgttrs rejected argument {-info}")


class Stepper:
    """Shared spatial discretization of the generator; prices and reserves
    both step through it."""

    def __init__(self, grid: Grid4, model: ValidatedModel, selection: MeasureSelection,
                 dist: JumpDistribution):
        p = model.params
        self.grid = grid
        self.r = p.r
        kappa_a, vbar_a = q_dynamics(model, selection)
        x, y, z = grid.x, grid.y, grid.z
        nx, ny, nz = grid.shape

        self.x_ops = [_axis_operator(x, p.r * x, 0.5 * x**2 * yk) for yk in y]
        self.y_op = _axis_operator(y, -kappa_a * (y - vbar_a), 0.5 * p.sigma**2 * y)
        self.z_op = _axis_operator(z, -p.beta * (z - p.lambda0), np.zeros(nz))

        self.mixed_coef = p.sigma * p.rho * np.outer(x, y)  # (nx, ny)
        self.m_y, self.p_z = _jump_matrices(grid, p.eta, p.alpha, dist)
        # truncation diagnostic at the anchor row v0
        self.clamp_mass = _tail_mass(dist, p.eta, p.v0, float(y[-1]))
        self.z_vec = z
        self._cache = {}

    @property
    def dt_max_explicit(self) -> float:
        """Positivity bound of the explicit jump relaxation."""
        return 1.0 / float(self.z_vec[-1])

    def jump_term(self, U: np.ndarray) -> np.ndarray:
        shifted = U @ self.p_z.T
        shifted = np.moveaxis(np.tensordot(self.m_y, shifted, axes=(1, 1)), 0, 1)
        return self.z_vec[None, None, :] * (shifted - U)

    def mixed_term(self, U: np.ndarray) -> np.ndarray:
        nx, ny, nz = self.grid.shape
        out = np.zeros_like(U)
        if nx < 3 or ny < 3:
            return out
        x, y = self.grid.x, self.grid.y
        dx = (x[2:] - x[:-2])[:, None, None]
        dy = (y[2:] - y[:-2])[None, :, None]
        cross = (
            U[2:, 2:, :] - U[2:, :-2, :] - U[:-2, 2:, :] + U[:-2, :-2, :]
        ) / (dx * dy)
        out[1:-1, 1:-1, :] = self.mixed_coef[1:-1, 1:-1, None] * cross
        return out

    def explicit_terms(self, U: np.ndarray) -> np.ndarray:
        return self.jump_term(U) + self.mixed_term(U)

    def _factors(self, dt: float):
        key = round(dt, 15)
        if key not in self._cache:
            self._cache[key] = {
                "x": [_tridiag_factors(*op, dt) for op in self.x_ops],
                "y": _tridiag_factors(*self.y_op, dt),
                "z": _tridiag_factors(*self.z_op, dt),
            }
        return self._cache[key]

    def implicit_sweeps(self, W: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt*A_x), then (I - dt*A_y), then (I - dt*A_z).

        Each sweep works in place on a copy whose swept axis is the fastest,
        so LAPACK receives its right-hand sides Fortran-ordered, uncopied.
        """
        nx, ny, nz = self.grid.shape
        fac = self._factors(dt)
        lines = np.ascontiguousarray(W.transpose(1, 2, 0))  # (y, z, x)
        for k in range(ny):
            _solve_lines(fac["x"][k], lines[k].T)
        lines = np.ascontiguousarray(lines.transpose(2, 1, 0))  # (x, z, y)
        _solve_lines(fac["y"], lines.reshape(nx * nz, ny).T)
        out = np.ascontiguousarray(lines.transpose(0, 2, 1))  # (x, y, z)
        _solve_lines(fac["z"], out.reshape(nx * ny, nz).T)
        return out

    def step(self, U: np.ndarray, dt: float, source: np.ndarray | None = None) -> np.ndarray:
        """One backward step of size dt, `source` added explicitly and held over
        the step, in ceil(dt / dt_max_explicit) equal substeps past that bound."""
        bound = self.dt_max_explicit
        n = 1 if dt <= bound * (1 + 1e-12) else math.ceil(dt / bound)
        dt = dt / n
        for _ in range(n):
            W = U + dt * self.explicit_terms(U)
            if source is not None:
                W = W + dt * source
            W = self.implicit_sweeps(W, dt)
            U = math.exp(-self.r * dt) * W
        return U

    def generator(self, U: np.ndarray) -> np.ndarray:
        """Full explicit application of the generator (no reaction term):
        the explicit terms plus the tridiagonal operators the sweeps invert."""
        x_op = tuple(np.stack(c, axis=1) for c in zip(*self.x_ops))  # (nx, ny) rows
        out = self.explicit_terms(U)
        for op, axis in ((x_op, 0), (self.y_op, 1), (self.z_op, 2)):
            out += _apply_tridiag(op, U, axis)
        return out


@dataclass
class PIDESolution:
    """Backward solution layers; values[k] is the surface at grid.t[k]."""

    grid: Grid4
    values: np.ndarray  # (nt+1, nx, ny, nz)
    diagnostics: dict = field(default_factory=dict)

    def at(self, t_index: int, x: float, y: float, z: float) -> float:
        g = self.grid
        return float(
            self.values[
                t_index, g.index_near("x", x), g.index_near("y", y), g.index_near("z", z)
            ]
        )


def solve_price_pide(
    payoff,
    maturity: float,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
) -> PIDESolution:
    """March the discounted conditional expectation of payoff(s, S_s) from the
    terminal layer (stored bit-exact) back to t = 0.

    Kinked payoffs start with two fully implicit half-steps, damping the
    terminal gradient discontinuity before the regular stepping takes over.
    """
    if abs(grid.t[-1] - maturity) > 1e-12 * max(1.0, maturity):
        raise ValueError("grid time axis must end at the maturity")
    st = Stepper(grid, model, selection, dist)
    nt = len(grid.t) - 1
    dt = grid.t[1] - grid.t[0] if nt else 0.0
    nx, ny, nz = grid.shape
    out = np.empty((nt + 1, nx, ny, nz))
    term = np.asarray(payoff(maturity, grid.x), dtype=float)
    out[nt] = np.broadcast_to(term[:, None, None], (nx, ny, nz))
    kinked = bool(getattr(payoff, "kinked", False))
    for k in range(nt - 1, -1, -1):
        if kinked and k == nt - 1:
            half = st.step(out[k + 1], 0.5 * dt)
            out[k] = st.step(half, 0.5 * dt)
        else:
            out[k] = st.step(out[k + 1], dt)
    return PIDESolution(
        grid=grid,
        values=out,
        diagnostics={"clamped_jump_mass": st.clamp_mass, "n_steps": nt},
    )
