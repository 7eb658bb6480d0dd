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

Execution: a step takes a (B, nx, ny, nz) stack of surfaces, a single
surface being a stack of one, and makes each numpy and LAPACK call once for
the whole stack.  Each sweep picks its kernel by its count of lines, from a
measured crossover up (_X_ROW_LINES, _Y_ROW_LINES, _Z_ROW_LINES) the rows,
below it LAPACK dgttrs.  As rows, a sweep runs the dgttrs recurrence one
grid row at a time, vectorised across all its lines, in the same
operations and order, except that a row's multiply-and-subtract is skipped
where its factor (dl, du or du2) is 0 on every line: du and du2 of the
lower-bidiagonal z axis, and du2 wherever no line pivots.  x - 0*y is x bit
for bit unless x is -0.0 (or y is not finite), so the rows are dgttrs's bit
for bit but for the sign of an exact zero.  The y and z sweeps share one
factorisation each; below their crossover, y calls dgttrs once on a
Fortran-ordered copy and z once on the result, whose z lines are its
columns.  The x sweep's factors differ per y-node: as rows, each
coefficient is a (ny, 1) column, and at each row only the lines that pivot
there swap; below its crossover it calls dgttrs once per y-node.  The
jump integral is one matrix product over y on a (y, B x z) copy of the
z-shifted stack.  Each Stepper owns a workspace, grown to the largest stack
it serves, so a step allocates only the stack it returns.

Of scipy, only LAPACK (scipy.linalg) loads, at import.  The variance axis's
spacing is a root found by _brentq, a port of scipy's brentq.c that gives
the same float, so building a grid never loads scipy.optimize.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg.lapack import dgttrf, dgttrs

from .errors import DomainError
from .hawkes import expected_events
from .measure import MeasureSelection, q_dynamics
from .model import ConstantJump, ExponentialJump, JumpDistribution, ValidatedModel

__all__ = ["Grid4", "build_grid", "Layer0", "PIDESolution", "march", "solve_price_pide"]

_GL_NODES = 32
_Y_SPAN = 12.0  # the variance axis reaches _Y_SPAN * vbar (at least 2 v0)
_BRENT_RTOL = 4 * sys.float_info.epsilon  # scipy.optimize.brentq's default rtol
_BRENT_MAXITER = 100  # and its default maxiter
# From this many lines up, a sweep runs as rows, vectorised across all its
# lines; below, through LAPACK dgttrs, which wins where a row is too short to
# repay numpy's per-call overhead.  A stack of B has B*ny*nz x lines (dgttrs
# once per y-node), B*nz*nx y lines and B*ny*nx z lines (dgttrs once each).
# Measured (2 cores, CHANGES.md has the tables): x rows lose at 384 lines and
# win from 448, at nx = 48, 128 and 256 and every aspect tried; y and z rows
# cross over between 256 and 768 lines, lower the longer the line (y: near
# 300 at ny = 24, near 640 at ny = 8; z: near 300 at nz = 16, near 768 at
# nz = 8), and 384 keeps the worst loss either way within 6 us a sweep.
_X_ROW_LINES = 448
_Y_ROW_LINES = 384
_Z_ROW_LINES = 384


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


def _brentq(f, xa: float, xb: float, xtol: float) -> float:
    """Root of f on [xa, xb] by Brent's method: scipy's brentq.c operation
    for operation, at scipy's default rtol (4 eps) and maxiter (100), so the
    same float as scipy.optimize.brentq(f, xa, xb, xtol=xtol).  Raises
    ValueError on same-sign endpoints and RuntimeError on non-convergence."""
    xpre, xcur = xa, xb
    fpre, fcur = f(xpre), f(xcur)
    if fpre == 0:
        return xpre
    if fcur == 0:
        return xcur
    if math.copysign(1.0, fpre) == math.copysign(1.0, fcur):  # C's signbit
        raise ValueError("f(a) and f(b) must have different signs")
    xblk = fblk = spre = scur = 0.0
    for _ in range(_BRENT_MAXITER):
        if fpre != 0 and fcur != 0 and math.copysign(1.0, fpre) != math.copysign(1.0, fcur):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + _BRENT_RTOL * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            if xpre == xblk:  # interpolate
                stry = -fcur * (xcur - xpre) / (fcur - fpre)
            else:  # extrapolate
                dpre = (fpre - fcur) / (xpre - xcur)
                dblk = (fblk - fcur) / (xblk - xcur)
                den = dblk * dpre * (fblk - fpre)  # can underflow to 0: C then bisects
                stry = -fcur * (fblk * dblk - fpre * dpre) / den if den else math.inf
            if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):  # good short step
                spre, scur = scur, stry
            else:  # bisect
                spre = scur = sbis
        else:  # bisect
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        if abs(scur) > delta:
            xcur += scur
        else:
            xcur += delta if sbis > 0 else -delta
        fcur = f(xcur)
    raise RuntimeError(f"Failed to converge after {_BRENT_MAXITER} iterations.")


def _sinh_axis(lo: float, hi: float, anchor: float, n: int) -> np.ndarray:
    """Axis on exactly [lo, hi] clustered at `anchor`, which lands on a node.

    Nodes are anchor + b*sinh(xi) on a uniform xi-grid through 0; the spacing
    d of that grid solves sinh((n-1-k0) d)/sinh(k0 d) = (hi-anchor)/(anchor-lo)
    so that both endpoints are hit exactly.
    """
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
        d = _brentq(f, 1e-9, d_hi, xtol=1e-14)
    b = (anchor - lo) / math.sinh(k0 * d)
    xi = d * (np.arange(n) - k0)
    u = anchor + b * np.sinh(xi)
    u[0], u[k0], u[-1] = lo, anchor, hi
    return u


def build_grid(
    model: ValidatedModel,
    maturity: float,
    nt: int,
    nx: int,
    ny: int,
    nz: int,
) -> Grid4:
    """Default truncation: x in [S0/8, ~8 S0] log-spaced (spot a node),
    y in [v0/50, _Y_SPAN*vbar] sinh-clustered at v0, z from lambda0 out to
    lambda0 + 8*alpha*E[N_T]; the z-axis collapses to one node when there is
    no self-excitation.  A maturity of 0 or less is refused, and so is one
    past T, because the z-axis is sized for the events expected by T.  x needs
    at least 3 nodes, and y and z 1 or at least 3: LAPACK's tridiagonal
    factorisation refuses 2 rows."""
    p = model.params
    if not maturity > 0:  # NaN too
        raise DomainError(f"maturity must be > 0, got {maturity:g}")
    if maturity > p.T:
        raise DomainError(f"maturity {maturity:g} exceeds the model horizon T = {p.T:g}")
    if nx < 3 or 2 in (ny, nz):
        raise DomainError(f"grid needs nx >= 3 and ny, nz of 1 or >= 3, got nx={nx}, ny={ny}, nz={nz}")
    k0 = nx // 2
    h = math.log(8.0) / k0
    x = p.S0 * np.exp(h * (np.arange(nx) - k0))
    y = _sinh_axis(p.v0 / 50.0, max(_Y_SPAN * p.vbar, 2.0 * p.v0), p.v0, ny)
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
    """Overwrite the Fortran-ordered columns of b with their solutions.  No
    columns, no call: scipy's dgttrs writes past the end of an empty array."""
    if fac is not None and b.size:
        _, info = dgttrs(*fac, b, overwrite_b=1)
        if info:
            raise ValueError(f"dgttrs rejected argument {-info}")


def _row_factors(fac):
    """Shared factors of the row solver: dgttrf's (dl, d, du, du2) as one
    scalar per row, None where dl, du or du2 is 0, and per row the lines that
    pivot there, slice(None) for all or None for none.  A one-node axis's
    None stays None."""
    if fac is None:
        return None
    dl, d, du, du2, ipiv = (f.tolist() for f in fac)
    dl, du, du2 = ([c if c != 0 else None for c in f] for f in (dl, du, du2))
    swaps = [slice(None) if p != i + 1 else None for i, p in enumerate(ipiv)]
    return dl, d, du, du2, swaps


def _line_factors(facs):
    """Per-line factors of the row solver: the dgttrf factors of each line
    stacked into (n, lines, 1) columns, so a row (lines, m) of the right-hand
    sides broadcasts against them, None where dl, du or du2 is 0 on every
    line of a row, and per row the indices of the lines that pivot there
    (None where none does)."""
    dl, d, du, du2, ipiv = (np.stack(f, axis=1)[..., None] for f in zip(*facs))
    dl, du, du2 = ([c if c.any() else None for c in f] for f in (dl, du, du2))
    rows = np.arange(1, len(d) + 1)[:, None]
    swaps = [np.flatnonzero(s) if s.any() else None for s in ipiv[..., 0] != rows]
    return dl, list(d), du, du2, swaps


def _solve_rows(fac, b: np.ndarray, tmp: np.ndarray) -> None:
    """Overwrite b with the solutions of its lines, one line per position of
    the rows b[0], ..., b[n-1]: the dgttrs recurrence (LAPACK dgtts2, no
    transpose) in its operations and their order, run one row at a time and
    vectorised across the lines, but for the multiply-and-subtract of a
    factor marked None, 0 on every line, which is skipped (exact but for
    the sign of a zero); tmp is scratch of one row's shape.  fac is
    _row_factors' (one factorisation shared by every line) or _line_factors'
    (each line its own, its coefficients broadcast along a row)."""
    if fac is None:
        return
    dl, d, du, du2, swaps = fac
    n = len(d)
    row = list(b)  # views, indexed once

    def update(i, c, j):  # row[i] -= c * row[j], skipped where c is 0 on every line
        if c is not None:
            np.multiply(row[j], c, out=tmp)
            np.subtract(row[i], tmp, out=row[i])

    for i in range(n - 1):
        s = swaps[i]
        if s is not None:  # pivot: these lines swap rows i and i+1 before the update
            np.copyto(tmp, row[i])
            row[i][s] = row[i + 1][s]
            row[i + 1][s] = tmp[s]
        update(i + 1, dl[i], i)
    np.divide(row[n - 1], d[n - 1], out=row[n - 1])
    update(n - 2, du[n - 2], n - 1)
    np.divide(row[n - 2], d[n - 2], out=row[n - 2])
    for i in range(n - 3, -1, -1):
        update(i, du[i], i + 1)
        update(i, du2[i], i + 2)
        np.divide(row[i], d[i], out=row[i])


class Stepper:
    """Shared spatial discretization of the generator; prices and reserves
    both step through it.  Build one per grid and measure and hand it to
    every solve on them: marches may take turns on it, since no step reads
    what an earlier one left in the workspace, but only one thread may use
    it at a time.

    Every method but `generator` takes a (B, nx, ny, nz) stack of surfaces,
    stepped as one, or a single (nx, ny, nz) surface as a stack of one, and
    returns the shape it is given.  Each Stepper owns a workspace of three
    stack-sized buffers and one row of scratch (B times the largest of an
    (nz, nx), a (ny, nx) and an (ny, nz) grid row, the last the x sweep's
    when it runs as rows), grown to the largest stack it has served and
    reused by every step, and keeps the sweeps' factors of every step size.
    `jump_term` and `mixed_term` return views of it, valid until the next
    call; `explicit_terms`, `implicit_sweeps`, `step` and `generator` return
    fresh arrays."""

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
        self._dxdy = (x[2:] - x[:-2])[:, None, None] * (y[2:] - y[:-2])[None, :, None]
        self.m_y, self.p_z = _jump_matrices(grid, p.eta, p.alpha, dist)
        # truncation diagnostic at the anchor row v0
        self.clamp_mass = _tail_mass(dist, p.eta, p.v0, float(y[-1]))
        self.z_vec = z
        self._cache = {}
        self._shape = grid.shape
        self._grow(1)

    def _grow(self, B: int) -> None:
        """Size the workspace for stacks of up to B surfaces.  _a and _b hold
        in turn the jump term's stages, the mixed term's differences, W, the
        source term and the sweeps' transposed lines; _mixed keeps the zero
        border of the mixed term; _row is the row solver's scratch."""
        nx, ny, nz = self._shape
        self._a = np.empty(B * nx * ny * nz)
        self._b = np.empty(B * nx * ny * nz)
        self._mixed = np.zeros((B, nx, ny, nz))
        self._row = np.empty(B * max(ny * nx, nz * nx, ny * nz))
        self._layouts = {}

    def _stack(self, U: np.ndarray) -> np.ndarray:
        """U as a (B, nx, ny, nz) stack, the workspace grown to hold it."""
        U = U.reshape((-1,) + self._shape)
        if len(U) > len(self._mixed):
            self._grow(len(U))
        return U

    def _layout(self, B: int) -> dict:
        """The workspace's views for a stack of B, made once per B."""
        lay = self._layouts.get(B)
        if lay is None:
            nx, ny, nz = self._shape
            my = max(ny - 2, 0)  # the mixed term's interior y-nodes
            a, b = self._a[: B * nx * ny * nz], self._b[: B * nx * ny * nz]
            lines = a.reshape(ny, B, nz, nx)
            lay = self._layouts[B] = {
                # the jump term: U P_z^T, its (y, B x z) copy, M_y times that
                "shifted": a.reshape(B, nx, ny, nz),
                "jump_in": b.reshape(ny, B, nx, nz),
                "jump": a.reshape(ny, B, nx, nz),
                # the mixed term's interior differences (none where ny < 3)
                "cross": b[: B * (nx - 2) * my * nz].reshape(B, nx - 2, my, nz),
                "mixed": self._mixed[:B],
                # W as a (B, x, y, z) stack, and as the x rows of its (x, y, B z) layout
                "w": b.reshape(nx, ny, B, nz).transpose(2, 0, 1, 3),
                "packed": b.reshape(nx, ny, B * nz),
                # the (y, B, z, x) copy and its Fortran-ordered (x, B z) column
                # blocks, one per y-node; a Fortran-ordered (y, B z x) copy;
                # the (z, B, y, x) copy
                "lines": lines,
                "x_cols": [line.reshape(B * nz, nx).T for line in lines],
                "y_cols": b.reshape(B * nz * nx, ny).T,
                "rows": b.reshape(nz, B, ny, nx),
                "tmp_x": self._row[: B * ny * nz].reshape(ny, B * nz),
                "tmp_y": self._row[: B * nz * nx].reshape(B, nz, nx),
                "tmp_z": self._row[: B * ny * nx].reshape(B, ny, nx),
            }
        return lay

    def _rows(self, B: int) -> tuple:
        """Whether the x, y and z sweeps of a stack of B run as rows."""
        nx, ny, nz = self._shape
        lines = (ny * nz, nz * nx, ny * nx)
        least = (_X_ROW_LINES, _Y_ROW_LINES, _Z_ROW_LINES)
        return tuple(B * n >= m for n, m in zip(lines, least))

    @property
    def dt_max_explicit(self) -> float:
        """Positivity bound of the explicit jump relaxation."""
        return 1.0 / float(self.z_vec[-1])

    def jump_term(self, U: np.ndarray) -> np.ndarray:
        """z * (M_y (U P_z^T) - U), the one dgemm over y taking the (y, B x z)
        copy of the z-shift: a workspace view.  (A batched matmul over x
        instead differs in the last bits for small nz: BLAS picks other
        kernels for narrow products.)"""
        S = self._stack(U)
        lay = self._layout(len(S))
        shifted, lines, out = lay["shifted"], lay["jump_in"], lay["jump"]
        np.matmul(S, self.p_z.T, out=shifted)
        np.copyto(lines, shifted.transpose(2, 0, 1, 3))
        np.matmul(self.m_y, lines.reshape(len(lines), -1), out=out.reshape(len(out), -1))
        out -= S.transpose(2, 0, 1, 3)
        out *= self.z_vec
        return out.transpose(1, 2, 0, 3).reshape(U.shape)

    def mixed_term(self, U: np.ndarray) -> np.ndarray:
        """sigma rho x y U_xy by central differences, zero on the x and y
        border: a workspace view."""
        S = self._stack(U)
        lay = self._layout(len(S))
        out, cross = lay["mixed"], lay["cross"]
        np.subtract(S[:, 2:, 2:, :], S[:, 2:, :-2, :], out=cross)
        cross -= S[:, :-2, 2:, :]
        cross += S[:, :-2, :-2, :]
        cross /= self._dxdy
        np.multiply(self.mixed_coef[1:-1, 1:-1, None], cross, out=out[:, 1:-1, 1:-1, :])
        return out.reshape(U.shape)

    def explicit_terms(self, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """The jump and mixed terms summed, into `out` if given, else fresh."""
        if out is None:
            out = np.empty(U.shape)
        return np.add(self.jump_term(U), self.mixed_term(U), out=out)

    def _factors(self, dt: float, rows: tuple) -> list:
        """The x, y and z sweeps' factors at step dt, each built once per dt in
        the form of its kernel: LAPACK's (x's one per y-node), or the row
        solver's (x's stacked per line).  They are keyed on dt itself: a step
        never takes the factors of a neighbouring float."""
        fac = self._cache.setdefault(dt, {})
        for axis, as_rows in zip("xyz", rows):
            if (axis, as_rows) not in fac:
                if axis == "x":
                    f = [_tridiag_factors(*op, dt) for op in self.x_ops]
                    f = _line_factors(f) if as_rows else f
                else:
                    f = _tridiag_factors(*(self.y_op if axis == "y" else self.z_op), dt)
                    f = _row_factors(f) if as_rows else f
                fac[axis, as_rows] = f
        return [fac[key] for key in zip("xyz", rows)]

    def implicit_sweeps(self, W: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt*A_x), then (I - dt*A_y), then (I - dt*A_z).

        W sits in the workspace's (x, y, B z) layout (a caller's W is copied
        there first and left intact).  Each sweep runs as rows, vectorised
        across all its lines, from its _ROW_LINES count up, and through LAPACK
        dgttrs below it.  x's factors differ per y: as rows, x is solved with
        per-line factors in place in that layout, before the (y, B, z, x)
        copy; through LAPACK, one y-slice at a time on Fortran-ordered columns
        of that copy.  y and z share one factorisation each.  y is solved in
        place in the (y, B, z, x) copy, as rows or through a Fortran-ordered
        (y, B z x) copy and back; z as rows in a (z, B, y, x) copy, or
        through LAPACK in place in the result, whose z lines are its columns.
        """
        S = self._stack(W)
        lay = self._layout(len(S))
        rows = self._rows(len(S))
        fac_x, fac_y, fac_z = self._factors(dt, rows)
        if W is not lay["w"]:
            np.copyto(lay["w"], S)
        lines = lay["lines"]
        if rows[0]:
            _solve_rows(fac_x, lay["packed"], lay["tmp_x"])
        np.copyto(lines, lay["w"].transpose(2, 0, 3, 1))
        if not rows[0]:
            for f, cols in zip(fac_x, lay["x_cols"]):
                _solve_lines(f, cols)
        if rows[1]:
            _solve_rows(fac_y, lines, lay["tmp_y"])
        else:
            flat, cols = lines.reshape(len(lines), -1), lay["y_cols"]
            np.copyto(cols, flat)
            _solve_lines(fac_y, cols)
            np.copyto(flat, cols)
        out = np.empty(S.shape)
        if rows[2]:
            np.copyto(lay["rows"], lines.transpose(2, 1, 0, 3))
            _solve_rows(fac_z, lay["rows"], lay["tmp_z"])
            np.copyto(out, lay["rows"].transpose(1, 3, 2, 0))
        else:
            np.copyto(out, lines.transpose(1, 3, 0, 2))
            _solve_lines(fac_z, out.reshape(-1, out.shape[-1]).T)
        return out.reshape(W.shape)

    def step(self, U: np.ndarray, dt: float, source: np.ndarray | None = None) -> np.ndarray:
        """One backward step of size dt of a surface or a stack U, `source`
        (of U's shape) added explicitly and held over the step, in
        ceil(dt / dt_max_explicit) equal substeps past that bound."""
        bound = self.dt_max_explicit
        n = 1 if dt <= bound * (1 + 1e-12) else math.ceil(dt / bound)
        dt = dt / n
        shape, U = U.shape, self._stack(U)
        W = self._layout(len(U))["w"]
        for _ in range(n):
            self.explicit_terms(U, out=W)
            W *= dt
            W += U
            if source is not None:
                W += np.multiply(source, dt, out=self._a[: U.size].reshape(U.shape))
            U = self.implicit_sweeps(W, dt)
            U *= math.exp(-self.r * dt)
        return U.reshape(shape)

    def generator(self, U: np.ndarray) -> np.ndarray:
        """Full explicit application of the generator (no reaction term):
        the explicit terms plus the tridiagonal operators the sweeps invert."""
        x_op = tuple(np.stack(c, axis=1) for c in zip(*self.x_ops))  # (nx, ny) rows
        out = self.explicit_terms(U)
        for op, axis in ((x_op, 0), (self.y_op, 1), (self.z_op, 2)):
            out += _apply_tridiag(op, U, axis)
        return out


class Layer0(tuple):
    """(U(0),): the one time layer a solve keeps, at index 0.  Any other time
    index, -1 included, raises IndexError instead of aliasing it."""

    def __getitem__(self, k):
        return super().__getitem__(0 if k == 0 else len(self))


@dataclass
class PIDESolution:
    """The t = 0 surface of a backward solve, the only layer kept: values[0]."""

    grid: Grid4
    values: Layer0
    diagnostics: dict = field(default_factory=dict)

    def at(self, t_index: int, x: float, y: float, z: float) -> float:
        g, u = self.grid, self.values[t_index]
        return float(u[g.index_near("x", x), g.index_near("y", y), g.index_near("z", z)])


def march(stepper: Stepper, start: dict, t: np.ndarray, *, kinked=False, source=None):
    """The backward time loop over the uniform axis t: yield (k, layers), k = nt
    down to 0, layers mapping each state to its surface at t[k], from the
    terminal x-values start[state] broadcast over (y, z).  The states step as
    one (B, nx, ny, nz) stack, in start's order, with source(layers, k), every
    state's source as one such stack, held over the step from k; a kinked
    start takes two implicit half-steps first.  Each surface is a view of its
    map's stack, and only one map is held."""
    nt = len(t) - 1
    dt = t[1] - t[0] if nt else 0.0
    U = np.empty((len(start),) + stepper.grid.shape)
    for b, f in enumerate(start.values()):  # no loop variable keeps a view of U
        U[b] = np.asarray(f, dtype=float)[:, None, None]
    cur = dict(zip(start, U))
    yield nt, cur
    for k in range(nt - 1, -1, -1):
        src = None if source is None else source(cur, k + 1)
        if kinked and k == nt - 1:
            U = stepper.step(stepper.step(U, 0.5 * dt, src), 0.5 * dt, src)
        else:
            U = stepper.step(U, dt, src)
        cur = dict(zip(start, U))
        yield k, cur


def solve_price_pide(
    payoff,
    maturity: float,
    model: ValidatedModel,
    selection: MeasureSelection,
    dist: JumpDistribution,
    grid: Grid4,
) -> PIDESolution:
    """March the discounted conditional expectation of payoff(s, S_s) from the
    terminal layer (stored bit-exact) back to t = 0, keeping only that layer."""
    if abs(grid.t[-1] - maturity) > 1e-12 * max(1.0, maturity):
        raise ValueError("grid time axis must end at the maturity")
    st = Stepper(grid, model, selection, dist)
    marching = march(st, {0: payoff(maturity, grid.x)}, grid.t, kinked=payoff.kinked)
    (_, layers), = deque(marching, maxlen=1)  # the last map, k = 0
    return PIDESolution(
        grid=grid,
        values=Layer0((layers[0],)),
        diagnostics={"clamped_jump_mass": st.clamp_mass, "n_steps": len(grid.t) - 1},
    )
