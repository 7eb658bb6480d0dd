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
surface being a stack of one, and makes each numpy call once for the whole
stack.  Every implicit sweep runs as rows: the dgttrs recurrence (LAPACK
dgtts2) one grid row at a time, vectorised across all the sweep's lines, in
dgttrs's operations and order, except that a row's multiply-and-subtract is
skipped where its factor (dl, du or du2) is 0 on every line: du and du2 of
the lower-bidiagonal z axis, and du2 wherever no line pivots.  x - 0*y is x
bit for bit unless x is -0.0 (or y is not finite), so the rows are dgttrs's
bit for bit but for the sign of an exact zero.  The factors come from
_dgttrf, LAPACK's reference dgttrf ported to numpy operation for operation
and vectorised the same way, so they are dgttrf's bits.  The y and z sweeps
share one factorisation each; the x sweep's factors differ per y-node, so
each coefficient is spread over an x row, (ny, B nz), once per stack size
(numpy broadcasts a column two to three times slower), and at each row
only the lines that pivot there swap.  The jump integral is one matrix product over y on a
(y, B x z) copy of the z-shifted stack.  Each Stepper owns a workspace,
grown to the largest stack it serves, so a step allocates only the stack it
returns.

No scipy loads.  The variance axis's spacing is a root found by _brentq, a
port of scipy's brentq.c that gives the same float.
"""

from __future__ import annotations

import math
import sys
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError
from .hawkes import expected_events
from .measure import MeasureSelection, q_dynamics
from .model import JumpDistribution, ValidatedModel

__all__ = ["Grid4", "build_grid", "Layer0", "PIDESolution", "march", "solve_price_pide"]

_Y_SPAN = 12.0  # the variance axis reaches _Y_SPAN * vbar (at least 2 v0)
_BRENT_RTOL = 4 * sys.float_info.epsilon  # scipy.optimize.brentq's default rtol
_BRENT_MAXITER = 100  # and its default maxiter


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

    def node(self, x: float, y: float, z: float) -> tuple[int, int, int]:
        """The (x, y, z) index of the node nearest the point, axis by axis."""
        return self.index_near("x", x), self.index_near("y", y), self.index_near("z", z)


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
    so that both endpoints are hit exactly.  Where no split k0 solves it, the
    axis is two uniform pieces that meet at the anchor.
    """
    if n == 1:
        return np.array([anchor])
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
        k0 = max(1, min(n - 2, round((n - 1) / (1.0 + ratio))))
        below = np.linspace(lo, anchor, k0 + 1)[:-1]
        return np.concatenate([below, np.linspace(anchor, hi, n - k0)])
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
    y in [v0/50, max(_Y_SPAN*vbar, 2 v0)] clustered at v0 (a node), z from
    lambda0 out to lambda0 + 8*alpha*E[N_T]; the z-axis collapses to one node
    when there is no self-excitation.  A maturity of 0 or less is refused,
    and so is one past T, because the z-axis is sized for the events
    expected by T.  x needs at least 3 nodes, and y and z 1 or at least 3: a
    2-node axis has no interior node, the only rows where diffusion acts, so
    its operator would be the two one-sided convection rows alone.  nz = 1
    puts the whole z-axis at lambda0, exact only when alpha = 0 (lambda stays
    there) or eta = 0 (lambda moves no price); with both positive it would
    price a model with the intensity frozen at lambda0, so it is refused."""
    p = model.params
    if not maturity > 0:  # NaN too
        raise DomainError(f"maturity must be > 0, got {maturity:g}")
    if maturity > p.T:
        raise DomainError(f"maturity {maturity:g} exceeds the model horizon T = {p.T:g}")
    if nx < 3 or 2 in (ny, nz):
        raise DomainError(f"grid needs nx >= 3 and ny, nz of 1 or >= 3, got nx={nx}, ny={ny}, nz={nz}")
    if nz == 1 and p.alpha > 0 and p.eta > 0:
        raise DomainError(
            f"a one-node z-axis freezes the intensity at lambda0, dropping the self-excitation "
            f"(alpha = {p.alpha:g}, eta = {p.eta:g}): nz must be >= 3"
        )
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
    vanishing second derivative.  The rows run along the first axis of u, c
    and d; a second axis of them broadcasts to one operator per position.
    """
    n = len(u)
    lo = np.zeros(np.broadcast_shapes(np.shape(u), np.shape(conv), np.shape(diff)))
    di = np.zeros(lo.shape)
    up = np.zeros(lo.shape)
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
    m = np.zeros((len(targets), len(axis)))
    top = targets >= axis[-1]
    rows = np.flatnonzero(~top)
    t = targets[rows]
    j = np.clip(np.searchsorted(axis, t, side="right") - 1, 0, len(axis) - 2)
    w = (t - axis[j]) / (axis[j + 1] - axis[j])
    m[rows, j] = 1.0 - w
    m[rows, j + 1] = w
    m[top, -1] = 1.0
    return m


def _jump_matrices(grid: Grid4, eta: float, alpha: float, dist: JumpDistribution):
    """Dense shift-and-average matrices of the jump integral.

    Returns (M_y, P_z): M_y averages f(y + eta*u) over the mark law by the
    law's own quadrature rule (Gauss-Laguerre for exponential marks, a
    single shifted evaluation for constant ones), P_z shifts by alpha; both
    clamp at the truncation boundary.
    """
    ny, nz = len(grid.y), len(grid.z)
    if eta == 0.0:
        m_y = np.eye(ny)
    else:
        m_y = np.zeros((ny, ny))
        for u_node, w in zip(*dist.quadrature()):
            m_y += w * _interp_matrix(grid.y, grid.y + eta * u_node)
    p_z = _interp_matrix(grid.z, grid.z + alpha) if alpha > 0 and nz > 1 else np.eye(nz)
    return m_y, p_z


def _tail_mass(dist: JumpDistribution, eta: float, y0: float, y_max: float) -> float:
    """Mark-law mass of the jumps from y0 that reach the truncation y_max,
    where the jump integral clamps: P(y0 + eta*U >= y_max)."""
    return 0.0 if eta == 0.0 else dist.tail(y0, eta, y_max)


def _apply_tridiag(op, U: np.ndarray, axis: int) -> np.ndarray:
    """Rows (lo, di, up) of a tridiagonal operator applied along `axis` of U;
    a row's trailing dimensions match U's once `axis` is moved first."""
    U = np.moveaxis(U, axis, 0)
    lo, di, up = (c.reshape(c.shape + (1,) * (U.ndim - c.ndim)) for c in op)
    out = di * U
    out[1:] += lo[1:] * U[:-1]
    out[:-1] += up[:-1] * U[1:]
    return np.moveaxis(out, 0, axis)


def _dgttrf(dl, d, du):
    """LU factors of the tridiagonal systems with sub-, main and
    super-diagonals dl, d and du, whose rows run along the first axis, one
    system per position of any further axes: LAPACK's reference dgttrf,
    operation for operation, run one row at a time and vectorised across the
    systems, with its pivot test |d| >= |dl| taken per system.  Returns
    dgttrf's (dl, d, du, du2, ipiv), ipiv 1-based, and raises LinAlgError on
    an exactly zero pivot, naming the first as dgttrf's info does."""
    dl, d, du = (np.array(c, dtype=float) for c in (dl, d, du))
    n = len(d)
    du2 = np.zeros((max(n - 2, 0),) + d.shape[1:])
    ipiv = np.empty(d.shape, dtype=np.int32)
    ipiv[...] = np.arange(1, n + 1).reshape((n,) + (1,) * (d.ndim - 1))
    # where d[i] = dl[i] = 0 dgttrf skips the elimination, and this loop
    # spreads a NaN past row i instead; either way d[i] = 0 raises below
    with np.errstate(divide="ignore", invalid="ignore"):
        for i in range(n - 1):
            swap = np.abs(d[i]) < np.abs(dl[i])  # interchange rows i and i+1
            fact = np.where(swap, d[i] / dl[i], dl[i] / d[i])
            below = np.where(swap, du[i] - fact * d[i + 1], d[i + 1] - fact * du[i])
            if i < n - 2:
                du2[i] = np.where(swap, du[i + 1], 0.0)
                du[i + 1] = np.where(swap, -(fact * du[i + 1]), du[i + 1])
            du[i] = np.where(swap, d[i + 1], du[i])
            d[i] = np.where(swap, dl[i], d[i])
            dl[i] = fact
            d[i + 1] = below
            ipiv[i] = np.where(swap, i + 2, i + 1)
    zero = np.flatnonzero((d == 0).reshape(n, -1).any(axis=1))
    if zero.size:
        raise np.linalg.LinAlgError(f"singular implicit sweep (dgttrf info={zero[0] + 1})")
    return dl, d, du, du2, ipiv


def _row_factors(fac):
    """The row solver's form of dgttrf's factors (dl, d, du, du2, ipiv), rows
    along the first axis: per row, each of dl, d, du and du2 as a 0-d array
    where every line solves one system (1-D factors; numpy takes a 0-d array
    faster than a float), or as a (lines, 1) column where each line has its
    own (2-D factors, so a row (lines, m) of the right-hand sides broadcasts
    against it), None where dl, du or du2 is 0 on every line; and per row
    the lines that pivot there, slice(None) for all of a shared system,
    their indices otherwise, None for none."""
    dl, d, du, du2, ipiv = fac
    shared = d.ndim == 1

    def rows(c, skip=True):
        return [None if skip and not r.any() else np.array(r) if shared else r[:, None]
                for r in c]

    rank = np.arange(1, len(d) + 1).reshape((len(d),) + (1,) * (d.ndim - 1))
    swaps = [None if not s.any() else slice(None) if shared else np.flatnonzero(s)
             for s in ipiv != rank]
    return rows(dl), rows(d, skip=False), rows(du), rows(du2), swaps


def _tridiag_factors(lo, di, up, dt):
    """The row solver's factors of I - dt*A, A's tridiagonal rows (lo, di,
    up) along the first axis, one system per position of any second; None
    on a one-node axis, where the system is the identity."""
    if len(di) == 1:
        return None
    return _row_factors(_dgttrf(-dt * lo[1:], 1.0 - dt * di, -dt * up[:-1]))


def _solve_rows(fac, b, tmp: np.ndarray) -> None:
    """Overwrite the rows b[0], ..., b[n-1] (an array, or a list of views of
    its rows) with the solutions of their lines, one line per position of a
    row: the dgttrs recurrence (LAPACK dgtts2, no transpose) in its
    operations and their order, run one row at a time and vectorised across
    the lines, but for the multiply-and-subtract of a factor marked None, 0
    on every line, which is skipped (exact but for the sign of a zero); tmp
    is scratch of one row's shape.  fac is _tridiag_factors': one system
    shared by every line, or each line its own, its coefficients broadcast
    along a row.  The ufuncs take `out` by position, which numpy parses
    faster than the keyword."""
    if fac is None:
        return
    dl, d, du, du2, swaps = fac
    mul, sub, div, copyto = np.multiply, np.subtract, np.divide, np.copyto
    row = list(b)
    n = len(row)
    for r, nxt, s, c in zip(row, row[1:], swaps, dl):
        if s is not None:  # pivot: these lines swap rows i and i+1 before the update
            copyto(tmp, r)
            r[s] = nxt[s]
            nxt[s] = tmp[s]
        if c is not None:  # nxt -= c * r
            mul(r, c, tmp)
            sub(nxt, tmp, nxt)
    r = row[n - 1]
    div(r, d[n - 1], r)
    r, c = row[n - 2], du[n - 2]
    if c is not None:
        mul(row[n - 1], c, tmp)
        sub(r, tmp, r)
    div(r, d[n - 2], r)
    for i in range(n - 3, -1, -1):
        r, c, c2 = row[i], du[i], du2[i]
        if c is not None:  # r -= du * row[i+1]
            mul(row[i + 1], c, tmp)
            sub(r, tmp, r)
        if c2 is not None:  # r -= du2 * row[i+2]
            mul(row[i + 2], c2, tmp)
            sub(r, tmp, r)
        div(r, d[i], r)


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
    (nz, nx), a (ny, nx) and an (ny, nz) grid row, the z, y and x sweeps'),
    grown to the largest stack it has served and reused by every step, and
    keeps the sweeps' factors of every step size (x's spread over a row for
    every stack size).
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

        # x's operator differs per y-node: its rows are (nx, ny), a column per y-node
        self.x_op = _axis_operator(x[:, None], p.r * x[:, None], 0.5 * x[:, None]**2 * y)
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
                # the (y, B, z, x) copy, whose y rows are its first axis, and
                # the (z, B, y, x) copy
                "lines": a.reshape(ny, B, nz, nx),
                "rows": b.reshape(nz, B, ny, nx),
                # each sweep's rows, as the row solver takes them: views listed once
                "x_rows": list(b.reshape(nx, ny, B * nz)),
                "y_rows": list(a.reshape(ny, B, nz, nx)),
                "z_rows": list(b.reshape(nz, B, ny, nx)),
                "tmp_x": self._row[: B * ny * nz].reshape(ny, B * nz),
                "tmp_y": self._row[: B * nz * nx].reshape(B, nz, nx),
                "tmp_z": self._row[: B * ny * nx].reshape(B, ny, nx),
            }
        return lay

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

    def _factors(self, dt: float, B: int = 1) -> tuple:
        """The x, y and z sweeps' factors at step dt for a stack of B, built
        once per dt: x's a system per y-node, y's and z's one each.  x's
        columns are spread once per B to the full (ny, B nz) shape of an x
        row (numpy multiplies arrays of one shape two to three times faster
        than it broadcasts a column).  They are keyed on dt itself: a step
        never takes the factors of a neighbouring float."""
        fac = self._cache.get(dt)
        if fac is None:
            fac = self._cache[dt] = (
                *(_tridiag_factors(*op, dt) for op in (self.x_op, self.y_op, self.z_op)), {})
        x, y, z, spread = fac
        if B not in spread:
            ny, nz = self._shape[1:]
            row = (ny, B * nz)
            dl, d, du, du2, swaps = x
            spread[B] = (*([None if c is None else np.ascontiguousarray(np.broadcast_to(c, row))
                            for c in f] for f in (dl, d, du, du2)), swaps)
        return spread[B], y, z

    def implicit_sweeps(self, W: np.ndarray, dt: float) -> np.ndarray:
        """Solve (I - dt*A_x), then (I - dt*A_y), then (I - dt*A_z).

        W sits in the workspace's (x, y, B z) layout (a caller's W is copied
        there first and left intact).  Each sweep runs as rows, vectorised
        across all its lines: x in place in that layout, its factors a
        system per y-node spread over the row; y in place in a (y, B, z, x)
        copy; z in a (z, B, y, x) copy.  y and z share one factorisation
        each.
        """
        S = self._stack(W)
        lay = self._layout(len(S))
        fac_x, fac_y, fac_z = self._factors(dt, len(S))
        if W is not lay["w"]:
            np.copyto(lay["w"], S)
        _solve_rows(fac_x, lay["x_rows"], lay["tmp_x"])
        lines = lay["lines"]
        np.copyto(lines, lay["w"].transpose(2, 0, 3, 1))
        _solve_rows(fac_y, lay["y_rows"], lay["tmp_y"])
        np.copyto(lay["rows"], lines.transpose(2, 1, 0, 3))
        _solve_rows(fac_z, lay["z_rows"], lay["tmp_z"])
        out = np.empty(S.shape)
        np.copyto(out, lay["rows"].transpose(1, 3, 2, 0))
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
        out = self.explicit_terms(U)
        for op, axis in ((self.x_op, 0), (self.y_op, 1), (self.z_op, 2)):
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
        return float(self.values[t_index][self.grid.node(x, y, z)])


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
