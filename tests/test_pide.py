import dataclasses
import hashlib
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg.lapack import dgttrf, dgttrs
from scipy.optimize import brentq

from hhr import markov, measure, model, payoff, pide, thiele
from hhr.config import config_from_dict, load_config
from hhr.errors import DomainError

from conftest import bits, desk_params

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"


def _mk(**kw):
    return model.validate(desk_params(**kw))


DIST = model.ExponentialJump(2.0)


@pytest.fixture(scope="module")
def setup():
    m = _mk()
    sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
    grid = pide.build_grid(m, 1.0, 64, 48, 24, 16)
    return m, sel, grid


class TestGrid:
    def test_axes_anchor_the_state(self, setup):
        m, _, grid = setup
        assert grid.x[grid.index_near("x", m.S0)] == m.S0
        assert grid.y[grid.index_near("y", m.v0)] == m.v0
        assert grid.z[0] == m.lambda0
        assert grid.x[0] == pytest.approx(m.S0 / 8)
        assert grid.y[0] == pytest.approx(m.v0 / 50)
        assert grid.y[-1] == pytest.approx(12 * m.vbar)

    @settings(max_examples=100, deadline=None)
    @given(
        v0_over_vbar=st.floats(0.01, 40.0),
        vbar=st.floats(0.07, 1.0),  # the Feller condition at kappa 2, sigma 0.5
        s0=st.floats(1.0, 1000.0),
        lambda0=st.floats(0.1, 5.0),
        nx=st.integers(3, 64),
        ny=st.sampled_from([1, *range(3, 130)]),  # an axis takes 1 node or at least 3
        nz=st.sampled_from([1, *range(3, 20)]),
    )
    @example(v0_over_vbar=5.0 / 0.3, vbar=0.3, s0=100.0, lambda0=1.0, nx=48, ny=24, nz=16)
    def test_every_accepted_grid_has_the_anchors_as_nodes(
        self, v0_over_vbar, vbar, s0, lambda0, nx, ny, nz
    ):
        # one z node is accepted without variance jumps only; eta moves no axis
        m = _mk(v0=v0_over_vbar * vbar, vbar=vbar, S0=s0, lambda0=lambda0,
                **({"eta": 0.0} if nz == 1 else {}))
        grid = pide.build_grid(m, m.T, 4, nx, ny, nz)
        assert m.S0 in grid.x and m.v0 in grid.y and m.lambda0 in grid.z

    def test_one_z_node_refused_with_self_excitation(self):
        # one node at lambda0 would freeze the intensity there; it is exact
        # only when lambda stays at lambda0 or moves no price
        with pytest.raises(DomainError, match="one-node z-axis freezes the intensity"):
            pide.build_grid(_mk(), 1.0, 8, 12, 8, 1)
        for m in (_mk(alpha=0.0), _mk(eta=0.0)):
            assert pide.build_grid(m, 1.0, 8, 12, 8, 1).z.tolist() == [m.lambda0]

    def test_axes_must_increase(self):
        with pytest.raises(ValueError):
            pide.Grid4(
                t=np.array([0.0, 1.0]),
                x=np.array([1.0, 1.0]),
                y=np.array([0.1, 0.2]),
                z=np.array([1.0]),
            )

    def test_positive_variance_floor(self):
        with pytest.raises(ValueError):
            pide.Grid4(
                t=np.array([0.0, 1.0]),
                x=np.array([1.0, 2.0]),
                y=np.array([0.0, 0.2]),
                z=np.array([1.0]),
            )

    def test_zero_excitation_collapses_z(self):
        m = _mk(alpha=0.0)
        grid = pide.build_grid(m, 1.0, 8, 8, 8, 16)
        assert grid.z.shape == (1,)


def _port_and_scipy(monkeypatch, build):
    """build() once with pide's Brent port and once with every root taken by
    scipy.optimize.brentq instead; asserts each root is the same float and
    returns both results and the number of roots solved."""
    port, roots = pide._brentq, []

    def both(f, xa, xb, xtol):
        roots.append((port(f, xa, xb, xtol), brentq(f, xa, xb, xtol=xtol)))
        return roots[-1][1]

    ours = build()
    monkeypatch.setattr(pide, "_brentq", both)
    theirs = build()
    monkeypatch.setattr(pide, "_brentq", port)
    assert all(a == b for a, b in roots), [r for r in roots if r[0] != r[1]]
    return ours, theirs, len(roots)


def _oracle_models():
    desk = load_config(DESK)
    bursty = desk.raw | {"model": desk.raw["model"] | {"lambda0": 6.0, "alpha": 1.6, "beta": 2.0}}
    return {
        "desk.json": desk.validated_model(),
        "bursty": config_from_dict(bursty).validated_model(),  # the benchmark's mc_bursty model
        "tests": _mk(),
    }


# configs/desk.json and the acceptance suite (64x48x24x16), the benchmark's
# fine and tiny grids, scripts/pide_convergence.py and scripts/premium_sweep.py
DECLARED_GRIDS = (
    load_config(DESK).run.grid, (64, 48, 24, 16), (128, 128, 64, 32), (32, 24, 12, 8),
    (48, 36, 16, 8), (16, 12, 8, 6), (96, 64, 32, 16), (48, 32, 16, 10),
)


class TestBrentPort:
    """pide's Brent loop is scipy's brentq.c, so every axis keeps its bits."""

    def test_random_sinh_axes(self, monkeypatch):
        rng = np.random.default_rng(20240801)
        solved = 0
        for _ in range(3000):
            lo = 10.0 ** rng.uniform(-6.0, 1.0)
            anchor = lo * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0))
            hi = anchor * (1.0 + 10.0 ** rng.uniform(-3.0, 3.0))
            n = int(rng.integers(4, 200))
            ours, theirs, roots = _port_and_scipy(monkeypatch, lambda: pide._sinh_axis(lo, hi, anchor, n))
            assert ours.tobytes() == theirs.tobytes(), (lo, hi, anchor, n)
            solved += roots
        assert solved > 2500

    @pytest.mark.parametrize("model_name", ["desk.json", "bursty", "tests"])
    def test_every_declared_grid(self, monkeypatch, model_name):
        m = _oracle_models()[model_name]
        shapes = set(DECLARED_GRIDS) | {(8, 12, ny, 4) for ny in [1, *range(3, 161)]}
        solved = 0
        for shape in sorted(shapes):
            ours, theirs, roots = _port_and_scipy(monkeypatch, lambda: pide.build_grid(m, m.T, *shape))
            for a, b in zip(dataclasses.astuple(ours), dataclasses.astuple(theirs)):
                assert a.tobytes() == b.tobytes(), shape
            solved += roots
        assert solved > 100

    @pytest.mark.parametrize("f, a, b, xtol, maxiter", [
        (lambda x: x ** 3 - 2 * x - 5, 2.0, 3.0, 1e-14, 100),
        (lambda x: math.cos(x) - x, 0.0, 1.0, 2e-12, 100),
        (lambda x: math.exp(x) - 1e6, -5.0, 30.0, 1e-14, 100),
        (lambda x: math.atan(x - 1e-3), -1e4, 1e5, 1e-14, 100),
        (lambda x: x - 1.0, 1.0, 2.0, 1e-14, 100),  # a root on an endpoint
        (lambda x: x - 2.0, 1.0, 2.0, 1e-14, 100),
        # hundreds of steps, some with an extrapolation denominator that underflows to 0
        (lambda x: x ** 9, -1.0, 2.0, 1e-300, 1000),
        (lambda x: x ** 3, -1.0, 2.0, 1e-300, 1000),
    ])
    def test_generic_roots(self, monkeypatch, f, a, b, xtol, maxiter):
        monkeypatch.setattr(pide, "_BRENT_MAXITER", maxiter)
        assert pide._brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol, maxiter=maxiter)

    def test_random_generic_roots(self):
        """Tolerances up to 0.1, where the step rules' margins (the - delta
        in the short-step test) decide more steps than on the sinh axes."""
        rng = np.random.default_rng(7)
        families = (
            lambda x, c, p, s: math.copysign(abs(x - s) ** p, x - s) + 1e-3 * c,
            lambda x, c, p, s: math.tanh(3.0 * c * (x - s)) + 0.1 * p,
            lambda x, c, p, s: math.expm1(x - s) - 0.5 * c + 0.3 * (x - s) ** 3,
        )
        checked = 0
        for i in range(3000):
            c, p, s = rng.normal(), rng.uniform(0.2, 5.0), rng.uniform(-2.0, 2.0)
            a, b = rng.uniform(-5.0, -4.0), rng.uniform(4.0, 5.0)
            xtol = 10.0 ** rng.uniform(-15.0, -1.0)
            f = lambda x, g=families[i % 3]: g(x, c, p, s)  # noqa: E731
            if f(a) * f(b) < 0:
                assert pide._brentq(f, a, b, xtol) == brentq(f, a, b, xtol=xtol), (i, xtol)
                checked += 1
        assert checked > 1500

    def test_same_sign_endpoints_raise_as_scipy(self):
        with pytest.raises(ValueError, match="different signs") as scipy_err:
            brentq(lambda x: x * x + 1.0, 0.0, 1.0, xtol=1e-14)
        with pytest.raises(ValueError) as ours:
            pide._brentq(lambda x: x * x + 1.0, 0.0, 1.0, 1e-14)
        assert str(ours.value) == str(scipy_err.value)

    def test_nonconvergence_raises_as_scipy(self, monkeypatch):
        f = lambda x: math.sinh(x) - 3.0  # noqa: E731
        with pytest.raises(RuntimeError, match="converge") as scipy_err:
            brentq(f, 0.0, 10.0, xtol=1e-14, maxiter=2)
        monkeypatch.setattr(pide, "_BRENT_MAXITER", 2)
        with pytest.raises(RuntimeError) as ours:
            pide._brentq(f, 0.0, 10.0, 1e-14)
        assert str(ours.value) == str(scipy_err.value)


class TestGenerator:
    def test_linear_in_x(self, setup):
        m, sel, grid = setup
        shape = grid.shape
        f = np.broadcast_to(grid.x[:, None, None], shape)
        out = pide.Stepper(grid, m, sel, DIST).generator(f)
        interior = out[1:-1, :, :] / f[1:-1, :, :]
        assert np.max(np.abs(interior - m.r)) < 1e-10

    def test_constant_annihilated(self, setup):
        m, sel, grid = setup
        out = pide.Stepper(grid, m, sel, DIST).generator(np.ones(grid.shape))
        assert np.max(np.abs(out)) < 1e-12

    def test_linear_in_y_hits_drift_plus_jump_mean(self, setup):
        m, sel, grid = setup
        kap_a, vbar_a = measure.q_dynamics(m, sel)
        f = np.broadcast_to(grid.y[None, :, None], grid.shape).copy()
        out = pide.Stepper(grid, m, sel, DIST).generator(f)
        target = -kap_a * (grid.y[None, :, None] - vbar_a) + grid.z[
            None, None, :
        ] * m.eta * DIST.mean
        # the identity holds wherever boundary clamping carries < 1e-9 of the
        # shifted mass: eta * exp(-rate*u0)/rate <= 1e-9 at u0 = 18/rate
        safe = grid.y <= grid.y[-1] - m.eta * 18.0 / DIST.rate
        err = np.abs(out - target)[1:-1, 1:-1, :][:, safe[1:-1], :]
        assert err.max() < 1e-8


def _marched(pay, m, sel, grid, dist=DIST):
    """Every layer of the price march to maturity 1, stacked by time index
    as the march streams them."""
    st = pide.Stepper(grid, m, sel, dist)
    out = np.empty((len(grid.t),) + grid.shape)
    for k, layers in pide.march(st, {0: pay(1.0, grid.x)}, grid.t, kinked=pay.kinked):
        out[k] = layers[0]
    return out


def _full_stack_price(pay, maturity, m, sel, dist, grid):
    """The loop the marcher replaced, which stored every layer: kept as the
    reference."""
    st = pide.Stepper(grid, m, sel, dist)
    nt = len(grid.t) - 1
    dt = grid.t[1] - grid.t[0] if nt else 0.0
    nx, ny, nz = grid.shape
    out = np.empty((nt + 1, nx, ny, nz))
    term = np.asarray(pay(maturity, grid.x), dtype=float)
    out[nt] = np.broadcast_to(term[:, None, None], (nx, ny, nz))
    kinked = bool(getattr(pay, "kinked", False))
    for k in range(nt - 1, -1, -1):
        if kinked and k == nt - 1:
            half = st.step(out[k + 1], 0.5 * dt)
            out[k] = st.step(half, 0.5 * dt)
        else:
            out[k] = st.step(out[k + 1], dt)
    return out


class TestMarch:
    @pytest.mark.parametrize("kind", ["guarantee", "linear"])
    def test_streamed_layers_equal_the_full_stack(self, setup, kind):
        m, sel, grid = setup
        pay = payoff.guarantee(m.S0 * math.exp(m.r)) if kind == "guarantee" else payoff.linear(1.0)
        want = _full_stack_price(pay, 1.0, m, sel, DIST, grid)
        assert np.array_equal(_marched(pay, m, sel, grid), want)
        sol = pide.solve_price_pide(pay, 1.0, m, sel, DIST, grid)
        assert np.array_equal(sol.values[0], want[0])
        assert sol.values[0].flags.c_contiguous

    def test_step_equals_its_out_of_place_form(self, setup):
        # the step updates its own temporaries in place: the expressions it
        # replaced are the reference, and its input and source stay intact
        m, sel, grid = setup
        st = pide.Stepper(grid, m, sel, DIST)
        rng = np.random.default_rng(5)
        U = rng.uniform(0.0, 200.0, grid.shape)
        source = rng.uniform(-1.0, 1.0, grid.shape)
        U0, source0 = U.copy(), source.copy()
        dt = grid.t[1] - grid.t[0]
        assert dt <= st.dt_max_explicit
        for src in (None, source):
            W = U + dt * st.explicit_terms(U)
            if src is not None:
                W = W + dt * src
            want = math.exp(-m.r * dt) * st.implicit_sweeps(W, dt)
            assert np.array_equal(st.step(U, dt, src), want)
        assert np.array_equal(U, U0) and np.array_equal(source, source0)

    def test_only_t0_is_kept(self, setup):
        m, sel, grid = setup
        sol = pide.solve_price_pide(payoff.constant(1.0), 1.0, m, sel, DIST, grid)
        for k in (1, -1, len(grid.t) - 1):
            with pytest.raises(IndexError):
                sol.values[k]
            with pytest.raises(IndexError):
                sol.at(k, m.S0, m.v0, m.lambda0)

    def test_no_steps_yields_the_terminal_only(self, setup):
        m, sel, grid = setup
        st = pide.Stepper(grid, m, sel, DIST)
        (k, layers), = pide.march(st, {0: grid.x}, grid.t[-1:])
        assert k == 0
        assert np.array_equal(layers[0], np.broadcast_to(grid.x[:, None, None], grid.shape))
        assert layers[0].flags.c_contiguous and layers[0].flags.writeable


class TestExactSolutions:
    def test_constant_payoff_discounts_exactly(self, setup):
        m, sel, grid = setup
        values = _marched(payoff.constant(1.0), m, sel, grid)
        disc = np.exp(-m.r * (1.0 - grid.t))
        worst = max(
            float(np.max(np.abs(values[k] / disc[k] - 1.0)))
            for k in range(len(grid.t))
        )
        assert worst < 1e-6

    def test_linear_payoff_prices_to_identity(self, setup):
        m, sel, grid = setup
        values = _marched(payoff.linear(1.0), m, sel, grid)
        x3 = np.broadcast_to(grid.x[:, None, None], grid.shape)
        worst = max(
            float(np.max(np.abs(values[k] / x3 - 1.0)))
            for k in range(len(grid.t))
        )
        assert worst < 1e-3

    def test_terminal_layer_bit_exact(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        values = _marched(payoff.guarantee(g), m, sel, grid)
        term = np.broadcast_to(
            np.maximum(g, grid.x)[:, None, None], grid.shape
        )
        assert np.array_equal(values[-1], term)

    def test_nonnegative_solution(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        values = _marched(payoff.guarantee(g), m, sel, grid)
        assert np.all(values >= 0)

    def test_monotone_in_x_for_monotone_payoff(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        values = _marched(payoff.guarantee(g), m, sel, grid)
        diffs = np.diff(values, axis=1)
        assert diffs.min() > -1e-9 * float(np.max(values))


class TestDimensionReduction:
    def test_no_variance_jumps_match_collapsed_z_axis(self):
        m = _mk(eta=0.0)
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        g = m.S0 * math.exp(m.r)
        g4 = pide.build_grid(m, 1.0, 48, 32, 16, 12)
        g3 = pide.build_grid(m, 1.0, 48, 32, 16, 1)
        s4 = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, DIST, g4)
        s3 = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, DIST, g3)
        rel = np.abs(s4.values[0][:, :, 0] / s3.values[0][:, :, 0] - 1.0)
        assert rel.max() < 0.002
        # and the 4D solution is z-flat
        assert np.max(np.abs(np.diff(s4.values[0], axis=2))) < 1e-9 * g


class TestStability:
    def test_coarse_steps_are_exact_substeps(self, setup):
        m, sel, _ = setup
        coarse = pide.build_grid(m, 1.0, 4, 12, 8, 8)
        fine = pide.build_grid(m, 1.0, 8, 12, 8, 8)
        dt_max = pide.Stepper(coarse, m, sel, DIST).dt_max_explicit
        # 0.125 <= dt_max < 0.25: each coarse step is two fine steps
        assert fine.t[1] <= dt_max < coarse.t[1]
        for pay in (payoff.linear(1.0), payoff.constant(1.0)):
            got = _marched(pay, m, sel, coarse)
            want = _marched(pay, m, sel, fine)
            assert np.array_equal(got, want[::2])

    def test_maturity_mismatch_rejected(self, setup):
        m, sel, grid = setup
        with pytest.raises(ValueError):
            pide.solve_price_pide(payoff.constant(1.0), 0.5, m, sel, DIST, grid)

    def test_clamp_diagnostics_recorded(self, setup):
        m, sel, grid = setup
        sol = pide.solve_price_pide(payoff.constant(1.0), 1.0, m, sel, DIST, grid)
        assert "clamped_jump_mass" in sol.diagnostics
        assert sol.diagnostics["n_steps"] == 64

    def test_clamp_mass_is_tiny_on_the_desk_grid(self, setup):
        m, sel, grid = setup
        st = pide.Stepper(grid, m, sel, DIST)
        # exp(-rate (y_max - v0) / eta) with y_max = 12 vbar = 3.6
        assert st.clamp_mass == pytest.approx(math.exp(-2.0 * 3.4 / 0.1), rel=1e-9)
        assert st.clamp_mass < 1e-25
        # the law's tail is the clamp mass, bit for bit its written-out formula
        y_max = float(grid.y[-1])
        assert DIST.tail(m.v0, m.eta, y_max) == st.clamp_mass
        assert st.clamp_mass == math.exp(-DIST.rate * max(y_max - m.v0, 0.0) / m.eta)

    def test_clamp_mass_is_large_on_a_short_variance_axis(self, setup, monkeypatch):
        m, sel, _ = setup
        monkeypatch.setattr(pide, "_Y_SPAN", 1.0)
        grid = pide.build_grid(m, 1.0, 64, 16, 12, 8)
        st = pide.Stepper(grid, m, sel, DIST)
        # y_max = 2 v0 = 0.4: a fifth of the exponential marks' mass is clamped
        assert grid.y[-1] == pytest.approx(0.4)
        assert st.clamp_mass == pytest.approx(math.exp(-4.0), rel=1e-9)
        y_max = float(grid.y[-1])
        assert DIST.tail(m.v0, m.eta, y_max) == st.clamp_mass
        assert st.clamp_mass == math.exp(-DIST.rate * max(y_max - m.v0, 0.0) / m.eta)
        sol = pide.solve_price_pide(payoff.constant(1.0), 1.0, m, sel, DIST, grid)
        assert sol.diagnostics["clamped_jump_mass"] == st.clamp_mass

    def test_clamp_mass_of_constant_marks_is_all_or_nothing(self):
        small, large = model.ConstantJump(0.5), model.ConstantJump(2.0)
        assert pide._tail_mass(small, 0.1, 0.2, 0.4) == 0.0
        assert pide._tail_mass(large, 0.1, 0.2, 0.4) == 1.0
        assert pide._tail_mass(large, 0.0, 0.2, 0.4) == 0.0
        # the law's own tail, which _tail_mass reads wherever eta > 0
        assert small.tail(0.2, 0.1, 0.4) == 0.0
        assert large.tail(0.2, 0.1, 0.4) == 1.0


def _banded(lo, di, up, dt):
    n = len(di)
    ab = np.zeros((3, n))
    ab[1, :] = 1.0 - dt * di
    ab[0, 1:] = -dt * up[:-1]
    ab[2, :-1] = -dt * lo[1:]
    return ab


def _reference_sweeps(st, W, dt):
    """The banded-solver loop the prefactored sweeps replaced."""
    from scipy.linalg import solve_banded

    nx, ny, nz = st.grid.shape
    out = np.empty_like(W)
    for k in range(ny):
        x_op = [c[:, k] for c in st.x_op]  # y-node k's x operator
        out[:, k, :] = solve_banded((1, 1), _banded(*x_op, dt), W[:, k, :])
    if ny > 1:
        flat = np.moveaxis(out, 1, 0).reshape(ny, nx * nz)
        flat = solve_banded((1, 1), _banded(*st.y_op, dt), flat)
        out = np.moveaxis(flat.reshape(ny, nx, nz), 0, 1)
    if nz > 1:
        flat = np.moveaxis(out, 2, 0).reshape(nz, nx * ny)
        flat = solve_banded((1, 1), _banded(*st.z_op, dt), flat)
        out = np.moveaxis(flat.reshape(nz, nx, ny), 0, 2)
    return out


def _dgttrs_rows(fac, b):
    """The oracle of the row solver: LAPACK dgttrs on the lines of b, whose
    first axis runs along each line."""
    n = b.shape[0]
    lines, info = dgttrs(*fac, np.asfortranarray(b.reshape(n, -1)))
    assert info == 0
    return lines.reshape(b.shape)


def _lapack_factors(lo, di, up, dt):
    """LAPACK dgttrf's factors of I - dt*A, A's rows (lo, di, up)."""
    *fac, info = dgttrf(-dt * lo[1:], 1.0 - dt * di, -dt * up[:-1])
    assert info == 0
    return fac


def _dgttrf_random(rng, n):
    """dgttrf factors of a random system that is not diagonally dominant."""
    *fac, info = dgttrf(rng.uniform(0.5, 2.0, n - 1), rng.uniform(-0.1, 0.1, n),
                        rng.uniform(0.5, 2.0, n - 1))
    assert info == 0
    return fac


def _leaves(factors):
    """The arrays of a nest of factor tuples and lists, in order."""
    if isinstance(factors, (list, tuple)):
        return [a for f in factors for a in _leaves(f)]
    return [np.asarray(factors)]


def _tensordot_jump(st, U):
    """The jump product the workspace form replaced: kept as the reference."""
    shifted = U @ st.p_z.T
    shifted = np.moveaxis(np.tensordot(st.m_y, shifted, axes=(1, 1)), 0, 1)
    return st.z_vec[None, None, :] * (shifted - U)


class TestImplicitSweeps:
    @pytest.mark.parametrize(
        "overrides, shape, expected",
        [
            ({}, (64, 48, 24, 16), (48, 24, 16)),
            ({"alpha": 0.0}, (64, 48, 24, 16), (48, 24, 1)),  # no excitation
            ({}, (64, 48, 1, 16), (48, 1, 16)),
            ({}, (128, 128, 64, 32), (128, 64, 32)),  # layers past a core's L2
            ({}, (1024, 12, 8, 4), (12, 8, 4)),  # the grid of verify's classical reduction
            ({}, (8, 16, 3, 149), (16, 3, 149)),  # three y-nodes, long z lines
            ({}, (8, 16, 28, 16), (16, 28, 16)),
            ({}, (8, 16, 1, 1024), (16, 1, 1024)),  # one y-node
        ],
        ids=["desk", "nz1", "ny1", "fine", "long", "below", "at", "wide_ny1"],
    )
    def test_match_banded_reference(self, overrides, shape, expected):
        m = _mk(**overrides)
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, *shape)
        assert grid.shape == expected
        st = pide.Stepper(grid, m, sel, DIST)
        W = np.random.default_rng(3).uniform(0.0, 200.0, grid.shape)
        dt = grid.t[1] - grid.t[0]
        # one kernel, the row solver: x's factors a system per y-node,
        # spread over an x row, y's and z's one 0-d array per row, None on a
        # one-node axis
        fac_x, fac_y, fac_z = st._factors(dt)
        assert fac_x[1][0].shape == expected[1:]
        for fac, n in ((fac_y, expected[1]), (fac_z, expected[2])):
            assert fac is None if n == 1 else fac[1][0].shape == ()
        for step in (dt, 0.5 * dt):
            got = st.implicit_sweeps(W, step)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _reference_sweeps(st, W, step))
        # the factors are built once per dt and the input is left intact
        assert len(st._cache) == 2
        assert np.array_equal(W, np.random.default_rng(3).uniform(0.0, 200.0, grid.shape))

    def test_factors_keyed_on_dt_itself(self, setup):
        # the next float up rounds to the same 15 decimals, yet is another
        # step: it gets factors of its own, those of a fresh Stepper
        m, sel, grid = setup
        dt = grid.t[1] - grid.t[0]
        near = float(np.nextafter(dt, 1.0))
        assert round(near, 15) == round(dt, 15)
        st = pide.Stepper(grid, m, sel, DIST)
        got = [_leaves(st._factors(h)) for h in (dt, near)]
        assert len(st._cache) == 2
        for h, fac in zip((dt, near), got):
            want = _leaves(pide.Stepper(grid, m, sel, DIST)._factors(h))
            assert all(np.array_equal(a, b) for a, b in zip(fac, want, strict=True))
        assert not all(np.array_equal(a, b) for a, b in zip(*got))

    def test_row_solver_is_dgttrs_bit_for_bit(self, setup):
        """The row solver runs dgttrs's operations in its order, except that
        it skips c * row where the factor c (dl, du or du2) is 0 on every line
        of a row.  x - 0*y is x bit for bit unless x is -0.0 (or y is not
        finite), so a right-hand side holding signed zeros may differ from
        dgttrs in the sign of an exact zero and nowhere else."""
        m, sel, grid = setup
        st = pide.Stepper(grid, m, sel, DIST)
        dt = grid.t[1] - grid.t[0]
        rng = np.random.default_rng(11)
        # systems that are not diagonally dominant, so dgttrf pivots on some
        # rows and not on others, each on its own rows
        pivoting = [_dgttrf_random(rng, 128) for _ in range(3)]
        swapped = np.array([f[-1] != np.arange(1, 129) for f in pivoting])
        assert swapped.any(axis=1).all() and not swapped.all(axis=1).any()
        assert (swapped.any(axis=0) & ~swapped.all(axis=0)).any()
        # a diagonally dominant system pivots nowhere
        *dominant, info = dgttrf(rng.uniform(0.5, 1.0, 127), rng.uniform(3.0, 4.0, 128),
                                 rng.uniform(0.5, 1.0, 127))
        assert info == 0 and np.array_equal(dominant[-1], np.arange(1, 129))
        # systems whose dl and du are 0 on some rows but not all, one of
        # them pivoting: du2 is 0 on every row where it does not pivot
        sparse = []
        for lo_, di_ in ((0.5, 3.0), (0.5, 0.05)):
            dl_in, du_in = rng.uniform(lo_, 1.0, 127), rng.uniform(lo_, 1.0, 127)
            dl_in[::3], du_in[1::4] = 0.0, 0.0
            *f, info = dgttrf(dl_in, rng.uniform(di_, 2 * di_, 128), du_in)
            assert info == 0
            sparse.append(f)

        def partly_zero(c):
            return (c == 0).any() and (c != 0).any()

        assert all(partly_zero(f[0]) and partly_zero(f[2]) for f in sparse)
        assert all(partly_zero(f[3]) for f in [sparse[1]] + pivoting)
        # shared factors: every line solves the same system
        for f in (_lapack_factors(*st.y_op, dt), _lapack_factors(*st.z_op, dt),
                  pivoting[0], *sparse):
            b = rng.uniform(-100.0, 100.0, (len(f[1]), 5, 7))
            want = _dgttrs_rows(f, b)
            pide._solve_rows(pide._row_factors(f), b, np.empty((5, 7)))
            assert np.array_equal(bits(b), bits(want))
            # signed zeros: equal values, and bits that differ only at zeros
            b = rng.choice([-0.0, 0.0, -1.0, 1.0], (len(f[1]), 5, 7), p=[0.4, 0.4, 0.1, 0.1])
            want = _dgttrs_rows(f, b)
            pide._solve_rows(pide._row_factors(f), b, np.empty((5, 7)))
            assert np.array_equal(b, want)
            assert np.all(b[bits(b) != bits(want)] == 0)
        # per-line factors: each line its own system, among them the fine
        # grid's x factors, which pivot at some (row, y-node) pairs
        fine = _mk()
        fine_grid = pide.build_grid(fine, 1.0, 128, 128, 64, 32)
        fine_st = pide.Stepper(fine_grid, fine, sel, DIST)
        fine_dt = fine_grid.t[1] - fine_grid.t[0]
        x_facs = [_lapack_factors(*(c[:, k] for c in fine_st.x_op), fine_dt) for k in range(64)]
        assert any((f[-1] != np.arange(1, 129)).any() for f in x_facs)
        for lines in (pivoting + [dominant] + x_facs + pivoting[::-1], sparse + [dominant]):
            b = rng.uniform(-100.0, 100.0, (128, len(lines), 7))
            want = np.stack([_dgttrs_rows(f, b[:, j]) for j, f in enumerate(lines)], axis=1)
            stacked = [np.stack(c, axis=1) for c in zip(*lines)]  # (n, lines) each
            pide._solve_rows(pide._row_factors(stacked), b, np.empty((len(lines), 7)))
            assert np.array_equal(bits(b), bits(want))

    @pytest.mark.parametrize("nz", [1, 2, 3, 7, 16])
    def test_jump_term_equals_the_tensordot_form(self, setup, nz):
        m, sel, grid = setup
        z = np.linspace(grid.z[0], grid.z[-1], nz) if nz > 1 else grid.z[:1]
        g = dataclasses.replace(grid, z=z)
        st = pide.Stepper(g, m, sel, DIST)
        U = np.random.default_rng(nz).uniform(0.0, 200.0, g.shape)
        want = _tensordot_jump(st, U)
        for _ in range(2):  # the second call reuses the workspace
            assert np.array_equal(bits(st.jump_term(U)), bits(want))


class TestDgttrfPort:
    """pide._dgttrf is LAPACK's reference dgttrf run row by row across many
    systems at once: the same dl, d, du, du2 and ipiv, bit for bit."""

    @staticmethod
    def _assert_lapack_bits(dl, d, du):
        """The port on the systems of the columns (or the one system) of
        dl, d, du against scipy's dgttrf on each; the count of pivoting ones."""
        got = pide._dgttrf(dl, d, du)
        lines = [(dl, d, du)] if d.ndim == 1 else [tuple(c[:, j] for c in (dl, d, du))
                                                   for j in range(d.shape[1])]
        pivoting = 0
        for j, (a, b, c) in enumerate(lines):
            *want, info = dgttrf(a, b, c)
            assert info == 0
            for port, ref in zip(got, want, strict=True):
                line = port if d.ndim == 1 else port[:, j]
                assert line.dtype == ref.dtype
                assert np.array_equal(bits(line) if ref.dtype == float else line,
                                      bits(ref) if ref.dtype == float else ref)
            pivoting += bool((want[-1] != np.arange(1, len(b) + 1)).any())
        return pivoting

    @pytest.mark.parametrize("shape", [(64, 48, 24, 16), (128, 128, 64, 32), (1024, 12, 8, 4)],
                             ids=["desk", "fine", "reduction"])
    def test_every_operator_at_three_steps(self, setup, shape):
        m, sel, _ = setup
        grid = pide.build_grid(m, 1.0, *shape)
        st = pide.Stepper(grid, m, sel, DIST)
        dt = grid.t[1] - grid.t[0]
        pivoting = 0
        for h in (dt, 0.5 * dt, 2.0):
            for lo, di, up in (st.x_op, st.y_op, st.z_op):  # x: a system per y-node
                pivoting += self._assert_lapack_bits(-h * lo[1:], 1.0 - h * di, -h * up[:-1])
        assert pivoting > 0

    def test_pivoting_systems(self):
        # not diagonally dominant: some rows pivot on some lines, not others
        rng = np.random.default_rng(23)
        n, lines = 40, 9
        dl, du = rng.uniform(0.5, 2.0, (2, n - 1, lines))
        d = rng.uniform(-0.1, 0.1, (n, lines))
        d[:, 0] = rng.uniform(3.0, 4.0, n)  # one line pivots nowhere
        swaps = pide._dgttrf(dl, d, du)[-1] != np.arange(1, n + 1)[:, None]
        assert not swaps[:, 0].any() and swaps[:, 1:].any(axis=0).all()
        assert (swaps.any(axis=1) & ~swaps.all(axis=1)).any()
        assert self._assert_lapack_bits(dl, d, du) == lines - 1

    def test_ties_do_not_pivot(self):
        # |d| = |dl| keeps the row (dgttrf's test is |d| >= |dl|): dl is 0 on
        # every other row, so those rows leave the next d as it was, 1 or -1
        n = 12
        dl = np.tile([0.0, 1.0], n // 2)[: n - 1]
        d = np.stack([np.ones(n), -np.ones(n)], axis=1)
        du = np.full(n - 1, 0.5)
        cols = (np.stack([dl, -dl], axis=1), d, np.stack([du, du], axis=1))
        assert self._assert_lapack_bits(*cols) == 0
        assert np.array_equal(pide._dgttrf(*cols)[-1], np.tile(np.arange(1, n + 1)[:, None], 2))

    def test_one_node_axis(self):
        # one row, which scipy's dgttrf wrapper refuses (as it does two): the
        # factors are d itself, no row pivots, and the sweep is the identity
        got = pide._dgttrf(np.zeros((0, 2)), np.array([[0.75, 2.0]]), np.zeros((0, 2)))
        assert np.array_equal(got[1], [[0.75, 2.0]]) and got[3].shape == (0, 2)
        assert np.array_equal(got[4], np.ones((1, 2), dtype=np.int32))
        assert pide._tridiag_factors(np.zeros(1), np.array([-3.0]), np.zeros(1), 0.1) is None

    @pytest.mark.parametrize(
        "dl, d, du, info",
        [
            ([0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0], 1),  # a zero first pivot, nothing to swap
            ([1.0, 0.0], [1.0, 1.0, 1.0], [1.0, 0.0], 2),  # two equal rows: pivot 2 cancels
            ([1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0], 3),  # the last pivot cancels
            ([1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0], 2),  # the first row pivots, then 0
            ([1.0, 1.0], [0.0, 0.0, 0.0], [0.0, 0.0], 3),  # both rows pivot, then 0
        ],
    )
    def test_exactly_singular_systems_raise(self, dl, d, du, info):
        *_, want = dgttrf(np.array(dl), np.array(d), np.array(du))
        assert want == info
        with pytest.raises(np.linalg.LinAlgError, match=f"info={info}"):
            pide._dgttrf(np.array(dl), np.array(d), np.array(du))
        # and one singular line among regular ones raises for the stack
        cols = [np.stack([np.array(c), np.array(c) + 5.0], axis=1) for c in (dl, d, du)]
        with pytest.raises(np.linalg.LinAlgError):
            pide._dgttrf(*cols)


class TestStackedStep:
    """A (B, nx, ny, nz) stack steps bit for bit as its B surfaces do one at
    a time, through one Stepper whose workspace grows to the stack."""

    @pytest.mark.parametrize(
        "overrides, shape, B",
        [
            ({}, (8, 48, 24, 16), 2),  # the desk's space grid
            ({}, (8, 12, 8, 4), 3),  # verify's classical reduction
            ({}, (8, 16, 28, 16), 2),
            ({}, (4, 48, 48, 16), 2),  # the y factorisation pivots
            ({"alpha": 0.0}, (8, 16, 12, 1), 2),  # one z-node
            ({}, (8, 16, 24, 11), 2),
            ({}, (8, 24, 8, 16), 2),
            ({}, (8, 16, 11, 24), 2),
            ({}, (8, 16, 24, 8), 2),
        ],
        ids=["desk_crosses", "reduction", "rows", "y_pivots", "nz1", "y_below", "y_at",
             "z_below", "z_at"],
    )
    def test_stack_equals_separate_steps(self, overrides, shape, B):
        m = _mk(**overrides)
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, *shape)
        st = pide.Stepper(grid, m, sel, DIST)
        rng = np.random.default_rng(17)
        U = rng.uniform(0.0, 200.0, (B,) + grid.shape)
        source = rng.uniform(-1.0, 1.0, (B,) + grid.shape)
        dt = grid.t[1] - grid.t[0]
        # 3 dt passes the explicit bound (but where alpha = 0): that step substeps
        for k, h in enumerate([3 * dt] + [dt] * 7):
            src = source if k % 2 else None
            got = st.step(U, h, src)
            want = [st.step(U[b], h, None if src is None else src[b]) for b in range(B)]
            assert got.shape == U.shape and got.flags.c_contiguous
            assert np.array_equal(bits(got), bits(np.stack(want)))
            U = got
        # one kernel at every B: the stack and its surfaces share one set of
        # factors per step size, keyed by nothing else (3 dt and dt, or their substeps)
        assert set(st._cache) == {h / math.ceil(h / st.dt_max_explicit) for h in (3 * dt, dt)}

    @pytest.mark.parametrize("ny", [3, 8, 24, 64])
    def test_stacked_jump_dgemm_equals_separate_calls(self, setup, ny):
        """The jump term of a stack is one dgemm over y whose columns are the
        stack's surfaces side by side.  BLAS promises no bit-identity between
        that and one dgemm per surface; the stacked step relies on it."""
        m, sel, _ = setup
        for nz in (1, 4, 16):
            grid = pide.build_grid(m, 1.0, 8, 48, ny, max(nz, 3))
            grid = dataclasses.replace(grid, z=grid.z[:nz])  # nz = 1: z at lambda0 alone
            st = pide.Stepper(grid, m, sel, DIST)
            for B in (2, 3, 4):
                U = np.random.default_rng(B * ny + nz).uniform(0.0, 200.0, (B,) + grid.shape)
                got = st.jump_term(U).copy()
                for b in range(B):
                    assert np.array_equal(bits(st.jump_term(U[b])), bits(got[b])), (nz, B, b)


class TestWorkspace:
    @pytest.mark.parametrize(
        "overrides, shape",
        [
            ({}, (8, 48, 24, 16)),
            ({"alpha": 0.0}, (8, 16, 12, 16)),  # z collapses to one node
            ({}, (8, 16, 1, 8)),
            ({"alpha": 0.0}, (8, 16, 1, 8)),  # y and z of one node
            ({}, (8, 16, 24, 32)),  # x swept as rows, in place in the workspace
        ],
        ids=["desk", "nz1", "ny1", "ny1nz1", "x_rows"],
    )
    def test_results_never_alias_the_workspace(self, overrides, shape):
        m = _mk(**overrides)
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, *shape)
        st = pide.Stepper(grid, m, sel, DIST)
        owned = [v for v in vars(st).values() if isinstance(v, np.ndarray)]
        dt = grid.t[1] - grid.t[0]
        U = np.random.default_rng(7).uniform(0.0, 200.0, grid.shape)
        U_given = U.copy()
        first = st.step(U, dt)
        kept = first.copy()
        second = st.step(first, dt)
        assert np.array_equal(bits(first), bits(kept))
        layers = [(cur[0], cur[0].copy()) for _, cur in
                  pide.march(st, {0: grid.x}, grid.t, kinked=True)]
        results = [first, second, st.implicit_sweeps(U, dt), st.explicit_terms(U)]
        assert np.array_equal(bits(U), bits(U_given))  # a caller's W is copied first
        for layer, copy in layers:
            assert np.array_equal(bits(layer), bits(copy))
            results.append(layer)
        for out in results:
            assert not any(np.shares_memory(out, buf) for buf in owned)


class TestOneSpread:
    """A Stepper holds x's factors spread over a row for one (dt, B) at a
    time, and drops it before it spreads the next: a spread is 3-4 stacks."""

    def test_kinked_solve_peaks_near_ten_stacks(self, setup):
        # the workspace (3 stacks), one spread (3.2), and the stacks that a
        # step reads and returns; a kinked start's half-step spread is gone
        # before its full step's is built
        m, sel, _ = setup
        grid = pide.build_grid(m, 1.0, 16, 64, 32, 16)
        pay = payoff.guarantee(103.05)
        assert pay.kinked
        pide.solve_price_pide(pay, 1.0, m, sel, DIST, grid)  # first-call allocations
        tracemalloc.start()
        try:
            pide.solve_price_pide(pay, 1.0, m, sel, DIST, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 10.5 * 8 * math.prod(grid.shape)

    def test_steps_after_a_switch_equal_a_fresh_steppers(self, setup):
        # kinked marches of one surface, then of two, through one Stepper:
        # dt/2 and dt at B = 1, then at B = 2
        m, sel, _ = setup
        grid = pide.build_grid(m, 1.0, 8, 48, 24, 16)
        terminal = payoff.guarantee(m.S0 * math.exp(m.r))(1.0, grid.x)
        st = pide.Stepper(grid, m, sel, DIST)
        for start in ({0: terminal}, {0: terminal, 1: grid.x}):
            fresh = pide.march(pide.Stepper(grid, m, sel, DIST), start, grid.t, kinked=True)
            for (k, got), (_, want) in zip(pide.march(st, start, grid.t, kinked=True), fresh,
                                           strict=True):
                for b in start:
                    assert np.array_equal(bits(got[b]), bits(want[b])), (len(start), k, b)
        # the factors of both step sizes stay cached, spread for the last alone
        dt = grid.t[1] - grid.t[0]
        assert set(st._cache) == {0.5 * dt, dt}
        assert [(h, B) for h, (*_, spread) in st._cache.items() for B in spread] == [(dt, 2)]


class TestJumpQuadrature:
    def test_constant_mark_law_prices_against_simulation(self):
        from hhr import sde

        m = _mk()
        dist = model.ConstantJump(0.5)
        sel, _ = measure.select_measure(m, dist, measure.MeasureConfig())
        g = m.S0 * math.exp(m.r)
        grid = pide.build_grid(m, 1.0, 64, 48, 24, 16)
        sol = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, dist, grid)
        u0 = sol.at(0, m.S0, m.v0, m.lambda0)
        sim = sde.simulate(m, dist, "Q", 50_000, 256, 77, selection=sel)
        pay = math.exp(-m.r) * np.maximum(g, sim.terminal["S"])
        mc, se = float(pay.mean()), float(pay.std(ddof=1) / math.sqrt(pay.size))
        assert abs(u0 - mc) < 0.01 * mc + 3 * se

    @pytest.mark.parametrize("dist", [DIST, model.ExponentialJump(0.7), model.ConstantJump(0.5)])
    def test_quadrature_is_the_written_out_rule(self, dist):
        """Each law's quadrature() against its rule written out: one node at
        the size, or 32-node Gauss-Laguerre scaled to the rate with weights
        summing to 1; the same arrays, bit for bit."""
        if isinstance(dist, model.ConstantJump):
            want = np.array([dist.size]), np.array([1.0])
        else:
            nodes, weights = np.polynomial.laguerre.laggauss(32)
            want = nodes / dist.rate, weights / weights.sum()
        got = dist.quadrature()
        assert all(np.array_equal(bits(g), bits(w)) for g, w in zip(got, want, strict=True))

    def test_constant_marks_single_shift(self, setup):
        m, sel, _ = setup
        grid = pide.build_grid(m, 1.0, 64, 16, 12, 8)
        st = pide.Stepper(grid, m, sel, model.ConstantJump(0.5))
        f = np.broadcast_to(grid.y[None, :, None], grid.shape).copy()
        term = st.jump_term(f)
        # z-shift leaves f untouched; y shifts by eta * 0.5 where unclamped
        inner = grid.y + m.eta * 0.5 <= grid.y[-1]
        expected = grid.z[None, None, :] * m.eta * 0.5
        assert np.allclose(term[:, inner, :], expected, atol=1e-10)

    @pytest.mark.parametrize("shape", [(4, 48, 24, 16), (4, 8, 1, 1), (4, 8, 3, 3)])
    def test_interp_matrix_equals_the_row_loop(self, shape):
        """_interp_matrix's arrays against one row at a time: the same
        float operations, so the same bits, shifts past the top included."""
        m = _mk(eta=0.0) if shape[3] == 1 else _mk()
        grid = pide.build_grid(m, 1.0, *shape)
        for axis in (grid.y, grid.z):
            for shift in np.linspace(0.0, 1.2 * (axis[-1] - axis[0]) + 1.0, 33):
                targets = axis + shift
                want = np.zeros((len(targets), len(axis)))
                for row, tval in enumerate(targets):
                    if tval >= axis[-1]:
                        want[row, -1] = 1.0
                        continue
                    j = min(max(int(np.searchsorted(axis, tval, side="right")) - 1, 0),
                            len(axis) - 2)
                    w = (tval - axis[j]) / (axis[j + 1] - axis[j])
                    want[row, j], want[row, j + 1] = 1.0 - w, w
                assert np.array_equal(bits(pide._interp_matrix(axis, targets)), bits(want))


def _sha(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


class TestPideGoldenDigests:
    """The t = 0 surfaces of the PIDE's callers, pinned as sha256 digests of
    their bits (-0.0 included) on the desk config: a guarantee price on the
    desk shape at 8 steps, both reserve routes on the desk policy and grid, a
    grid whose x sweep runs as rows, one whose y factorisation pivots, and
    the 1024-step classical reduction of verify's thiele_consistency."""

    DIGESTS = {
        "price_desk_shape": "570fff91b93aea8e",
        "thiele_desk": "57f0bdada27af3be",
        "quadrature_desk": "8531af9437e9c5f9",  # e9c0e71be532fd4e with scipy's expm
        "price_x_rows": "367846eaec54ba7d",
        "price_y_pivots": "a5b086fe11ec2959",
        "classical_reduction": "7db7834073390fc8",
    }

    @pytest.fixture(scope="class")
    def desk(self):
        cfg = load_config(DESK)
        m = cfg.validated_model()
        sel, _ = cfg.selection(m)
        return cfg, m, sel

    def _price(self, desk, shape):
        cfg, m, sel = desk
        grid = pide.build_grid(m, m.T, *shape)
        g = cfg.policy.terminal_payoff("alive")
        return [pide.solve_price_pide(g, m.T, m, sel, cfg.dist, grid).values[0]]

    def _surfaces(self, desk, case):
        cfg, m, sel = desk
        pol = cfg.policy
        if case == "price_desk_shape":
            return self._price(desk, (8, 48, 24, 16))
        if case == "price_x_rows":
            return self._price(desk, (8, 16, 24, 32))
        if case == "price_y_pivots":
            return self._price(desk, (4, 48, 48, 16))
        if case == "classical_reduction":
            long_model = model.validate(dataclasses.replace(m.params, T=10.0))
            long_sel, _ = cfg.selection(long_model)
            grid = pide.build_grid(long_model, 10.0, 1024, 12, 8, 4)
            st = pide.Stepper(grid, long_model, long_sel, cfg.dist)
            surf = thiele.solve_thiele_pide(markov.term_insurance(10.0, 0.02), st)
            return [surf.values[s][0] for s in surf.states]
        st = pide.Stepper(pide.build_grid(m, pol.horizon, *cfg.run.grid), m, sel, cfg.dist)
        if case == "thiele_desk":
            surf = thiele.solve_thiele_pide(pol, st)
            return [surf.values[s][0] for s in surf.states]
        quad = thiele.reserve_quadrature(pol, st, 0.0)
        return [quad.values[s] for s in quad.states]

    @pytest.mark.parametrize("case", sorted(DIGESTS))
    def test_surfaces_equal_the_recorded_digests(self, desk, case):
        assert _sha(self._surfaces(desk, case)) == self.DIGESTS[case]

    def test_quadrature_moves_only_through_expm(self, desk, monkeypatch):
        # with scipy's matrix exponential in place of markov.expm, the
        # quadrature's surfaces keep the bits they had with it
        from scipy.linalg import expm

        monkeypatch.setattr(markov, "expm", expm)
        assert _sha(self._surfaces(desk, "quadrature_desk")) == "e9c0e71be532fd4e"
