import math

import numpy as np
import pytest

from hhr import measure, model, payoff, pide

from conftest import desk_params


def _mk(**kw):
    return model.validate(desk_params(**kw))


DIST = model.ExponentialJump(2.0)


@pytest.fixture(scope="module")
def setup():
    m = _mk()
    sel, _ = measure.select_measure(m, DIST, fraction=0.8)
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


class TestExactSolutions:
    def test_constant_payoff_discounts_exactly(self, setup):
        m, sel, grid = setup
        sol = pide.solve_price_pide(payoff.constant(1.0), 1.0, m, sel, DIST, grid)
        disc = np.exp(-m.r * (1.0 - grid.t))
        worst = max(
            float(np.max(np.abs(sol.values[k] / disc[k] - 1.0)))
            for k in range(len(grid.t))
        )
        assert worst < 1e-6

    def test_linear_payoff_prices_to_identity(self, setup):
        m, sel, grid = setup
        sol = pide.solve_price_pide(payoff.linear(1.0), 1.0, m, sel, DIST, grid)
        x3 = np.broadcast_to(grid.x[:, None, None], grid.shape)
        worst = max(
            float(np.max(np.abs(sol.values[k] / x3 - 1.0)))
            for k in range(len(grid.t))
        )
        assert worst < 1e-3

    def test_terminal_layer_bit_exact(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        sol = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, DIST, grid)
        term = np.broadcast_to(
            np.maximum(g, grid.x)[:, None, None], grid.shape
        )
        assert np.array_equal(sol.values[-1], term)

    def test_nonnegative_solution(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        sol = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, DIST, grid)
        assert np.all(sol.values >= 0)

    def test_monotone_in_x_for_monotone_payoff(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        sol = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, DIST, grid)
        diffs = np.diff(sol.values, axis=1)
        assert diffs.min() > -1e-9 * float(np.max(sol.values))


class TestDimensionReduction:
    def test_no_variance_jumps_match_collapsed_z_axis(self):
        m = _mk(eta=0.0)
        sel, _ = measure.select_measure(m, DIST, fraction=0.8)
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
            got = pide.solve_price_pide(pay, 1.0, m, sel, DIST, coarse).values
            want = pide.solve_price_pide(pay, 1.0, m, sel, DIST, fine).values
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

    def test_clamp_mass_is_large_on_a_short_variance_axis(self, setup):
        m, sel, _ = setup
        grid = pide.build_grid(m, 1.0, 64, 16, 12, 8, y_span=1.0)
        st = pide.Stepper(grid, m, sel, DIST)
        # y_max = 2 v0 = 0.4: a fifth of the exponential marks' mass is clamped
        assert grid.y[-1] == pytest.approx(0.4)
        assert st.clamp_mass == pytest.approx(math.exp(-4.0), rel=1e-9)
        sol = pide.solve_price_pide(payoff.constant(1.0), 1.0, m, sel, DIST, grid)
        assert sol.diagnostics["clamped_jump_mass"] == st.clamp_mass

    def test_clamp_mass_of_constant_marks_is_all_or_nothing(self):
        small, large = model.ConstantJump(0.5), model.ConstantJump(2.0)
        assert pide._tail_mass(small, 0.1, 0.2, 0.4) == 0.0
        assert pide._tail_mass(large, 0.1, 0.2, 0.4) == 1.0
        assert pide._tail_mass(large, 0.0, 0.2, 0.4) == 0.0


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
        out[:, k, :] = solve_banded((1, 1), _banded(*st.x_ops[k], dt), W[:, k, :])
    if ny > 1:
        flat = np.moveaxis(out, 1, 0).reshape(ny, nx * nz)
        flat = solve_banded((1, 1), _banded(*st.y_op, dt), flat)
        out = np.moveaxis(flat.reshape(ny, nx, nz), 0, 1)
    if nz > 1:
        flat = np.moveaxis(out, 2, 0).reshape(nz, nx * ny)
        flat = solve_banded((1, 1), _banded(*st.z_op, dt), flat)
        out = np.moveaxis(flat.reshape(nz, nx, ny), 0, 2)
    return out


class TestImplicitSweeps:
    @pytest.mark.parametrize(
        "overrides, shape, expected",
        [
            ({}, (64, 48, 24, 16), (48, 24, 16)),
            ({"alpha": 0.0}, (64, 48, 24, 16), (48, 24, 1)),  # no excitation
            ({}, (64, 48, 1, 16), (48, 1, 16)),
        ],
        ids=["desk", "nz1", "ny1"],
    )
    def test_match_banded_reference(self, overrides, shape, expected):
        m = _mk(**overrides)
        sel, _ = measure.select_measure(m, DIST, fraction=0.8)
        grid = pide.build_grid(m, 1.0, *shape)
        assert grid.shape == expected
        st = pide.Stepper(grid, m, sel, DIST)
        W = np.random.default_rng(3).uniform(0.0, 200.0, grid.shape)
        dt = grid.t[1] - grid.t[0]
        for step in (dt, 0.5 * dt):
            got = st.implicit_sweeps(W, step)
            assert got.flags.c_contiguous
            assert np.array_equal(got, _reference_sweeps(st, W, step))
        # the factors are built once per dt and the input is left intact
        assert len(st._cache) == 2
        assert np.array_equal(W, np.random.default_rng(3).uniform(0.0, 200.0, grid.shape))


class TestJumpQuadrature:
    def test_constant_mark_law_prices_against_simulation(self):
        from hhr import sde

        m = _mk()
        dist = model.ConstantJump(0.5)
        sel, _ = measure.select_measure(m, dist, fraction=0.8)
        g = m.S0 * math.exp(m.r)
        grid = pide.build_grid(m, 1.0, 64, 48, 24, 16)
        sol = pide.solve_price_pide(payoff.guarantee(g), 1.0, m, sel, dist, grid)
        u0 = sol.at(0, m.S0, m.v0, m.lambda0)
        sim = sde.simulate(m, dist, "Q", 50_000, 256, 77, selection=sel)
        pay = math.exp(-m.r) * np.maximum(g, sim.terminal["S"])
        mc, se = float(pay.mean()), float(pay.std(ddof=1) / math.sqrt(pay.size))
        assert abs(u0 - mc) < 0.01 * mc + 3 * se

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
