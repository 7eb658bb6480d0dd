import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hhr import markov, measure, model, payoff, pide, thiele
from hhr.errors import TimeOrderError

from conftest import desk_params


DIST = model.ExponentialJump(2.0)


def _mk(**kw):
    return model.validate(desk_params(**kw))


@pytest.fixture(scope="module")
def setup():
    m = _mk()
    sel, _ = measure.select_measure(m, DIST, fraction=0.8)
    grid = pide.build_grid(m, 1.0, 64, 48, 24, 16)
    return m, sel, grid


@pytest.fixture(scope="module")
def long_setup():
    m = _mk(T=10.0)
    sel, _ = measure.select_measure(m, DIST, fraction=0.8)
    grid = pide.build_grid(m, 10.0, 1024, 12, 8, 4)
    return m, sel, grid


def scalar_term_insurance(r, mu, horizon):
    return mu / (r + mu) * -math.expm1(-(r + mu) * horizon)


class TestZeroPolicy:
    def test_both_routes_vanish(self, setup):
        m, sel, grid = setup
        pol = markov.PolicySpec(
            states=("a", "d"),
            horizon=1.0,
            intensities={("a", "d"): model.PiecewiseFlat.constant(0.02)},
        )
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        quad = thiele.reserve_quadrature(pol, m, sel, DIST, grid, 0.0)
        assert np.all(surf.values["a"] == 0.0)
        assert np.all(quad.values["a"] == 0.0)


class TestDeterministicReductions:
    def test_single_state_unit_benefit_discounts(self, long_setup):
        m, sel, grid = long_setup
        pol = markov.PolicySpec(
            states=("only",), horizon=10.0, terminal={"only": payoff.constant(1.0)}
        )
        quad = thiele.reserve_quadrature(pol, m, sel, DIST, grid, 0.0)
        assert float(quad.values["only"][0, 0, 0]) == pytest.approx(
            math.exp(-0.3), abs=1e-9
        )
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        assert float(surf.values["only"][0][0, 0, 0]) == pytest.approx(
            math.exp(-0.3), abs=1e-6
        )

    def test_classical_term_insurance_both_routes(self, long_setup):
        m, sel, grid = long_setup
        pol = markov.term_insurance(10.0, 0.02)
        closed = scalar_term_insurance(0.03, 0.02, 10.0)

        def ode_ref():
            sol = solve_ivp(
                lambda t, v: [0.03 * v[0] - 0.02 * (1.0 - v[0])],
                (10.0, 0.0),
                [0.0],
                rtol=1e-12,
                atol=1e-14,
            )
            return float(sol.y[0, -1])

        assert ode_ref() == pytest.approx(closed, abs=1e-9)
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        got = float(surf.values["alive"][0][0, 0, 0])
        assert abs(got - closed) < 1e-4
        # the reserve is spatially flat for an x-independent contract
        assert float(np.ptp(surf.values["alive"][0])) < 1e-12
        quad = thiele.reserve_quadrature(pol, m, sel, DIST, grid, 0.0)
        assert float(quad.values["alive"][0, 0, 0]) == pytest.approx(closed, abs=2e-5)


class TestTerminalExactness:
    def test_terminal_layers_bit_exact(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        term = np.broadcast_to(np.maximum(g, grid.x)[:, None, None], grid.shape)
        assert np.array_equal(surf.values["alive"][-1], term)
        assert np.all(surf.values["dead"][-1] == 0.0)


class TestRouteConsistency:
    @pytest.mark.parametrize(
        "template",
        ["pure_endowment", "term_insurance", "endowment_guarantee"],
    )
    def test_quadrature_vs_backward_at_probes(self, setup, template):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = {
            "pure_endowment": markov.pure_endowment(1.0, 0.02),
            "term_insurance": markov.term_insurance(1.0, 0.02),
            "endowment_guarantee": markov.endowment_guarantee(1.0, 0.02, g),
        }[template]
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        quad = thiele.reserve_quadrature(pol, m, sel, DIST, grid, 0.0)
        nx, ny, nz = grid.shape
        probes = [
            (i, j, k)
            for i in (nx // 4, nx // 2, 3 * nx // 4)
            for j in (ny // 4, ny // 2, 3 * ny // 4)
            for k in (nz // 4, nz // 2, 3 * nz // 4)
        ]
        for state in pol.states:
            a_lay = surf.values[state][0]
            b_lay = quad.values[state]
            assert float(np.min(surf.values[state])) >= 0.0
            assert float(np.min(b_lay)) >= 0.0
            scale = max(float(np.max(np.abs(b_lay))), 1e-12)
            for i, j, k in probes:
                assert abs(a_lay[i, j, k] - b_lay[i, j, k]) / scale < 0.01

    def test_interior_time_layer(self, setup):
        # the quadrature evaluates at any t, not just 0
        m, sel, grid = setup
        pol = markov.term_insurance(1.0, 0.02)
        t = 0.5
        quad = thiele.reserve_quadrature(pol, m, sel, DIST, grid, t)
        closed = scalar_term_insurance(0.03, 0.02, 1.0 - t)
        assert float(quad.values["alive"][0, 0, 0]) == pytest.approx(closed, abs=2e-5)
        k = int(np.argmin(np.abs(grid.t - t)))
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        assert float(surf.values["alive"][k][0, 0, 0]) == pytest.approx(closed, abs=1e-4)

    def test_horizon_time_layer_is_terminal_payoff(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        quad = thiele.reserve_quadrature(pol, m, sel, DIST, grid, 1.0)
        term = np.broadcast_to(np.maximum(g, grid.x)[:, None, None], grid.shape)
        assert np.allclose(quad.values["alive"], term, rtol=0, atol=1e-12)

    def test_guarantee_monotone_in_level(self, setup):
        m, sel, grid = setup
        ix = grid.index_near("x", m.S0)
        iy = grid.index_near("y", m.v0)
        iz = grid.index_near("z", m.lambda0)
        vals = []
        for g in (80.0, 100.0, 120.0):
            pol = markov.endowment_guarantee(1.0, 0.02, g, death_benefit=False)
            surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
            vals.append(float(surf.values["alive"][0][ix, iy, iz]))
        assert vals[0] < vals[1] < vals[2]


class TestDiagnostics:
    def test_z_gradient_emitted_and_small(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        surf = thiele.solve_thiele_pide(pol, m, sel, DIST, grid)
        gz = surf.z_gradient("alive", 0)
        assert gz.shape == grid.shape
        scale = float(np.max(np.abs(surf.values["alive"][0])))
        assert 0 < float(np.max(np.abs(gz))) < 0.05 * scale


def _per_node_layers(pay, t, maturities, m, sel, grid):
    """{s: U_s(t)} from one solve_price_pide per maturity node: the loop the
    single march per payoff replaced, kept as the reference."""
    dt_target = m.T / (len(grid.t) - 1)
    layers = {}
    for s in maturities:
        s = float(s)
        if s <= t + 1e-14:
            term = np.asarray(pay(s, grid.x), dtype=float)
            layers[s] = np.broadcast_to(term[:, None, None], grid.shape).copy()
            continue
        nt = max(2, int(round((s - t) / dt_target)))
        sub = pide.Grid4(t=np.linspace(t, s, nt + 1), x=grid.x, y=grid.y, z=grid.z)
        layers[s] = pide.solve_price_pide(pay, s, m, sel, DIST, sub).values[0]
    return layers


def _counted(monkeypatch, name):
    """Replace thiele.<name> by a wrapper that records its calls."""
    calls = []
    fn = getattr(thiele, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(thiele, name, counted)
    return calls


class TestSingleMarch:
    @pytest.fixture(scope="class")
    def small(self):
        m = _mk()
        sel, _ = measure.select_measure(m, DIST, fraction=0.8)
        return m, sel, pide.build_grid(m, 1.0, 16, 12, 8, 6)

    @pytest.mark.parametrize("template, marches", [("guarantee", 2), ("breakpoint", 3)])
    def test_matches_per_node_solves(self, small, template, marches, monkeypatch):
        m, sel, grid = small
        g = m.S0 * math.exp(m.r)
        if template == "guarantee":
            pol = markov.endowment_guarantee(1.0, 0.02, g)
        else:
            # the death payment rate changes at 0.5: one march per segment
            pol = markov.PolicySpec(
                states=("alive", "dead"),
                horizon=1.0,
                intensities={
                    ("alive", "dead"): model.PiecewiseFlat.from_pairs([[0.0, 0.02], [0.5, 0.05]])
                },
                terminal={"alive": payoff.guarantee(g)},
                transition={("alive", "dead"): payoff.guarantee(g)},
            )
        ss = np.linspace(0.0, 1.0, 9)
        dt_target = m.T / (len(grid.t) - 1)
        theta = markov.theta_payoff(pol, "alive")
        f = pol.terminal_payoff("alive")
        ref_theta = _per_node_layers(theta, 0.0, ss, m, sel, grid)
        ref_f = _per_node_layers(f, 0.0, [1.0], m, sel, grid)

        calls = _counted(monkeypatch, "solve_price_pide")
        got = thiele._march_layers(theta, 0.0, ss, m, sel, DIST, grid, dt_target)
        (got_f,) = thiele._march_layers(f, 0.0, [1.0], m, sel, DIST, grid, dt_target)
        assert len(calls) == marches
        for s, layer in zip(ss, got):
            assert np.array_equal(layer, ref_theta[float(s)])
        assert np.array_equal(got_f, ref_f[1.0])

        marched = thiele.reserve_quadrature(
            pol, m, sel, DIST, grid, 0.0, n_maturities=9, refine_budget=np.inf
        )

        def per_node(pay, t, maturities, *_):
            layers = _per_node_layers(pay, t, maturities, m, sel, grid)
            return [layers[float(s)] for s in maturities]

        monkeypatch.setattr(thiele, "_march_layers", per_node)
        ref = thiele.reserve_quadrature(
            pol, m, sel, DIST, grid, 0.0, n_maturities=9, refine_budget=np.inf
        )
        for state in pol.states:
            assert np.array_equal(marched.values[state], ref.values[state])

    def test_off_lattice_maturities_rejected(self, small):
        m, sel, grid = small
        theta = markov.theta_payoff(markov.term_insurance(1.0, 0.02), "alive")
        with pytest.raises(ValueError):
            thiele._march_layers(
                theta, 0.0, np.array([0.0, 0.25, 0.6, 1.0]), m, sel, DIST, grid, 1.0 / 16
            )

    def test_refinement_remarches_only_the_payment_rates(self, small, monkeypatch):
        # one march each for f and theta, then theta again on the doubled
        # lattice; p(t, T) once for the terminal term and one probability
        # chain per lattice
        m, sel, grid = small
        pol = markov.endowment_guarantee(1.0, 0.02, m.S0 * math.exp(m.r))
        solves = _counted(monkeypatch, "solve_price_pide")
        probs = _counted(monkeypatch, "transition_probs")
        chains = _counted(monkeypatch, "lattice_probs")
        out = thiele.reserve_quadrature(
            pol, m, sel, DIST, grid, 0.0, n_maturities=9, refine_budget=0.0
        )
        assert out.diagnostics == {"n_maturities": 17, "refined": True}
        assert len(solves) == 3
        assert len(probs) == 1
        assert [args[3] for args in chains] == [9, 17]

    def test_time_outside_horizon_refused_before_any_solve(self, small, monkeypatch):
        m, sel, grid = small
        pol = markov.endowment_guarantee(1.0, 0.02, m.S0)
        solves = _counted(monkeypatch, "solve_price_pide")
        with pytest.raises(TimeOrderError):
            thiele.reserve_quadrature(pol, m, sel, DIST, grid, 1.5)
        assert solves == []


class TestSimpson:
    def test_weights_integrate_cubics_exactly(self):
        w = thiele._simpson_weights(33) * (1.0 / 32)
        xs = np.linspace(0.0, 1.0, 33)
        assert float(w @ xs**3) == pytest.approx(0.25, abs=1e-14)

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            thiele._simpson_weights(32)


class TestPremium:
    def test_equivalence_premium_zeroes_the_reserve(self, setup):
        m, sel, grid = setup
        pol = markov.pure_endowment(1.0, 0.02, amount=100.0)
        pi = thiele.equivalence_premium(pol, m, sel, DIST, grid)
        ix = grid.index_near("x", m.S0)
        iy = grid.index_near("y", m.v0)
        iz = grid.index_near("z", m.lambda0)
        benefits = thiele.reserve_quadrature(pol, m, sel, DIST, grid, 0.0)
        annuity_pol = markov.PolicySpec(
            states=pol.states,
            horizon=pol.horizon,
            intensities=pol.intensities,
            rate={"alive": payoff.constant(1.0)},
        )
        annuity = thiele.reserve_quadrature(annuity_pol, m, sel, DIST, grid, 0.0)
        residual = (
            benefits.values["alive"][ix, iy, iz]
            - pi * annuity.values["alive"][ix, iy, iz]
        )
        assert abs(residual) < 1e-9
        assert 90.0 < pi < 110.0
