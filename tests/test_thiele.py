import itertools
import math
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hhr import markov, measure, model, payoff, pide, thiele
from hhr.config import load_config
from hhr.errors import TimeOrderError

from conftest import bits, count_stepper_inits, desk_params

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
DIST = model.ExponentialJump(2.0)


def _mk(**kw):
    return model.validate(desk_params(**kw))


def _stepper(m, sel, grid):
    return pide.Stepper(grid, m, sel, DIST)


@pytest.fixture(scope="module")
def setup():
    m = _mk()
    sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
    grid = pide.build_grid(m, 1.0, 64, 48, 24, 16)
    return m, sel, grid


@pytest.fixture(scope="module")
def long_setup():
    m = _mk(T=10.0)
    sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
    grid = pide.build_grid(m, 10.0, 1024, 12, 8, 4)
    return m, sel, grid


def _thiele_stack(pol, m, sel, grid):
    """Every layer of the coupled march, per state stacked by time index as
    the march streams them."""
    out = {i: np.empty((len(grid.t),) + grid.shape) for i in pol.states}
    for k, layers in thiele.thiele_march(pol, _stepper(m, sel, grid)):
        for i in pol.states:
            out[i][k] = layers[i]
    return out


def _full_stack_thiele(policy, m, sel, grid):
    """The loop the marcher replaced, which stored every layer of every
    state: kept as the reference."""
    st = pide.Stepper(grid, m, sel, DIST)
    nt = len(grid.t) - 1
    dt = grid.t[1] - grid.t[0]
    nx, ny, nz = grid.shape
    T = policy.horizon
    vals = {i: np.empty((nt + 1, nx, ny, nz)) for i in policy.states}
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
                pay = policy.transition.get((a, b), payoff.ZERO)
                h = np.asarray(pay(t_expl, grid.x), dtype=float)[:, None, None]
                source += mu * (h + cur[b] - cur[i])
            vals[i][k] = st.step(cur[i], dt, source=source)
    return vals


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
        stack = _thiele_stack(pol, m, sel, grid)
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        assert np.all(stack["a"] == 0.0)
        assert np.all(quad.values["a"] == 0.0)


class TestDeterministicReductions:
    def test_single_state_unit_benefit_discounts(self, long_setup):
        m, sel, grid = long_setup
        pol = markov.PolicySpec(
            states=("only",), horizon=10.0, terminal={"only": payoff.constant(1.0)}
        )
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        assert float(quad.values["only"][0, 0, 0]) == pytest.approx(
            math.exp(-0.3), abs=1e-9
        )
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
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
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        got = float(surf.values["alive"][0][0, 0, 0])
        assert abs(got - closed) < 1e-4
        # the reserve is spatially flat for an x-independent contract
        assert float(np.ptp(surf.values["alive"][0])) < 1e-12
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        assert float(quad.values["alive"][0, 0, 0]) == pytest.approx(closed, abs=2e-5)


class TestTerminalExactness:
    def test_terminal_layers_bit_exact(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        k, terminal = next(thiele.thiele_march(pol, _stepper(m, sel, grid)))
        assert k == len(grid.t) - 1
        term = np.broadcast_to(np.maximum(g, grid.x)[:, None, None], grid.shape)
        assert np.array_equal(terminal["alive"], term)
        assert np.all(terminal["dead"] == 0.0)

    @pytest.mark.parametrize("template", ["endowment_guarantee", "premium_breakpoint"])
    def test_streamed_layers_equal_the_full_stack(self, setup, template):
        # endowment_guarantee pays on death, so the source carries a
        # transition payment as well as the coupling; the second policy adds
        # a premium rate and a death intensity that changes at t = 0.5, so
        # the time at which the source is read shows
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        if template == "premium_breakpoint":
            pol = markov.PolicySpec(
                states=("alive", "dead"),
                horizon=1.0,
                intensities={
                    ("alive", "dead"): model.PiecewiseFlat.from_pairs([[0.0, 0.02], [0.5, 0.05]])
                },
                terminal={"alive": payoff.guarantee(g)},
                rate={"alive": payoff.constant(-2.0)},
                transition={("alive", "dead"): payoff.guarantee(g)},
            )
        want = _full_stack_thiele(pol, m, sel, grid)
        got = _thiele_stack(pol, m, sel, grid)
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        for state in pol.states:
            assert np.array_equal(got[state], want[state])
            assert np.array_equal(surf.values[state][0], want[state][0])
            with pytest.raises(IndexError):
                surf.values[state][1]


class TestInertStates:
    """A state with no terminal payoff, no payment rate and no listed exit
    has the reserve 0 exactly and is not marched."""

    @staticmethod
    def _count_steps(monkeypatch):
        calls = []
        step = pide.Stepper.step

        def counted(self, u, *args, **kwargs):
            calls.append(u)
            return step(self, u, *args, **kwargs)

        monkeypatch.setattr(pide.Stepper, "step", counted)
        return calls

    # the desk shape at 8 steps, and a grid whose y factorisation pivots, where
    # marching a zero layer leaves -0.0 at some nodes
    @pytest.mark.parametrize("shape", [(8, 48, 24, 16), (4, 48, 48, 16)])
    def test_matches_marching_every_state(self, shape, monkeypatch):
        m = _mk()
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, *shape)
        pol = markov.endowment_guarantee(1.0, 0.02, m.S0 * math.exp(m.r))
        want = _full_stack_thiele(pol, m, sel, grid)
        steps = self._count_steps(monkeypatch)
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        assert len(steps) == len(grid.t) - 1  # "alive" only
        assert surf.values["alive"][0].tobytes() == want["alive"][0].tobytes()
        dead = surf.values["dead"][0]
        assert dead.shape == grid.shape
        assert np.all(dead == 0.0) and not np.any(np.signbit(dead))
        assert np.array_equal(dead, want["dead"][0])
        if shape[2] == 48:
            assert np.any(np.signbit(want["dead"][0]))

    def test_listed_exit_at_zero_rate_is_marched(self, monkeypatch):
        m = _mk()
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, 4, 12, 8, 6)
        pol = markov.PolicySpec(
            states=("a", "b", "d"),
            horizon=1.0,
            intensities={("a", "d"): model.PiecewiseFlat.constant(0.02),
                         ("b", "d"): model.PiecewiseFlat.constant(0.0)},
            terminal={"a": payoff.constant(1.0)},
        )
        steps = self._count_steps(monkeypatch)
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        assert [len(u) for u in steps] == [2] * (len(grid.t) - 1)  # "a" and "b" stacked, not "d"
        assert np.all(surf.values["b"][0] == 0.0)
        assert np.all(surf.values["d"][0] == 0.0)

    def test_every_state_inert(self):
        # the march then steps an empty stack
        m = _mk()
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, 4, 12, 8, 6)
        pol = markov.PolicySpec(states=("a", "d"), horizon=1.0, intensities={})
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        for state in pol.states:
            assert np.all(surf.values[state][0] == 0.0) and np.all(quad.values[state] == 0.0)


class TestRouteConsistency:
    @pytest.mark.parametrize(
        "template",
        ["pure_endowment", "term_insurance", "endowment_guarantee", "off_node_breakpoint"],
    )
    def test_quadrature_vs_backward_at_probes(self, setup, template):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        if template == "off_node_breakpoint":
            # the death intensity steps at 0.37, between lattice nodes 0.34375 and 0.375
            pol = markov.PolicySpec(
                states=("alive", "dead"),
                horizon=1.0,
                intensities={
                    ("alive", "dead"): model.PiecewiseFlat.from_pairs([[0.0, 0.02], [0.37, 0.05]])
                },
                terminal={"alive": payoff.guarantee(g)},
                transition={("alive", "dead"): payoff.guarantee(g)},
            )
        else:
            pol = {
                "pure_endowment": markov.pure_endowment(1.0, 0.02),
                "term_insurance": markov.term_insurance(1.0, 0.02),
                "endowment_guarantee": markov.endowment_guarantee(1.0, 0.02, g),
            }[template]
        stack = _thiele_stack(pol, m, sel, grid)
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        nx, ny, nz = grid.shape
        probes = [
            (i, j, k)
            for i in (nx // 4, nx // 2, 3 * nx // 4)
            for j in (ny // 4, ny // 2, 3 * ny // 4)
            for k in (nz // 4, nz // 2, 3 * nz // 4)
        ]
        for state in pol.states:
            a_lay = stack[state][0]
            b_lay = quad.values[state]
            assert float(np.min(stack[state])) >= 0.0
            assert float(np.min(b_lay)) >= 0.0
            scale = max(float(np.max(np.abs(b_lay))), 1e-12)
            for i, j, k in probes:
                assert abs(a_lay[i, j, k] - b_lay[i, j, k]) / scale < 0.01

    def test_routes_agree_below_the_model_horizon(self, setup):
        # the quadrature route marches at the grid's own step, as the
        # backward route does: at horizon T/2 that is half of T / nt
        m, sel, _ = setup
        h = m.T / 2
        grid = pide.build_grid(m, h, 32, 24, 12, 8)
        pol = markov.endowment_guarantee(h, 0.02, m.S0 * math.exp(m.r * h))
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        nx, ny, nz = grid.shape
        probes = np.ix_(*[(n // 4, n // 2, 3 * n // 4) for n in (nx, ny, nz)])
        for state in pol.states:
            want, got = surf.values[state][0], quad.values[state]
            scale = max(float(np.max(np.abs(got))), 1e-12)
            # 4.0e-4 when the quadrature marched at T / nt, 7.6e-7 at the grid's step
            assert float(np.max(np.abs(want[probes] - got[probes]))) / scale < 1e-5

    def test_interior_time_layer(self, setup):
        # the quadrature evaluates at any t, not just 0
        m, sel, grid = setup
        pol = markov.term_insurance(1.0, 0.02)
        t = 0.5
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), t)
        closed = scalar_term_insurance(0.03, 0.02, 1.0 - t)
        assert float(quad.values["alive"][0, 0, 0]) == pytest.approx(closed, abs=2e-5)
        k = int(np.argmin(np.abs(grid.t - t)))
        stack = _thiele_stack(pol, m, sel, grid)
        assert float(stack["alive"][k][0, 0, 0]) == pytest.approx(closed, abs=1e-4)

    def test_horizon_time_layer_is_terminal_payoff(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        quad = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 1.0)
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
            surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
            vals.append(float(surf.values["alive"][0][ix, iy, iz]))
        assert vals[0] < vals[1] < vals[2]


class TestDiagnostics:
    def test_z_gradient_emitted_and_small(self, setup):
        m, sel, grid = setup
        g = m.S0 * math.exp(m.r)
        pol = markov.endowment_guarantee(1.0, 0.02, g)
        surf = thiele.solve_thiele_pide(pol, _stepper(m, sel, grid))
        gz = surf.z_gradient("alive")
        assert gz.shape == grid.shape
        scale = float(np.max(np.abs(surf.values["alive"][0])))
        assert 0 < float(np.max(np.abs(gz))) < 0.05 * scale


def _per_node_layers(pay, t, maturities, m, sel, grid):
    """{s: U_s(t)} from one solve_price_pide per maturity node: the loop the
    single march per payoff replaced, kept as the reference."""
    dt_target = grid.t[1] - grid.t[0]
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
        sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig())
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
        theta = markov.theta_payoff(pol, "alive")
        f = pol.terminal_payoff("alive")
        ref_theta = _per_node_layers(theta, 0.0, ss, m, sel, grid)
        ref_f = _per_node_layers(f, 0.0, [1.0], m, sel, grid)

        calls = _counted(monkeypatch, "march")
        st = _stepper(m, sel, grid)  # shared, as in reserve_quadrature
        (got,) = thiele._march_layers([(theta, ss)], 0.0, st)
        ((got_f,),) = thiele._march_layers([(f, [1.0])], 0.0, st)
        assert len(calls) == marches
        for s, layer in zip(ss, got):
            assert np.array_equal(layer, ref_theta[float(s)])
        assert np.array_equal(got_f, ref_f[1.0])

        monkeypatch.setattr(thiele, "_N_MATURITIES", 9)
        monkeypatch.setattr(thiele, "_REFINE_BUDGET", np.inf)
        marched = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)

        def per_node(jobs, t, *_):
            out = []
            for pay, maturities in jobs:
                layers = _per_node_layers(pay, t, maturities, m, sel, grid)
                out.append([layers[float(s)] for s in maturities])
            return out

        monkeypatch.setattr(thiele, "_march_layers", per_node)
        ref = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        for state in pol.states:
            assert np.array_equal(marched.values[state], ref.values[state])

    def test_desk_payoffs_march_as_one_stack(self, setup, monkeypatch):
        # the terminal guarantee and the death benefit's theta share the
        # grid's time axis and the kinked start: 65 steps of a stack of two
        m, sel, grid = setup
        pol = markov.endowment_guarantee(1.0, 0.02, m.S0 * math.exp(m.r))
        steps = TestInertStates._count_steps(monkeypatch)
        thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        assert [len(u) for u in steps] == [2] * len(grid.t)  # nt steps and one half-step more

    def test_off_lattice_maturities_rejected(self, small):
        m, sel, grid = small
        theta = markov.theta_payoff(markov.term_insurance(1.0, 0.02), "alive")
        with pytest.raises(ValueError):
            thiele._march_layers(
                [(theta, np.array([0.0, 0.25, 0.6, 1.0]))], 0.0, _stepper(m, sel, grid)
            )

    def test_refinement_remarches_only_the_payment_rates(self, small, monkeypatch):
        # one march of f and theta as one stack (both on the grid's time
        # axis), then theta again on the doubled lattice, all through the
        # Stepper given, none built; p(t, T) once for the terminal term and
        # p(t, s) once at every node of each lattice
        m, sel, grid = small
        pol = markov.endowment_guarantee(1.0, 0.02, m.S0 * math.exp(m.r))
        st = _stepper(m, sel, grid)
        steppers = count_stepper_inits(monkeypatch)
        marches = _counted(monkeypatch, "march")
        probs = _counted(monkeypatch, "transition_probs")
        monkeypatch.setattr(thiele, "_N_MATURITIES", 9)
        monkeypatch.setattr(thiele, "_REFINE_BUDGET", 0.0)
        out = thiele.reserve_quadrature(pol, st, 0.0)
        assert out.diagnostics == {"n_maturities": 17, "refined": True}
        assert [len(args[1]) for args in marches] == [2, 1]
        assert len(steppers) == 0 and all(args[0] is st for args in marches)
        assert len(probs) == 1 + 9 + 17
        assert [args[2] for args in probs[1:10]] == list(np.linspace(0.0, 1.0, 9))
        assert [args[2] for args in probs[10:]] == list(np.linspace(0.0, 1.0, 17))

    def test_time_outside_horizon_refused_before_any_solve(self, small, monkeypatch):
        m, sel, grid = small
        pol = markov.endowment_guarantee(1.0, 0.02, m.S0)
        marches = _counted(monkeypatch, "march")
        with pytest.raises(TimeOrderError):
            thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 1.5)
        assert marches == []


class TestSharedStepper:
    """Solves that take turns on one Stepper give, bit for bit, what they
    give on Steppers of their own."""

    @pytest.fixture(scope="class")
    def desk(self):
        # the desk policy on a small grid at the desk's 64 steps, where the
        # quadrature steps its two payoffs as one stack at the grid's step,
        # and a stack of two sweeps y and z as rows, a single surface not
        cfg = load_config(DESK)
        m = cfg.validated_model()
        sel, _ = cfg.selection(m)
        grid = pide.build_grid(m, cfg.policy.horizon, 64, 24, 12, 8)
        return cfg.policy, lambda: pide.Stepper(grid, m, sel, cfg.dist)

    @pytest.mark.parametrize("backward_first", [True, False], ids=["backward_first",
                                                                    "quadrature_first"])
    def test_both_routes_in_either_order(self, desk, backward_first):
        pol, new = desk
        want = (thiele.solve_thiele_pide(pol, new()), thiele.reserve_quadrature(pol, new(), 0.0))
        st = new()
        if backward_first:
            surf = thiele.solve_thiele_pide(pol, st)
            quad = thiele.reserve_quadrature(pol, st, 0.0)
        else:
            quad = thiele.reserve_quadrature(pol, st, 0.0)
            surf = thiele.solve_thiele_pide(pol, st)
        for state in pol.states:
            assert np.array_equal(bits(surf.values[state][0]), bits(want[0].values[state][0]))
            assert np.array_equal(bits(quad.values[state]), bits(want[1].values[state]))

    def test_marches_advanced_in_turn(self, desk):
        # the reserve march steps one surface at the grid's step; the price
        # march steps two at twice that, from a kinked start whose two
        # half-steps are the grid's step
        pol, new = desk
        x = new().grid.x
        start = {"g": pol.terminal_payoff("alive")(pol.horizon, x),
                 "1": payoff.constant(1.0)(pol.horizon, x)}
        ts = np.linspace(0.0, pol.horizon, 33)

        def run(st_reserve, st_price):
            out = ([], [])
            for pair in itertools.zip_longest(thiele.thiele_march(pol, st_reserve),
                                              pide.march(st_price, start, ts, kinked=True)):
                for got, item in zip(out, pair):
                    if item is not None:
                        got += [bits(layer) for layer in item[1].values()]
            return out

        st = new()
        shared, fresh = run(st, st), run(new(), new())
        for got, want in zip(shared, fresh):
            assert len(got) == len(want)
            assert all(np.array_equal(a, b) for a, b in zip(got, want))


class TestSimpson:
    def test_weights_integrate_cubics_exactly(self):
        w = thiele._simpson_weights(33) * (1.0 / 32)
        xs = np.linspace(0.0, 1.0, 33)
        assert float(w @ xs**3) == pytest.approx(0.25, abs=1e-14)

    def test_even_node_count_rejected(self):
        with pytest.raises(ValueError):
            thiele._simpson_weights(32)


class TestPremium:
    def test_equivalence_premium_zeroes_the_reserve(self, setup, monkeypatch):
        m, sel, grid = setup
        monkeypatch.setattr(markov, "_AMOUNT", 100.0)
        pol = markov.pure_endowment(1.0, 0.02)
        steppers = count_stepper_inits(monkeypatch)
        pi = thiele.equivalence_premium(pol, m, _stepper(m, sel, grid))
        assert len(steppers) == 1  # the caller's: both reserves march through it
        ix = grid.index_near("x", m.S0)
        iy = grid.index_near("y", m.v0)
        iz = grid.index_near("z", m.lambda0)
        benefits = thiele.reserve_quadrature(pol, _stepper(m, sel, grid), 0.0)
        annuity_pol = markov.PolicySpec(
            states=pol.states,
            horizon=pol.horizon,
            intensities=pol.intensities,
            rate={"alive": payoff.constant(1.0)},
        )
        annuity = thiele.reserve_quadrature(annuity_pol, _stepper(m, sel, grid), 0.0)
        residual = (
            benefits.values["alive"][ix, iy, iz]
            - pi * annuity.values["alive"][ix, iy, iz]
        )
        assert abs(residual) < 1e-9
        assert 90.0 < pi < 110.0
