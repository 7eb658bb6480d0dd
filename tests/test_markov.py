import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from hhr import markov, model, payoff
from hhr.errors import TimeOrderError


def two_state(mu=0.02, horizon=10.0):
    return markov.term_insurance(horizon, mu)


def three_state(horizon=5.0):
    pw = model.PiecewiseFlat.from_pairs
    return markov.PolicySpec(
        states=("active", "disabled", "dead"),
        horizon=horizon,
        intensities={
            ("active", "disabled"): pw([[0.0, 0.05], [2.0, 0.08]]),
            ("active", "dead"): pw([[0.0, 0.01]]),
            ("disabled", "active"): pw([[0.0, 0.03]]),
            ("disabled", "dead"): pw([[0.0, 0.04]]),
        },
        terminal={"active": payoff.constant(1.0)},
    )


class TestTransitionProbs:
    def test_identity_at_equal_times(self):
        pol = three_state()
        assert np.array_equal(markov.transition_probs(pol, 1.0, 1.0), np.eye(3))

    def test_two_state_closed_form(self):
        pol = two_state(mu=0.02)
        p = markov.transition_probs(pol, 0.0, 10.0)
        assert p[0, 0] == pytest.approx(math.exp(-0.2), abs=1e-12)
        assert p[0, 1] == pytest.approx(1 - math.exp(-0.2), abs=1e-12)

    def test_rows_sum_to_one(self):
        pol = three_state()
        p = markov.transition_probs(pol, 0.3, 4.7)
        assert np.max(np.abs(p.sum(axis=1) - 1.0)) < 1e-10
        assert np.all(p >= 0) and np.all(p <= 1)

    def test_rk45_route_agrees_with_expm(self):
        # the reference: the backward system d/du p(u,s) = -Q(u) p(u,s),
        # terminal identity at u = s, integrated adaptively back to t
        pol = three_state()
        t, s, n = 0.5, 4.5, pol.n_states

        def rhs(u, yflat):
            return (-markov.generator_matrix(pol, u) @ yflat.reshape(n, n)).ravel()

        sol = solve_ivp(rhs, (s, t), np.eye(n).ravel(), rtol=1e-10, atol=1e-12)
        b = sol.y[:, -1].reshape(n, n)
        a = markov.transition_probs(pol, t, s)
        assert np.max(np.abs(a - b)) < 1e-8

    def test_time_order_enforced(self):
        with pytest.raises(TimeOrderError):
            markov.transition_probs(two_state(), 2.0, 1.0)

    def test_absorbing_state_is_exact(self):
        pol = three_state()
        p = markov.transition_probs(pol, 0.0, 5.0)
        dead = pol.index("dead")
        assert p[dead, dead] == 1.0
        assert np.all(p[dead, :dead] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        t=st.floats(0.0, 5.0),
        du=st.floats(0.0, 5.0),
        ds=st.floats(0.0, 5.0),
    )
    def test_chapman_kolmogorov(self, t, du, ds):
        pol = three_state()
        u = min(t + du, pol.horizon)
        s = min(u + ds, pol.horizon)
        t = min(t, pol.horizon)
        lhs = markov.transition_probs(pol, t, u) @ markov.transition_probs(pol, u, s)
        rhs = markov.transition_probs(pol, t, s)
        assert np.max(np.abs(lhs - rhs)) < 1e-8

    def test_short_time_expansion_recovers_generator(self):
        pol = three_state()
        eps = 1e-5
        q = markov.generator_matrix(pol, 1.0)
        fd = (markov.transition_probs(pol, 1.0, 1.0 + eps) - np.eye(3)) / eps
        assert np.max(np.abs(fd - q)) < 10 * eps


class TestPolicySpec:
    def test_negative_intensity_rejected(self):
        with pytest.raises(ValueError):
            markov.PolicySpec(
                states=("a", "d"),
                horizon=1.0,
                intensities={("a", "d"): model.PiecewiseFlat.constant(-0.1)},
            )

    def test_self_transition_rejected(self):
        with pytest.raises(ValueError):
            markov.PolicySpec(
                states=("a", "d"),
                horizon=1.0,
                intensities={("a", "a"): model.PiecewiseFlat.constant(0.1)},
            )

    def test_breakpoints_collects_all_segments(self):
        pol = three_state()
        assert list(pol.breakpoints()) == [0.0, 2.0, 5.0]


class TestThetaRate:
    def test_zero_policy(self):
        pol = markov.PolicySpec(
            states=("a", "d"),
            horizon=1.0,
            intensities={("a", "d"): model.PiecewiseFlat.constant(0.02)},
        )
        assert markov.theta_rate(pol, "a", 0.5, 100.0) == 0.0
        assert markov.theta_payoff(pol, "a").is_zero

    def test_single_transition_payment(self):
        pol = two_state(mu=0.02)
        assert markov.theta_rate(pol, "alive", 0.3, 50.0) == pytest.approx(0.02)

    def test_combined_rate(self):
        pol = markov.PolicySpec(
            states=("a", "d"),
            horizon=1.0,
            intensities={("a", "d"): model.PiecewiseFlat.constant(0.02)},
            rate={"a": payoff.linear(0.01)},
            transition={("a", "d"): payoff.guarantee(150.0)},
        )
        assert markov.theta_rate(pol, "a", 0.5, 100.0) == pytest.approx(4.0)
        th = markov.theta_payoff(pol, "a")
        assert th.kinked
        assert np.allclose(th(0.5, np.array([100.0, 200.0])), [4.0, 6.0])


class TestTemplates:
    def test_pure_endowment_shape(self):
        pol = markov.pure_endowment(10.0, 0.02)
        assert pol.terminal_payoff("alive").kind == "constant"
        assert pol.terminal_payoff("dead").is_zero
        assert markov.theta_payoff(pol, "alive").is_zero

    def test_endowment_guarantee_shape(self):
        pol = markov.endowment_guarantee(1.0, 0.02, 120.0)
        assert pol.terminal_payoff("alive").kinked
        assert not markov.theta_payoff(pol, "alive").is_zero


def _ulps(got, want):
    """The largest gap between two matrices in ulps of want's largest entry."""
    return float(np.max(np.abs(got - want)) / np.spacing(np.max(np.abs(want))))


def _random_generator(rng, n, rate):
    q = rng.uniform(0.0, rate, (n, n))
    np.fill_diagonal(q, 0.0)
    np.fill_diagonal(q, -q.sum(axis=1))
    return q


class TestExpm:
    """markov.expm, Higham's (2005) scaling and squaring, against scipy's
    (Al-Mohy and Higham 2009) and against exact references.  The two
    algorithms pick their Pade degrees and solve their systems differently,
    so their bits differ by a few ulps of the largest entry."""

    def test_desk_generator_at_every_lattice_step(self):
        # the desk's one segment: p(0, s) is exp(Q s) at every node s of the
        # quadrature's lattice and of its refinement, p(0, T) the last
        from scipy.linalg import expm as scipy_expm

        from hhr.config import load_config

        pol = load_config("configs/desk.json").policy
        worst = 0.0
        for n in (33, 65):
            for s in np.linspace(0.0, pol.horizon, n)[1:]:
                q = markov.generator_matrix(pol, 0.0) * s
                worst = max(worst, _ulps(markov.expm(q), scipy_expm(q)))
        assert worst <= 1.0

    @pytest.mark.parametrize("rate", [0.01, 0.1])
    def test_random_three_state_generators(self, rate):
        # insurance intensities up to 0.1 a year, over steps of up to 2 years
        from scipy.linalg import expm as scipy_expm

        rng = np.random.default_rng(5)
        for _ in range(200):
            q = _random_generator(rng, 3, rate) * rng.uniform(0.01, 2.0)
            assert _ulps(markov.expm(q), scipy_expm(q)) <= 8.0

    def test_large_norms_against_high_precision(self):
        # norms past theta_13, where the squarings run: within 32 ulps of a
        # 40-digit mpmath exponential (scipy's own reaches about 120 here)
        import mpmath

        rng = np.random.default_rng(6)
        with mpmath.workdps(40):
            for _ in range(40):
                q = _random_generator(rng, 3, 5.0) * rng.uniform(0.5, 2.0)
                want = np.array(mpmath.expm(mpmath.matrix(q)).tolist(), dtype=float)
                assert _ulps(markov.expm(q), want) <= 32.0

    @pytest.mark.parametrize("mu_h", [1e-6, 6.25e-4, 0.02, 0.3, 1.0, 3.0, 8.0, 40.0])
    def test_two_state_closed_form(self, mu_h):
        # from mu_h = 3 the squarings run; at 40 they leave 4.5 ulps, but the
        # absorbing row stays exact
        q = np.array([[-mu_h, mu_h], [0.0, 0.0]])
        want = np.array([[math.exp(-mu_h), -math.expm1(-mu_h)], [0.0, 1.0]])
        got = markov.expm(q)
        assert _ulps(got, want) <= (1.0 if mu_h <= 1.0 else 8.0)
        assert got[1].tolist() == [0.0, 1.0]

    def test_zero_and_diagonal(self):
        assert np.array_equal(markov.expm(np.zeros((3, 3))), np.eye(3))
        d = np.diag([-0.5, -2.0, 0.0])
        assert _ulps(markov.expm(d), np.diag(np.exp(np.diag(d)))) <= 2.0
