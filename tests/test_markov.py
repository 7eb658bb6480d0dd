import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
        pol = three_state()
        a = markov.transition_probs(pol, 0.5, 4.5)
        b = markov.transition_probs(pol, 0.5, 4.5, method="rk45")
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


class TestLatticeProbs:
    # three_state's active -> disabled intensity changes at 2.0: straddled by
    # the first lattice, a node of the second, the first node of the third
    LATTICES = [(0.3, 4.7, 9), (0.0, 5.0, 11), (2.0, 5.0, 7)]

    @pytest.mark.parametrize("t, s, n", LATTICES)
    def test_agrees_with_transition_probs_at_every_node(self, t, s, n):
        pol = three_state()
        got = markov.lattice_probs(pol, t, s, n)
        assert len(got) == n
        assert np.array_equal(got[0], np.eye(3))
        for u, p in zip(np.linspace(t, s, n), got):
            assert np.max(np.abs(p - markov.transition_probs(pol, t, u))) < 1e-15 * n

    @pytest.mark.parametrize("lattice, exps", zip(LATTICES, [4, 2, 1]))
    def test_one_exponential_per_segment(self, lattice, exps, monkeypatch):
        # the straddling step of the first lattice needs one per side of 2.0
        calls = []
        real = markov.expm

        def counted(a):
            calls.append(a)
            return real(a)

        monkeypatch.setattr(markov, "expm", counted)
        markov.lattice_probs(three_state(), *lattice)
        assert len(calls) == exps

    def test_degenerate_lattice_is_identity(self):
        got = markov.lattice_probs(three_state(), 1.0, 1.0, 5)
        assert all(np.array_equal(p, np.eye(3)) for p in got)

    def test_time_order_enforced(self):
        with pytest.raises(TimeOrderError):
            markov.lattice_probs(two_state(), 2.0, 1.0, 5)


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
