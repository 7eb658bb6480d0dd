import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from hhr import model
from hhr.config import config_from_dict
from hhr.errors import DomainError, InvalidModel

from conftest import desk_params


class TestValidate:
    def test_desk_parameters_are_valid(self):
        m = model.validate(desk_params())
        assert m.kappa == 2.0
        assert 2 * m.kappa * m.vbar >= m.sigma**2

    def test_stability_violated(self):
        with pytest.raises(InvalidModel) as exc:
            model.validate(desk_params(alpha=1.2, beta=1.0))
        assert any(v.code == "stability_violated" for v in exc.value.violations)

    def test_feller_violated(self):
        with pytest.raises(InvalidModel) as exc:
            model.validate(desk_params(kappa=1.0, vbar=0.1, sigma=0.5))
        assert any(v.code == "feller_violated" for v in exc.value.violations)

    def test_rho_out_of_range(self):
        with pytest.raises(InvalidModel) as exc:
            model.validate(desk_params(rho=1.0))
        assert any(v.code == "range_error" for v in exc.value.violations)

    def test_violation_list_is_complete(self):
        bad = desk_params(alpha=2.0, beta=1.0, rho=-3.0, v0=-1.0, sigma=5.0)
        vs = model.violations(bad)
        codes = {v.code for v in vs}
        assert {"stability_violated", "feller_violated", "range_error"} <= codes
        assert len(vs) >= 4

    def test_degenerate_modes_allowed(self):
        model.validate(desk_params(eta=0.0))
        model.validate(desk_params(eta=0.0, sigma=0.0))
        model.validate(desk_params(alpha=0.0))

    def test_drift_gap_is_exact(self):
        p = desk_params(mu=model.PiecewiseFlat.from_pairs([[0.0, 0.07], [0.3, 0.01]]))
        assert p.drift_gap_sq == pytest.approx((0.07 - 0.03) ** 2)


class TestPiecewiseFlat:
    def test_lookup(self):
        f = model.PiecewiseFlat.from_pairs([[0.0, 1.0], [0.5, 2.0]])
        assert f(0.0) == 1.0
        assert f(0.49) == 1.0
        assert f(0.5) == 2.0
        assert np.allclose(f(np.array([0.1, 0.6])), [1.0, 2.0])

    def test_lookup_equals_the_clipped_tuple_lookup(self):
        # the lookup before the arrays were built once, with np.clip
        def clipped(f, t):
            idx = np.searchsorted(f.breakpoints, t, side="right") - 1
            idx = np.clip(idx, 0, len(f.values) - 1)
            return np.asarray(f.values)[idx]

        f = model.PiecewiseFlat.from_pairs([[0.0, 0.05], [0.3, 0.02], [0.77, 0.09]])
        ts = np.concatenate([[-2.0, -1e-300, 0.0, 0.3, 0.77, 1.0, 5.0], np.linspace(-1, 2, 301)])
        for t in [*ts, 3, ts, ts.reshape(7, 44)]:
            got, want = f(t), clipped(f, t)
            assert type(got) is type(want) and np.shape(got) == np.shape(want)
            assert np.array_equal(got, want)
        assert f == model.PiecewiseFlat(f.breakpoints, f.values) and hash(f) is not None

    def test_requires_zero_start(self):
        with pytest.raises(ValueError):
            model.PiecewiseFlat.from_pairs([[0.1, 1.0]])


class TestMgf:
    def test_at_zero_is_one(self):
        assert model.ConstantJump(3.0).mgf(0.0) == 1.0
        assert model.ExponentialJump(2.0).mgf(0.0) == 1.0

    def test_exponential_closed_form(self):
        assert model.ExponentialJump(2.0).mgf(1.0) == pytest.approx(2.0)

    def test_domain_edge_raises(self):
        with pytest.raises(DomainError):
            model.ExponentialJump(2.0).mgf(2.0)

    def test_constant_is_entire(self):
        assert model.ConstantJump(0.5).mgf(100.0) == pytest.approx(math.exp(50.0))

    def test_monte_carlo_cross_check(self):
        dist = model.ExponentialJump(2.0)
        rng = np.random.default_rng(7)
        draws = dist.sample(rng, 1_000_000)
        # finite-variance point: tight 3-SE agreement
        w = np.exp(0.5 * draws)
        se = w.std(ddof=1) / math.sqrt(w.size)
        assert abs(w.mean() - dist.mgf(0.5)) < 3 * se
        # t=1 has infinite variance; the mean still converges, loosely checked
        assert abs(np.exp(draws).mean() - dist.mgf(1.0)) < 0.1

    @pytest.mark.parametrize(
        "dist", [model.ConstantJump(0.7), model.ExponentialJump(2.5)]
    )
    def test_increasing_and_convex(self, dist):
        ts = np.linspace(-3.0, min(2.0, dist.epsilon_j * 0.9), 41)
        vals = np.array([dist.mgf(t) for t in ts])
        assert np.all(np.diff(vals) > 0)
        assert np.all(np.diff(vals, 2) > -1e-12)


class TestJumpMoments:
    def test_constant_square(self):
        assert model.ConstantJump(3.0).moment(2) == pytest.approx(9.0)

    def test_exponential_factorial_vs_quadrature(self):
        dist = model.ExponentialJump(1.0)
        ref, _ = quad(lambda x: x**3 * math.exp(-x), 0, np.inf)
        assert dist.moment(3) == pytest.approx(6.0)
        assert dist.moment(3) == pytest.approx(ref, rel=1e-9)

    def test_exponential_mean(self):
        assert model.ExponentialJump(2.0).moment(1) == pytest.approx(0.5)

    def test_order_below_one_rejected(self):
        with pytest.raises(DomainError):
            model.ExponentialJump(2.0).moment(0)

    @settings(max_examples=40, deadline=None)
    @given(rate=st.floats(0.2, 10.0), size=st.floats(0.05, 20.0))
    def test_lyapunov_root_moments_nondecreasing(self, rate, size):
        for dist in (model.ExponentialJump(rate), model.ConstantJump(size)):
            roots = [dist.moment(s) ** (1.0 / s) for s in range(1, 7)]
            assert all(b >= a * (1 - 1e-12) for a, b in zip(roots, roots[1:]))


class TestPayoffObjects:
    def test_shapes(self):
        from hhr import payoff

        x = np.array([50.0, 150.0])
        assert np.allclose(payoff.constant(2.0)(0.5, x), [2.0, 2.0])
        assert np.allclose(payoff.linear(0.01)(0.5, x), [0.5, 1.5])
        assert np.allclose(payoff.guarantee(100.0)(0.5, x), [100.0, 150.0])
        assert payoff.guarantee(100.0).kinked
        assert not payoff.linear(1.0).kinked
        assert payoff.constant(0.0).is_zero

    def test_parse(self):
        from hhr import payoff

        assert payoff.parse_payoff("linear").kind == "linear"
        assert payoff.parse_payoff("constant:2.5").value == 2.5
        assert payoff.parse_payoff("guarantee:120").value == 120.0
        assert payoff.parse_payoff({"kind": "guarantee", "value": 9.0}).value == 9.0
        with pytest.raises(ValueError):
            payoff.parse_payoff("guarantee")
        with pytest.raises(ValueError):
            payoff.parse_payoff("swaption")


DESK_MODEL = {
    "lambda0": 1.0, "alpha": 0.5, "beta": 1.0, "S0": 100.0, "r": 0.03,
    "mu_breakpoints": [[0.0, 0.05], [0.5, 0.04]], "rho": -0.5, "v0": 0.2,
    "kappa": 2.0, "vbar": 0.3, "sigma": 0.5, "eta": 0.1, "T": 1.0,
}


def _read(jump):
    return config_from_dict({"model": DESK_MODEL | {"jump": jump}})


class TestSerialization:
    def test_round_trip(self):
        assert _read({"kind": "exponential", "rate": 2.0}).model == desk_params()

    def test_jump_from_dict(self):
        d = _read({"kind": "exponential", "rate": 2.0}).dist
        assert isinstance(d, model.ExponentialJump)
        c = _read({"kind": "constant", "value": 0.3}).dist
        assert isinstance(c, model.ConstantJump)
        with pytest.raises(ValueError):
            _read({"kind": "lognormal"})
