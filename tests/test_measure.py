import math
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhr import measure, model
from hhr.errors import (
    AdmissibilityError,
    ConfigError,
    DegenerateReversion,
    DomainError,
    RhoTooLarge,
)

from conftest import desk_params


def _mk(**kw):
    return model.validate(desk_params(**kw))


class TestBigD:
    def test_at_zero_is_kappa(self):
        m = _mk()
        assert measure.big_d(m, 0.0) == pytest.approx(m.kappa)

    def test_at_cap_is_zero(self):
        m = _mk()
        cap = m.kappa**2 / (2 * m.sigma**2)
        assert measure.big_d(m, cap) == pytest.approx(0.0, abs=1e-12)

    def test_formula_value(self):
        m = _mk(kappa=2.0, sigma=0.5)
        assert measure.big_d(m, 1.0) == pytest.approx(math.sqrt(3.5))

    def test_above_cap_rejected(self):
        m = _mk()
        with pytest.raises(DomainError):
            measure.big_d(m, 100.0)


class TestLambdaCap:
    def test_zero_at_zero(self):
        assert measure.lambda_cap(_mk(), 0.0) == 0.0

    def test_positive_inside(self):
        m = _mk()
        assert measure.lambda_cap(m, 1.0) > 0.0

    def test_corner_limit(self):
        m = _mk()
        cap = m.kappa**2 / (2 * m.sigma**2)
        limit = 2 * m.eta * cap * m.T / (2 + m.kappa * m.T)
        assert measure.lambda_cap(m, cap) == pytest.approx(limit, rel=1e-12)
        # approaching the corner reproduces the limit
        for d_small in (1e-6, 1e-8):
            c = (m.kappa**2 - d_small**2) / (2 * m.sigma**2)
            assert measure.lambda_cap(m, c) == pytest.approx(limit, rel=1e-6)

    @settings(max_examples=60, deadline=None)
    @given(
        kappa=st.floats(0.05, 10.0),
        sigma=st.floats(0.01, 3.0),
        feller=st.floats(1.01, 3.0),
        eta=st.floats(0.0, 5.0),
        horizon=st.floats(0.01, 30.0),
    )
    @example(kappa=2.0, sigma=0.5, feller=4.8, eta=0.1, horizon=1.0)  # the desk
    def test_monotone_on_scan_grid(self, kappa, sigma, feller, eta, horizon):
        # Lambda(c) = eta B(T; c), B solving B' = c - kappa B + sigma^2 B^2 / 2,
        # B(0) = 0, is nondecreasing in c: compute_c_l bisects on that
        m = _mk(kappa=kappa, sigma=sigma, vbar=feller * sigma**2 / (2 * kappa), eta=eta,
                T=horizon)
        cap = m.kappa**2 / (2 * m.sigma**2)
        cs = np.linspace(cap / 1024, cap, 1024)
        vals = [measure.lambda_cap(m, c) for c in cs]
        steps = np.diff(vals)
        # the test of the monotonicity scan compute_c_l once ran
        assert steps.min() >= -1e-12 * max(max(vals), 1.0)
        if eta == 0.0 or eta >= sys.float_info.min:
            # exactly; a subnormal eta leaves Lambda a few subnormal ulps,
            # which round unevenly
            assert steps.min() >= 0.0


class TestComputeCl:
    def test_zero_eta_attains_cap_exactly(self):
        m = _mk(eta=0.0)
        c_l = measure.compute_c_l(m, model.ExponentialJump(2.0))
        assert c_l == m.kappa**2 / (2 * m.sigma**2)

    def test_predicate_true_at_cap(self):
        # small eta keeps the jump-MGF condition satisfied everywhere
        m = _mk(eta=0.02)
        c_l = measure.compute_c_l(m, model.ExponentialJump(2.0))
        assert c_l == m.kappa**2 / (2 * m.sigma**2)

    def test_interior_value_vs_grid_oracle(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        c_l = measure.compute_c_l(m, dist)
        assert c_l == 7.1492252011834125  # the bisection's float, pinned
        cap = m.kappa**2 / (2 * m.sigma**2)
        assert c_l < cap
        bound = m.beta / m.alpha * math.exp(m.alpha / m.beta - 1.0)
        grid = np.linspace(cap / 100_000, cap, 100_000)
        ok = [
            c
            for c in grid
            if measure.lambda_cap(m, c) < dist.epsilon_j
            and dist.mgf(measure.lambda_cap(m, c)) <= bound
        ]
        assert abs(c_l - max(ok)) < cap / 100_000 + 1e-10

    @pytest.mark.parametrize("dist", [model.ExponentialJump(2.0), model.ConstantJump(2.0)])
    @pytest.mark.parametrize("eta", [0.0, 1e-8, 0.02, 0.1, 0.8, 1.5])
    def test_cap_exactly_when_the_predicate_holds_there(self, eta, dist):
        # otherwise strictly below it, so c_l == cap is the at-cap flag
        m = _mk(eta=eta)
        cap = m.kappa**2 / (2 * m.sigma**2)
        lam = measure.lambda_cap(m, cap)
        holds = lam < dist.epsilon_j and dist.mgf(lam) <= (
            m.beta / m.alpha * math.exp(m.alpha / m.beta - 1.0)
        )
        c_l = measure.compute_c_l(m, dist)
        assert c_l == cap if holds else c_l < cap
        rep = measure.a_bounds(m, dist, measure.MeasureConfig())
        assert (rep.c_l, rep.cap, rep.c_l_at_cap) == (c_l, cap, holds)

    def test_bisection_refinement_stable(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        a = measure.compute_c_l(m, dist, tol=1e-10)
        b = measure.compute_c_l(m, dist, tol=1e-12)
        assert abs(a - b) < 2e-10

    @pytest.mark.parametrize("sigma, eta", [(1e-4, 1e-8), (1e-3, 1e-5)])
    @pytest.mark.parametrize("tol", [1e-10, 1e-12])
    def test_large_c_l_returns(self, sigma, eta, tol, monkeypatch):
        # c_l near 7.7e7 and 8.1e4, where adjacent floats lie further apart
        # than tol: the bisection ends when its midpoint is one of the ends
        real, calls = measure.lambda_cap, []

        def counted(m, c):
            calls.append(c)
            if len(calls) > 10_000:
                raise RuntimeError("bisection made no progress")
            return real(m, c)

        monkeypatch.setattr(measure, "lambda_cap", counted)
        m, dist = _mk(sigma=sigma, eta=eta), model.ExponentialJump(2.0)
        c_l = measure.compute_c_l(m, dist, tol=tol)
        assert 1e4 < c_l < m.kappa**2 / (2 * m.sigma**2)
        calls.clear()
        measure.select_measure(m, dist, measure.MeasureConfig())

    def test_mgf_bound_exceeds_one(self):
        # x * exp(1/x - 1) >= 1 for x > 1, so the predicate holds near c = 0
        xs = np.linspace(1.0 + 1e-9, 100.0, 10_000)
        vals = xs * np.exp(1.0 / xs - 1.0)
        assert vals.min() >= 1.0

    def test_constant_jump_interior(self):
        m = _mk(eta=1.5)
        dist = model.ConstantJump(2.0)
        c_l = measure.compute_c_l(m, dist)
        bound = m.beta / m.alpha * math.exp(m.alpha / m.beta - 1.0)
        assert dist.mgf(measure.lambda_cap(m, c_l - 1e-8)) <= bound

    def test_monotone_in_eta_and_horizon(self):
        dist = model.ExponentialJump(2.0)
        for t_hor in (0.5, 1.0, 2.0, 4.0, 8.0):
            vals = [
                measure.compute_c_l(_mk(eta=e, T=t_hor), dist)
                for e in (0.02, 0.1, 0.3, 0.8, 1.5)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))
        for eta in (0.02, 0.1, 0.3, 0.8, 1.5):
            vals = [
                measure.compute_c_l(_mk(eta=eta, T=t), dist)
                for t in (0.5, 1.0, 2.0, 4.0, 8.0)
            ]
            assert all(b <= a + 1e-12 for a, b in zip(vals, vals[1:]))


class TestABounds:
    def test_rho_zero_arithmetic(self, monkeypatch):
        m = _mk(rho=0.0)
        monkeypatch.setattr(measure, "compute_c_l", lambda *_: 2.0)
        rep = measure.a_bounds(m, model.ExponentialJump(2.0), measure.MeasureConfig())
        assert rep.bound_em == pytest.approx(1.0)

    def test_nesting_on_desk(self, desk_report):
        assert desk_report.bound_em_qs < desk_report.bound_em < desk_report.bound_e

    @settings(max_examples=60, deadline=None)
    @given(
        q=st.floats(1.0001, 50.0),
        s=st.floats(1.0001, 10.0),
        rho=st.floats(-0.99, 0.99),
    )
    def test_bracket_positive(self, q, s, rho):
        bracket = 2 * q * s * (1 - rho**2) + rho**2 * s - 1
        assert bracket > 1 - rho**2 > 0
        assert measure.em_qs_bound(4.0, rho, q, s) > 0

    def test_rho_too_large(self, monkeypatch):
        m = _mk(rho=0.9)
        monkeypatch.setattr(measure, "compute_c_l", lambda *_: 0.5)
        with pytest.raises(RhoTooLarge):
            settings = measure.MeasureConfig(level="Em", fraction_of_bound=0.5)
            measure.select_measure(m, model.ExponentialJump(2.0), settings)

    def test_zero_drift_gap_defaults_q2(self):
        m = _mk(mu=model.PiecewiseFlat.constant(0.03))
        rep = measure.a_bounds(m, model.ExponentialJump(2.0), measure.MeasureConfig())
        assert rep.big_d == 0.0
        assert rep.q2 == 2.0
        assert rep.q1 == 2.0

    def test_nesting_parameter_sweep(self):
        dist = model.ExponentialJump(2.0)
        cases = [
            dict(),
            dict(rho=-0.2, eta=0.3),
            dict(kappa=3.0, sigma=0.8, vbar=0.2, v0=0.15),
            dict(lambda0=2.0, alpha=0.1, beta=0.5, eta=0.4),
            dict(rho=0.4, vbar=0.5, eta=0.6),
        ]
        for kw in cases:
            rep = measure.a_bounds(_mk(**kw), dist, measure.MeasureConfig())
            assert rep.bound_em_qs is not None
            assert rep.bound_em_qs <= rep.bound_em <= rep.bound_e


class TestSelection:
    def test_settings_give_a_or_a_fraction(self):
        assert measure.MeasureConfig().fraction_of_bound == 0.8
        assert measure.MeasureConfig(a=0.1).fraction_of_bound is None
        with pytest.raises(ConfigError, match="not both"):
            measure.MeasureConfig(a=0.1, fraction_of_bound=0.5)
        with pytest.raises(ConfigError, match="measure.level must be one of"):
            measure.MeasureConfig(level="Q")

    @pytest.mark.parametrize("margin", ["epsilon1", "epsilon2"])
    @pytest.mark.parametrize("value", [0.0, -0.5, -1.0, -2.0])
    def test_non_positive_margins_refused(self, margin, value):
        # at epsilon1 = -1 or -2 a_bounds would divide by s^2 - s = 0, and at
        # epsilon2 <= -1 every model would pass the Feller margin
        with pytest.raises(ConfigError, match=f"measure.{margin} must be > 0"):
            measure.MeasureConfig(**{margin: value})

    def test_fraction_of_bound(self, desk_model, desk_dist, desk_report):
        sel, _ = measure.select_measure(desk_model, desk_dist, measure.MeasureConfig())
        assert sel.a == pytest.approx(0.8 * desk_report.bound_em_qs)

    def test_explicit_a_above_bound_refused(self, desk_model, desk_dist):
        with pytest.raises(AdmissibilityError) as exc:
            measure.select_measure(desk_model, desk_dist, measure.MeasureConfig(a=2.0))
        assert "bound" in str(exc.value)

    def test_level_e_wider_than_em_qs(self, desk_model, desk_dist, desk_report):
        a_mid = 0.5 * (desk_report.bound_em_qs + desk_report.bound_em)
        with pytest.raises(AdmissibilityError):
            measure.select_measure(desk_model, desk_dist, measure.MeasureConfig(a=a_mid))
        em = measure.MeasureConfig(level="Em", a=a_mid)
        sel, _ = measure.select_measure(desk_model, desk_dist, em)
        assert sel.a == a_mid


class TestQDynamics:
    def test_identity_at_zero(self, desk_model):
        sel = measure.MeasureSelection(0.0)
        ka, vb = measure.q_dynamics(desk_model, sel)
        assert (ka, vb) == (desk_model.kappa, desk_model.vbar)

    def test_example_values(self, desk_model):
        sel = measure.MeasureSelection(0.2)
        ka, vb = measure.q_dynamics(desk_model, sel)
        assert ka == pytest.approx(2.1)
        assert vb == pytest.approx(0.6 / 2.1)

    @settings(max_examples=50, deadline=None)
    @given(a=st.floats(-1.8, 1.8))
    def test_product_invariant(self, a):
        m = _mk()
        ka, vb = measure.q_dynamics(m, measure.MeasureSelection(a))
        assert ka * vb == pytest.approx(m.kappa * m.vbar, rel=1e-12)

    def test_degenerate_reversion(self, desk_model):
        with pytest.raises(DegenerateReversion):
            measure.q_dynamics(desk_model, measure.MeasureSelection(-4.5))
