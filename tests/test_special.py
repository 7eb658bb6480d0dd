import math

import mpmath as mp
import numpy as np
import pytest

from hhr import special
from hhr.errors import DomainError, HypothesisViolated, NonConvergence

mp.mp.dps = 50

CIR = dict(kappa=2.0, vbar=0.3, sigma=0.5, v0=0.2)


class TestHyp1f1:
    def test_value_at_zero(self):
        assert special.hyp1f1(0.3, 1.7, 0.0) == 1.0

    def test_equal_parameters_collapse_to_exp(self):
        assert special.hyp1f1(2.0, 2.0, 1.0) == pytest.approx(math.e, rel=1e-14)

    def test_erf_identity(self):
        # 1F1(1/2, 3/2; -1) = (sqrt(pi)/2) erf(1)
        assert special.hyp1f1(0.5, 1.5, -1.0) == pytest.approx(
            0.7468241328124271, abs=1e-12
        )

    def test_nonpositive_integer_b_rejected(self):
        for b in (0.0, -1.0, -2.0):
            with pytest.raises(DomainError):
                special.hyp1f1(0.5, b, 1.0)

    def test_overflow_guard(self):
        with pytest.raises(DomainError):
            special.hyp1f1(0.5, 1.5, 701.0)

    def test_nonconvergence_reported(self, monkeypatch):
        monkeypatch.setattr(special, "_SERIES_TERMS", 3)
        with pytest.raises(NonConvergence):
            special.hyp1f1(0.5, 1.5, 10.0)

    def test_kummer_transform_consistency(self):
        worst = 0.0
        for a in (0.5, 1.0, 2.5):
            for b in (0.5, 1.0, 2.5):
                for z in np.linspace(-20, 20, 11):
                    lhs = special.hyp1f1(a, b, float(z))
                    rhs = math.exp(z) * special.hyp1f1(b - a, b, float(-z))
                    worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1e-30))
        assert worst < 1e-9

    def test_against_high_precision_reference(self):
        for a in (0.5, 1.0, 2.5, -1.3):
            for b in (0.5, 1.5, 3.2):
                for z in (-50.0, -20.0, -1.0, 0.3, 7.0, 30.0, 200.0):
                    mine = special.hyp1f1(a, b, z)
                    ref = float(mp.hyp1f1(a, b, z))
                    assert mine == pytest.approx(ref, rel=1e-10, abs=1e-280)

    def test_polynomial_termination(self):
        # negative-integer first parameter terminates the series
        assert special.hyp1f1(-2.0, 1.5, 3.0) == pytest.approx(
            float(mp.hyp1f1(-2, 1.5, 3.0)), rel=1e-12
        )


class TestCirNegMoment:
    def test_small_time_limit(self):
        val = special.cir_neg_moment(**CIR, t=1e-10, s=1.0)
        assert val == pytest.approx(1.0 / CIR["v0"], rel=1e-6)

    def test_against_exact_transition_sampling(self):
        t, s = 1.0, 1.0
        val = special.cir_neg_moment(**CIR, t=t, s=s)
        rng = np.random.default_rng(5)
        kap, vb, sig, v0 = CIR["kappa"], CIR["vbar"], CIR["sigma"], CIR["v0"]
        emkt = math.exp(-kap * t)
        k = 4 * kap * v0 * emkt / (sig**2 * (1 - emkt))
        delta = 4 * kap * vb / sig**2
        samp = rng.noncentral_chisquare(delta, k, size=200_000) * (emkt * v0 / k)
        mc = float(np.mean(1.0 / samp**s))
        assert abs(val - mc) / mc < 0.02

    def test_second_negative_moment(self):
        # s = 2 needs 2*kappa*vbar > 2*sigma^2: satisfied here (1.2 > 0.5)
        val = special.cir_neg_moment(**CIR, t=0.5, s=2.0)
        rng = np.random.default_rng(6)
        kap, vb, sig, v0 = CIR["kappa"], CIR["vbar"], CIR["sigma"], CIR["v0"]
        emkt = math.exp(-kap * 0.5)
        k = 4 * kap * v0 * emkt / (sig**2 * (1 - emkt))
        samp = rng.noncentral_chisquare(4 * kap * vb / sig**2, k, size=400_000)
        mc = float(np.mean(1.0 / (samp * emkt * v0 / k) ** 2))
        assert abs(val - mc) / mc < 0.02

    def test_hypothesis_boundary_rejected(self):
        # 2 kappa vbar = s sigma^2 exactly
        s_edge = 2 * CIR["kappa"] * CIR["vbar"] / CIR["sigma"] ** 2
        with pytest.raises(HypothesisViolated):
            special.cir_neg_moment(**CIR, t=1.0, s=s_edge)

    def test_nonpositive_time_rejected(self):
        with pytest.raises(DomainError):
            special.cir_neg_moment(**CIR, t=0.0, s=1.0)

    def test_decreasing_in_v0_and_vbar(self):
        vals_v0 = [
            special.cir_neg_moment(kappa=2.0, vbar=0.3, sigma=0.5, v0=v0, t=0.5, s=1.0)
            for v0 in (0.1, 0.2, 0.4, 0.8)
        ]
        assert all(b < a for a, b in zip(vals_v0, vals_v0[1:]))
        vals_vb = [
            special.cir_neg_moment(kappa=2.0, vbar=vb, sigma=0.5, v0=0.2, t=0.5, s=1.0)
            for vb in (0.2, 0.3, 0.5, 0.8)
        ]
        assert all(b < a for a, b in zip(vals_vb, vals_vb[1:]))

    def test_time_integral_converges_under_refinement(self):
        # integrability proxy: the trapezoid of t -> E[1/v_t] settles down
        def integral(n):
            ts = np.linspace(1e-6, 1.0, n)
            vals = [special.cir_neg_moment(**CIR, t=float(t), s=1.0) for t in ts]
            return np.trapezoid(vals, ts)

        i1, i2, i3 = integral(101), integral(201), integral(401)
        assert abs(i3 - i2) < abs(i2 - i1)
        assert abs(i3 - i2) / i3 < 1e-3

    @staticmethod
    def _high_precision(t, s):
        # the closed form evaluated in 50-digit arithmetic
        kap, vb, sig, v0 = (mp.mpf(CIR[k]) for k in ("kappa", "vbar", "sigma", "v0"))
        emkt = mp.exp(-kap * t)
        k = 4 * kap * v0 * emkt / (sig**2 * (1 - emkt))
        half_delta = 2 * kap * vb / sig**2
        return float(mp.exp(
            s * mp.log(k / (emkt * v0) / 2) - k / 2
            + mp.loggamma(half_delta - s) - mp.loggamma(half_delta)
        ) * mp.hyp1f1(half_delta - s, half_delta, k / 2))

    def test_against_high_precision_reference(self):
        for t in (0.05, 0.5, 1.0, 3.0):
            for s in (0.5, 1.0, 2.0):
                mine = special.cir_neg_moment(**CIR, t=t, s=s)
                assert mine == pytest.approx(self._high_precision(t, s), rel=1e-10), (t, s)

    def test_asymptotic_branch_against_high_precision_reference(self):
        # k/2 = 1.6/t here, so every t lies past the switch at k/2 = 1000,
        # where the first-order expansion alone erred by up to 2.8e-6
        for t in (1.2e-3, 1e-3, 5e-4, 1e-4):
            for s in (1.0, 2.0):
                mine = special.cir_neg_moment(**CIR, t=t, s=s)
                assert mine == pytest.approx(self._high_precision(t, s), rel=1e-10), (t, s)

    def test_diverging_expansion_falls_back_to_the_series(self):
        # delta/2 = 12000 exceeds k/2 = 1252 at t = 1: the expansion's terms
        # grow from the first, where its first-order form gave a negative moment
        cir = dict(kappa=2.0, vbar=0.3, sigma=0.01, v0=0.2)
        assert special._large_z_sum(11999.0, 12000.0, 1252.14) is None
        mine = special.cir_neg_moment(**cir, t=1.0, s=1.0)
        assert mine == pytest.approx(3.4910982441962397, rel=1e-10)  # mp.hyp1f1, 50 digits

    def test_large_noncentrality_branch_continuous(self):
        # crossing the asymptotic switch must not jump
        ts = np.geomspace(1e-5, 1e-3, 40)
        vals = np.array([special.cir_neg_moment(**CIR, t=float(t), s=1.0) for t in ts])
        assert np.all(np.abs(np.diff(vals) / vals[:-1]) < 1e-3)


class TestIntegratedInverseCir:
    def test_zero_coefficient_identity(self):
        assert special.integrated_inverse_cir_exp(**CIR, T=1.0, c=0.0) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_boundary_coefficient_finite(self):
        c_max = 0.5 * ((2 * CIR["kappa"] * CIR["vbar"] - CIR["sigma"] ** 2) / (2 * CIR["sigma"])) ** 2
        val = special.integrated_inverse_cir_exp(**CIR, T=1.0, c=c_max)
        assert math.isfinite(val) and val > 1.0

    def test_beyond_boundary_rejected(self):
        c_max = 0.5 * ((2 * CIR["kappa"] * CIR["vbar"] - CIR["sigma"] ** 2) / (2 * CIR["sigma"])) ** 2
        with pytest.raises(HypothesisViolated):
            special.integrated_inverse_cir_exp(**CIR, T=1.0, c=c_max * 1.01)

    def test_feller_margin_required(self):
        with pytest.raises(HypothesisViolated):
            special.integrated_inverse_cir_exp(
                kappa=1.0, vbar=0.1, sigma=0.8, v0=0.2, T=1.0, c=0.0
            )

    def test_against_exact_transition_simulation(self):
        c = 0.1
        val = special.integrated_inverse_cir_exp(**CIR, T=1.0, c=c)
        rng = np.random.default_rng(9)
        kap, vb, sig, v0 = CIR["kappa"], CIR["vbar"], CIR["sigma"], CIR["v0"]
        n_paths, n_steps = 40_000, 256
        dt = 1.0 / n_steps
        df = 4 * kap * vb / sig**2
        ek = math.exp(-kap * dt)
        cc = 4 * kap / (sig**2 * (1 - ek))
        v = np.full(n_paths, v0)
        integ = np.zeros(n_paths)
        for _ in range(n_steps):
            v_new = rng.noncentral_chisquare(df, cc * ek * v) / cc
            integ += 0.5 * (1 / v + 1 / v_new) * dt
            v = v_new
        mc = float(np.mean(np.exp(c * integ)))
        assert abs(val - mc) / mc < 0.02

    def test_against_high_precision_reference(self):
        # the closed form evaluated in 50-digit arithmetic
        kap, vb, sig, v0 = (mp.mpf(CIR[k]) for k in ("kappa", "vbar", "sigma", "v0"))
        c_max = 0.5 * ((2 * CIR["kappa"] * CIR["vbar"] - CIR["sigma"] ** 2) / (2 * CIR["sigma"])) ** 2
        for T in (0.5, 1.0, 2.0):
            for c in (-0.2, 0.05, 0.1, 0.99 * c_max):
                m = kap * vb / sig**2
                alpha_t = -(m - 0.5) + mp.sqrt((m - 0.5) ** 2 - 2 * c / sig**2)
                gamma = 2 * (alpha_t + m)
                w = 2 / (sig**2 * mp.expm1(kap * T) / (v0 * kap))
                ref = mp.exp(
                    mp.loggamma(gamma - alpha_t) - mp.loggamma(gamma) + alpha_t * mp.log(w)
                ) * mp.hyp1f1(alpha_t, gamma, -w)
                mine = special.integrated_inverse_cir_exp(**CIR, T=T, c=c)
                assert mine == pytest.approx(float(ref), rel=1e-10), (T, c)

    def test_negative_coefficient_below_one(self):
        val = special.integrated_inverse_cir_exp(**CIR, T=1.0, c=-0.2)
        assert 0.0 < val < 1.0
