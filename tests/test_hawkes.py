import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp
from scipy.stats import kstest

from hhr import hawkes, model, sde, stats
from hhr.errors import DomainError, EventOverflow
from conftest import desk_params, reference_draws


def _mk(**kw):
    return model.validate(desk_params(**kw))


class TestThinning:
    def test_poisson_degenerate_mean(self):
        m = _mk(alpha=0.0)
        dist = model.ExponentialJump(2.0)
        n_t = hawkes.simulate_events(m, dist, 10_000, 3).counts
        se = n_t.std(ddof=1) / math.sqrt(n_t.size)
        assert abs(n_t.mean() - m.lambda0 * m.T) < 3 * se

    def test_first_event_time_is_exponential(self):
        m = _mk(alpha=0.0)
        dist = model.ConstantJump(1.0)
        table = hawkes.simulate_events(m, dist, 10_000, 11)
        firsts = table.times[table.offsets[:-1][table.counts > 0]]
        # condition on an event before T: censored exponential
        stat = kstest(
            firsts,
            lambda x: -np.expm1(-m.lambda0 * x) / -math.expm1(-m.lambda0 * m.T),
        )
        assert stat.pvalue > 0.01

    def test_mean_intensity_matches_moment_equation(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        lam = hawkes.lambda_at(m, hawkes.simulate_events(m, dist, 20_000, 5), 1.0)
        se = lam.std(ddof=1) / math.sqrt(lam.size)
        assert abs(lam.mean() - (2.0 - math.exp(-0.5))) < 3 * se

    def test_tiny_horizon_gives_empty_path(self):
        m = _mk(T=1e-12)
        table = hawkes.simulate_events(m, model.ConstantJump(1.0), 1, 1)
        assert table.times.size == 0
        assert hawkes.lambda_at(m, table, 0.0) == [m.lambda0]

    @pytest.mark.parametrize("n_paths", [0, -3])
    def test_no_paths_refused(self, n_paths):
        with pytest.raises(DomainError):
            hawkes.simulate_events(_mk(), model.ConstantJump(1.0), n_paths, 1)

    def test_event_cap_overflow(self, monkeypatch):
        m = _mk(lambda0=50.0)
        monkeypatch.setattr(hawkes, "_EVENT_CAP", 3)
        with pytest.raises(EventOverflow):
            hawkes.simulate_events(m, model.ConstantJump(1.0), 1, 2)

    def test_deterministic_in_seed_and_index(self):
        m = _mk()
        d = model.ExponentialJump(2.0)
        # path i depends on the seed and the paths before it only
        a = hawkes.simulate_events(m, d, 5, 9)
        b = hawkes.simulate_events(m, d, 6, 9)
        assert np.array_equal(a.offsets, b.head(5).offsets)
        assert np.array_equal(a.times, b.head(5).times)
        assert np.array_equal(a.marks, b.head(5).marks)
        assert not np.array_equal(b.times[b.offsets[4]:b.offsets[5]], b.times[b.offsets[5]:])

    def test_intensity_jumps_by_alpha_and_decays(self):
        m = _mk(lambda0=2.0)
        table = hawkes.simulate_events(m, model.ConstantJump(1.0), 1, 17)
        assert table.times.size >= 1

        def lam(t):
            return hawkes.lambda_at(m, table, t)[0]

        t1 = table.times[0]
        lam_post = lam(t1)
        assert lam_post == pytest.approx(
            m.lambda0 + m.alpha + (lam(t1 - 1e-12) - m.lambda0), abs=1e-6
        )
        # decay toward the baseline between events
        mid = t1 + 1e-4
        if table.times.size == 1 or table.times[1] > mid:
            assert lam(mid) < lam_post
            assert lam(mid) >= m.lambda0


class TestLockstepInversion:
    """The lockstep inversion sampler against conftest.reference_draws,
    which draws path by path."""

    @pytest.mark.parametrize(
        "params, dist",
        [
            # sparse: many paths without any event
            (dict(), model.ExponentialJump(2.0)),
            # the bursty benchmark model
            (dict(lambda0=6.0, alpha=1.6, beta=2.0), model.ExponentialJump(2.0)),
            # dense: dozens of events per path
            (dict(lambda0=20.0, alpha=3.0, beta=3.5), model.ConstantJump(0.5)),
        ],
    )
    def test_bit_identical_to_scalar_reference(self, params, dist):
        m = _mk(**params)
        ref = reference_draws(m, dist, 400, 41)
        table = hawkes.simulate_events(m, dist, 400, 41)
        assert np.array_equal(table.counts, [r[0].size for r in ref])
        assert np.array_equal(table.times, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(table.marks, np.concatenate([r[1] for r in ref]))
        batch = hawkes.simulate_hawkes_batch(m, dist, 400, 41)
        for hp, (times, marks, _) in zip(batch, ref, strict=True):
            assert np.array_equal(hp.event_times, times)
            assert np.array_equal(hp.marks, marks)
        if not params:
            assert min(r[0].size for r in ref) == 0
        # many paths are drawn after earlier ones have left, at a row below their index
        assert sum(r[2] > 0 for r in ref) > 10

    @pytest.mark.parametrize("chunk", [1, 7])
    def test_chunks_draw_from_their_own_streams(self, chunk, monkeypatch):
        m = _mk(lambda0=40.0, alpha=3.0, beta=3.5)
        dist = model.ExponentialJump(2.0)
        ref = reference_draws(m, dist, 40, 43, chunk=chunk)
        # with more than one path per chunk, some path's row falls below its index
        assert (max(r[2] for r in ref) > 0) == (chunk > 1)
        monkeypatch.setattr(hawkes, "_CHUNK", chunk)
        table = hawkes.simulate_events(m, dist, 40, 43)
        assert np.array_equal(table.counts, [r[0].size for r in ref])
        assert np.array_equal(table.times, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(table.marks, np.concatenate([r[1] for r in ref]))
        # a shorter run is a prefix, also one that ends inside a chunk
        head = hawkes.simulate_events(m, dist, 36, 43)
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(head, key), getattr(table.head(head.counts.size), key))

    def test_table_layout(self):
        m = _mk(lambda0=3.0)
        dist = model.ExponentialJump(2.0)
        table = hawkes.draw_events(5, 0, 50, m.params, dist)
        ref = reference_draws(m, dist, 50, 5)
        assert table.offsets[0] == 0 and table.offsets[-1] == table.times.size
        assert np.array_equal(table.counts, [r[0].size for r in ref])
        assert np.array_equal(table.times, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(table.marks, np.concatenate([r[1] for r in ref]))

    def test_overflow_fires_one_past_the_cap(self, desk_selection, monkeypatch):
        m = _mk(lambda0=6.0, alpha=1.6, beta=2.0)
        dist = model.ExponentialJump(2.0)
        n_max = max(r[0].size for r in reference_draws(m, dist, 8, 5))
        i = next(i for i, r in enumerate(reference_draws(m, dist, 8, 5)) if r[0].size == n_max)
        kw = dict(selection=desk_selection)
        monkeypatch.setattr(hawkes, "_EVENT_CAP", n_max)
        assert hawkes.simulate_events(m, dist, 8, 5).counts.max() == n_max
        # the first paths up to the one that reaches n_max
        hawkes.draw_events(5, 0, i + 1, m.params, dist)
        assert sde.simulate(m, dist, "P", 8, 64, 5, **kw).terminal["N"].max() == n_max
        monkeypatch.setattr(hawkes, "_EVENT_CAP", n_max - 1)
        with pytest.raises(EventOverflow):
            hawkes.simulate_events(m, dist, 8, 5)
        with pytest.raises(EventOverflow):
            hawkes.draw_events(5, 0, i + 1, m.params, dist)
        with pytest.raises(EventOverflow):
            sde.simulate(m, dist, "P", 8, 64, 5, **kw)


def _first_moment_ode(m, t):
    """(E[N_t], E[lambda_t]) from the first-moment system
    dE[lambda]/dt = beta lambda0 - (beta - alpha) E[lambda], dE[N]/dt = E[lambda],
    solved numerically: the oracle of hawkes' closed forms."""

    def rhs(_, y):
        return [y[1], m.beta * m.lambda0 - (m.beta - m.alpha) * y[1]]

    sol = solve_ivp(rhs, (0.0, t), [0.0, m.lambda0], rtol=1e-10, atol=1e-12)
    return float(sol.y[0, -1]), float(sol.y[1, -1])


class TestMeanIntensityOde:
    """hawkes.expected_events and expected_intensity, the closed forms of
    the first-moment equation, against its numerical solution."""

    def test_initial_values(self):
        m = _mk()
        assert float(hawkes.expected_events(m, 0.0)) == 0.0
        assert float(hawkes.expected_intensity(m, 0.0)) == pytest.approx(m.lambda0, rel=1e-15)

    def test_poisson_counts(self):
        m = _mk(alpha=0.0)
        assert float(hawkes.expected_events(m, 0.7)) == pytest.approx(0.7 * m.lambda0, rel=1e-14)
        assert float(hawkes.expected_intensity(m, 0.7)) == pytest.approx(m.lambda0, rel=1e-14)

    def test_matches_closed_form(self):
        for params in (dict(), dict(lambda0=2.0, alpha=0.2, beta=0.8),
                       dict(lambda0=0.5, alpha=0.9, beta=2.0)):
            m = _mk(**params)
            for t in (0.25, 0.7, 1.0):
                en, el = _first_moment_ode(m, t)
                assert float(hawkes.expected_intensity(m, t)) == pytest.approx(el, rel=1e-9)
                assert float(hawkes.expected_events(m, t)) == pytest.approx(en, rel=1e-9)
        assert float(hawkes.expected_intensity(_mk(), 1.0)) == pytest.approx(
            2.0 - math.exp(-0.5), rel=1e-14
        )


def _table(times):
    """One path with the given event times and unit marks."""
    times = np.asarray(times, dtype=float)
    return hawkes.EventTable.from_counts(times, np.ones(times.size), [times.size])


class TestCompensator:
    def test_poisson_linear(self):
        m = _mk(alpha=0.0)
        table = hawkes.simulate_events(m, model.ConstantJump(1.0), 1, 21)
        lam_n, lam_l = hawkes.compensator(m, table, 1.0, 0.8)
        assert lam_n[0] == pytest.approx(m.lambda0 * 0.8)
        assert lam_l[0] == lam_n[0]

    def test_no_events_stays_at_baseline(self):
        m = _mk()
        lam_n, _ = hawkes.compensator(m, _table([]), 0.5, 1.0)
        assert lam_n[0] == pytest.approx(1.0)
        with pytest.raises(ValueError, match="beyond simulated horizon"):
            hawkes.compensator(m, _table([]), 0.5, m.T * (1 + 1e-12))

    def test_single_event_closed_form_vs_quadrature(self):
        m = _mk()  # lambda0 1, alpha 0.5, beta 1
        table = _table([0.3])
        t = 0.9
        lam_n, _ = hawkes.compensator(m, table, 1.0, t)
        exact = 1.0 * t + 0.5 / 1.0 * (1 - math.exp(-1.0 * (t - 0.3)))
        assert lam_n[0] == pytest.approx(exact, rel=1e-12)
        ref, _ = quad(lambda u: float(hawkes.lambda_at(m, table, u)[0]), 0, t, limit=200)
        assert lam_n[0] == pytest.approx(ref, rel=1e-9)

    def test_residual_path_shape(self):
        m = _mk(lambda0=3.0)
        dist = model.ConstantJump(1.0)
        paths = hawkes.simulate_events(m, dist, 8, 33)
        i = next(i for i, c in enumerate(paths.counts) if c >= 2)  # a path with two events or more
        table = paths.rows(i, i + 1)
        assert table.times.size >= 2

        def resid(t):
            return (hawkes.n_at(table, t) - hawkes.compensator(m, table, 1.0, t)[0])[0]

        assert resid(0.0) == 0.0
        t0, t1 = table.times[0], table.times[1]
        ts = np.linspace(t0 + 1e-9, t1 - 1e-9, 5)
        res = [resid(float(t)) for t in ts]
        assert all(b < a for a, b in zip(res, res[1:]))
        before = hawkes.n_at(table, t1 - 1e-9)[0]
        assert hawkes.n_at(table, t1)[0] == before + 1


def _path_reference(m, table, t):
    """Reference: the closed forms path by path, each sum taken exactly;
    per path (lambda_t, N_t, L_t, Lambda^N_t)."""
    p = m.params
    out = []
    for lo, hi in zip(table.offsets[:-1], table.offsets[1:]):
        ev, past = table.times[lo:hi], table.times[lo:hi] <= t
        out.append((
            p.lambda0 + p.alpha * math.fsum(np.exp(-p.beta * (t - ev[past]))),
            int(past.sum()),
            math.fsum(table.marks[lo:hi][past]),
            p.lambda0 * t + p.alpha / p.beta * math.fsum(-np.expm1(-p.beta * (t - ev[past]))),
        ))
    return np.array(out).T


class TestTableClosedForms:
    """The segment sums over the table against the per-path closed forms
    summed exactly.  They differ only by the rounding of sums of a few
    dozen positive terms, so 1e-13 relative bounds them."""

    def test_match_per_path_reference(self):
        m = _mk(lambda0=6.0, alpha=1.6, beta=2.0)
        dist = model.ExponentialJump(2.0)
        table = hawkes.simulate_events(m, dist, 300, 29)
        assert table.counts.max() >= 8  # numpy's pairwise sum reorders from 8 terms
        for t in (0.0, 0.37, 0.5, 1.0):
            lam_t, n_t, l_t, comp_n = _path_reference(m, table, t)
            lam_n, lam_l = hawkes.compensator(m, table, dist.mean, t)
            np.testing.assert_allclose(hawkes.lambda_at(m, table, t), lam_t, rtol=1e-13)
            assert np.array_equal(hawkes.n_at(table, t), n_t)
            np.testing.assert_allclose(hawkes.l_at(table, t), l_t, rtol=1e-13)
            np.testing.assert_allclose(lam_n, comp_n, rtol=1e-13)
            assert np.array_equal(lam_l, dist.mean * lam_n)
        lam_after = hawkes.lambda_after(m, table)
        for e, (i, k) in enumerate(zip(table.path, table.rank)):
            # lambda just after an event: the path alone, evaluated at it
            one = _table(table.times[table.offsets[i]:][: k + 1])
            assert lam_after[e] == pytest.approx(
                _path_reference(m, one, table.times[e])[0][0], rel=1e-13
            )


class TestMartingaleResiduals:
    def test_zero_mean_at_probe_times(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        table = hawkes.simulate_events(m, dist, 5_000, 8)
        rows = hawkes.martingale_residual_test(m, table, [0.5, 1.0], dist.mean)
        assert len(rows) == 4
        assert all(stats.budget(abs(r.mean), r.se) <= 1.0 for r in rows)

    def test_requires_enough_paths(self):
        m = _mk()
        table = hawkes.simulate_events(m, model.ConstantJump(1.0), 10, 1)
        with pytest.raises(ValueError):
            hawkes.martingale_residual_test(m, table, [0.5], 1.0)

    @pytest.mark.parametrize(
        "params",
        [dict(), dict(lambda0=2.0, alpha=0.2, beta=0.8), dict(lambda0=0.5, alpha=0.9, beta=2.0)],
    )
    def test_simulated_counts_match_moment_equation(self, params):
        m = _mk(**params)
        dist = model.ConstantJump(1.0)
        table = hawkes.simulate_events(m, dist, 8_000, 13)
        for t in (0.25, 0.5, 1.0):
            counts = hawkes.n_at(table, t).astype(float)
            en = float(hawkes.expected_events(m, t))
            se = counts.std(ddof=1) / math.sqrt(counts.size)
            assert abs(counts.mean() - en) <= 3 * se + 1e-12


def _second_moment_ode(m, t):
    """(E[N_t], E[N_t^2]) from the second-moment system of (lambda, N), with
    m = E[lambda], n = E[N], u = E[lambda^2], w = E[N lambda], v = E[N^2]:
    m' = beta lambda0 - (beta - alpha) m, n' = m,
    u' = 2 beta lambda0 m - 2 (beta - alpha) u + alpha^2 m,
    w' = beta lambda0 n - (beta - alpha) w + u + alpha m, v' = 2 w + m,
    from (lambda0, 0, lambda0^2, 0, 0), solved numerically."""
    a, b, l0 = m.alpha, m.beta, m.lambda0

    def rhs(_, y):
        em, n, u, w, _v = y
        return [b * l0 - (b - a) * em, em, 2 * b * l0 * em - 2 * (b - a) * u + a * a * em,
                b * l0 * n - (b - a) * w + u + a * em, 2 * w + em]

    sol = solve_ivp(rhs, (0.0, t), [l0, 0.0, l0 * l0, 0.0, 0.0], rtol=1e-10, atol=1e-12)
    return float(sol.y[1, -1]), float(sol.y[4, -1])


class TestCompoundMoments:
    def test_first_two_moments_match_the_ode(self):
        # E[L] = n E[J], E[L^2] = n E[J^2] + (v - n) E[J]^2 for i.i.d. marks
        m = _mk()
        dist = model.ExponentialJump(2.0)
        table = hawkes.simulate_events(m, dist, 40_000, 19)
        n_t, l_t = table.counts.astype(float), hawkes.l_at(table, m.T)
        en, en2 = _second_moment_ode(m, m.T)
        assert en == pytest.approx(float(hawkes.expected_events(m, m.T)), rel=1e-9)
        assert en2 == pytest.approx(3.2413149, rel=1e-7)
        j1, j2 = dist.moment(1), dist.moment(2)
        for sample, exact in ((n_t, en), (n_t**2, en2), (l_t, en * j1),
                              (l_t**2, en * j2 + (en2 - en) * j1**2)):
            se = sample.std(ddof=1) / math.sqrt(sample.size)
            assert abs(sample.mean() - exact) < 3 * se


class TestLambdaAfter:
    def test_one_value_per_event(self):
        m = _mk(lambda0=3.0)
        table = hawkes.simulate_events(m, model.ConstantJump(0.5), 3, 2)
        lam = hawkes.lambda_after(m, table)
        assert lam.shape == table.times.shape
        # a path's first event jumps from lambda0 alone
        assert np.all(lam[table.rank == 0] == 3.0 + m.alpha)
