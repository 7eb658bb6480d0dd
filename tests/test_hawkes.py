import math

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.stats import kstest

from hhr import hawkes, model, sde
from hhr.errors import EventOverflow
from hhr.rng import path_rng

from conftest import desk_params


def _mk(**kw):
    return model.validate(desk_params(**kw))


class TestThinning:
    def test_poisson_degenerate_mean(self):
        m = _mk(alpha=0.0)
        dist = model.ExponentialJump(2.0)
        n_t = np.array(
            [len(p.event_times) for p in hawkes.simulate_hawkes_batch(m, dist, 10_000, 3)]
        )
        se = n_t.std(ddof=1) / math.sqrt(n_t.size)
        assert abs(n_t.mean() - m.lambda0 * m.T) < 3 * se

    def test_first_event_time_is_exponential(self):
        m = _mk(alpha=0.0)
        dist = model.ConstantJump(1.0)
        firsts = []
        for i in range(10_000):
            p = hawkes.simulate_hawkes(m, dist, 11, path_index=i)
            if p.event_times.size:
                firsts.append(p.event_times[0])
        # condition on an event before T: censored exponential
        stat = kstest(
            np.asarray(firsts),
            lambda x: -np.expm1(-m.lambda0 * x) / -math.expm1(-m.lambda0 * m.T),
        )
        assert stat.pvalue > 0.01

    def test_mean_intensity_matches_moment_equation(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        paths = hawkes.simulate_hawkes_batch(m, dist, 20_000, 5)
        lam = np.array([p.lambda_at(1.0) for p in paths])
        se = lam.std(ddof=1) / math.sqrt(lam.size)
        assert abs(lam.mean() - (2.0 - math.exp(-0.5))) < 3 * se

    def test_tiny_horizon_gives_empty_path(self):
        m = _mk(T=1e-12)
        p = hawkes.simulate_hawkes(m, model.ConstantJump(1.0), 1)
        assert p.event_times.size == 0
        assert p.lambda_at(0.0) == m.lambda0

    def test_event_cap_overflow(self):
        m = _mk(lambda0=50.0)
        with pytest.raises(EventOverflow):
            hawkes.simulate_hawkes(m, model.ConstantJump(1.0), 2, max_events=3)

    def test_deterministic_in_seed_and_index(self):
        m = _mk()
        d = model.ExponentialJump(2.0)
        a = hawkes.simulate_hawkes(m, d, 9, path_index=4)
        b = hawkes.simulate_hawkes(m, d, 9, path_index=4)
        c = hawkes.simulate_hawkes(m, d, 9, path_index=5)
        assert np.array_equal(a.event_times, b.event_times)
        assert np.array_equal(a.marks, b.marks)
        assert not np.array_equal(a.event_times, c.event_times)

    def test_intensity_jumps_by_alpha_and_decays(self):
        m = _mk(lambda0=2.0)
        p = hawkes.simulate_hawkes(m, model.ConstantJump(1.0), 17)
        assert p.event_times.size >= 1
        t1 = p.event_times[0]
        lam_post = p.lambda_at(t1)
        assert lam_post == pytest.approx(
            m.lambda0 + m.alpha + (p.lambda_at(t1 - 1e-12) - m.lambda0), abs=1e-6
        )
        # decay toward the baseline between events
        mid = t1 + 1e-4
        if p.event_times.size == 1 or p.event_times[1] > mid:
            assert p.lambda_at(mid) < lam_post
            assert p.lambda_at(mid) >= m.lambda0


def _scalar_thin(rng, lambda0, alpha, beta, horizon):
    """Reference: one path at a time, the thinning loop the lockstep thinner
    replaced.  Returns the event times and the number of candidates drawn."""
    times = []
    t = 0.0
    lam = lambda0
    exps = rng.exponential(size=64)
    unis = rng.uniform(size=64)
    ptr = 0
    n_cand = 0
    while True:
        if ptr == 64:
            exps = rng.exponential(size=64)
            unis = rng.uniform(size=64)
            ptr = 0
        wait = exps[ptr] / lam
        t = t + wait
        n_cand += 1
        if t > horizon:
            break
        lam_cand = lambda0 + (lam - lambda0) * math.exp(-beta * wait)
        accept = unis[ptr] * lam <= lam_cand
        ptr += 1
        if accept:
            times.append(t)
            lam = lam_cand + alpha
        else:
            lam = lam_cand
    return np.asarray(times), n_cand


def _reference_paths(m, dist, n, seed):
    """(times, marks, candidates) of paths 0..n-1 drawn one at a time."""
    p = m.params
    out = []
    for i in range(n):
        rng = path_rng(seed, i)
        times, n_cand = _scalar_thin(rng, p.lambda0, p.alpha, p.beta, p.T)
        out.append((times, dist.sample(rng, times.size), n_cand))
    return out


class TestLockstepThinner:
    @pytest.mark.parametrize(
        "params, dist",
        [
            # sparse: many paths without any event
            (dict(), model.ExponentialJump(2.0)),
            # the bursty benchmark model
            (dict(lambda0=6.0, alpha=1.6, beta=2.0), model.ExponentialJump(2.0)),
            # dense: many paths refill the 64-candidate block
            (dict(lambda0=20.0, alpha=3.0, beta=3.5), model.ConstantJump(0.5)),
        ],
    )
    def test_bit_identical_to_scalar_reference(self, params, dist):
        m = _mk(**params)
        ref = _reference_paths(m, dist, 400, 41)
        batch = hawkes.simulate_hawkes_batch(m, dist, 400, 41)
        for hp, (times, marks, _) in zip(batch, ref):
            assert np.array_equal(hp.event_times, times)
            assert np.array_equal(hp.marks, marks)
        one = hawkes.simulate_hawkes(m, dist, 41, path_index=7)
        assert np.array_equal(one.event_times, ref[7][0])
        assert np.array_equal(one.marks, ref[7][1])
        if not params:
            assert min(r[0].size for r in ref) == 0
        if params.get("lambda0") == 20.0:
            assert sum(r[2] > 64 for r in ref) > 10

    def test_table_layout(self):
        m = _mk(lambda0=3.0)
        dist = model.ExponentialJump(2.0)
        rngs = [path_rng(5, i) for i in range(50)]
        table = hawkes.draw_events(rngs, m.params, dist, hawkes.DEFAULT_EVENT_CAP)
        ref = _reference_paths(m, dist, 50, 5)
        assert table.offsets[0] == 0 and table.offsets[-1] == table.times.size
        assert np.array_equal(table.counts, [r[0].size for r in ref])
        assert np.array_equal(table.times, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(table.marks, np.concatenate([r[1] for r in ref]))

    def test_overflow_fires_one_past_the_cap(self, desk_selection):
        m = _mk(lambda0=6.0, alpha=1.6, beta=2.0)
        dist = model.ExponentialJump(2.0)
        n_max = max(r[0].size for r in _reference_paths(m, dist, 8, 5))
        assert hawkes.simulate_hawkes_batch(m, dist, 8, 5, max_events=n_max)
        with pytest.raises(EventOverflow):
            hawkes.simulate_hawkes_batch(m, dist, 8, 5, max_events=n_max - 1)
        i = next(i for i, r in enumerate(_reference_paths(m, dist, 8, 5)) if r[0].size == n_max)
        hawkes.simulate_hawkes(m, dist, 5, path_index=i, max_events=n_max)
        with pytest.raises(EventOverflow):
            hawkes.simulate_hawkes(m, dist, 5, path_index=i, max_events=n_max - 1)
        kw = dict(selection=desk_selection)
        res = sde.simulate(m, dist, "P", 8, 64, 5, max_events=n_max, **kw)
        assert res.terminal["N"].max() == n_max
        with pytest.raises(EventOverflow):
            sde.simulate(m, dist, "P", 8, 64, 5, max_events=n_max - 1, **kw)


class TestMeanIntensityOde:
    def test_initial_values(self):
        m = _mk()
        en, el = hawkes.mean_intensity_ode(m, 0.0)
        assert (en, el) == (0.0, m.lambda0)

    def test_poisson_counts(self):
        m = _mk(alpha=0.0)
        en, _ = hawkes.mean_intensity_ode(m, 0.7)
        assert en == pytest.approx(0.7 * m.lambda0, rel=1e-8)

    def test_matches_closed_form(self):
        m = _mk()
        en, el = hawkes.mean_intensity_ode(m, 1.0)
        assert el == pytest.approx(2.0 - math.exp(-0.5), rel=1e-8)
        assert el == pytest.approx(float(hawkes.expected_intensity(m, 1.0)), rel=1e-8)
        assert en == pytest.approx(float(hawkes.expected_events(m, 1.0)), rel=1e-8)


class TestCompensator:
    def test_poisson_linear(self):
        m = _mk(alpha=0.0)
        p = hawkes.simulate_hawkes(m, model.ConstantJump(1.0), 21)
        lam_n, lam_l = hawkes.compensator(p, 1.0, 0.8)
        assert lam_n == pytest.approx(m.lambda0 * 0.8)
        assert lam_l == lam_n

    def test_no_events_stays_at_baseline(self):
        m = _mk()
        p = hawkes.HawkesPath(1.0, 0.5, 1.0, 1.0, np.array([]), np.array([]))
        lam_n, _ = hawkes.compensator(p, 0.5, 1.0)
        assert lam_n == pytest.approx(1.0)

    def test_single_event_closed_form_vs_quadrature(self):
        p = hawkes.HawkesPath(1.0, 0.5, 1.0, 1.0, np.array([0.3]), np.array([1.0]))
        t = 0.9
        lam_n, _ = hawkes.compensator(p, 1.0, t)
        exact = 1.0 * t + 0.5 / 1.0 * (1 - math.exp(-1.0 * (t - 0.3)))
        assert lam_n == pytest.approx(exact, rel=1e-12)
        ref, _ = quad(lambda u: float(p.lambda_at(u)), 0, t, limit=200)
        assert lam_n == pytest.approx(ref, rel=1e-9)

    def test_residual_path_shape(self):
        m = _mk(lambda0=3.0)
        dist = model.ConstantJump(1.0)
        p = hawkes.simulate_hawkes(m, dist, 33)
        assert p.event_times.size >= 2
        assert p.n_at(0.0) - hawkes.compensator(p, 1.0, 0.0)[0] == 0.0
        t0, t1 = p.event_times[0], p.event_times[1]
        ts = np.linspace(t0 + 1e-9, t1 - 1e-9, 5)
        resid = [p.n_at(t) - hawkes.compensator(p, 1.0, float(t))[0] for t in ts]
        assert all(b < a for a, b in zip(resid, resid[1:]))
        before = p.n_at(t1 - 1e-9)
        assert p.n_at(t1) == before + 1


class TestMartingaleResiduals:
    def test_zero_mean_at_probe_times(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        paths = hawkes.simulate_hawkes_batch(m, dist, 5_000, 8)
        rows = hawkes.martingale_residual_test(paths, [0.5, 1.0], dist.mean)
        assert len(rows) == 4
        assert not any(r.flagged for r in rows)

    def test_requires_enough_paths(self):
        m = _mk()
        paths = hawkes.simulate_hawkes_batch(m, model.ConstantJump(1.0), 10, 1)
        with pytest.raises(ValueError):
            hawkes.martingale_residual_test(paths, [0.5], 1.0)

    @pytest.mark.parametrize(
        "params",
        [dict(), dict(lambda0=2.0, alpha=0.2, beta=0.8), dict(lambda0=0.5, alpha=0.9, beta=2.0)],
    )
    def test_simulated_counts_match_moment_equation(self, params):
        m = _mk(**params)
        dist = model.ConstantJump(1.0)
        paths = hawkes.simulate_hawkes_batch(m, dist, 8_000, 13)
        for t in (0.25, 0.5, 1.0):
            counts = np.array([p.n_at(t) for p in paths], dtype=float)
            en, _ = hawkes.mean_intensity_ode(m, t)
            se = counts.std(ddof=1) / math.sqrt(counts.size)
            assert abs(counts.mean() - en) <= 3 * se + 1e-12


class TestCompoundMoments:
    def test_moments_stabilize_as_paths_double(self):
        m = _mk()
        dist = model.ExponentialJump(2.0)
        paths = hawkes.simulate_hawkes_batch(m, dist, 40_000, 19)
        l_t = np.array([p.l_at(m.T) for p in paths])
        for s in (1, 2, 3, 4):
            half = float(np.mean(l_t[:20_000] ** s))
            full = float(np.mean(l_t**s))
            assert abs(full - half) / max(abs(half), 1e-12) < 0.05


class TestEventCsv:
    def test_columns(self, tmp_path):
        m = _mk(lambda0=3.0)
        paths = hawkes.simulate_hawkes_batch(m, model.ConstantJump(0.5), 3, 2)
        out = tmp_path / "events.csv"
        with open(out, "w", newline="") as fh:
            hawkes.write_event_csv(paths, fh)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "path_id,event_index,time,mark,lambda_after"
        assert len(lines) == 1 + sum(p.event_times.size for p in paths)
