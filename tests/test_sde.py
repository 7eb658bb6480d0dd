import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hhr import hawkes, measure, model, sde
from hhr.errors import AdmissibilityError, EventOverflow
from hhr.rng import derive_seed, path_rng

from conftest import desk_params


def _mk(**kw):
    return model.validate(desk_params(**kw))


DIST = model.ExponentialJump(2.0)


def _sel(m, fraction=0.8):
    sel, _ = measure.select_measure(m, DIST, fraction=fraction)
    return sel


class TestInterface:
    def test_minimum_steps_enforced(self, desk_model, desk_selection):
        with pytest.raises(ValueError):
            sde.simulate(desk_model, DIST, "P", 4, 10, 1)

    def test_q_requires_selection(self, desk_model):
        with pytest.raises(AdmissibilityError):
            sde.simulate(desk_model, DIST, "Q", 4, 64, 1)

    def test_probe_time_must_sit_on_grid(self, desk_model, desk_selection):
        with pytest.raises(ValueError):
            sde.simulate(
                desk_model, DIST, "P", 4, 64, 1,
                selection=desk_selection, probe_times=(0.123456,),
            )


class TestDeterministicVariance:
    def test_matches_linear_ode(self):
        # no jumps and no vol-of-vol: v follows dv = -kappa (v - vbar) dt
        m = _mk(eta=0.0, sigma=0.0)
        res = sde.simulate(m, DIST, "P", 8, 10_000, 3, record_full=True)
        for b in res.bundles:
            exact = m.vbar + (m.v0 - m.vbar) * np.exp(-m.kappa * b.time_grid)
            assert np.max(np.abs(b.v / exact - 1.0)) < 1e-3


class TestJumpBookkeeping:
    def test_counts_match_bundles(self, desk_model, desk_selection):
        res = sde.simulate(
            desk_model, DIST, "P", 16, 64, 21,
            selection=desk_selection, record_full=True,
        )
        ev = res.events
        for i, b in enumerate(res.bundles):
            assert b.N[-1] == ev.counts[i]
            assert b.L[-1] == pytest.approx(ev.marks[ev.offsets[i]:ev.offsets[i + 1]].sum())
            assert np.all(np.diff(b.N) >= 0)
            assert np.all(b.lam >= desk_model.lambda0 - 1e-12)
            assert np.all(b.v >= 0)
            assert np.all(b.S > 0)
            assert b.X[0] == 1.0
            assert np.all(b.X > 0)


class TestDensityProcess:
    def test_mean_one_at_horizon(self, desk_model, desk_selection):
        res = sde.simulate(
            desk_model, DIST, "P", 20_000, 128, 29, selection=desk_selection
        )
        x = res.terminal["X"]
        se = x.std(ddof=1) / math.sqrt(x.size)
        assert abs(x.mean() - 1.0) < 3 * se

    def test_weighted_compensator_zero_mean(self, desk_model, desk_selection):
        res = sde.simulate(
            desk_model, DIST, "P", 20_000, 128, 31,
            selection=desk_selection, probe_times=(0.5, 1.0),
        )
        for t, pr in res.probes.items():
            w = pr["X"] * (pr["N"] - pr["comp_n"])
            se = w.std(ddof=1) / math.sqrt(w.size)
            assert abs(w.mean()) < 3 * se


class TestMartingaleMeasure:
    def test_discounted_stock_mean(self, desk_model, desk_selection):
        res = sde.simulate(
            desk_model, DIST, "Q", 20_000, 128, 37, selection=desk_selection
        )
        disc = math.exp(-desk_model.r * desk_model.T) * res.terminal["S"]
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        assert abs(disc.mean() - desk_model.S0) < 3 * se

    def test_bias_within_noise_when_steps_double(self, desk_model, desk_selection):
        # the log-Euler update prices the discounted stock without bias, so
        # both step counts must sit inside their own Monte Carlo bands
        errs = {}
        for n_steps in (64, 128):
            res = sde.simulate(
                desk_model, DIST, "Q", 20_000, n_steps, 41, selection=desk_selection
            )
            disc = math.exp(-desk_model.r * desk_model.T) * res.terminal["S"]
            se = disc.std(ddof=1) / math.sqrt(disc.size)
            errs[n_steps] = (abs(disc.mean() - desk_model.S0), se)
        for err, se in errs.values():
            assert err < 3 * se
        assert errs[128][0] <= errs[64][0] + 3 * math.hypot(errs[64][1], errs[128][1])


class TestIntegratedVariance:
    def test_matches_first_moment_equation(self, desk_model, desk_selection):
        m = desk_model
        res = sde.simulate(m, DIST, "P", 20_000, 256, 43, selection=desk_selection)
        iv = res.terminal["int_v"]

        def rhs(t, y):
            ev, integral = y
            el = float(hawkes.expected_intensity(m, t))
            return [-m.kappa * (ev - m.vbar) + m.eta * DIST.mean * el, ev]

        sol = solve_ivp(rhs, (0, m.T), [m.v0, 0.0], rtol=1e-10, atol=1e-12)
        ref = sol.y[1, -1]
        se = iv.std(ddof=1) / math.sqrt(iv.size)
        assert abs(iv.mean() - ref) < 3 * se

    def test_truncation_stays_rare(self, desk_model, desk_selection):
        res = sde.simulate(
            desk_model, DIST, "P", 4_000, 1_000, 47, selection=desk_selection
        )
        assert res.truncated_fraction < 0.01


class TestGirsanovCrossCheck:
    """E_P[X_T f(S_T)] against E_Q[f(S_T)] on independent P and Q samples."""

    @staticmethod
    def _estimates(m, sel, payoff, n_paths, seed):
        sim_p = sde.simulate(m, DIST, "P", n_paths, 256, seed, selection=sel)
        sim_q = sde.simulate(
            m, DIST, "Q", n_paths, 256, derive_seed(seed, "girsanov-q"), selection=sel
        )
        out = []
        for w in (sim_p.terminal["X"] * payoff(sim_p.terminal["S"]),
                  payoff(sim_q.terminal["S"])):
            out += [float(w.mean()), float(w.std(ddof=1) / math.sqrt(w.size))]
        return out  # mean and se under P, then under Q

    def test_unit_payoff(self, desk_model, desk_selection):
        m_p, se_p, m_q, se_q = self._estimates(
            desk_model, desk_selection, lambda s: np.ones_like(s), 5_000, 51
        )
        assert m_q == 1.0
        assert abs(m_p - 1.0) < 3 * se_p

    def test_discounted_linear_payoff(self, desk_model, desk_selection):
        m = desk_model
        disc = math.exp(-m.r * m.T)
        m_p, se_p, m_q, se_q = self._estimates(
            m, desk_selection, lambda s: disc * s, 20_000, 53
        )
        assert abs(m_p - m.S0) < 3 * se_p
        assert abs(m_q - m.S0) < 3 * se_q
        assert abs(m_p - m_q) <= 3 * math.hypot(se_p, se_q)

    def test_guarantee_payoff_consistency(self, desk_model, desk_selection):
        m = desk_model
        g = m.S0 * math.exp(m.r * m.T)
        disc = math.exp(-m.r * m.T)
        m_p, se_p, m_q, se_q = self._estimates(
            m, desk_selection, lambda s: disc * np.maximum(g, s), 20_000, 57
        )
        assert abs(m_p - m_q) <= 3 * math.hypot(se_p, se_q)


class TestReproducibility:
    def test_identical_across_chunking_and_threads(self, desk_model, desk_selection):
        kw = dict(selection=desk_selection, probe_times=(1.0,))
        a = sde.simulate(desk_model, DIST, "P", 600, 64, 61, chunk_size=128, **kw)
        b = sde.simulate(desk_model, DIST, "P", 600, 64, 61, chunk_size=250, **kw)
        c = sde.simulate(
            desk_model, DIST, "P", 600, 64, 61, chunk_size=128, threads=4, **kw
        )
        for key in a.terminal:
            assert np.array_equal(a.terminal[key], b.terminal[key])
            assert np.array_equal(a.terminal[key], c.terminal[key])
        assert np.array_equal(a.probes[1.0]["comp_n"], b.probes[1.0]["comp_n"])
        assert np.array_equal(a.events.offsets, b.events.offsets)
        assert np.array_equal(a.events.times, b.events.times)

    def test_seed_changes_results(self, desk_model, desk_selection):
        a = sde.simulate(desk_model, DIST, "P", 64, 64, 1, selection=desk_selection)
        b = sde.simulate(desk_model, DIST, "P", 64, 64, 2, selection=desk_selection)
        assert not np.array_equal(a.terminal["S"], b.terminal["S"])


class TestTiltedVarianceConsistency:
    def test_variance_functionals_agree_across_measures(self, desk_model, desk_selection):
        # the tilted reversion (kappa + a sigma, kappa vbar/(kappa + a sigma))
        # must match the density's a*sqrt(v)*dW term: variance functionals
        # isolate this in a way stock functionals cannot
        m = desk_model
        sp = sde.simulate(m, DIST, "P", 30_000, 128, 311, selection=desk_selection)
        sq = sde.simulate(m, DIST, "Q", 30_000, 128, 312, selection=desk_selection)
        x = sp.terminal["X"]
        for key, f in (("v", lambda v: v), ("v", lambda v: np.exp(-3 * v)),
                       ("int_v", lambda v: v), ("N", lambda v: v)):
            wp = x * f(sp.terminal[key])
            wq = f(sq.terminal[key])
            se = math.hypot(
                wp.std(ddof=1) / math.sqrt(wp.size),
                wq.std(ddof=1) / math.sqrt(wq.size),
            )
            assert abs(wp.mean() - wq.mean()) < 3 * se


class TestNegativeTilt:
    def test_martingale_holds_for_negative_a(self, desk_model):
        sel, _ = measure.select_measure(desk_model, DIST, fraction=-0.8)
        assert sel.a < 0
        res = sde.simulate(desk_model, DIST, "Q", 20_000, 128, 71, selection=sel)
        disc = math.exp(-desk_model.r * desk_model.T) * res.terminal["S"]
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        assert abs(disc.mean() - desk_model.S0) < 3 * se


def _full_width_reference(m, dist, measure_tag, sel, n, n_steps, seed, probe_steps):
    """Reference: the chunk loop before sub-stepping.  Draws path by path,
    buckets path by path and runs every stage of a step over every path.
    Returns (terminal, probes, truncated fraction, bundles, largest number
    of events of one path in one step, event table)."""
    p = m.params
    dt_u = p.T / n_steps
    events, marks, zbs, zws = [], [], [], []
    for i in range(n):
        rng = path_rng(seed, i)
        one = hawkes.draw_events([rng], p, dist, hawkes.DEFAULT_EVENT_CAP)
        events.append(one.times)
        marks.append(one.marks)
        zbs.append(rng.standard_normal(n_steps + one.times.size))
        zws.append(rng.standard_normal(n_steps + one.times.size))
    width = n_steps + max(e.size for e in events)
    ZB = np.zeros((n, width))
    ZW = np.zeros((n, width))
    for i in range(n):
        ZB[i, : zbs[i].size] = zbs[i]
        ZW[i, : zws[i].size] = zws[i]
    by_step = {}  # step -> [(order, path, time, mark)]
    for i, (t_i, m_i) in enumerate(zip(events, marks)):
        k = np.clip(np.ceil(t_i / dt_u - 1e-12).astype(int) - 1, 0, n_steps - 1)
        order = 0
        for j in range(t_i.size):
            order = order + 1 if j and k[j] == k[j - 1] else 0
            by_step.setdefault(int(k[j]), []).append((order, i, t_i[j], m_i[j]))

    under_q = measure_tag == "Q"
    kappa_eff, vbar_eff = measure.q_dynamics(p, sel) if under_q else (p.kappa, p.vbar)
    track_x = not under_q
    a = sel.a
    c1 = math.sqrt(1.0 - p.rho**2)
    log_s = np.full(n, math.log(p.S0))
    v = np.full(n, p.v0)
    lam = np.full(n, p.lambda0)
    n_ev, l_ev, int_v, log_x, comp_n, cur_t = (np.zeros(n) for _ in range(6))
    ptr = np.zeros(n, dtype=int)
    trunc = active_total = 0
    probes = {}
    snaps = []

    def snap():
        state = (cur_t, log_s, v, lam, n_ev, l_ev, int_v, log_x)
        snaps.append(tuple(x.copy() for x in state))

    snap()
    max_order = 0
    for k in range(n_steps):
        t_next = (k + 1) * dt_u
        evs = by_step.get(k, [])
        n_stage = max((e[0] for e in evs), default=-1) + 1
        max_order = max(max_order, n_stage)
        for j in range(n_stage + 1):
            target = np.full(n, t_next)
            now = [e for e in evs if e[0] == j]
            jp = np.array([e[1] for e in now], dtype=int)
            target[jp] = [e[2] for e in now]
            dt_vec = np.maximum(target - cur_t, 0.0)
            active = dt_vec > 0.0
            rows = np.nonzero(active)[0]
            zb = np.zeros(n)
            zw = np.zeros(n)
            zb[rows] = ZB[rows, ptr[rows]]
            zw[rows] = ZW[rows, ptr[rows]]
            ptr[rows] += 1
            sq = np.sqrt(dt_vec)
            vp = np.maximum(v, 0.0)
            trunc += int(np.count_nonzero(active & (v < 0.0)))
            active_total += rows.size
            sv = np.sqrt(vp)
            drift = np.full(n, p.r) if under_q else np.asarray(p.mu(cur_t), dtype=float)
            log_s = log_s + (drift - 0.5 * vp) * dt_vec + sv * (c1 * zb + p.rho * zw) * sq
            v_new = v + kappa_eff * (vbar_eff - vp) * dt_vec + p.sigma * sv * sq * zw
            int_v = int_v + 0.5 * (vp + np.maximum(v_new, 0.0)) * dt_vec
            if track_x:
                vth = np.maximum(vp, 1e-12)
                svth = np.sqrt(vth)
                th = ((drift - p.r) / svth - a * p.rho * svth) / c1
                log_x = log_x - (
                    th * zb * sq
                    + 0.5 * th**2 * dt_vec
                    + a * sv * zw * sq
                    + 0.5 * a * a * vp * dt_vec
                )
            em = -np.expm1(-p.beta * dt_vec)
            comp_n = comp_n + p.lambda0 * dt_vec + (lam - p.lambda0) * em / p.beta
            lam = p.lambda0 + (lam - p.lambda0) * (1.0 - em)
            v = v_new
            cur_t = target
            if jp.size:
                mk = np.array([e[3] for e in now])
                v[jp] += p.eta * mk
                lam[jp] += p.alpha
                n_ev[jp] += 1.0
                l_ev[jp] += mk
            snap()
        if (k + 1) in probe_steps:
            probes[t_next] = {"N": n_ev.copy(), "L": l_ev.copy(), "comp_n": comp_n.copy(),
                              "X": np.exp(log_x)}
    terminal = {"S": np.exp(log_s), "v": np.maximum(v, 0.0), "lam": lam, "N": n_ev,
                "L": l_ev, "int_v": int_v, "X": np.exp(log_x)}
    bundles = []
    for i in range(n):
        ts = np.array([sn[0][i] for sn in snaps])
        keep = np.append(np.diff(ts) > 0, True)
        cols = [np.array([sn[c][i] for sn in snaps])[keep] for c in range(1, 8)]
        bundles.append((ts[keep], np.exp(cols[0]), np.maximum(cols[1], 0.0), *cols[2:6],
                        np.exp(cols[6])))
    table = hawkes.EventTable.from_counts(
        np.concatenate(events), np.concatenate(marks), [e.size for e in events]
    )
    return terminal, probes, trunc / active_total, bundles, max_order, table


def _bundle_fields(b):
    return (b.time_grid, b.S, b.v, b.lam, b.N, b.L, b.int_v, b.X)


class TestSubSteppedStageLoop:
    """The stage loop runs only event rows after a step's first stage; it
    must reproduce the loop that ran every stage over every path."""

    @staticmethod
    def _pair(params, meas, n=120, n_steps=64, seed=23):
        m = _mk(**params)
        sel = _sel(m)
        probe_steps = {n_steps // 2, n_steps}
        ref = _full_width_reference(m, DIST, meas, sel, n, n_steps, seed, probe_steps)
        res = sde.simulate(
            m, DIST, meas, n, n_steps, seed, selection=sel,
            probe_times=tuple(k * m.T / n_steps for k in probe_steps),
            record_full=True,
        )
        return ref, res

    @pytest.mark.parametrize("meas", ["P", "Q"])
    @pytest.mark.parametrize(
        "params",
        [dict(), dict(lambda0=6.0, alpha=1.6, beta=2.0), dict(lambda0=1e-3, alpha=0.0)],
    )
    def test_identical_at_dyadic_baseline(self, params, meas):
        (terminal, probes, trunc, bundles, max_order, table), res = self._pair(params, meas)
        if params.get("lambda0") == 6.0:
            assert max_order >= 3  # steps where one path has several events
        if params.get("alpha") == 0.0:
            assert not terminal["N"].any()  # no event at all
        for key, val in terminal.items():
            assert np.array_equal(res.terminal[key], val), key
        assert probes.keys() == res.probes.keys()
        for t, row in probes.items():
            for key, val in row.items():
                assert np.array_equal(res.probes[t][key], val), (t, key)
        assert res.truncated_fraction == trunc
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(res.events, key), getattr(table, key)), key
        assert len(res.bundles) == len(bundles)
        for b, ref_b in zip(res.bundles, bundles):
            for got, want in zip(_bundle_fields(b), ref_b):
                assert np.array_equal(got, want)

    @pytest.mark.parametrize("meas", ["P", "Q"])
    def test_non_dyadic_baseline_moves_lambda_by_at_most_one_ulp(self, meas):
        (terminal, probes, trunc, bundles, _, _), res = self._pair(
            dict(lambda0=0.7, alpha=1.6, beta=2.0), meas
        )

        def close(got, want):
            return np.all(np.abs(got - want) <= np.spacing(np.abs(want)))

        for key, val in terminal.items():
            if key == "lam":
                assert close(res.terminal[key], val)
            else:
                assert np.array_equal(res.terminal[key], val), key
        for t, row in probes.items():
            for key, val in row.items():
                assert np.array_equal(res.probes[t][key], val), (t, key)
        assert res.truncated_fraction == trunc
        for b, ref_b in zip(res.bundles, bundles):
            for i, (got, want) in enumerate(zip(_bundle_fields(b), ref_b)):
                assert close(got, want) if i == 3 else np.array_equal(got, want)


class TestEventCap:
    def test_overflow_propagates(self, desk_selection):
        m = _mk(lambda0=50.0)
        with pytest.raises(EventOverflow):
            sde.simulate(
                m, DIST, "P", 8, 64, 5, selection=desk_selection, max_events=3
            )


class TestAntithetic:
    def test_pairing(self, desk_model, desk_selection):
        res = sde.simulate(
            desk_model, DIST, "Q", 2_000, 64, 67,
            selection=desk_selection, antithetic=True,
        )
        assert res.n_paths == 4_000
        assert res.terminal["S"].size == 4_000
        pairs = res.pair_view("S")
        assert pairs.size == 2_000
        # antithetic halves share the jump history
        assert np.array_equal(res.terminal["N"][:2_000], res.terminal["N"][2_000:])
        disc = math.exp(-desk_model.r * desk_model.T) * pairs
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        assert abs(disc.mean() - desk_model.S0) < 3 * se


class TestClosedFormTie:
    """The stage recursion's bookkeeping (N, the compensator and lambda)
    against hawkes' closed forms over the result's own event table."""

    @pytest.mark.parametrize(
        "params, antithetic",
        [(dict(), False), (dict(lambda0=6.0, alpha=1.6, beta=2.0), False), (dict(), True)],
    )
    def test_probes_and_terminal_equal_the_closed_forms(
        self, params, antithetic, desk_selection
    ):
        m = _mk(**params)
        res = sde.simulate(
            m, DIST, "P", 3000, 128, 71, selection=desk_selection,
            probe_times=(m.T / 2, m.T), antithetic=antithetic,
        )
        ev = res.events
        assert ev.counts.size == res.n_paths
        for t, pr in res.probes.items():
            assert np.array_equal(pr["N"], hawkes.n_at(ev, t))
            comp_n, _ = hawkes.compensator(m, ev, DIST.mean, t)
            np.testing.assert_allclose(pr["comp_n"], comp_n, rtol=1e-12, atol=0)
        lam_t = hawkes.lambda_at(m, ev, m.T)
        np.testing.assert_allclose(res.terminal["lam"], lam_t, rtol=1e-12, atol=0)
        if antithetic:
            half = ev.head(3000)
            assert np.array_equal(ev.times, np.concatenate([half.times, half.times]))
