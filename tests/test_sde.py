import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hhr import hawkes, measure, model, sde
from hhr.errors import AdmissibilityError, DomainError, EventOverflow
from hhr.rng import derive_seed

from conftest import desk_params, reference_draws


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

    @pytest.mark.parametrize("n_paths, chunk", [(0, 8192), (-3, 8192)])
    def test_path_and_chunk_counts_enforced(self, desk_model, n_paths, chunk, monkeypatch):
        monkeypatch.setattr(hawkes, "_CHUNK", chunk)
        with pytest.raises(DomainError):
            sde.simulate(desk_model, DIST, "P", n_paths, 64, 1)

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
        for t, x_t in res.probes.items():
            comp_n, _ = hawkes.compensator(desk_model, res.events, DIST.mean, t)
            w = x_t * (hawkes.n_at(res.events, t) - comp_n)
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
    KW = dict(probe_times=(0.5, 1.0))

    def test_identical_across_threads(self, desk_model, desk_selection, monkeypatch):
        monkeypatch.setattr(hawkes, "_CHUNK", 128)
        kw = dict(selection=desk_selection, **self.KW)
        a = sde.simulate(desk_model, DIST, "P", 600, 64, 61, **kw)
        b = sde.simulate(desk_model, DIST, "P", 600, 64, 61, threads=2, **kw)
        assert a.truncated_fraction == b.truncated_fraction
        self._assert_prefix(a, b, 600)

    def test_shorter_run_is_a_prefix(self, desk_model, desk_selection, monkeypatch):
        # 300 paths end inside the third chunk of 128
        monkeypatch.setattr(hawkes, "_CHUNK", 128)
        kw = dict(selection=desk_selection, **self.KW)
        a = sde.simulate(desk_model, DIST, "P", 300, 64, 61, **kw)
        b = sde.simulate(desk_model, DIST, "P", 600, 64, 61, **kw)
        self._assert_prefix(a, b, 300)

    @staticmethod
    def _assert_prefix(a, b, n):
        assert a.terminal.keys() == b.terminal.keys()
        for key in a.terminal:
            assert np.array_equal(a.terminal[key], b.terminal[key][:n]), key
        for t in a.probes:
            assert np.array_equal(a.probes[t], b.probes[t][:n]), t
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(a.events, key), getattr(b.events.head(n), key)), key

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


def _full_width_reference(m, dist, measure_tag, sel, n, n_steps, seed, probe_steps,
                          chunk=8192):
    """Reference: the chunk loop before sub-stepping, which also carried
    lambda, N, L and the compensator of N by their stage recursion.  Takes
    the draws of conftest.reference_draws, buckets path by path and runs
    every stage of a step over every path.  Stage 0 of step k reads column
    k of a path's stage normals, stage j > 0 the normals of its order-(j - 1)
    event in the step; a row that does not move reads zeros.
    Returns (terminal, probes, truncated fraction, bundles, largest number
    of events of one path in one step, event table)."""
    p = m.params
    dt_u = p.T / n_steps
    events, marks, _, zs, ezs = zip(*reference_draws(m, dist, n, seed, n_steps, chunk))
    by_step = {}  # step -> [(order, path, time, mark, index among the path's events)]
    for i, (t_i, m_i) in enumerate(zip(events, marks)):
        k = np.clip(np.ceil(t_i / dt_u - 1e-12).astype(int) - 1, 0, n_steps - 1)
        order = 0
        for j in range(t_i.size):
            order = order + 1 if j and k[j] == k[j - 1] else 0
            by_step.setdefault(int(k[j]), []).append((order, i, t_i[j], m_i[j], j))

    under_q = measure_tag == "Q"
    kappa_eff, vbar_eff = measure.q_dynamics(p, sel) if under_q else (p.kappa, p.vbar)
    track_x = not under_q
    a = sel.a
    c1 = math.sqrt(1.0 - p.rho**2)
    log_s = np.full(n, math.log(p.S0))
    v = np.full(n, p.v0)
    lam = np.full(n, p.lambda0)
    n_ev, l_ev, int_v, log_x, comp_n, cur_t = (np.zeros(n) for _ in range(6))
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
            if j == 0:
                zb, zw = np.array([z[:, k] for z in zs]).T
            else:
                zb = np.zeros(n)
                zw = np.zeros(n)
                for e in evs:
                    if e[0] == j - 1:
                        zb[e[1]], zw[e[1]] = ezs[e[1]][e[4]]
            zb = np.where(active, zb, 0.0)
            zw = np.where(active, zw, 0.0)
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
    """The stage loop runs only event rows after a step's first stage and
    reads lambda, N and L off the events; it must reproduce the loop that
    ran every stage over every path, and the closed forms its recursion."""

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

    def _check_identical(self, params, meas):
        (terminal, probes, trunc, bundles, max_order, table), res = self._pair(params, meas)
        m, ev = _mk(**params), res.events
        if params.get("lambda0") == 6.0:
            assert max_order >= 3  # steps where one path has several events
        if params.get("alpha") == 0.0:
            assert not terminal["N"].any()  # no event at all
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(ev, key), getattr(table, key)), key
        assert res.terminal.keys() == {"S", "v", "int_v", "X", "N"}
        for key, val in res.terminal.items():
            assert np.array_equal(val, terminal[key]), key
        assert res.truncated_fraction == trunc
        # the reference's recursion against the closed forms over the events:
        # N and L are sums of ones and marks in time order, so exact
        assert np.array_equal(hawkes.l_at(ev, m.T), terminal["L"])
        np.testing.assert_allclose(
            hawkes.lambda_at(m, ev, m.T), terminal["lam"], rtol=1e-12, atol=0
        )
        assert probes.keys() == res.probes.keys()
        for t, row in probes.items():
            assert np.array_equal(res.probes[t], row["X"]), t
            assert np.array_equal(hawkes.n_at(ev, t), row["N"]), t
            assert np.array_equal(hawkes.l_at(ev, t), row["L"]), t
            comp_n, _ = hawkes.compensator(m, ev, DIST.mean, t)
            np.testing.assert_allclose(comp_n, row["comp_n"], rtol=1e-12, atol=0)
        assert len(res.bundles) == len(bundles)
        for b, ref_b in zip(res.bundles, bundles):
            for i, (got, want) in enumerate(zip(_bundle_fields(b), ref_b)):
                if i == 3:  # lambda
                    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
                else:
                    assert np.array_equal(got, want), i

    @pytest.mark.parametrize("meas", ["P", "Q"])
    @pytest.mark.parametrize(
        "params",
        [dict(), dict(lambda0=6.0, alpha=1.6, beta=2.0), dict(lambda0=1e-3, alpha=0.0)],
    )
    def test_identical_at_dyadic_baseline(self, params, meas):
        self._check_identical(params, meas)

    @pytest.mark.parametrize("meas", ["P", "Q"])
    @pytest.mark.parametrize(
        "params", [dict(lambda0=0.7, alpha=1.6, beta=2.0), dict(lambda0=0.37)]
    )
    def test_identical_at_non_dyadic_baseline(self, params, meas):
        # lambda no longer rides the stage loop, so a baseline that is not a
        # dyadic fraction leaves every simulated value bit-identical too
        self._check_identical(params, meas)

    def test_identical_with_a_drift_break_between_nodes(self):
        # stage 0 reads the P drift once per step at k dt; a later stage
        # past the break at 0.3 (between the nodes 19/64 and 20/64) reads
        # it per row
        mu = model.PiecewiseFlat.from_pairs([[0.0, 0.05], [0.3, 0.02], [0.77, 0.09]])
        self._check_identical(dict(mu=mu, lambda0=6.0, alpha=1.6, beta=2.0), "P")


class TestEventCap:
    def test_overflow_propagates(self, desk_selection):
        m = _mk(lambda0=50.0)
        with pytest.raises(EventOverflow):
            sde.simulate(
                m, DIST, "P", 8, 64, 5, selection=desk_selection, max_events=3
            )


def _recursive_bookkeeping(m, table, t):
    """(N, L, lambda, Lambda^N) of every path at t by the stage recursion:
    walk each path's events in time order, decaying the excess intensity
    exactly between them.  Independent of hawkes' closed-form sums."""
    p = m.params
    n = table.counts.size
    cur = np.zeros(n)
    excess = np.zeros(n)
    comp = np.zeros(n)
    n_ev = np.zeros(n)
    l_ev = np.zeros(n)
    for j in range(int(table.counts.max(initial=0)) + 1):
        has = table.counts > j
        te = np.full(n, np.inf)
        te[has] = table.times[table.offsets[:-1][has] + j]
        target = np.minimum(te, t)
        dt = np.maximum(target - cur, 0.0)
        em = -np.expm1(-p.beta * dt)
        comp += p.lambda0 * dt + excess * em / p.beta
        excess *= 1.0 - em
        cur = np.maximum(cur, target)
        hit = te <= t
        excess[hit] += p.alpha
        n_ev[hit] += 1.0
        l_ev[hit] += table.marks[table.offsets[:-1][hit] + j]
    return n_ev, l_ev, p.lambda0 + excess, comp


class TestClosedFormTie:
    """hawkes' closed forms over the result's own event table (N, L, the
    compensator and lambda, from which the run reads them) against the stage
    recursion's bookkeeping over the same events."""

    @pytest.mark.parametrize(
        "params",
        [dict(), dict(lambda0=6.0, alpha=1.6, beta=2.0)],
        ids=["params0-False", "params1-False"],
    )
    def test_probes_and_terminal_equal_the_closed_forms(self, params, desk_selection):
        m = _mk(**params)
        probe_times = (m.T / 2, m.T)
        res = sde.simulate(
            m, DIST, "P", 3000, 128, 71, selection=desk_selection,
            probe_times=probe_times,
        )
        ev = res.events
        assert ev.counts.size == res.n_paths
        assert set(res.probes) == set(probe_times)
        assert np.array_equal(res.terminal["N"], hawkes.n_at(ev, m.T))
        for t in probe_times:
            n_ev, l_ev, lam, comp = _recursive_bookkeeping(m, ev, t)
            assert np.array_equal(hawkes.n_at(ev, t), n_ev)
            np.testing.assert_allclose(hawkes.l_at(ev, t), l_ev, rtol=1e-12, atol=0)
            np.testing.assert_allclose(hawkes.lambda_at(m, ev, t), lam, rtol=1e-12, atol=0)
            comp_n, comp_l = hawkes.compensator(m, ev, DIST.mean, t)
            np.testing.assert_allclose(comp_n, comp, rtol=1e-12, atol=0)
            np.testing.assert_allclose(comp_l, DIST.mean * comp, rtol=1e-12, atol=0)


class TestStreams:
    """The chunk streams against conftest.reference_draws, which thins path
    by path and splits each kind of draw by path."""

    def test_thinning_marks_and_normals_equal_the_path_generators(self):
        m = _mk(lambda0=40.0, alpha=3.0, beta=3.5)  # dense: paths refill, some twice
        ref = reference_draws(m, DIST, 600, 17, 64, chunk=300)[300:]  # the second chunk
        assert sum(r[2] > 64 for r in ref) > 10 and max(r[2] for r in ref) > 128
        table = hawkes.draw_events(17, 1, 300, m.params, DIST, hawkes.DEFAULT_EVENT_CAP)
        z, ez = hawkes.draw_normals(17, 1, 300, 64, table.times.size, 300)
        assert np.array_equal(table.counts, [r[0].size for r in ref])
        assert np.array_equal(table.times, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(table.marks, np.concatenate([r[1] for r in ref]))
        assert np.array_equal(z, np.stack([r[3] for r in ref]))
        assert np.array_equal(ez, np.concatenate([r[4] for r in ref]))

    @pytest.mark.parametrize("chunk, threads", [(1, 1), (7, 1), (8192, 1), (7, 2)])
    def test_simulate_equals_the_path_generators(self, chunk, threads, monkeypatch):
        m = _mk(lambda0=6.0, alpha=1.6, beta=2.0)
        sel = _sel(m)
        terminal, *_, table = _full_width_reference(m, DIST, "P", sel, 40, 64, 19, {64}, chunk)
        monkeypatch.setattr(hawkes, "_CHUNK", chunk)
        res = sde.simulate(m, DIST, "P", 40, 64, 19, selection=sel, threads=threads)
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(res.events, key), getattr(table, key)), key
        for key, val in res.terminal.items():
            assert np.array_equal(val, terminal[key]), key
        events = hawkes.simulate_events(m, DIST, 40, 19)
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(res.events, key), getattr(events, key)), key
