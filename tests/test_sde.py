import hashlib
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from hhr import hawkes, measure, model, rng, sde
from hhr.errors import DomainError, EventOverflow
from hhr.rng import EVENT_NORMALS, STAGE_NORMALS, derive_seed, path_rng, stream_index

from conftest import desk_params, reference_draws


def _mk(**kw):
    return model.validate(desk_params(**kw))


DIST = model.ExponentialJump(2.0)


def _sel(m, fraction=0.8):
    sel, _ = measure.select_measure(m, DIST, measure.MeasureConfig(fraction_of_bound=fraction))
    return sel


class TestInterface:
    def test_minimum_steps_enforced(self, desk_model, desk_selection):
        with pytest.raises(ValueError):
            sde.simulate(desk_model, DIST, "P", 4, 10, 1, selection=desk_selection)

    @pytest.mark.parametrize("n_paths, chunk", [(0, 8192), (-3, 8192)])
    def test_path_and_chunk_counts_enforced(
        self, desk_model, desk_selection, n_paths, chunk, monkeypatch
    ):
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        with pytest.raises(DomainError):
            sde.simulate(desk_model, DIST, "P", n_paths, 64, 1, selection=desk_selection)

    def test_probe_time_must_sit_on_grid(self, desk_model, desk_selection):
        with pytest.raises(ValueError):
            sde.simulate(
                desk_model, DIST, "P", 4, 64, 1,
                selection=desk_selection, probe_times=(0.123456,),
            )

    def test_probes_keyed_by_the_requested_times(self, desk_model, desk_selection):
        # at 98 steps the end of step 49 is the float 49 * (1 / 98) =
        # 0.49999999999999994, not 0.5; the probe is still found under 0.5
        res = sde.simulate(
            desk_model, DIST, "P", 40, 98, 3,
            selection=desk_selection, probe_times=(0.5, 1.0), record_full=True,
        )
        node = 49 * (desk_model.T / 98)
        assert node != 0.5
        assert list(res.probes) == [0.5, 1.0]
        x_49 = [b.X[np.flatnonzero(b.time_grid == node)[-1]] for b in res.bundles]
        assert np.array_equal(res.probes[0.5], x_49)
        assert np.array_equal(res.probes[1.0], res.terminal["X"])


class TestDeterministicVariance:
    def test_matches_linear_ode(self):
        # no jumps and no vol-of-vol: v follows dv = -kappa (v - vbar) dt
        m = _mk(eta=0.0, sigma=0.0)
        # no measure is certified at sigma = 0; the tilt only moves X here
        sel = measure.MeasureSelection(0.0)
        res = sde.simulate(m, DIST, "P", 8, 10_000, 3, selection=sel, record_full=True)
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
        monkeypatch.setattr(rng, "_CHUNK", 128)
        kw = dict(selection=desk_selection, **self.KW)
        a = sde.simulate(desk_model, DIST, "P", 600, 64, 61, **kw)
        b = sde.simulate(desk_model, DIST, "P", 600, 64, 61, threads=2, **kw)
        assert a.truncated_fraction == b.truncated_fraction
        self._assert_prefix(a, b, 600)

    def test_shorter_run_is_a_prefix(self, desk_model, desk_selection, monkeypatch):
        # 300 paths end inside the third chunk of 128
        monkeypatch.setattr(rng, "_CHUNK", 128)
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
        negative = measure.MeasureConfig(fraction_of_bound=-0.8)
        sel, _ = measure.select_measure(desk_model, DIST, negative)
        assert sel.a < 0
        res = sde.simulate(desk_model, DIST, "Q", 20_000, 128, 71, selection=sel)
        disc = math.exp(-desk_model.r * desk_model.T) * res.terminal["S"]
        se = disc.std(ddof=1) / math.sqrt(disc.size)
        assert abs(disc.mean() - desk_model.S0) < 3 * se


def _full_width_reference(m, dist, measure_tag, sel, n, n_steps, seed, probe_steps,
                          chunk=8192, table=None):
    """Reference: the chunk loop before sub-stepping, which also carried
    lambda, N, L and the compensator of N by their stage recursion.  Takes
    the draws of conftest.reference_draws, buckets path by path and runs
    every stage of a step over every path.  Stage 0 of step k reads column
    k of a path's stage normals, stage j > 0 the normals of its order-(j - 1)
    event in the step; a row that does not move reads zeros.  A given
    event `table` of chunk 0 replaces the reference's events and marks, and its
    event normals are drawn from that chunk's event-normal stream.
    Step k ends at nodes[k], (k + 1) T / n_steps but T for the last, and an
    event belongs to the first step that ends at or after it.  Returns
    (terminal, probes, truncated fraction, bundles, largest number of events
    of one path in one step, event table)."""
    p = m.params
    nodes = np.arange(1, n_steps + 1) * (p.T / n_steps)
    nodes[-1] = p.T
    draws = reference_draws(m, dist, n, seed, n_steps, chunk)
    if table is not None:
        cut = table.offsets[1:-1]
        ez = path_rng(seed, EVENT_NORMALS << 24).standard_normal((table.times.size, 2))
        draws = [(t_i, m_i, 0, d[3], ez_i) for t_i, m_i, d, ez_i in zip(
            np.split(table.times, cut), np.split(table.marks, cut), draws, np.split(ez, cut))]
    events, marks, _, zs, ezs = zip(*draws)
    by_step = {}  # step -> [(order, path, time, mark, index among the path's events)]
    for i, (t_i, m_i) in enumerate(zip(events, marks)):
        k = np.searchsorted(nodes, t_i, side="left")
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
        t_next = float(nodes[k])
        evs = by_step.get(k, [])
        n_stage = max((e[0] for e in evs), default=-1) + 1
        max_order = max(max_order, n_stage)
        for j in range(n_stage + 1):
            target = np.full(n, t_next)
            now = [e for e in evs if e[0] == j]
            jp = np.array([e[1] for e in now], dtype=int)
            target[jp] = [e[2] for e in now]
            dt_vec = target - cur_t
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
        if (k + 1) in probe_steps:  # keyed by the time a caller asks for, not the node
            probes[(k + 1) * p.T / n_steps] = {"N": n_ev.copy(), "L": l_ev.copy(), "comp_n": comp_n.copy(),
                              "X": np.exp(log_x)}
    terminal = {"S": np.exp(log_s), "v": np.maximum(v, 0.0), "lam": lam, "N": n_ev,
                "L": l_ev, "int_v": int_v, "X": np.exp(log_x)}
    bundles = []
    for i in range(n):
        ts = np.array([sn[0][i] for sn in snaps])
        keep = np.append(np.diff(ts) > 0, True)
        cols = [np.array([sn[c][i] for sn in snaps])[keep] for c in range(1, 8)]
        stock = np.exp(cols[0])
        stock[0] = p.S0
        bundles.append((ts[keep], stock, np.maximum(cols[1], 0.0), *cols[2:6], np.exp(cols[6])))
    table = hawkes.EventTable.from_counts(
        np.concatenate(events), np.concatenate(marks), [e.size for e in events]
    )
    return terminal, probes, trunc / active_total, bundles, max_order, table


def _bundle_fields(b):
    return (b.time_grid, b.S, b.v, b.lam, b.N, b.L, b.int_v, b.X)


def _assert_bundles_equal(got_bundles, ref_bundles):
    """All eight fields of every bundle: lambda, a closed form against the
    reference's recursion, to 1e-12 relative, the rest bit for bit."""
    assert len(got_bundles) == len(ref_bundles)
    for b, ref_b in zip(got_bundles, ref_bundles):
        for i, (got, want) in enumerate(zip(_bundle_fields(b), ref_b)):
            if i == 3:  # lambda
                np.testing.assert_allclose(got, want, rtol=1e-12, atol=0)
            else:
                assert np.array_equal(got, want), i


class TestSubSteppedStageLoop:
    """The stage loop runs each path's own schedule of nodes and events in
    rounds and reads lambda, N and L off the events; it must reproduce the
    loop that ran every stage over every path, and the closed forms its
    recursion."""

    @staticmethod
    def _pair(params, meas, n=120, n_steps=64, seed=23, table=None):
        m = _mk(**params)
        sel = _sel(m)
        probe_steps = {n_steps // 2, n_steps}
        ref = _full_width_reference(m, DIST, meas, sel, n, n_steps, seed, probe_steps,
                                    table=table)
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
        _assert_bundles_equal(res.bundles, bundles)

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

    def _check_hand_built(self, meas, n_steps, monkeypatch):
        dt = 1.0 / n_steps
        node, past = 13 * dt, np.nextafter(20 * dt, 2.0)
        # one ulp past the node that ends step 19, so in step 20, where
        # bucketing by ceil(t / dt - 1e-12) - 1 put it in step 19
        assert past > 20 * dt and math.ceil(past / dt - 1e-12) - 1 == 19
        paths = [
            [node, node + 0.3 * dt],  # on a grid node, then inside the next step
            [past, 0.61],  # one float ulp past a node
            [0.307, 0.307, 0.5],  # two at the same time
            [0.2, 1.0],  # one at T
            [(30 + f) * dt for f in (0.1, 0.3, 0.5, 0.7, 0.9)] + [0.95],  # five in one step
            [],
            # 40 events, five in each of eight steps: the other rows sit at T
            # through the last 34 rounds
            [(k + f) * dt for k in range(10, 50, 5) for f in (0.1, 0.3, 0.5, 0.7, 0.9)],
        ]
        times = np.concatenate([np.asarray(t, dtype=float) for t in paths])
        marks = np.linspace(0.2, 1.4, times.size)
        table = hawkes.EventTable.from_counts(times, marks, [len(t) for t in paths])
        monkeypatch.setattr(sde, "draw_events", lambda *_: table)
        (terminal, probes, trunc, bundles, max_order, _), res = self._pair(
            {}, meas, n=len(paths), n_steps=n_steps, table=table
        )
        assert max_order == 5
        for key, val in res.terminal.items():
            assert np.array_equal(val, terminal[key]), key
        assert res.truncated_fraction == trunc
        assert probes.keys() == res.probes.keys()
        for t, row in probes.items():
            assert np.array_equal(res.probes[t], row["X"]), t
        _assert_bundles_equal(res.bundles, bundles)
        assert all(b.time_grid[-1] == 1.0 and b.S[0] == _mk().S0 for b in res.bundles)

    @pytest.mark.parametrize("meas", ["P", "Q"])
    def test_identical_on_hand_built_events(self, meas, monkeypatch):
        # at 50 steps the nodes k T / 50 are not dyadic
        self._check_hand_built(meas, 50, monkeypatch)

    @pytest.mark.parametrize("meas", ["P", "Q"])
    def test_identical_with_an_event_past_the_last_computed_node(self, meas, monkeypatch):
        # 98 (T / 98) rounds below T = 1, so the event at T lies past it:
        # the last step ends at T itself
        assert 98 * (1.0 / 98) < 1.0
        self._check_hand_built(meas, 98, monkeypatch)


class TestEventCap:
    def test_overflow_propagates(self, desk_selection, monkeypatch):
        m = _mk(lambda0=50.0)
        monkeypatch.setattr(hawkes, "_EVENT_CAP", 3)
        with pytest.raises(EventOverflow):
            sde.simulate(m, DIST, "P", 8, 64, 5, selection=desk_selection)


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
    """The chunk streams against conftest.reference_draws, which draws the
    events path by path and splits each kind of draw by path."""

    def test_inversion_marks_and_normals_equal_the_path_generators(self):
        m = _mk(lambda0=40.0, alpha=3.0, beta=3.5)  # dense: dozens of events per path
        ref = reference_draws(m, DIST, 600, 17, 64, chunk=300)[300:]  # the second chunk
        assert sum(r[2] > 0 for r in ref) > 10  # drawn after earlier paths left
        table = hawkes.draw_events(17, 1, 300, m.params, DIST)
        z = path_rng(17, stream_index(1, STAGE_NORMALS)).standard_normal((300, 2, 64))
        ez = path_rng(17, stream_index(1, EVENT_NORMALS)).standard_normal((table.times.size, 2))
        assert np.array_equal(table.counts, [r[0].size for r in ref])
        assert np.array_equal(table.times, np.concatenate([r[0] for r in ref]))
        assert np.array_equal(table.marks, np.concatenate([r[1] for r in ref]))
        assert np.array_equal(z, np.stack([r[3] for r in ref]))
        assert np.array_equal(ez, np.concatenate([r[4] for r in ref]))

    @pytest.mark.parametrize("tile", [1, 7, 64, 300])
    def test_stage_normals_drawn_in_path_tiles_equal_one_draw(self, tile):
        ref = reference_draws(_mk(), DIST, 600, 17, 64, chunk=300)[300:]  # the second chunk
        one = path_rng(17, stream_index(1, STAGE_NORMALS)).standard_normal((300, 2, 64))
        gen = path_rng(17, stream_index(1, STAGE_NORMALS))
        zs = np.empty((64, 2, tile))
        stg = np.empty((5, 2, 64))  # tiles of 7, 64 and 300 paths cross the staging array
        tiles = []
        for lo in range(0, 300, tile):
            n = min(tile, 300 - lo)
            sde._draw_tile(gen, zs, stg, n)
            tiles.append(zs[:, :, :n].transpose(2, 1, 0).copy())
        z = np.concatenate(tiles)
        assert np.array_equal(z, one)
        assert np.array_equal(z, np.stack([r[3] for r in ref]))

    @pytest.mark.parametrize("chunk, threads", [(1, 1), (7, 1), (8192, 1), (7, 2)])
    def test_simulate_equals_the_path_generators(self, chunk, threads, monkeypatch):
        m = _mk(lambda0=6.0, alpha=1.6, beta=2.0)
        sel = _sel(m)
        terminal, *_, table = _full_width_reference(m, DIST, "P", sel, 40, 64, 19, {64}, chunk)
        monkeypatch.setattr(rng, "_CHUNK", chunk)
        res = sde.simulate(m, DIST, "P", 40, 64, 19, selection=sel, threads=threads)
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(res.events, key), getattr(table, key)), key
        for key, val in res.terminal.items():
            assert np.array_equal(val, terminal[key]), key
        events = hawkes.simulate_events(m, DIST, 40, 19)
        for key in ("times", "marks", "offsets"):
            assert np.array_equal(getattr(res.events, key), getattr(events, key)), key


class TestGeneratorBuilds:
    """perfbench counts the generators a run builds by wrapping
    hhr.hawkes.path_rng and hhr.sde.path_rng; a build through any other
    name would drop out of that count without an error."""

    def test_every_generator_is_built_through_a_traced_name(
        self, desk_model, desk_selection, monkeypatch
    ):
        monkeypatch.setattr(rng, "_CHUNK", 128)
        built, philox = {hawkes: [], sde: []}, []
        make = np.random.Philox

        def counted(*args, **kwargs):
            philox.append(None)
            return make(*args, **kwargs)

        def through(module):
            def build(seed, index):
                built[module].append(index)
                return rng.path_rng(seed, index)
            return build

        monkeypatch.setattr(np.random, "Philox", counted)
        for module in built:
            monkeypatch.setattr(module, "path_rng", through(module))
        res = sde.simulate(
            desk_model, DIST, "P", 200, 64, 5, selection=desk_selection, probe_times=(0.5, 1.0)
        )
        indices = built[hawkes] + built[sde]
        assert len(philox) == len(indices)
        # per chunk: two per event iteration, then the marks, the stage
        # normals and the event normals
        per_chunk = [sum(i >> 32 == c for i in indices) for c in range(2)]
        assert len(indices) == sum(per_chunk)
        assert per_chunk == [
            2 * (int(res.events.rows(lo, hi).counts.max()) + 1) + 3
            for lo, hi in ((0, 128), (128, 200))
        ]


class TestHelperThread:
    """Each chunk worker's helper thread draws stage normals ahead of the
    stage loop; an error in it reaches the caller, and no thread outlives
    simulate."""

    @pytest.mark.parametrize("threads", [1, 2])
    def test_draw_error_propagates_and_no_thread_is_left(
        self, desk_model, desk_selection, threads, monkeypatch
    ):
        monkeypatch.setattr(rng, "_CHUNK", 128)
        before = set(threading.enumerate())
        sde.simulate(desk_model, DIST, "P", 300, 64, 3, selection=desk_selection, threads=threads)
        assert set(threading.enumerate()) == before
        calls = []
        draw = sde._draw_tile

        def failing(*args):
            calls.append(args[-1])
            if len(calls) == 2:  # with one worker, tile 1 of chunk 0
                raise RuntimeError("draw failed")
            return draw(*args)

        monkeypatch.setattr(sde, "_draw_tile", failing)
        with pytest.raises(RuntimeError, match="draw failed"):
            sde.simulate(
                desk_model, DIST, "P", 300, 64, 3, selection=desk_selection, threads=threads
            )
        assert set(threading.enumerate()) == before

    def test_identical_under_frequent_thread_switches(self, desk_selection, monkeypatch):
        # three chunk workers and their helpers on two cores, switching
        # every microsecond: a tile read before its draw, or a buffer drawn
        # over while its tile runs, would change the result
        monkeypatch.setattr(rng, "_CHUNK", 64)
        monkeypatch.setattr(sde, "_TILE", 5)
        m = _mk(lambda0=6.0, alpha=1.6, beta=2.0)
        kw = dict(selection=desk_selection, probe_times=(0.5,))
        a = sde.simulate(m, DIST, "P", 700, 64, 41, **kw)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            b = sde.simulate(m, DIST, "P", 700, 64, 41, threads=3, **kw)
        finally:
            sys.setswitchinterval(interval)
        for key in a.terminal:
            assert np.array_equal(a.terminal[key], b.terminal[key]), key
        assert np.array_equal(a.probes[0.5], b.probes[0.5])


class TestTileMemory:
    """A chunk runs as four path tiles of a quarter of the chunk width, so
    the stage normals in flight, two tile buffers, are half a chunk's."""

    def test_p_draw_peaks_under_22_mib(self, desk_model, desk_selection):
        # one chunk of 8192 paths at 256 steps, after a small run has made
        # the first-call allocations: two tile buffers of 2048 paths are
        # 16 MiB, and half-width tiles alone would hold 32 MiB
        sde.simulate(desk_model, DIST, "P", 100, 64, 3, selection=desk_selection)
        tracemalloc.start()
        try:
            sde.simulate(desk_model, DIST, "P", 8192, 256, 3, selection=desk_selection)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 22 * 2**20


def _sha(arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())
    return h.hexdigest()[:16]


class TestGoldenDigests:
    """simulate's outputs pinned as sha256 digests, recorded when the events
    came to be drawn by inversion, with terminal values equal to
    _full_width_reference's on the same draws.  Chunks of 128 with
    300 paths run four tiles of 32 paths each and a last chunk of 44 paths
    as a tile of 32 and one of 12, shorter than the tile buffers; a staging
    array of 24 paths draws each tile of 32 in two parts, 24 and 8.  Two
    chunk workers split the three chunks, writing their columns of the
    run's state and probes, with the same digests."""

    DIGESTS = {
        ("P", 50): ("b3e58df5140c4e29", "ab031963cad9ec1f"),
        ("Q", 50): ("31ecb9e9c088f515", "ccee810097d0f64e"),
        ("P", 98): ("90c9c713d5afda23", "44c77f692adf8ea0"),
        ("Q", 98): ("de0c543d672d4435", "19222a7dce3c3641"),
    }

    @pytest.mark.parametrize("meas, n_steps, threads", [
        pytest.param(meas, n_steps, threads, id=f"{meas}-{n_steps}" + "-threads2" * (threads == 2))
        for meas, n_steps in sorted(DIGESTS) for threads in (1, 2)
    ])
    def test_outputs_equal_the_recorded_digests(self, meas, n_steps, threads, monkeypatch):
        monkeypatch.setattr(rng, "_CHUNK", 128)
        monkeypatch.setattr(sde, "_TILE", 24)  # each tile of 32 drawn as 24, then 8
        mu = model.PiecewiseFlat.from_pairs([[0.0, 0.05], [0.3, 0.02], [0.77, 0.09]])
        # several events per step, a P drift break between nodes, and a low,
        # volatile variance that the truncation clips on some stages
        m = _mk(mu=mu, lambda0=6.0, alpha=1.6, beta=2.0, v0=0.04, sigma=0.9)
        kw = dict(selection=_sel(m), probe_times=(m.T / 2, m.T), threads=threads)
        res = sde.simulate(m, DIST, meas, 300, n_steps, 29, **kw)
        assert res.truncated_fraction > 0.0
        full = sde.simulate(m, DIST, meas, 300, n_steps, 29, record_full=True, **kw)
        for key, val in res.terminal.items():
            assert np.array_equal(full.terminal[key], val), key
        got = (
            _sha(
                [res.terminal[key] for key in sorted(res.terminal)]
                + [res.probes[t] for t in sorted(res.probes)]
                + [[res.truncated_fraction]]
            ),
            _sha(f for b in full.bundles for f in _bundle_fields(b)),
        )
        assert got == self.DIGESTS[meas, n_steps]
