import json
import math
import re
import threading

import numpy as np
import pytest

from hhr import hawkes, markov, measure, model, pide, sde, special, thiele, verification
from hhr.config import config_from_dict, default_config_dict
from hhr.rng import derive_seed
from hhr.sde import simulate
from hhr.verification import Check, VerificationReport, _Suite, run_verification

from conftest import count_stepper_inits, desk_params


class TestSuiteMechanics:
    def _suite(self):
        return _Suite()

    def test_guard_records_exceptions_as_failures(self):
        suite = self._suite()

        def boom():
            raise RuntimeError("solver exploded")

        suite.guard("some_check", "exact-identity", boom)
        assert len(suite.checks) == 1
        c = suite.checks[0]
        assert not c.passed
        assert "solver exploded" in c.detail

    def test_failing_check_retries_once(self):
        suite = self._suite()
        calls = []

        def compute(tag):
            calls.append(tag)
            return (2.0 if tag == 0 else 0.5), f"attempt {tag}"

        suite.guard("flaky", "independent-oracle", compute, retry=True)
        assert calls == [0, 1]
        c = suite.checks[0]
        assert c.passed and c.retried
        assert c.detail == "attempt 1"
        assert c.first_attempt == {"value": 2.0, "detail": "attempt 0"}
        assert c.to_dict()["first_attempt"] == {"value": 2.0, "detail": "attempt 0"}

    def test_retry_that_raises_keeps_the_first_attempt(self):
        suite = self._suite()

        def compute(tag):
            if tag:
                raise RuntimeError("retry exploded")
            return 2.0, "attempt 0"

        suite.guard("flaky", "independent-oracle", compute, retry=True)
        c = suite.checks[0]
        assert not c.passed and c.value == math.inf
        assert c.detail == "raised RuntimeError: retry exploded"
        assert c.retried and c.to_dict()["retried"] is True
        assert c.first_attempt == {"value": 2.0, "detail": "attempt 0"}

    def test_first_attempt_that_raises_is_not_retried(self):
        suite = self._suite()
        calls = []

        def compute(tag):
            calls.append(tag)
            raise RuntimeError("first exploded")

        suite.guard("flaky", "independent-oracle", compute, retry=True)
        c = suite.checks[0]
        assert calls == [0]
        assert not c.passed and not c.retried
        assert c.detail == "raised RuntimeError: first exploded"

    def test_first_attempt_absent_without_retry(self):
        suite = self._suite()
        suite.guard("steady", "independent-oracle", lambda tag: (0.5, "ok"), retry=True)
        assert not suite.checks[0].retried
        assert "first_attempt" not in suite.checks[0].to_dict()

    def test_retry_draws_fresh_and_leaves_the_shared_sample(self, monkeypatch):
        # compensator_q_weighted's first attempt reads over budget, so it
        # retries; rn_density's first attempt must still read the suite's P
        # sample, not the retry's
        d = default_config_dict()
        d["run"].update(paths=2000, grid="24x16x10x6")
        seed = d["run"]["seed"]
        drawn = []

        def recorded(*args, **kwargs):
            drawn.append(simulate(*args, **kwargs))
            return drawn[-1]

        guard = _Suite.guard

        def over_budget_first(self, name, kind, compute, *, retry=False):
            if name == "compensator_q_weighted":
                inner = compute

                def compute(tag):
                    used, detail = inner(tag)
                    return (2.0 if tag == 0 else used), detail
            return guard(self, name, kind, compute, retry=retry)

        monkeypatch.setattr(verification, "simulate", recorded)
        monkeypatch.setattr(_Suite, "guard", over_budget_first)
        checks = {c.name: c for c in run_verification(config_from_dict(d)).checks}
        assert checks["compensator_q_weighted"].retried
        assert [(s.measure_tag[0], s.seed) for s in drawn] == [
            ("P", seed),
            ("P", derive_seed(seed, "compensator_q_weighted1")),
            ("Q", derive_seed(seed, "pidemc0")),
        ]
        x_t = drawn[0].terminal["X"][:2000]
        assert f"E[X_T] {x_t.mean():.5f} " in checks["rn_density"].detail
        # the event-process checks read the events of the same P sample
        cfg = config_from_dict(d)
        lam_t = hawkes.lambda_at(cfg.validated_model(), drawn[0].events.head(2000), 1.0)
        assert f"mean lambda_T {lam_t.mean():.5f} " in checks["hawkes_mean_law"].detail

    def test_nan_in_a_later_term_fails_the_check(self, monkeypatch):
        # max(0.5, nan) is 0.5 in Python: the budget must keep the NaN
        monkeypatch.setattr(verification, "_integrated_inverse_fk", lambda *a: math.nan)
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        checks = {c.name: c for c in run_verification(config_from_dict(d)).checks}
        c = checks["closed_form_oracles"]
        assert "integrated reciprocal rel nan (<1e-4)" in c.detail
        assert math.isnan(c.value) and not c.passed
        assert sum(not c.passed for c in checks.values()) == 1

    def test_raising_oracle_fails_closed_form_oracles_alone(self, monkeypatch):
        def boom(*args):
            raise FloatingPointError("oracle exploded")

        monkeypatch.setattr(verification, "_integrated_inverse_fk", boom)
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        rep = run_verification(config_from_dict(d))
        assert tuple(c.name for c in rep.checks) == verification.CHECKS
        c = {c.name: c for c in rep.checks}["closed_form_oracles"]
        assert c.detail == "raised FloatingPointError: oracle exploded"
        assert c.value == math.inf and not c.passed
        assert [c.name for c in rep.checks if not c.passed] == ["closed_form_oracles"]

    def test_closed_form_oracles_pass_at_sigma_one(self):
        # delta = 4 kappa vbar / sigma^2 = 2.4 < 4, where a sample mean of
        # 1/v_T has infinite variance; the quadrature has none
        d = default_config_dict()
        d["model"]["sigma"] = 1.0
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        checks = {c.name: c for c in run_verification(config_from_dict(d)).checks}
        assert checks["closed_form_oracles"].passed, checks["closed_form_oracles"].detail

    def test_closed_form_oracles_do_not_read_the_seed(self):
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        read = []
        for seed in (1, 2):
            d["run"]["seed"] = seed
            c = {c.name: c for c in run_verification(config_from_dict(d)).checks}
            read.append((c["closed_form_oracles"].value, c["closed_form_oracles"].detail))
        assert read[0] == read[1]

    def test_one_stepper_per_grid(self, monkeypatch):
        # the desk Stepper, which the three PIDE checks march through in
        # turn; the classical reduction's
        built = count_stepper_inits(monkeypatch)
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        run_verification(config_from_dict(d))
        assert len(built) == 2
        assert built[1].grid.shape == (12, 8, 4)

    def test_each_check_marches_its_own_stacks(self, monkeypatch):
        # at nt = 64 each PIDE check marches its own surfaces on the desk
        # grid: x and 1 as one stack (64 steps of 2); the guarantee alone
        # (65: the kinked start's two half-steps); per template, the backward
        # route (64 of 1) and the quadrature, whose marches share the grid's
        # time axis: the pure endowment's terminal (64 of 1), the term
        # insurance's theta (64 of 1), the endowment guarantee's terminal and
        # theta (65 of 2)
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="64x16x10x6")
        desk_shape = (16, 10, 6)
        stacks = []
        step = pide.Stepper.step

        def counted(self, U, dt, source=None):
            if self.grid.shape == desk_shape:
                stacks.append(U.size // math.prod(desk_shape))
            return step(self, U, dt, source)

        monkeypatch.setattr(pide.Stepper, "step", counted)
        rep = run_verification(config_from_dict(d))
        assert rep.passed and not any(c.retried for c in rep.checks)
        assert {b: stacks.count(b) for b in set(stacks)} == {2: 64 + 65, 1: 65 + 5 * 64}

    def test_failed_quadrature_march_fails_thiele_consistency_alone(self, monkeypatch):
        def boom(*args):
            raise FloatingPointError("march exploded")

        monkeypatch.setattr(thiele, "_march_layers", boom)
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        rep = run_verification(config_from_dict(d))
        assert tuple(c.name for c in rep.checks) == verification.CHECKS
        failed = {c.name: c.detail for c in rep.checks if not c.passed}
        assert failed == {"thiele_consistency": "raised FloatingPointError: march exploded"}

    def test_check_names_are_the_report_rows_in_order(self):
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        rep = run_verification(config_from_dict(d))
        assert tuple(c.name for c in rep.checks) == verification.CHECKS

    def test_normal_run_leaves_no_thread(self):
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6")
        threads = set(threading.enumerate())
        rep = run_verification(config_from_dict(d))
        assert set(threading.enumerate()) == threads  # no thread outlives the call
        assert rep.passed


class TestIntegratedInverseOracle:
    """closed_form_oracles' Feynman-Kac solve against special's closed form,
    at the desk and at T = 2 with c near 0.4 c_max and below 0."""

    C_MAX = 0.5 * ((2 * 2.0 * 0.3 - 0.5**2) / (2 * 0.5)) ** 2  # the desk's kappa, vbar, sigma
    CASES = [(1.0, 0.1), (2.0, 0.4 * C_MAX), (2.0, -0.2)]

    @pytest.mark.parametrize("T, c", CASES)
    def test_second_order_within_a_tenth_of_its_gate(self, T, c):
        # at the fixed sizes, and with nodes and steps halved together once
        # and twice; closed_form_oracles' gate is 1e-4
        p = desk_params(T=T)
        exact = special.integrated_inverse_cir_exp(p.kappa, p.vbar, p.sigma, p.v0, T, c)
        nodes, rate = verification._FK_NODES, verification._FK_STEPS_PER_T
        err = np.array([
            abs(verification._integrated_inverse_fk(p, c, nodes // d, rate // d) / exact - 1.0)
            for d in (4, 2, 1)
        ])
        assert err[-1] < 1e-4 / 10
        assert np.all(np.log2(err[:-1] / err[1:]) >= 1.8), err

    def test_near_the_feller_boundary(self):
        # 2 kappa vbar is 3% above sigma^2, so v often nears 0, where the
        # solve's end row holds u to the power law of the equation there
        # (linear extrapolation in its place reads 1.5e-4 off, over the gate)
        p = desk_params(kappa=1.0, vbar=0.1, sigma=0.44, v0=0.1)
        c = 0.4 * 0.5 * ((2 * p.kappa * p.vbar - p.sigma**2) / (2 * p.sigma)) ** 2
        exact = special.integrated_inverse_cir_exp(p.kappa, p.vbar, p.sigma, p.v0, p.T, c)
        assert abs(verification._integrated_inverse_fk(p, c) / exact - 1.0) < 1e-4 / 10


class TestInverseMomentQuadrature:
    """closed_form_oracles' exp-sinh quadrature of E[1/v_T] against special's
    1F1 series, at delta near 2, k above 1e4 (cir_neg_moment's large-k
    expansion) and short and long T."""

    CASES = {
        "delta_2.02": dict(sigma=math.sqrt(4 * 2.0 * 0.3 / 2.02)),
        "k_3.8e4": dict(sigma=0.1, v0=5.0, T=0.05),
        "T_0.05": dict(T=0.05),
        "T_10": dict(T=10.0),
    }

    @pytest.mark.parametrize("overrides", CASES.values(), ids=CASES.keys())
    def test_within_a_tenth_of_its_gate(self, overrides):
        p = desk_params(**overrides)
        exact = special.cir_neg_moment(p.kappa, p.vbar, p.sigma, p.v0, p.T, 1.0)
        assert abs(verification._inverse_moment_quad(p) / exact - 1.0) < 1e-10 / 10


class TestLambdaCapCorner:
    @pytest.mark.parametrize("kappa", [2.0, 0.5])
    def test_the_near_point_leaves_the_limit_branch(self, kappa, monkeypatch):
        # lambda_cap_corner compares lambda_cap's D > 0 formula with the D = 0
        # limit, so its c must sit below the cap with D(c) > 0 after rounding
        m = model.validate(desk_params(kappa=kappa))
        seen = []

        def recorded(mdl, c):
            seen.append(c)
            return measure.lambda_cap(mdl, c)

        monkeypatch.setattr(verification, "lambda_cap", recorded)
        gap = verification._lambda_corner_deviation(m)
        (c_near,) = seen
        assert c_near < kappa**2 / (2 * m.sigma**2)
        assert measure.big_d(m, c_near) > 0
        assert gap < 1e-6


# VerificationReport.to_json() of TestReportSerialization.test_json_is_pinned
PINNED_JSON = """\
{
  "checks": [
    {
      "detail": "gap 1.0e-12",
      "kind": "closed-form",
      "name": "steady",
      "passed": true,
      "retried": false,
      "value": 0.25
    },
    {
      "detail": "raised RuntimeError: boom",
      "kind": "exact-identity",
      "name": "broken",
      "passed": false,
      "retried": false,
      "value": Infinity
    },
    {
      "detail": "attempt 1",
      "first_attempt": {
        "detail": "attempt 0",
        "value": 1.5
      },
      "kind": "independent-oracle",
      "name": "flaky",
      "passed": true,
      "retried": true,
      "value": 0.5
    }
  ],
  "config_digest": "0123456789abcdef",
  "passed": false,
  "seed": 7
}"""


class TestReportSerialization:
    def test_json_is_pinned(self):
        # a passed, a failed (raised) and a retried check
        rep = VerificationReport(
            seed=7,
            config_digest="0123456789abcdef",
            checks=[
                Check(name="steady", kind="closed-form", detail="gap 1.0e-12", value=0.25,
                      wall_time=1.5),
                Check(name="broken", kind="exact-identity", detail="raised RuntimeError: boom",
                      value=math.inf),
                Check(name="flaky", kind="independent-oracle", detail="attempt 1", value=0.5,
                      first_attempt={"value": 1.5, "detail": "attempt 0"}),
            ],
        )
        assert rep.to_json() == PINNED_JSON

    def test_json_excludes_wall_time(self):
        rep = VerificationReport(
            seed=1,
            config_digest="abc",
            checks=[
                Check(name="x", kind="exact-identity", detail="d", value=0.1, wall_time=123.0)
            ],
        )
        doc = json.loads(rep.to_json())
        assert "wall_time" not in doc["checks"][0]
        assert "reference" not in doc["checks"][0]
        assert doc["passed"] is True

    def test_table_marks_failures(self):
        rep = VerificationReport(
            seed=1,
            config_digest="abc",
            checks=[
                Check(name="bad", kind="closed-form", detail="d", value=9.0)
            ],
        )
        text = rep.table()
        assert "NO" in text
        assert text.strip().endswith("FAIL")


class TestDegenerateConfigs:
    def test_poisson_reduction_passes(self):
        # without self-excitation every event-process check reduces to a
        # Poisson identity, and the intensity check hits a zero-variance gate
        d = default_config_dict()
        d["model"]["alpha"] = 0.0
        d["run"].update(paths=3000, grid="24x16x10x1")
        rep = run_verification(config_from_dict(d))
        failures = [c.name for c in rep.checks if not c.passed]
        assert rep.passed, failures

    def test_constant_jump_law_passes(self, monkeypatch):
        d = default_config_dict()
        d["model"]["jump"] = {"kind": "constant", "value": 0.5}
        d["run"].update(paths=3000, grid="24x16x10x6")
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[2])
            return simulate(*args, **kwargs)

        def no_batch(*args, **kwargs):
            raise AssertionError("the suite draws no separate event batch")

        # both names: a second Monte Carlo path in `sde` would be counted too
        monkeypatch.setattr(verification, "simulate", counted)
        monkeypatch.setattr(sde, "simulate", counted)
        monkeypatch.setattr(hawkes, "simulate_hawkes_batch", no_batch)
        monkeypatch.setattr(hawkes, "simulate_events", no_batch)
        rep = run_verification(config_from_dict(d))
        failures = [c.name for c in rep.checks if not c.passed]
        assert rep.passed, failures
        # without a retry the suite draws one P and one Q sample, shared by
        # every check that simulates
        assert not any(c.retried for c in rep.checks)
        assert calls == ["P", "Q"]
        detail = {c.name: c.detail for c in rep.checks}
        q_mean = re.search(r" vs Q (\S+) ", detail["girsanov_price_crosscheck"])
        sim_mean = re.search(r"vs simulation (\S+) ", detail["pide_vs_mc_guarantee"])
        assert q_mean.group(1) == sim_mean.group(1)


class TestScanGrid:
    @pytest.mark.parametrize("n, n_blocks", [(1_000_000, 16), (1_000_003, 7)])
    def test_blocks_are_the_linspace_floats(self, n, n_blocks):
        # admissibility_c_l scans np.linspace(cap / n, cap, n) block by block
        caps = [8.0, 0.3, 1e-3, *np.random.default_rng(0).uniform(0.01, 100.0, 3)]
        for cap in caps:
            blocks = list(verification._linspace_blocks(cap / n, cap, n, n_blocks))
            assert len(blocks) == n_blocks
            assert np.array_equal(np.concatenate(blocks), np.linspace(cap / n, cap, n)), cap


class TestQuadratureRefinement:
    def test_zero_budget_forces_doubling(self, monkeypatch):
        m = model.validate(desk_params())
        dist = model.ExponentialJump(2.0)
        sel, _ = measure.select_measure(m, dist, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, 16, 12, 8, 6)
        pol = markov.term_insurance(1.0, 0.02)
        monkeypatch.setattr(thiele, "_N_MATURITIES", 9)
        monkeypatch.setattr(thiele, "_REFINE_BUDGET", 0.0)
        out = thiele.reserve_quadrature(pol, pide.Stepper(grid, m, sel, dist), 0.0)
        assert out.diagnostics["refined"]
        assert out.diagnostics["n_maturities"] == 17

    def test_within_budget_keeps_node_count(self, monkeypatch):
        m = model.validate(desk_params())
        dist = model.ExponentialJump(2.0)
        sel, _ = measure.select_measure(m, dist, measure.MeasureConfig())
        grid = pide.build_grid(m, 1.0, 16, 12, 8, 6)
        pol = markov.term_insurance(1.0, 0.02)
        monkeypatch.setattr(thiele, "_N_MATURITIES", 9)
        out = thiele.reserve_quadrature(pol, pide.Stepper(grid, m, sel, dist), 0.0)
        assert not out.diagnostics["refined"]
        assert out.diagnostics["n_maturities"] == 9
