import json
import re

import pytest

from hhr import hawkes, markov, measure, model, pide, sde, thiele, verification
from hhr.config import config_from_dict, default_config_dict
from hhr.errors import ConfigError
from hhr.rng import derive_seed
from hhr.sde import simulate
from hhr.verification import Check, VerificationReport, _Suite, run_verification

from conftest import desk_params


class TestSuiteMechanics:
    def _suite(self):
        return _Suite(config_from_dict(default_config_dict()))

    def test_guard_records_exceptions_as_failures(self):
        suite = self._suite()

        def boom(_):
            raise RuntimeError("solver exploded")

        suite.guard("some_check", "exact-identity", boom)
        assert len(suite.checks) == 1
        c = suite.checks[0]
        assert not c.passed
        assert "solver exploded" in c.detail

    def test_add_stat_retries_once(self):
        suite = self._suite()
        calls = []

        def compute(tag):
            calls.append(tag)
            return (2.0 if tag == 0 else 0.5), f"attempt {tag}"

        suite.add_stat("flaky", "independent-oracle", compute)
        assert calls == [0, 1]
        c = suite.checks[0]
        assert c.passed and c.retried
        assert c.detail == "attempt 1"
        assert c.first_attempt == {"value": 2.0, "detail": "attempt 0"}
        assert c.to_dict()["first_attempt"] == {"value": 2.0, "detail": "attempt 0"}

    def test_first_attempt_absent_without_retry(self):
        suite = self._suite()
        suite.add_stat("steady", "independent-oracle", lambda tag: (0.5, "ok"))
        assert not suite.checks[0].retried
        assert "first_attempt" not in suite.checks[0].to_dict()

    def test_retry_draws_fresh_and_leaves_the_shared_sample(self, monkeypatch):
        # a zero budget makes compensator_q_weighted retry; rn_density's first
        # attempt must still read the suite's P sample, not the retry's
        d = default_config_dict()
        d["run"].update(paths=2000, grid="24x16x10x6",
                        tolerances={"compensator_q_weighted": 0.0})
        seed = d["run"]["seed"]
        drawn = []

        def recorded(*args, **kwargs):
            drawn.append(simulate(*args, **kwargs))
            return drawn[-1]

        monkeypatch.setattr(verification, "simulate", recorded)
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

    def test_unknown_tolerance_key_is_refused(self):
        d = default_config_dict()
        d["run"].update(paths=1000, steps=64, grid="24x16x10x6",
                        tolerances={"hawkes_mean_law": 2.0, "compensator_pp": 2.0})
        with pytest.raises(ConfigError, match="names no check: compensator_pp$"):
            run_verification(config_from_dict(d))

    def test_tolerance_override_scales_budget(self):
        cfg = config_from_dict(default_config_dict())
        cfg.run.tolerances["loose_check"] = 3.0
        suite = _Suite(cfg)
        suite.add("loose_check", "exact-identity", 2.0, "within the widened budget")
        assert suite.checks[0].passed


class TestReportSerialization:
    def test_json_excludes_wall_time(self):
        rep = VerificationReport(
            seed=1,
            config_digest="abc",
            checks=[
                Check(
                    name="x", kind="exact-identity", detail="d", value=0.1,
                    tolerance=1.0, passed=True, wall_time=123.0,
                )
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
                Check(
                    name="bad", kind="closed-form", detail="d", value=9.0,
                    tolerance=1.0, passed=False,
                )
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


class TestQuadratureRefinement:
    def test_zero_budget_forces_doubling(self):
        m = model.validate(desk_params())
        dist = model.ExponentialJump(2.0)
        sel, _ = measure.select_measure(m, dist, fraction=0.8)
        grid = pide.build_grid(m, 1.0, 16, 12, 8, 6)
        pol = markov.term_insurance(1.0, 0.02)
        out = thiele.reserve_quadrature(
            pol, m, sel, dist, grid, 0.0, n_maturities=9, refine_budget=0.0
        )
        assert out.diagnostics["refined"]
        assert out.diagnostics["n_maturities"] == 17

    def test_within_budget_keeps_node_count(self):
        m = model.validate(desk_params())
        dist = model.ExponentialJump(2.0)
        sel, _ = measure.select_measure(m, dist, fraction=0.8)
        grid = pide.build_grid(m, 1.0, 16, 12, 8, 6)
        pol = markov.term_insurance(1.0, 0.02)
        out = thiele.reserve_quadrature(pol, m, sel, dist, grid, 0.0, n_maturities=9)
        assert not out.diagnostics["refined"]
        assert out.diagnostics["n_maturities"] == 9
