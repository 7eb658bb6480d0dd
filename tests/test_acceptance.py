"""Acceptance criteria at full scale: the shipped verification suite
(`run_verification`, the code behind `hhr verify`) runs once on the desk
config at 100k paths, and each check gets one test and one printed verdict
line.  Every gate, sample size and tolerance lives in the suite itself.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import json
from pathlib import Path

import pytest

from hhr.config import config_from_dict
from hhr.verification import run_verification

DESK = Path(__file__).resolve().parents[1] / "configs" / "desk.json"
SCALE = {"paths": 100_000, "steps": 256, "grid": "64x48x24x16", "seed": 20240801}

# check name -> criterion number, in the order the suite runs them
CRITERIA = dict(
    hawkes_mean_law=1, compensator_p=2, compensator_q_weighted=3, rn_density=4,
    q_martingale_stock=5, girsanov_price_crosscheck=11, closed_form_oracles=6,
    pide_exact_solutions=7, pide_vs_mc_guarantee=8, thiele_consistency=9,
    admissibility_c_l=10, lambda_cap_corner=12,
)


@pytest.fixture(scope="module")
def checks():
    doc = json.loads(DESK.read_text())
    doc["run"].update(SCALE)
    return run_verification(config_from_dict(doc)).checks


def verdict(checks, name):
    (c,) = [c for c in checks if c.name == name]
    retry = f" (retried; first attempt {c.first_attempt['value']:.4g})" if c.retried else ""
    print(
        f"[criterion {CRITERIA[name]:02d}] {'PASS' if c.passed else 'FAIL'} {name}: "
        f"budget used {c.value:.4g} in {c.wall_time:.1f}s{retry}; {c.detail}"
    )
    assert c.passed, c.detail
    return c


def test_suite_runs_every_check_once(checks):
    assert [c.name for c in checks] == list(CRITERIA)


def test_criterion_01_hawkes_mean_law(checks):
    assert verdict(checks, "hawkes_mean_law").wall_time < 30.0


def test_criterion_02_compensator_martingale_p(checks):
    verdict(checks, "compensator_p")


def test_criterion_03_compensator_martingale_q_weighted(checks):
    verdict(checks, "compensator_q_weighted")


def test_criterion_04_density_normalization_and_moment(checks):
    verdict(checks, "rn_density")


def test_criterion_05_martingale_measure_property(checks):
    verdict(checks, "q_martingale_stock")


def test_criterion_06_closed_form_oracles(checks):
    verdict(checks, "closed_form_oracles")


def test_criterion_07_pide_exact_solutions(checks):
    assert verdict(checks, "pide_exact_solutions").wall_time < 300.0


def test_criterion_08_pide_vs_monte_carlo(checks):
    verdict(checks, "pide_vs_mc_guarantee")


def test_criterion_09_thiele_consistency(checks):
    verdict(checks, "thiele_consistency")


def test_criterion_10_admissibility_ledger(checks):
    verdict(checks, "admissibility_c_l")


def test_criterion_11_girsanov_price_crosscheck(checks):
    verdict(checks, "girsanov_price_crosscheck")


def test_criterion_12_lambda_cap_corner(checks):
    verdict(checks, "lambda_cap_corner")
