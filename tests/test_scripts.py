"""Smoke tests of the scripts under scripts/, which call the library API."""

import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np

from hhr import hawkes, model

from conftest import desk_params

ROOT = Path(__file__).resolve().parents[1]


def test_compensator_study_prints_one_row_per_case_process_and_time():
    script = ROOT / "scripts" / "compensator_study.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--paths", "1000"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["lambda0", "alpha", "beta", "proc", "t", "mean", "3se", "ok"]
    cases = runpy.run_path(str(script))["CASES"]
    keys = [tuple(row.split()[:5]) for row in rows]
    want = {
        (f"{c['lambda0']:.2f}", f"{c['alpha']:.2f}", f"{c['beta']:.2f}", proc, t)
        for c in cases for proc in ("N", "L") for t in ("0.50", "1.00")
    }
    assert len(keys) == len(want) and set(keys) == want


def test_compensator_study_fails_a_nonzero_mean_with_a_zero_se():
    # no events on a lambda0 > 0 model: N_t - Lambda^N_t is -lambda0 t on
    # every path, a nonzero mean with a zero standard error
    verdict = runpy.run_path(str(ROOT / "scripts" / "compensator_study.py"))["verdict"]
    m = model.validate(desk_params())
    empty = hawkes.EventTable.from_counts(np.empty(0), np.empty(0), np.zeros(1000, dtype=int))
    n_row = hawkes.martingale_residual_test(m, empty, [0.5], 0.5)[0]
    assert (n_row.process, n_row.mean, n_row.se) == ("N", -0.5 * m.lambda0, 0.0)
    assert verdict(n_row) == "no"


def test_premium_sweep_prints_one_row_per_guarantee_level():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "premium_sweep.py"), "--grid", "16x12x8x6"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["guarantee", "premium", "rate"]
    assert len(rows) == 5
    assert all(math.isfinite(float(col)) for row in rows for col in row.split())


def test_pide_convergence_prints_one_finite_row_per_grid():
    script = ROOT / "scripts" / "pide_convergence.py"
    proc = subprocess.run(
        [sys.executable, str(script), "--paths", "2000"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    _, header, *rows = proc.stdout.strip().splitlines()
    assert header.split() == ["grid", "price", "diff", "rel", "sec"]
    grids = runpy.run_path(str(script))["GRIDS"]
    assert [row.split()[0] for row in rows] == [
        f"{nt}x{nx}x{ny}x{nz}" for nt, nx, ny, nz in grids
    ]
    assert all(math.isfinite(float(row.split()[1])) for row in rows)
