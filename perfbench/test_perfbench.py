"""Tests of the benchmark itself (not of hhr).

    PYTHONPATH=src python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import layers  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--size", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_self_time_of_nested_spans():
    spans = [
        Span(0, "root", 0.0, 10.0, None, 1),
        Span(1, "a", 1.0, 3.0, 0, 1),
        Span(2, "a.inner", 1.5, 2.5, 1, 1),
        Span(3, "b", 2.0, 5.0, 0, 1),  # overlaps a: the overlap counts once
        Span(4, "c", 9.0, 12.0, 0, 1),  # reaches past its parent: clipped
        Span(5, "other_op", 0.0, 4.0, None, 2),
    ]
    got = self_times(spans)
    assert got[0] == pytest.approx(10.0 - (4.0 + 1.0))
    assert got[1] == pytest.approx(1.0)
    assert got[2] == pytest.approx(1.0)
    assert got[3] == pytest.approx(3.0)
    assert got[4] == pytest.approx(3.0)
    assert got[5] == pytest.approx(4.0)


def test_tracer_restores_every_entry_point():
    import hhr.pide
    import hhr.thiele

    before = (hhr.pide.Stepper.step, hhr.thiele.solve_price_pide, hhr.pide.solve_price_pide)
    tracer = Tracer()
    layers.install(tracer)
    assert hhr.pide.Stepper.step is not before[0]
    assert tracer.missing == []
    tracer.restore()
    assert (hhr.pide.Stepper.step, hhr.thiele.solve_price_pide,
            hhr.pide.solve_price_pide) == before


@pytest.mark.parametrize("scale", [1.05, 1.0 + 1e-12])
def test_perturbed_output_is_a_failed_operation(tmp_path, scale):
    """A wrong output fails its gate; a perturbation too small for the gate
    still fails, because it changes the output fingerprint."""
    wl = workloads.Workload(workloads.make_inputs("mc_bursty", 3, "tiny", ROOT, tmp_path))
    op, calls = wl.op, []

    def perturbed():
        sim_p, sim_q = op()
        calls.append(1)
        if len(calls) == 2:
            sim_q.terminal["S"] = sim_q.terminal["S"] * scale
        return sim_p, sim_q

    wl.op = perturbed
    records = worker.run_ops(wl, 0.0)
    wl.close()
    assert [r["ok"] for r in records] == [True, False]


def test_reserve_gate_reads_the_interior_probes():
    nx, ny, nz = 8, 4, 4
    rows = ["state,t,x,y,z,V,rel_diff"]
    for s in ("alive", "dead"):
        for i in range(nx):
            for j in range(ny):
                for k in range(nz):
                    bad = s == "dead" and (i, j, k) == (4, 2, 3)
                    rows.append(f"{s},0.0,{90 + 5 * i},{0.1 * (j + 1)},{1 + k},{i},"
                                f"{0.05 if bad else 0.0}")

    class P:
        S0, v0, lambda0 = 100.0, 0.2, 1.0

    gap, anchor = workloads.reserve_csv_gate("\n".join(rows), (nx, ny, nz), P)
    assert gap == 0.05 and anchor == 2.0


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_metric_with_its_unit(workload):
    plain = _run(workload, 0)
    res = _result(plain)
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 2
    want = {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())
    assert "failed_share" in plain.stdout
    if workload != "verify_desk":  # the first probe process runs a cold and a warm op
        assert sum(line.startswith("# op 1.") for line in plain.stdout.splitlines()) == 2

    res = _result(_run(workload, 1))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 3
    want = {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    v = {k: m["value"] for k, m in res["metrics"].items()}
    assert v["trace.overhead"] > 0 and v["hhr.import_s"] > 0
    if workload == "mc_bursty":
        assert v["pide.solves"] == v["thiele.quadrature_s"] == 0 and v["rng.path_rng_calls"] > 0
    if workload in ("reserve_desk", "price_fine"):
        assert v["rng.path_rng_calls"] == v["sde.paths"] == 0 and v["pide.steps"] > 0
    if workload == "reserve_desk":
        assert v["thiele.quadrature_solves"] == 33
        assert v["markov.transition_probs_calls"] == 104
    if workload == "verify_desk":
        assert all(v[f"verification.{c}_s"] > 0 for c in layers.CHECKS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("reserve_desk", 0, cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
