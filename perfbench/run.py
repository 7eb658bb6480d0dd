"""Benchmark of the hhr engine, end to end and layer by layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads: verify_desk, reserve_desk,
mc_bursty, price_fine (see workloads.py for why each).  Each run starts one
fresh worker process that sets up, runs one cold operation and then warm
operations for S seconds, one at a time (a closed loop with one client,
threads=1), and gates every operation's output.

--trace 0 prints the end-to-end metrics.  After the worker, two probe
processes set up again; the first also runs one gated cold and one gated
warm operation, unless the worker's cold operation took 10 s or more (as
verify_desk's does), so that a run stays within its time budget.
- op_s: the fastest warm operation over the worker and the probe;
- cold_op_s: the fastest first operation over the worker and the probe;
- setup_s: the median set-up time over the three processes;
- peak_rss_mb: the worker's peak resident memory.
The fastest, not the median, operation is reported, from processes apart
in time, because contention from other tenants of a shared machine only
ever adds time and comes in phases of several seconds: on a 2-core shared
VM the run-to-run spread of the worker's median warm operation over ten
seeds reached the 0.25 bound.

--trace 1 prints the per-layer metrics, from spans recorded around calls
into hhr's public functions (layers.py).  Earlier lines give the machine,
the inputs, the fingerprints and failed/attempted; the last line is the
JSON result.  Inputs, the full result and the spans go to .bench_out/ in
the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads

HERE = Path(__file__).resolve().parent
DEADLINE_S = 175.0
PROBE_OPS_LIMIT_S = 10.0
END_TO_END_UNITS = {"op_s": "s", "cold_op_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def _worker(root: Path, inputs: Path, result: Path, seconds: float, trace: int,
            deadline: float, probe: str | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--inputs", str(inputs),
           "--result", str(result), "--seconds", str(seconds), "--trace", str(trace)]
    if probe:
        cmd += ["--probe", probe]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    remaining = deadline - time.monotonic()
    # subprocess.run kills the child on timeout and waits for it
    subprocess.run(cmd, cwd=root, env=env, check=True, timeout=max(remaining, 1.0),
                   stdout=sys.stderr)
    return json.loads(result.read_text())


def recorded_match(name: str, size: str, seed: int, summary: dict):
    """Whether the operation's summary matches every value recorded for
    these inputs in fingerprints.json (None when nothing is recorded).
    Informational: a change to the numerical algorithm may move them."""
    if size != "full":
        return None
    recorded = json.loads((HERE / "fingerprints.json").read_text()).get(name, {})
    matches = []
    for key, want in recorded.items():
        if isinstance(want, dict):  # recorded per workload seed
            want = want.get(str(seed))
        if want is not None:
            matches.append(summary.get(key) == want)
    return all(matches) if matches else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    root = Path.cwd()
    for need in ("src/hhr/__init__.py", "configs/desk.json"):
        if not (root / need).is_file():
            print(f"error: {need} not found; run from the root of an hhr checkout",
                  file=sys.stderr)
            return 2

    work = root / ".bench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}-{args.size}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    inputs = workloads.make_inputs(args.workload, args.seed, args.size, root, work)
    inputs_path = work / "inputs.json"
    inputs_path.write_text(json.dumps(inputs, indent=2))

    res = _worker(root, inputs_path, work / "result.json", args.seconds, args.trace, deadline)
    runs, setups = [res["records"]], [res["setup_s"]]
    if not args.trace:
        repeat = res["records"][0]["seconds"] < PROBE_OPS_LIMIT_S
        for k, kind in enumerate(("ops" if repeat else "setup", "setup")):
            probe = _worker(root, inputs_path, work / f"probe{k}.json", args.seconds, 0,
                            deadline, probe=kind)
            setups.append(probe["setup_s"])
            runs.append(probe.get("records", []))
    reference = runs[0][0]["fingerprint"]
    records = []
    for process, recs in enumerate(runs):
        for r in recs:
            r["process"] = process
            if process and r["ok"] and r["fingerprint"] != reference:
                r["ok"] = False
                r["problems"].append("output differs from the worker's first operation")
            records.append(r)
    colds = [r["seconds"] for r in records if r["op"] == 1]
    warm = [r["seconds"] for r in records if r["op"] > 1 and not r["traced"]]

    attempted = len(records)
    failed = sum(not r["ok"] for r in records)
    if args.trace:
        metrics = {k: {"value": v, "unit": layers.UNITS[k]} for k, v in res["per_layer"].items()}
    else:
        values = {
            "op_s": min(warm),
            "cold_op_s": min(colds),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}

    res.update(inputs=inputs, records=records, setup_samples=setups, metrics=metrics,
               recorded_match=recorded_match(args.workload, args.size, args.seed,
                                              records[0]["summary"]))
    (work / "result.json").write_text(json.dumps(res, indent=2))

    print("# machine " + json.dumps(res["machine"], sort_keys=True))
    print("# inputs " + json.dumps({k: inputs[k] for k in inputs if k not in ("work", "config")}
                                   | res["describe"], sort_keys=True))
    print("# fingerprint " + json.dumps(records[0]["summary"] | {
        "recorded_match": res["recorded_match"]}, sort_keys=True))
    if res.get("missing_entry_points"):
        print("# entry points not found: " + ", ".join(res["missing_entry_points"]))
    for r in records:
        kind = "cold" if r["op"] == 1 else "traced" if r["traced"] else "warm"
        status = "ok" if r["ok"] else "FAILED: " + "; ".join(r["problems"])
        print(f"# op {r['process']}.{r['op']:<3d} {kind:6s} {r['seconds']:9.4f} s  {status}")
    print(f"# warm operations: {len(warm)}, median {statistics.median(warm):.4f} s")
    for k, m in metrics.items():
        print(f"{k:40s} {m['value']:16.6g} {m['unit']}")
    print(f"{'failed_share':40s} {failed / attempted:16.6g} share  "
          f"({failed} failed of {attempted} attempted)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
