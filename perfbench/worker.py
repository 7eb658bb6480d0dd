"""One workload in one fresh process: set-up, a cold operation, then warm
operations for a fixed time, each gated for correctness.

    PYTHONPATH=src python3 perfbench/worker.py --inputs INPUTS.json \
        --result RESULT.json --seconds 5 [--trace 1] [--probe setup|ops]

A probe sets up and, with `--probe ops`, runs one gated cold and one gated
warm operation.  With --trace 1, warm operations alternate between traced and
untraced, so the tracing overhead is measured inside the same process.  The
per-layer metrics come from the traced operations only.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import subprocess
import sys
import time
from pathlib import Path

import layers
import workloads
from tracer import Tracer


def run_ops(wl, seconds: float, tracer: Tracer | None = None) -> list[dict]:
    """The cold operation, then warm ones until `seconds` have passed: at
    least one, and with a tracer at least one traced and one untraced.

    An operation fails when it raises, when its gate reports a problem, or
    when its output differs from the first operation's."""
    records: list[dict] = []
    reference = None

    def one(traced: bool) -> None:
        nonlocal reference
        op_id = len(records) + 1
        problems: list[str] = []
        out = None
        if traced:
            tracer.op = op_id
            layers.install(tracer)
        start = time.perf_counter()
        try:
            out = wl.op()
        except Exception as exc:  # a failed operation is counted, not fatal
            problems.append(f"raised {type(exc).__name__}: {exc}")
        finally:
            elapsed = time.perf_counter() - start
            if traced:
                tracer.restore()
        fingerprint, summary = None, {}
        if not problems:
            try:
                fingerprint, summary, problems = wl.check(out)
            except Exception as exc:  # an unreadable output fails its gate
                problems.append(f"gate raised {type(exc).__name__}: {exc}")
        if fingerprint is not None:
            if reference is None:
                reference = fingerprint
            elif fingerprint != reference:
                problems.append("output differs from the first operation's")
        records.append({
            "op": op_id, "traced": traced, "seconds": elapsed, "ok": not problems,
            "problems": problems, "fingerprint": fingerprint, "summary": summary,
        })

    one(False)
    need = {True, False} if tracer is not None else {False}
    start = time.perf_counter()
    while True:
        warm = records[1:]
        if need <= {r["traced"] for r in warm} and time.perf_counter() - start >= seconds:
            return records
        one(tracer is not None and len(warm) % 2 == 0)


def threads2_speedup(call) -> float:
    """Wall time of a simulate call at threads=1 over the same at threads=2."""
    import hhr.sde

    args, kwargs = call
    times = []
    for threads in (1, 2):
        start = time.perf_counter()
        hhr.sde.simulate(*args, **{**kwargs, "threads": threads})
        times.append(time.perf_counter() - start)
    return times[0] / times[1]


def _getconf(name: str):
    try:
        out = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
        return int(out.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        return None


def machine() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "l2_bytes": _getconf("LEVEL2_CACHE_SIZE"),
        "l3_bytes": _getconf("LEVEL3_CACHE_SIZE"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--inputs", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", choices=("setup", "ops"))
    args = ap.parse_args(argv)
    inputs = json.loads(Path(args.inputs).read_text())
    tracer = Tracer() if args.trace else None

    start = time.perf_counter()
    with tracer.span("hhr.import") if tracer else contextlib.nullcontext():
        import hhr.cli  # noqa: F401  (the whole package: cli imports every module)
    if tracer:
        layers.install(tracer)
    try:
        wl = workloads.Workload(inputs)
    finally:
        if tracer:
            tracer.restore()
    setup_s = time.perf_counter() - start
    result = {"setup_s": setup_s}
    if args.probe:
        if args.probe == "ops":
            result["records"] = run_ops(wl, 0.0)
        wl.close()
        Path(args.result).write_text(json.dumps(result))
        return 0

    records = run_ops(wl, args.seconds, tracer)
    result.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        records=records, describe=wl.describe(), machine=machine(),
    )
    if tracer:
        warm = records[1:]
        extra = {"trace_overhead": min(r["seconds"] for r in warm if r["traced"])
                 / min(r["seconds"] for r in warm if not r["traced"])}
        call_q = layers.first_call(tracer.spans, "Q")
        if call_q is not None:
            extra["threads2_speedup"] = threads2_speedup(call_q)
        call = layers.first_call(tracer.spans)
        if call is not None:
            extra["event_cell_share"] = layers.event_cell_share(call)
        result["per_layer"] = layers.metrics(
            tracer.spans, [r["op"] for r in records if r["traced"]], extra
        )
        result["missing_entry_points"] = tracer.missing
        spans_path = Path(inputs["work"]) / "spans.json"
        spans_path.write_text(json.dumps([s.row() for s in tracer.spans]))
        result["spans_file"] = str(spans_path)
    wl.close()
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
