"""Per-layer metrics of a traced run: where the spans are recorded, and how
the spans and their notes become the numbers.

Spans sit at the names each caller looks up.  A layer a workload never
reaches reads 0 (no calls, no time), which is how the bypasses show.
"""

from __future__ import annotations

import inspect
import math
import statistics

from tracer import Span, Tracer, self_times

CHECKS = (
    "hawkes_mean_law", "compensator_p", "compensator_q_weighted", "rn_density",
    "q_martingale_stock", "girsanov_price_crosscheck", "closed_form_oracles",
    "pide_exact_solutions", "pide_vs_mc_guarantee", "thiele_consistency",
    "admissibility_c_l", "lambda_cap_corner",
)

UNITS = {
    "hhr.import_s": "s", "config.load_s": "s", "measure.select_s": "s",
    "rng.path_rng_calls": "count", "rng.path_rng_s": "s",
    "hawkes.events_per_path_mean": "count", "hawkes.events_per_path_max": "count",
    "sde.simulate_p_s": "s", "sde.simulate_q_s": "s", "sde.self_s": "s",
    "sde.paths": "count", "sde.event_cell_share": "share",
    "sde.truncated_fraction": "share", "sde.threads2_speedup": "ratio",
    "pide.steps": "count", "pide.step_ms": "ms", "pide.implicit_ms": "ms",
    "pide.jump_ms": "ms", "pide.mixed_ms": "ms", "pide.cell_steps_per_s": "1/s",
    "pide.layer_mb": "MB", "pide.cfl_margin": "ratio", "pide.clamp_mass": "share",
    "pide.solves": "count", "pide.solve_s": "s", "pide.stepper_inits": "count",
    "pide.stepper_init_s": "s", "markov.transition_probs_calls": "count",
    "markov.transition_probs_s": "s", "thiele.backward_s": "s",
    "thiele.quadrature_s": "s", "thiele.quadrature_solves": "count",
    "thiele.n_maturities": "count", "thiele.refined": "count", "thiele.route_gap": "share",
    "hawkes.batch_s": "s", "hawkes.residual_s": "s", "special.calls": "count",
    "special.s": "s", "verification.retries": "count", "verification.checks_failed": "count",
    **{f"verification.{c}_s": "s" for c in CHECKS},
    "cli.self_s": "s",
    "trace.overhead": "ratio",
}


def _bound(fn, args, kwargs) -> dict:
    return inspect.signature(fn).bind(*args, **kwargs).arguments


def _note_simulate(fn):
    def note(span, args, kwargs, result):
        a = _bound(fn, args, kwargs)
        span.attrs.update(
            measure=a["measure"], paths=result.n_paths, steps=a["n_steps"],
            events=result.terminal["N"], truncated=result.truncated_fraction,
            call=(args, kwargs),
        )
    return note


def _note_batch(span, args, kwargs, result):
    span.attrs["events"] = [hp.event_times.size for hp in result]


def _note_stepper_init(span, args, kwargs, result):
    st = args[0]
    span.attrs.update(cells=math.prod(st.grid.shape), clamp=float(st.clamp_mass))


def _note_step(span, args, kwargs, result):
    st, dt = args[0], (args[2] if len(args) > 2 else kwargs["dt"])
    span.attrs.update(cells=math.prod(st.grid.shape), margin=dt * float(st.z_vec[-1]))


def _note_backward(span, args, kwargs, result):
    span.attrs.update(policy=id(args[0]), t0={s: result.values[s][0].copy() for s in result.states})


def _note_quadrature(span, args, kwargs, result):
    span.attrs.update(
        policy=id(args[0]), t0=result.values, shape=result.grid.shape,
        n_maturities=result.diagnostics.get("n_maturities", 0),
        refined=bool(result.diagnostics.get("refined", False)),
    )


def _note_report(span, args, kwargs, result):
    span.attrs.update(
        retries=sum(c.retried for c in result.checks),
        failed=sum(not c.passed for c in result.checks),
    )


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point; `tracer.restore()` undoes it."""
    import hhr.sde

    sim_note = _note_simulate(hhr.sde.simulate)
    points = [
        ("hhr.cli:main", "cli.main", None),
        ("hhr.cli:load_config", "config.load", None),
        ("hhr.config:load_config", "config.load", None),
        ("hhr.config:select_measure", "measure.select", None),
        ("hhr.cli:run_verification", "verification.run", _note_report),
        ("hhr.verification:_Suite.guard", lambda a: f"verification.{a[1]}", None),
        ("hhr.cli:simulate", "sde.simulate", sim_note),
        ("hhr.sde:simulate", "sde.simulate", sim_note),
        ("hhr.verification:simulate", "sde.simulate", sim_note),
        ("hhr.sde:path_rng", "rng.path_rng", None),
        ("hhr.hawkes:path_rng", "rng.path_rng", None),
        ("hhr.hawkes:simulate_hawkes_batch", "hawkes.batch", _note_batch),
        ("hhr.hawkes:martingale_residual_test", "hawkes.residual", None),
        ("hhr.special:hyp1f1", "special.hyp1f1", None),
        ("hhr.special:cir_neg_moment", "special.cir_neg_moment", None),
        ("hhr.special:integrated_inverse_cir_exp", "special.integrated_inverse_cir_exp", None),
        ("hhr.pide:solve_price_pide", "pide.solve", None),
        ("hhr.thiele:solve_price_pide", "pide.solve", None),
        ("hhr.pide:Stepper.__init__", "pide.stepper_init", _note_stepper_init),
        ("hhr.pide:Stepper.step", "pide.step", _note_step),
        ("hhr.pide:Stepper.implicit_sweeps", "pide.implicit", None),
        ("hhr.pide:Stepper.jump_term", "pide.jump", None),
        ("hhr.pide:Stepper.mixed_term", "pide.mixed", None),
        ("hhr.thiele:transition_probs", "markov.transition_probs", None),
        ("hhr.thiele:solve_thiele_pide", "thiele.backward", _note_backward),
        ("hhr.thiele:reserve_quadrature", "thiele.quadrature", _note_quadrature),
    ]
    for target, name, note in points:
        tracer.wrap(target, name, note)


def _route_gaps(spans: list[Span]) -> list[float]:
    """Worst relative gap between the two reserve routes at the 27 interior
    probes, for each quadrature call paired with the backward solve of the
    same policy object (scaled by the layer's largest value)."""
    from workloads import interior_probes

    import numpy as np

    backward = {}
    gaps = []
    for s in spans:
        if s.name == "thiele.backward" and "t0" in s.attrs:
            backward[(s.op, s.attrs["policy"])] = s.attrs["t0"]
        elif s.name == "thiele.quadrature" and "t0" in s.attrs:
            a_layers = backward.get((s.op, s.attrs["policy"]))
            if a_layers is None:
                continue
            worst = 0.0
            for st, b in s.attrs["t0"].items():
                scale = max(float(np.max(np.abs(b))), 1e-12)
                for i, j, k in interior_probes(*s.attrs["shape"]):
                    worst = max(worst, abs(a_layers[st][i, j, k] - b[i, j, k]) / scale)
            gaps.append(worst)
    return gaps


def _has_ancestor(span: Span, name: str, by_id: dict) -> bool:
    pid = span.parent
    while pid is not None:
        parent = by_id[pid]
        if parent.name == name:
            return True
        pid = parent.parent
    return False


def metrics(spans: list[Span], traced_ops: list[int], extra: dict) -> dict:
    """Per-layer values: set-up spans are op 0; every other sum or count is
    per traced operation (mean over `traced_ops`)."""
    import numpy as np

    setup = [s for s in spans if s.op == 0]
    ops = set(traced_ops)
    sp = [s for s in spans if s.op in ops]
    n = max(len(ops), 1)
    by_id = {s.sid: s for s in spans}
    selfs = self_times(sp)

    by_name: dict[str, list[Span]] = {}
    for s in sp:
        by_name.setdefault(s.name, []).append(s)

    def named(name):
        return by_name.get(name, [])

    def total(name):
        return sum(s.duration for s in named(name))

    def per_op(name):
        return total(name) / n

    def top_level(prefix):
        return [s for s in sp if s.name.startswith(prefix)
                and (s.parent is None or not by_id[s.parent].name.startswith(prefix))]

    sims = named("sde.simulate")
    event_counts = [np.asarray(s.attrs["events"]) for s in sims]
    event_counts += [np.asarray(s.attrs["events"]) for s in named("hawkes.batch")]
    all_events = np.concatenate(event_counts) if event_counts else np.zeros(0)
    steps = named("pide.step")
    step_s = sum(s.duration for s in steps)
    inits = named("pide.stepper_init")
    quads = named("thiele.quadrature")
    reports = named("verification.run")
    gaps = _route_gaps(sp)
    special = top_level("special.")

    out = {
        "hhr.import_s": sum(s.duration for s in setup if s.name == "hhr.import"),
        "config.load_s": sum(s.duration for s in setup if s.name == "config.load"),
        "measure.select_s": sum(s.duration for s in setup if s.name == "measure.select"),
        "rng.path_rng_calls": len(named("rng.path_rng")) / n,
        "rng.path_rng_s": per_op("rng.path_rng"),
        "hawkes.events_per_path_mean": float(all_events.mean()) if all_events.size else 0.0,
        "hawkes.events_per_path_max": float(all_events.max()) if all_events.size else 0.0,
        "sde.simulate_p_s": sum(s.duration for s in sims if s.attrs["measure"] == "P") / n,
        "sde.simulate_q_s": sum(s.duration for s in sims if s.attrs["measure"] == "Q") / n,
        "sde.self_s": sum(selfs[s.sid] for s in sims) / n,
        "sde.paths": sum(s.attrs["paths"] for s in sims) / n,
        "sde.event_cell_share": extra.get("event_cell_share", 0.0),
        "sde.truncated_fraction": (
            statistics.fmean(s.attrs["truncated"] for s in sims) if sims else 0.0
        ),
        "sde.threads2_speedup": extra.get("threads2_speedup", 0.0),
        "pide.steps": len(steps) / n,
        "pide.step_ms": 1e3 * step_s / len(steps) if steps else 0.0,
        "pide.implicit_ms": 1e3 * total("pide.implicit") / len(steps) if steps else 0.0,
        "pide.jump_ms": 1e3 * total("pide.jump") / len(steps) if steps else 0.0,
        "pide.mixed_ms": 1e3 * total("pide.mixed") / len(steps) if steps else 0.0,
        "pide.cell_steps_per_s": (
            sum(s.attrs["cells"] for s in steps) / step_s if step_s > 0 else 0.0
        ),
        # computed from the grid shape, not measured: float64 cells of one layer
        "pide.layer_mb": max((s.attrs["cells"] for s in inits), default=0) * 8 / 1e6,
        "pide.cfl_margin": max((s.attrs["margin"] for s in steps), default=0.0),
        "pide.clamp_mass": max((s.attrs["clamp"] for s in inits), default=0.0),
        "pide.solves": len(named("pide.solve")) / n,
        "pide.solve_s": per_op("pide.solve"),
        "pide.stepper_inits": len(inits) / n,
        "pide.stepper_init_s": per_op("pide.stepper_init"),
        "markov.transition_probs_calls": len(named("markov.transition_probs")) / n,
        "markov.transition_probs_s": per_op("markov.transition_probs"),
        "thiele.backward_s": per_op("thiele.backward"),
        "thiele.quadrature_s": per_op("thiele.quadrature"),
        "thiele.quadrature_solves": sum(
            _has_ancestor(s, "thiele.quadrature", by_id) for s in named("pide.solve")
        ) / n,
        "thiele.n_maturities": max((s.attrs["n_maturities"] for s in quads), default=0),
        "thiele.refined": sum(s.attrs["refined"] for s in quads) / n,
        "thiele.route_gap": max(gaps, default=0.0),
        "hawkes.batch_s": per_op("hawkes.batch"),
        "hawkes.residual_s": per_op("hawkes.residual"),
        "special.calls": len(special) / n,
        "special.s": sum(s.duration for s in special) / n,
        "verification.retries": sum(s.attrs["retries"] for s in reports) / n,
        "verification.checks_failed": sum(s.attrs["failed"] for s in reports) / n,
        **{f"verification.{c}_s": per_op(f"verification.{c}") for c in CHECKS},
        "cli.self_s": sum(selfs[s.sid] for s in named("cli.main")) / n,
        "trace.overhead": extra.get("trace_overhead", 0.0),
    }
    return {k: float(v) for k, v in out.items()}


def first_call(spans: list[Span], measure: str | None = None):
    """(args, kwargs) of the first traced simulate call, optionally under
    one measure, or None."""
    for s in spans:
        if s.name == "sde.simulate" and measure in (None, s.attrs["measure"]):
            return s.attrs["call"]
    return None


def event_cell_share(call) -> float:
    """Share of (path, step) cells that hold at least one event, for the
    inputs of a simulate call, from the event process alone (bucketed as in
    the stage loop: an event at t belongs to step ceil(t/dt) - 1)."""
    import hhr.hawkes
    import hhr.sde
    import numpy as np

    a = _bound(hhr.sde.simulate, *call)
    model, n_paths, n_steps = a["model"], a["n_paths"], a["n_steps"]
    dt = model.params.T / n_steps
    paths = hhr.hawkes.simulate_hawkes_batch(model, a["dist"], n_paths, a["seed"])
    cells = 0
    for hp in paths:
        if hp.event_times.size:
            k = np.clip(np.ceil(hp.event_times / dt - 1e-12).astype(int) - 1, 0, n_steps - 1)
            cells += np.unique(k).size
    return cells / (n_paths * n_steps)
