"""Joint simulation of (S, v, lambda, N, L) under the historical measure P or
a tilted measure Q(a), with the pathwise change-of-measure process X.

The events are drawn exactly (Ogata thinning, see hawkes), and lambda, N, L
and the compensator are hawkes' closed forms over them; the stage loop
carries only the diffusion state (S, v, the running integral of v, X).
Scheme: full-truncation Euler for the variance between events (v+ = max(v,0)
inside both the square root and the drift), log-Euler for the stock, and the
variance jumps eta*J added at the exact event times (the uniform grid is
augmented per path, never smeared).  X is accumulated with left-endpoint
(predictable) integrands, which makes each step an exact conditional
martingale, so E[X_t] = 1 holds without discretization bias; the reported
running integral of v is trapezoidal.

Paths run in the chunks of hawkes.chunks, and each chunk draws every kind
of random number in one call from its own stream (see rng): the thinning
blocks and the marks (hawkes.draw_events), then the stage normals, one
(paths, 2, n_steps) array, and the event normals, one (events, 2) array
(hawkes.draw_normals).  So a path's numbers depend on the seed and on the
paths of its chunk up to itself only: a run is a prefix of any longer run
at the same seed, and the thread count changes nothing.

A chunk thins all its paths in lockstep into one CSR event table (one flat
array of times and marks plus per-path offsets).  Each uniform step then
runs its first stage over every path, on column k of the stage normals,
and its later stages, up to the closing one, over only the paths with an
event in that step: stage j starts at a path's order-(j - 1) event of the
step and reads that event's normals.  A skipped path already sits at the
step's end, and a stage of length 0 leaves every state row unchanged
exactly, so skipping is bit-identical to running every stage over every
path.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError, DomainError
from .hawkes import (
    EventTable, chunks, draw_events, draw_normals, l_at, lambda_at, n_at,
)
from .measure import MeasureSelection, q_dynamics
from .model import JumpDistribution, ValidatedModel
from .rng import path_rng  # noqa: F401  (perfbench traces hhr.sde.path_rng)

__all__ = ["PathBundle", "SimulationResult", "simulate"]

_V_THETA_FLOOR = 1e-12


@dataclass(frozen=True)
class PathBundle:
    """One stored trajectory on its uniform-plus-event time grid; lam, N and
    L are the closed forms over the path's own events."""

    measure_tag: str
    time_grid: np.ndarray
    S: np.ndarray
    v: np.ndarray
    lam: np.ndarray
    N: np.ndarray
    L: np.ndarray
    int_v: np.ndarray
    X: np.ndarray


@dataclass
class SimulationResult:
    """Aggregate output of a batch run.

    terminal holds per-path arrays (S, v, int_v, X, N); probes maps each
    requested time to the per-path X at that time.  events is the event
    table of the same paths, path i in row i: lambda, L and the compensators
    at any time are hawkes' closed forms over it.
    """

    measure_tag: str
    n_paths: int
    n_steps: int
    seed: int
    terminal: dict
    probes: dict
    truncated_fraction: float
    events: EventTable
    bundles: list | None = None


def _bucket_events(table, ez, dt, n_steps):
    """Event rows, with their normals ez, sorted by (step, path, order);
    order ranks an event among its path's events in the same step."""
    path = table.path
    step = np.clip(np.ceil(table.times / dt - 1e-12).astype(int) - 1, 0, n_steps - 1)
    idx = np.arange(step.size)
    first = np.ones(step.size, dtype=bool)
    first[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
    order = idx - np.maximum.accumulate(np.where(first, idx, 0))
    # the table is ordered by (path, time), so a stable sort by step suffices
    sorter = np.argsort(step, kind="stable")
    return (path[sorter], table.times[sorter], table.marks[sorter], ez[sorter], step[sorter],
            order[sorter])


def _run_chunk(
    model,
    dist,
    measure_tag,
    selection,
    n_steps,
    seed,
    chunk,
    nc,
    width,
    probe_steps,
    record_full,
):
    p = model.params
    dt_u = p.T / n_steps
    table = draw_events(seed, chunk, nc, p, dist)
    z, ez = draw_normals(seed, chunk, nc, n_steps, table.times.size, width)
    ev_path, ev_time, ev_mark, ev_z, ev_step, ev_order = _bucket_events(table, ez, dt_u, n_steps)
    step_lo = np.searchsorted(ev_step, np.arange(n_steps), side="left")
    step_hi = np.searchsorted(ev_step, np.arange(n_steps), side="right")

    under_q = measure_tag == "Q"
    if under_q:
        kappa_eff, vbar_eff = q_dynamics(p, selection)
    else:
        kappa_eff, vbar_eff = p.kappa, p.vbar
    track_x = (not under_q) and selection is not None
    a = selection.a if selection is not None else 0.0
    c1 = math.sqrt(1.0 - p.rho**2)

    # state rows: t, log S, v, int v, log X
    st = np.zeros((5, nc))
    st[1] = math.log(p.S0)
    st[2] = p.v0
    trunc = 0
    active_total = 0
    probes = {}
    snaps = [st.copy()] if record_full else None

    def stage(s, target, zb, zw, hit, mk, drift):
        """Advance the state block s to `target` with the stock and variance
        normals zb, zw and the stock drift `drift` (a value or one per row),
        then jump the variance of its rows `hit` by eta times the marks mk.
        A row already at its target moves by exactly 0."""
        nonlocal trunc, active_total
        cur_t, log_s, v, int_v, log_x = s
        # clamp guards the stage length when an event time sits a float
        # ulp past a grid node and was bucketed into the earlier step
        dt_vec = np.maximum(target - cur_t, 0.0)
        active = dt_vec > 0.0
        sq = np.sqrt(dt_vec)
        vp = np.maximum(v, 0.0)
        trunc += int(np.count_nonzero(active & (v < 0.0)))
        active_total += int(np.count_nonzero(active))
        sv = np.sqrt(vp)
        s[1] = log_s + (drift - 0.5 * vp) * dt_vec + sv * (c1 * zb + p.rho * zw) * sq
        v_new = v + kappa_eff * (vbar_eff - vp) * dt_vec + p.sigma * sv * sq * zw
        s[3] = int_v + 0.5 * (vp + np.maximum(v_new, 0.0)) * dt_vec
        if track_x:
            vth = np.maximum(vp, _V_THETA_FLOOR)
            svth = np.sqrt(vth)
            th = ((drift - p.r) / svth - a * p.rho * svth) / c1
            s[4] = log_x - (
                th * zb * sq
                + 0.5 * th**2 * dt_vec
                + a * sv * zw * sq
                + 0.5 * a * a * vp * dt_vec
            )
        s[2] = v_new
        s[0] = target
        if hit is not None and hit.size:
            s[2, hit] += p.eta * mk

    mu = (lambda t: p.r) if under_q else p.mu

    for k in range(n_steps):
        t_next = (k + 1) * dt_u
        lo, hi = step_lo[k], step_hi[k]
        order = ev_order[lo:hi]
        first = order == 0
        rows = ev_path[lo:hi][first]  # the rows with an event in this step
        # stage 0, full width: every row from k dt to its first event of the
        # step, or to the step's end, on the step's column of normals
        target = np.full(nc, t_next)
        target[rows] = ev_time[lo:hi][first]
        stage(st, target, z[:, 0, k], z[:, 1, k], rows, ev_mark[lo:hi][first], mu(k * dt_u))
        if record_full:
            snaps.append(st.copy())
        if rows.size:
            # later stages touch only the event rows: any other row sits at
            # t_next, where a stage of length 0 would leave its state
            # unchanged.  Stage j starts at each row's order-(j - 1) event
            # and reads that event's normals; a row with fewer events sits
            # at t_next and reads zeros.
            n_stage = int(order.max()) + 1
            local = np.cumsum(first) - 1  # each event's row in the block
            sub = st[:, rows]
            for j in range(1, n_stage + 1):
                prev = order == j - 1
                zs = np.zeros((2, rows.size))
                zs[:, local[prev]] = ev_z[lo:hi][prev].T
                target = np.full(rows.size, t_next)
                if j < n_stage:
                    sel = order == j
                    hit = local[sel]
                    target[hit] = ev_time[lo:hi][sel]
                    stage(sub, target, *zs, hit, ev_mark[lo:hi][sel], mu(sub[0]))
                else:
                    stage(sub, target, *zs, None, None, mu(sub[0]))
                if record_full:
                    st[:, rows] = sub
                    snaps.append(st.copy())
            st[:, rows] = sub
        if (k + 1) in probe_steps:
            probes[t_next] = np.exp(st[4])

    out = {
        "S": np.exp(st[1]),
        "v": np.maximum(st[2], 0.0),
        "int_v": st[3].copy(),
        "X": np.exp(st[4]),
    }
    bundles = None
    if record_full:
        bundles = _assemble_bundles(model, measure_tag, np.stack(snaps), table)
    return out, probes, trunc, active_total, bundles, table


def _assemble_bundles(model, measure_tag, snaps, table):
    """Per-path merged grids from the stage snapshots (uniform + own events).

    snaps[j] is the state (t, log S, v, int v, log X) of every path after
    stage j; lambda, N and L are read off each path's events at its time
    there.  Zero-length stages duplicate a time point; the last snapshot at
    each time wins so event nodes carry the post-jump (cadlag) values.
    """
    events = np.stack(
        [(lambda_at(model, table, t), n_at(table, t), l_at(table, t)) for t in snaps[:, 0]]
    )
    snaps = np.concatenate([snaps, events], axis=1)
    bundles = []
    for i in range(snaps.shape[2]):
        ts = snaps[:, 0, i]
        keep = np.ones(len(ts), dtype=bool)
        keep[:-1] = np.diff(ts) > 0
        _, log_s, v, int_v, log_x, lam, n_ev, l_ev = snaps[keep, :, i].T
        bundles.append(
            PathBundle(
                measure_tag=measure_tag,
                time_grid=ts[keep],
                S=np.exp(log_s),
                v=np.maximum(v, 0.0),
                lam=lam,
                N=n_ev,
                L=l_ev,
                int_v=int_v,
                X=np.exp(log_x),
            )
        )
    return bundles


def simulate(
    model: ValidatedModel,
    dist: JumpDistribution,
    measure: str,
    n_paths: int,
    n_steps: int,
    seed: int,
    *,
    selection: MeasureSelection | None = None,
    probe_times=(),
    record_full: bool = False,
    threads: int = 1,
) -> SimulationResult:
    """Simulate the joint system under P or Q(a).

    Under Q the stock drifts at r and the variance reverts with the tilted
    (kappa_a, vbar_a); the event intensity dynamics are unchanged because the
    compensator is the same under both measures.  Under P a selection may be
    attached to accumulate the density process X.  Probe times must lie on
    the uniform grid.  record_full keeps a snapshot per stage and is meant
    for small path counts (trajectory dumps), not estimator runs.
    """
    p = model.params
    if measure not in ("P", "Q"):
        raise ValueError("measure must be 'P' or 'Q'")
    if measure == "Q" and selection is None:
        raise AdmissibilityError("Q-measure simulation requires a certified selection")
    if n_steps < 50:
        raise DomainError(f"n_steps must be >= 50, got {n_steps}")
    runs = chunks(n_paths)

    dt_u = p.T / n_steps
    probe_steps = set()
    for t in probe_times:
        k = round(t / dt_u)
        if abs(k * dt_u - t) > 1e-9 * max(p.T, 1.0) or not 1 <= k <= n_steps:
            raise DomainError(f"probe time {t} is not on the uniform grid")
        probe_steps.add(k)

    def work(chunk):
        return _run_chunk(
            model, dist, measure, selection, n_steps, seed, *chunk, runs[0][1],
            probe_steps, record_full,
        )

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(work, runs))
    else:
        results = [work(c) for c in runs]

    terminal = {
        key: np.concatenate([r[0][key] for r in results])
        for key in results[0][0]
    }
    probes = {
        t: np.concatenate([r[1][t] for r in results])
        for t in sorted({tt for r in results for tt in r[1]})
    }
    trunc = sum(r[2] for r in results)
    active = sum(r[3] for r in results)
    events = EventTable.concat([r[5] for r in results])
    terminal["N"] = events.counts.astype(float)
    bundles = None
    if record_full:
        bundles = [b for r in results for b in r[4]]
    return SimulationResult(
        measure_tag=measure if measure == "P" else f"Q(a={selection.a:g})",
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        terminal=terminal,
        probes=probes,
        truncated_fraction=trunc / active if active else 0.0,
        events=events,
        bundles=bundles,
    )
