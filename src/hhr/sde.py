"""Joint simulation of (S, v, lambda, N, L) under the historical measure P or
a tilted measure Q(a), with the pathwise change-of-measure process X.

Scheme: full-truncation Euler for the variance between events (v+ = max(v,0)
inside both the square root and the drift), log-Euler for the stock, exact
exponential decay for the intensity, and the event jumps eta*J / alpha added
at their exact times (the uniform grid is augmented per path, never smeared).
X is accumulated with left-endpoint (predictable) integrands, which makes
each step an exact conditional martingale, so E[X_t] = 1 holds without
discretization bias; the reported running integral of v is trapezoidal.

Each path consumes only its own counter-based stream: the thinning draws
first, then the marks, then one pair of normal blocks sized to the path's
own augmented grid.  Results are therefore identical for a fixed seed no
matter how paths are chunked or threaded.

A chunk thins all its paths in lockstep into one CSR event table (one flat
array of times and marks plus per-path offsets; see hawkes.draw_events).
Each uniform step then runs its first stage over every path and its later
stages, up to the closing one, over only the paths with an event in that
step.  A skipped path already sits at the step's end, and a stage of
length 0 leaves its state unchanged, except that lambda is recomputed as
lambda0 + (lambda - lambda0) * 1.  That is exact whenever lambda - lambda0
is, which holds for lambda0 = 1.0 or 6.0, so there skipping is
bit-identical to running every stage over every path; for other lambda0
it may move lambda by one ulp.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import AdmissibilityError
from .hawkes import DEFAULT_EVENT_CAP, EventTable, draw_events
from .measure import MeasureSelection, q_dynamics
from .model import JumpDistribution, ValidatedModel
from .rng import path_rng

__all__ = ["PathBundle", "SimulationResult", "simulate"]

_V_THETA_FLOOR = 1e-12


@dataclass(frozen=True)
class PathBundle:
    """One stored trajectory on its uniform-plus-event time grid."""

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

    terminal holds per-path arrays (S, v, lam, N, L, int_v, X); probes maps
    each requested time to per-path arrays (N, L, comp_n, X).
    events is the event table of the same paths, path i in row i.
    """

    measure_tag: str
    n_paths: int
    n_steps: int
    seed: int
    terminal: dict
    probes: dict
    truncated_fraction: float
    events: EventTable
    antithetic: bool = False
    bundles: list | None = None

    def pair_view(self, key: str) -> np.ndarray:
        """Per-unit values for error bars: pair means under antithetic."""
        x = self.terminal[key]
        if not self.antithetic:
            return x
        half = x.size // 2
        return 0.5 * (x[:half] + x[half:])


def _prepare_paths(p, dist, n_steps, seed, idx_lo, idx_hi, max_events):
    """Per-path draws from the (seed, i) streams: the chunk's event table,
    then each path's two normal blocks sized to its own augmented grid."""
    rngs = [path_rng(seed, i) for i in range(idx_lo, idx_hi)]
    table = draw_events(rngs, p, dist, max_events)
    n_draw = (n_steps + table.counts).tolist()
    width = max(n_draw, default=n_steps)
    ZB = np.zeros((len(rngs), width))
    ZW = np.zeros((len(rngs), width))
    for i, (rng, m) in enumerate(zip(rngs, n_draw)):
        rng.standard_normal(out=ZB[i, :m])
        rng.standard_normal(out=ZW[i, :m])
    return table, ZB, ZW


def _bucket_events(table, dt, n_steps):
    """Event rows sorted by (step, path, order); order ranks an event among
    its path's events in the same step."""
    path = table.path
    step = np.clip(np.ceil(table.times / dt - 1e-12).astype(int) - 1, 0, n_steps - 1)
    idx = np.arange(step.size)
    first = np.ones(step.size, dtype=bool)
    first[1:] = (path[1:] != path[:-1]) | (step[1:] != step[:-1])
    order = idx - np.maximum.accumulate(np.where(first, idx, 0))
    # the table is ordered by (path, time), so a stable sort by step suffices
    sorter = np.argsort(step, kind="stable")
    return path[sorter], table.times[sorter], table.marks[sorter], step[sorter], order[sorter]


def _run_chunk(
    p,
    dist,
    measure_tag,
    selection,
    n_steps,
    seed,
    idx_lo,
    idx_hi,
    probe_steps,
    record_full,
    flip_sign,
    max_events,
):
    nc = idx_hi - idx_lo
    dt_u = p.T / n_steps
    table, ZB, ZW = _prepare_paths(p, dist, n_steps, seed, idx_lo, idx_hi, max_events)
    if flip_sign:
        np.negative(ZB, out=ZB)
        np.negative(ZW, out=ZW)
    ev_path, ev_time, ev_mark, ev_step, ev_order = _bucket_events(table, dt_u, n_steps)
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

    # state rows: t, log S, v, lambda, N, L, int v, log X, compensator of N
    st = np.zeros((9, nc))
    st[1] = math.log(p.S0)
    st[2] = p.v0
    st[3] = p.lambda0
    ptr = np.zeros(nc, dtype=int)
    trunc = 0
    active_total = 0
    probes = {}
    snaps = [st[:8].copy()] if record_full else None

    def stage(s, ptr, rows, target, hit, mk):
        """Advance the state block s of chunk rows `rows` to `target`, then
        jump its rows `hit` by the marks mk."""
        nonlocal trunc, active_total
        cur_t, log_s, v, lam, _, _, int_v, log_x, comp_n = s
        # clamp guards the stage length when an event time sits a float
        # ulp past a grid node and was bucketed into the earlier step
        dt_vec = np.maximum(target - cur_t, 0.0)
        active = dt_vec > 0.0
        act = np.nonzero(active)[0]
        zb = np.zeros(s.shape[1])
        zw = np.zeros(s.shape[1])
        if act.size:
            zb[act] = ZB[rows[act], ptr[act]]
            zw[act] = ZW[rows[act], ptr[act]]
            ptr[act] += 1
        sq = np.sqrt(dt_vec)
        vp = np.maximum(v, 0.0)
        trunc += int(np.count_nonzero(active & (v < 0.0)))
        active_total += act.size
        sv = np.sqrt(vp)
        drift = np.broadcast_to(
            np.float64(p.r), vp.shape
        ) if under_q else np.asarray(p.mu(cur_t), dtype=float)
        s[1] = log_s + (drift - 0.5 * vp) * dt_vec + sv * (c1 * zb + p.rho * zw) * sq
        v_new = v + kappa_eff * (vbar_eff - vp) * dt_vec + p.sigma * sv * sq * zw
        s[6] = int_v + 0.5 * (vp + np.maximum(v_new, 0.0)) * dt_vec
        if track_x:
            vth = np.maximum(vp, _V_THETA_FLOOR)
            svth = np.sqrt(vth)
            th = ((drift - p.r) / svth - a * p.rho * svth) / c1
            s[7] = log_x - (
                th * zb * sq
                + 0.5 * th**2 * dt_vec
                + a * sv * zw * sq
                + 0.5 * a * a * vp * dt_vec
            )
        em = -np.expm1(-p.beta * dt_vec)
        s[8] = comp_n + p.lambda0 * dt_vec + (lam - p.lambda0) * em / p.beta
        s[3] = p.lambda0 + (lam - p.lambda0) * (1.0 - em)
        s[2] = v_new
        s[0] = target
        if hit is not None and hit.size:
            s[2, hit] += p.eta * mk
            s[3, hit] += p.alpha
            s[4, hit] += 1.0
            s[5, hit] += mk

    all_rows = np.arange(nc)

    for k in range(n_steps):
        t_next = (k + 1) * dt_u
        lo, hi = step_lo[k], step_hi[k]
        order = ev_order[lo:hi]
        first = order == 0
        rows = ev_path[lo:hi][first]  # the rows with an event in this step
        # stage 0, full width: every row to its first event of the step, or
        # to the step's end
        target = np.full(nc, t_next)
        target[rows] = ev_time[lo:hi][first]
        stage(st, ptr, all_rows, target, rows, ev_mark[lo:hi][first])
        if record_full:
            snaps.append(st[:8].copy())
        if rows.size:
            # later stages touch only the event rows: any other row sits at
            # t_next, where a stage of length 0 would leave its state
            # unchanged (lambda: see the module docstring)
            n_stage = int(order.max()) + 1
            local = np.cumsum(first) - 1  # each event's row in the block
            sub, sub_ptr = st[:, rows], ptr[rows]
            for j in range(1, n_stage + 1):
                target = np.full(rows.size, t_next)
                if j < n_stage:
                    sel = order == j
                    hit = local[sel]
                    target[hit] = ev_time[lo:hi][sel]
                    stage(sub, sub_ptr, rows, target, hit, ev_mark[lo:hi][sel])
                else:
                    stage(sub, sub_ptr, rows, target, None, None)
                if record_full:
                    st[:, rows] = sub
                    snaps.append(st[:8].copy())
            st[:, rows] = sub
            ptr[rows] = sub_ptr
        if (k + 1) in probe_steps:
            probes[t_next] = {
                "N": st[4].copy(),
                "L": st[5].copy(),
                "comp_n": st[8].copy(),
                "X": np.exp(st[7]),
            }

    out = {
        "S": np.exp(st[1]),
        "v": np.maximum(st[2], 0.0),
        "lam": st[3].copy(),
        "N": st[4].copy(),
        "L": st[5].copy(),
        "int_v": st[6].copy(),
        "X": np.exp(st[7]),
    }
    bundles = None
    if record_full:
        bundles = _assemble_bundles(measure_tag, np.stack(snaps))
    return out, probes, trunc, active_total, bundles, table


def _assemble_bundles(measure_tag, snaps):
    """Per-path merged grids from the stage snapshots (uniform + own events).

    snaps[j] is the state (t, log S, v, lambda, N, L, int v, log X) of every
    path after stage j.  Zero-length stages duplicate a time point; the last
    snapshot at each time wins so event nodes carry the post-jump (cadlag)
    values.
    """
    bundles = []
    for i in range(snaps.shape[2]):
        ts = snaps[:, 0, i]
        keep = np.ones(len(ts), dtype=bool)
        keep[:-1] = np.diff(ts) > 0
        _, log_s, v, lam, n_ev, l_ev, int_v, log_x = snaps[keep, :, i].T
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
    antithetic: bool = False,
    threads: int = 1,
    chunk_size: int = 8192,
    max_events: int = DEFAULT_EVENT_CAP,
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
        raise ValueError(f"n_steps must be >= 50, got {n_steps}")

    dt_u = p.T / n_steps
    probe_steps = set()
    for t in probe_times:
        k = round(t / dt_u)
        if abs(k * dt_u - t) > 1e-9 * max(p.T, 1.0) or not 1 <= k <= n_steps:
            raise ValueError(f"probe time {t} is not on the uniform grid")
        probe_steps.add(k)

    chunks = [
        (lo, min(lo + chunk_size, n_paths)) for lo in range(0, n_paths, chunk_size)
    ]

    def work(args):
        lo, hi, flip = args
        return _run_chunk(
            p, dist, measure, selection, n_steps, seed, lo, hi,
            probe_steps, record_full, flip, max_events,
        )

    jobs = [(lo, hi, False) for lo, hi in chunks]
    if antithetic:
        jobs += [(lo, hi, True) for lo, hi in chunks]

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            results = list(ex.map(work, jobs))
    else:
        results = [work(j) for j in jobs]

    terminal = {
        key: np.concatenate([r[0][key] for r in results])
        for key in results[0][0]
    }
    probes = {}
    for t in sorted({tt for r in results for tt in r[1]}):
        probes[t] = {
            key: np.concatenate([r[1][t][key] for r in results])
            for key in results[0][1][t]
        }
    trunc = sum(r[2] for r in results)
    active = sum(r[3] for r in results)
    bundles = None
    if record_full:
        bundles = [b for r in results for b in r[4]]
    return SimulationResult(
        measure_tag=measure if measure == "P" else f"Q(a={selection.a:g})",
        n_paths=n_paths * (2 if antithetic else 1),
        n_steps=n_steps,
        seed=seed,
        terminal=terminal,
        probes=probes,
        truncated_fraction=trunc / active if active else 0.0,
        events=EventTable.concat([r[5] for r in results]),
        antithetic=antithetic,
        bundles=bundles,
    )
