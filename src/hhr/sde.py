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
array of times and marks plus per-path offsets), and sorts its events by
step once.  Each uniform step then runs its first stage over every path,
on column k of the stage normals, to the path's first event of the step
or to the step's end.  After it, the stage loop walks from each event to
the next: a stage gathers only the paths of the events just reached and
runs each, on its event's normals, to its next event of the step or to
the step's end, where it leaves the walk.  A path that has left the walk
(or never entered it) sits at the step's end, where a stage of length 0
would leave its state unchanged exactly, so the walk is bit-identical to
running every stage over every path.

A stage writes every intermediate into one per-chunk workspace, an (8,
width) float array and a (2, width) bool array, with out=, keeping each
Euler expression's operations in Python's left-to-right order, so its
floats are those of the plain expressions.  The first stage of step k
reads its normals from an (8, 2, width) buffer refilled every 8 steps by
copying z[:, :, k:k + 8] step-major: the path-major stage normals hold a
path's 8 steps of one kind in one 64-byte cache line, where column k
alone would read one line per path and kind for each step.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hawkes import (
    EventTable, chunks, draw_events, draw_normals, l_at, lambda_at, n_at,
)
from .measure import MeasureSelection, q_dynamics
from .model import JumpDistribution, ValidatedModel
from .rng import path_rng  # noqa: F401  (perfbench traces hhr.sde.path_rng)

__all__ = ["PathBundle", "SimulationResult", "simulate"]

_V_THETA_FLOOR = 1e-12
_BLOCK = 8  # steps of stage normals copied at once: 64 bytes, a cache line, per path and kind
# paths per copy of a block: at 256 steps each path's normals fill a 4 KB page,
# and one copy over all 8192 pages of a chunk misses the TLB (29 ms a chunk
# against 13 ms in tiles of 512, numpy 2.4 on a 2-core x86-64 VM)
_TILE = 512


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
    # step k ends at nodes[k] = (k + 1) dt_u, the last at T itself (n_steps
    # dt_u can round below T); an event belongs to the step whose end is the
    # first node at or after it, so every stage target lies at or after its
    # row's time
    nodes = np.arange(1, n_steps + 1) * dt_u
    nodes[-1] = p.T
    step = np.searchsorted(nodes, table.times, side="left")
    # the table is ordered by (path, time), so after a stable sort by step
    # each step's events run in (path, time) order
    sorter = np.argsort(step, kind="stable")
    ev_path, ev_time, ev_mark, ev_z, ev_step = (
        table.path[sorter], table.times[sorter], table.marks[sorter], ez[sorter], step[sorter]
    )
    # cont[e]: the path of event e has its next event in the same step, at e + 1
    cont = np.zeros(ev_step.size, dtype=bool)
    cont[:-1] = (ev_path[1:] == ev_path[:-1]) & (ev_step[1:] == ev_step[:-1])
    heads = np.flatnonzero(~np.roll(cont, 1))  # a path's first event in a step (cont[-1] is False)
    step_lo = np.searchsorted(ev_step[heads], np.arange(n_steps + 1))

    under_q = measure_tag == "Q"
    if under_q:
        kappa_eff, vbar_eff = q_dynamics(p, selection)
    else:
        kappa_eff, vbar_eff = p.kappa, p.vbar
    a = selection.a
    c1 = math.sqrt(1.0 - p.rho**2)

    # state rows: t, log S, v, int v, log X
    st = np.zeros((5, nc))
    st[1] = math.log(p.S0)
    st[2] = p.v0
    trunc = 0
    active_total = 0
    probes = {}
    snaps = [st.copy()] if record_full else None

    # per-chunk scratch at the run's width: stage writes its intermediates
    # into rows 0-6 of ws and its masks into wb, and each stage's targets
    # sit in row 7; zblk holds _BLOCK steps of the stage normals step-major
    ws = np.empty((8, width))
    wb = np.empty((2, width), dtype=bool)
    zblk = np.empty((_BLOCK, 2, width))

    def stage(s, target, zb, zw, hit, mk, drift):
        """Advance the state block s to `target` with the stock and variance
        normals zb, zw and the stock drift `drift` (a value or one per row),
        then jump the variance of its rows `hit` by eta times the marks mk.
        A row already at its target moves by exactly 0.  Each update is the
        full-truncation Euler expression in the comment above it, evaluated
        operation by operation in Python's left-to-right order."""
        nonlocal trunc, active_total
        n = s.shape[1]
        dt, sq, vp, sv, t0, t1, t2 = ws[:7, :n]
        active, neg = wb[:, :n]
        cur_t, log_s, v, int_v, log_x = s
        np.subtract(target, cur_t, out=dt)
        np.greater(dt, 0.0, out=active)
        np.sqrt(dt, out=sq)
        np.maximum(v, 0.0, out=vp)
        np.less(v, 0.0, out=neg)
        neg &= active
        trunc += int(np.count_nonzero(neg))
        active_total += int(np.count_nonzero(active))
        np.sqrt(vp, out=sv)
        # log_s + (drift - 0.5 * vp) * dt + sv * (c1 * zb + rho * zw) * sq
        np.multiply(0.5, vp, out=t0)
        np.subtract(drift, t0, out=t0)
        t0 *= dt
        log_s += t0
        np.multiply(c1, zb, out=t0)
        np.multiply(p.rho, zw, out=t1)
        t0 += t1
        np.multiply(sv, t0, out=t0)
        t0 *= sq
        log_s += t0
        # v + kappa * (vbar - vp) * dt + sigma * sv * sq * zw
        np.subtract(vbar_eff, vp, out=t0)
        np.multiply(kappa_eff, t0, out=t0)
        t0 *= dt
        v += t0
        np.multiply(p.sigma, sv, out=t0)
        t0 *= sq
        t0 *= zw
        v += t0
        # int_v + 0.5 * (vp + max(v, 0)) * dt, at the new v
        np.maximum(v, 0.0, out=t0)
        np.add(vp, t0, out=t0)
        np.multiply(0.5, t0, out=t0)
        t0 *= dt
        int_v += t0
        if not under_q:
            # th = ((drift - r) / svth - a * rho * svth) / c1, svth = sqrt(max(vp, floor));
            # log_x - (th * zb * sq + 0.5 * th**2 * dt + a * sv * zw * sq
            #          + 0.5 * a * a * vp * dt)
            np.maximum(vp, _V_THETA_FLOOR, out=t0)
            np.sqrt(t0, out=t0)
            np.divide(drift - p.r, t0, out=t1)
            np.multiply(a * p.rho, t0, out=t0)
            t1 -= t0
            t1 /= c1
            np.multiply(t1, zb, out=t0)
            t0 *= sq
            np.square(t1, out=t2)
            np.multiply(0.5, t2, out=t2)
            t2 *= dt
            t0 += t2
            np.multiply(a, sv, out=t2)
            t2 *= zw
            t2 *= sq
            t0 += t2
            np.multiply(0.5 * a * a, vp, out=t2)
            t2 *= dt
            t0 += t2
            log_x -= t0
        cur_t[:] = target
        v[hit] += p.eta * mk

    mu = (lambda t: p.r) if under_q else p.mu

    for k in range(n_steps):
        if k % _BLOCK == 0:
            kk = min(_BLOCK, n_steps - k)
            for i in range(0, nc, _TILE):
                j = min(i + _TILE, nc)
                np.copyto(zblk[:kk, :, i:j], z[i:j, :, k:k + kk].transpose(2, 1, 0))
        t_next = float(nodes[k])
        e = heads[step_lo[k]:step_lo[k + 1]]  # each path's first event of the step
        rows = ev_path[e]
        # stage 0, full width: every row from k dt to its first event of the
        # step, or to the step's end, on the step's normals
        target = ws[7, :nc]
        target.fill(t_next)
        target[rows] = ev_time[e]
        stage(st, target, *zblk[k % _BLOCK, :, :nc], rows, ev_mark[e], mu(k * dt_u))
        if record_full:
            snaps.append(st.copy())
        while e.size:
            # the rows of the events e just reached walk, on those events'
            # normals, to their next event of the step or to its end
            rows = ev_path[e]
            hit = np.flatnonzero(cont[e])
            nxt = e[hit] + 1
            target = ws[7, :e.size]
            target.fill(t_next)
            target[hit] = ev_time[nxt]
            sub = st[:, rows]
            stage(sub, target, *ev_z[e].T, hit, ev_mark[nxt], mu(sub[0]))
            st[:, rows] = sub
            if record_full:
                snaps.append(st.copy())
            e = nxt
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
    each time wins so event nodes carry the post-jump (cadlag) values.  The
    t = 0 row reads S0 itself, not exp(log S0).
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
        stock = np.exp(log_s)
        stock[0] = model.params.S0
        bundles.append(
            PathBundle(
                measure_tag=measure_tag,
                time_grid=ts[keep],
                S=stock,
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
    selection: MeasureSelection,
    probe_times=(),
    record_full: bool = False,
    threads: int = 1,
) -> SimulationResult:
    """Simulate the joint system under P or Q(a).

    Under Q the stock drifts at r and the variance reverts with the tilted
    (kappa_a, vbar_a); the event intensity dynamics are unchanged because the
    compensator is the same under both measures.  Under P the run carries
    the density process X of Q(a) (under Q, X stays 1).  Probe times must lie on
    the uniform grid.  record_full keeps a snapshot per stage and is meant
    for small path counts (trajectory dumps), not estimator runs.
    """
    p = model.params
    if measure not in ("P", "Q"):
        raise ValueError("measure must be 'P' or 'Q'")
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
