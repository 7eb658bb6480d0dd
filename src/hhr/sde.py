"""Joint simulation of (S, v, lambda, N, L) under the historical measure P or
a tilted measure Q(a), with the pathwise change-of-measure process X.

The events are drawn exactly (by inversion, see hawkes), and lambda, N, L
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
of random number from its own stream (see rng), path by path in order:
the event waits and the marks (hawkes.draw_events), the stage normals,
(2, n_steps) per path (hawkes.stage_normals), and the event normals, one
(events, 2) array (hawkes.event_normals).  So a path's numbers depend on
the seed and on the paths of its chunk up to itself only: a run is a
prefix of any longer run at the same seed, and the thread count changes
nothing.  A chunk keys streams and nothing else: the run's state rows
(t, log S, v, int v, log X) and its log X rows at the probe times are
allocated once for all paths, and each chunk runs on its own columns.

A chunk draws its paths' events in lockstep into one CSR event table (one
flat array of times and marks plus per-path offsets), and runs its paths as
path tiles of ceil(width / 4) rows, width being the run's chunk width: four
tiles for a full chunk.  The stage arithmetic is elementwise per path, so
the tiles are independent, and a tile's events are one contiguous slice of
the table.  Each path runs its own schedule of the uniform nodes and its
own events in rounds: round j runs one stage over every row of the tile to
the row's j-th target, its next event if that lies in the row's current
step and the step's end node otherwise.  A stage from a node (or 0) reads
its step's stage normals, one from an event that event's normals; the
drift is mu at the stage's start under P, and r under Q.  A row past its
last target sits at T, where a stage of length 0 leaves its state
unchanged exactly, so a tile runs n_steps plus its largest event count
rounds, bit for bit as if each path ran alone.

A stage writes every intermediate into one workspace, an (11, tile) float
array and a (2, tile) bool array, with out=, keeping each Euler
expression's operations in Python's left-to-right order, so its floats are
those of the plain expressions.  The stage normals of a tile sit in a
step-major (n_steps, 2, tile) buffer, read with flat takes.  Every gather
of a round takes with mode="clip", whose indices are in range by
construction: under the default mode="raise" numpy buffers out=, and a
4096-row gather took about three times as long.  One helper thread draws
the stage normals, from each chunk's one stage stream in path order, one
tile ahead of the stage loop across chunk boundaries: tile t + 1 while
tile t runs, and the first tile while every chunk's event table is drawn.
numpy's draws and copies release the GIL, so the helper runs on a second
core.  It draws _TILE paths at a time into a small staging array, copied
transposed into the tile's buffer.  The two tile buffers, the staging
array and the workspace are allocated once per simulate call at the run's
tile width and reused by every chunk.  With threads=2 two chunk workers
take alternate chunks, each with its own buffers and helper thread, and
write their chunks' columns; only the chunks' event tables, bundles and
stage counts are joined, in chunk order.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .hawkes import (
    EventTable, chunks, draw_events, event_normals, l_at, lambda_at, n_at, stage_normals,
)
from .measure import MeasureSelection, q_dynamics
from .model import JumpDistribution, ValidatedModel
from .rng import path_rng  # noqa: F401  (perfbench traces hhr.sde.path_rng)

__all__ = ["PathBundle", "SimulationResult", "simulate"]

_V_THETA_FLOOR = 1e-12
_SV_THETA_FLOOR = math.sqrt(_V_THETA_FLOOR)
# paths per draw into the staging array, 0.5 MiB at 256 steps: a 4096-path
# tile's draw and transposed copy took 34 ms in parts of 128 or 256 paths
# and 35-47 ms in parts of 512 (numpy 2.4 on a 2-core x86-64 VM); a full
# chunk's tiles are 2048 paths
_TILE = 128
MIN_STEPS = 50  # uniform steps a run needs at least


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


def _draw_tile(gen, zs, stg, n):
    """Draw the stage normals of the next n paths of the stage stream gen
    into zs[:, :, :n], step-major, through the staging array stg, len(stg)
    paths at a time."""
    for i in range(0, n, len(stg)):
        part = stg[:min(len(stg), n - i)]
        gen.standard_normal(out=part)
        np.copyto(zs[:, :, i:i + len(part)], part.transpose(2, 1, 0))


def _tile_normals(helper, zt, stg, draws):
    """Yield, for each (stage stream, path count) of draws in turn, the
    buffer zt[0] or zt[1], by turns, holding that tile's stage normals
    step-major.  The helper thread draws each tile while the caller runs
    the one before: the first draw starts at the first next(), which
    yields None, and each later one when the caller takes the tile before
    it, whose buffer the caller is then done with."""
    gen, n = draws[0]
    pending = helper.submit(_draw_tile, gen, zt[0], stg, n)
    yield None
    for i in range(len(draws)):
        pending.result()
        if i + 1 < len(draws):
            gen, n = draws[i + 1]
            pending = helper.submit(_draw_tile, gen, zt[(i + 1) % 2], stg, n)
        yield zt[i % 2]


def _run_chunk(
    model, table, measure_tag, selection, n_steps, seed, chunk, st, log_x, probe_k, record_full,
    tw, tiles, ws, wb,
):
    """Run chunk `chunk`, whose events are `table`, on st, its columns of the
    run's state rows, writing its log X at the probe steps probe_k into the
    rows of log_x; return its event table, its bundles (given record_full)
    and its stage counts."""
    p = model.params
    nc = st.shape[1]
    dt_u = p.T / n_steps
    ez = event_normals(seed, chunk, table.times.size)
    # step k ends at nodes[k] = (k + 1) dt_u, the last at T itself (n_steps
    # dt_u can round below T); an event belongs to the step whose end is the
    # first node at or after it, so every stage target lies at or after its
    # row's time
    nodes = np.arange(1, n_steps + 1) * dt_u
    nodes[-1] = p.T

    under_q = measure_tag == "Q"
    if under_q:
        kappa_eff, vbar_eff = q_dynamics(p, selection)
    else:
        kappa_eff, vbar_eff = p.kappa, p.vbar
    a = selection.a
    c1 = math.sqrt(1.0 - p.rho**2)

    trunc = active_total = 0
    bundles = [] if record_full else None

    def stage(s, target, zb, zw, hit, mk, drift):
        """Advance the state block s to `target` with the stock and variance
        normals zb, zw and the stock drift of each row (under Q the scalar
        r), then jump the variance of its rows `hit` by eta times the marks
        mk.  A row already at its target moves by exactly 0.  Each update is
        the full-truncation Euler expression in the comment above it,
        evaluated operation by operation in Python's left-to-right order,
        with the intermediates in rows 0-6 of ws and the masks in wb."""
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
            # svth is max(sv, sqrt(floor)), the same float: a correctly
            # rounded sqrt is monotone
            np.maximum(sv, _SV_THETA_FLOOR, out=t0)
            np.subtract(drift, p.r, out=t1)
            t1 /= t0
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

    if not under_q:
        mu_k = p.mu(np.arange(n_steps) * dt_u)  # the drift from the start of step k

    for lo in range(0, nc, tw):
        hi = min(lo + tw, nc)
        n = hi - lo
        zs = next(tiles).reshape(-1)
        tile = table.rows(lo, hi)
        # a path reaches its event in round (the event's step + its rank among
        # the path's events); the stable sort keeps path order in a round
        rnd = np.searchsorted(nodes, tile.times, side="left") + tile.rank
        order = np.argsort(rnd, kind="stable")
        ev_row, ev_t, ev_mk = tile.path[order], tile.times[order], tile.marks[order]
        # the stock and variance normals, and under P the drift, of a stage
        # from each event
        ev_from = ez[table.offsets[lo] + order].T
        if not under_q:
            ev_from = np.vstack([ev_from, p.mu(ev_t)])
        n_rounds = n_steps + int(tile.counts.max(initial=0))
        # round j's events are ev_*[bounds[j + 1]:bounds[j + 2]]
        bounds = np.searchsorted(rnd[order], np.arange(-1, n_rounds + 1))
        due = {}  # round -> [(probe index, the rows that reach it in the round)]
        for i, k in enumerate(probe_k):
            at = k - 1 + n_at(tile, nodes[k - 1])
            for j in np.unique(at):
                due.setdefault(int(j), []).append((i, np.flatnonzero(at == j)))
        tst = st[:, lo:hi]
        snaps = [tst.copy()] if record_full else None
        kstep = np.zeros(n, dtype=np.intp)  # the step each row is in
        cols, ix = np.arange(n), np.empty(n, dtype=np.intp)
        target, start = ws[7, :n], ws[8:10 if under_q else 11, :n]
        zb, zw = start[:2]
        drift = p.r if under_q else start[2]

        for j in range(n_rounds):
            # unbuffered gathers (mode="clip", see the module docstring): every
            # index is in range, kstep being at most n_steps - 1 and ix below
            # n_steps * 2 * tw
            nodes.take(kstep, out=target, mode="clip")
            # zs[kstep, 0, cols] and zs[kstep, 1, cols], taken flat
            np.multiply(kstep, 2 * tw, out=ix)
            ix += cols
            zs.take(ix, out=zb, mode="clip")
            ix += tw
            zs.take(ix, out=zw, mode="clip")
            if not under_q:
                mu_k.take(kstep, out=drift, mode="clip")
            # a row that reached an event in the round before starts from it
            prev, cur = slice(bounds[j], bounds[j + 1]), slice(bounds[j + 1], bounds[j + 2])
            start[:, ev_row[prev]] = ev_from[:, prev]
            rows = ev_row[cur]
            target[rows] = ev_t[cur]
            stage(tst, target, zb, zw, rows, ev_mk[cur], drift)
            # a row that reached its node goes on to the next step, or stays at T
            kstep += 1
            kstep[rows] -= 1
            np.minimum(kstep, n_steps - 1, out=kstep)
            if record_full:
                snaps.append(tst.copy())
            for i, rows in due.get(j, ()):
                log_x[i, lo + rows] = tst[4, rows]
        if record_full:
            bundles += _assemble_bundles(model, measure_tag, np.stack(snaps), tile)

    return table, bundles, trunc, active_total


def _assemble_bundles(model, measure_tag, snaps, table):
    """Per-path merged grids from the stage snapshots (uniform + own events).

    snaps[j] is the state (t, log S, v, int v, log X) of every path of
    `table` (a chunk's path tile) after round j; lambda, N and L are read
    off each path's events at its time there.  Zero-length stages duplicate
    a time point; the last snapshot at each time wins, so event nodes carry
    the post-jump (cadlag) values.  The t = 0 row reads S0 itself, not
    exp(log S0).
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
    the uniform grid.  record_full keeps a snapshot per round and is meant
    for small path counts (trajectory dumps), not estimator runs.
    """
    p = model.params
    if measure not in ("P", "Q"):
        raise ValueError("measure must be 'P' or 'Q'")
    if n_steps < MIN_STEPS:
        raise DomainError(f"n_steps must be >= {MIN_STEPS}, got {n_steps}")
    runs = chunks(n_paths)

    dt_u = p.T / n_steps
    probe_k = {}  # probe time -> k, the time being k dt, the end of step k - 1
    for t in sorted(probe_times):
        k = round(t / dt_u)
        if abs(k * dt_u - t) > 1e-9 * max(p.T, 1.0) or not 1 <= k <= n_steps:
            raise DomainError(f"probe time {t} is not on the uniform grid")
        probe_k[t] = k

    # the run's state rows (t, log S, v, int v, log X) and log X at each probe
    st = np.zeros((5, n_paths))
    st[1] = math.log(p.S0)
    st[2] = p.v0
    log_x = np.empty((len(probe_k), n_paths))
    width = runs[0][1]
    tw = -(-width // 4)  # path tile width: a quarter of the run's chunk width

    def work(group):
        # the chunks of `group` in turn, on one set of buffers at the tile
        # width, with one helper thread drawing each path tile's stage
        # normals while the tile before runs, and tile 0 while every
        # chunk's events are drawn
        zt = np.empty((2, n_steps, 2, tw))
        stg = np.empty((min(_TILE, tw), 2, n_steps))
        ws = np.empty((11, tw))
        wb = np.empty((2, tw), dtype=bool)
        draws = []
        for c, nc in group:
            gen = stage_normals(seed, c)
            draws += [(gen, min(tw, nc - lo)) for lo in range(0, nc, tw)]
        with ThreadPoolExecutor(max_workers=1) as helper:
            tiles = _tile_normals(helper, zt, stg, draws)
            next(tiles)  # the helper starts on tile 0
            tables = [draw_events(seed, c, nc, p, dist) for c, nc in group]
            return [
                _run_chunk(
                    model, table, measure, selection, n_steps, seed, c,
                    st[:, c * width:c * width + nc], log_x[:, c * width:c * width + nc],
                    probe_k.values(), record_full, tw, tiles, ws, wb,
                )
                for table, (c, nc) in zip(tables, group)
            ]

    workers = min(threads, len(runs))
    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as ex:
            done = list(ex.map(work, [runs[w::workers] for w in range(workers)]))
        results = [done[i % workers][i // workers] for i in range(len(runs))]
    else:
        results = work(runs)

    tables, chunk_bundles, truncs, actives = zip(*results)
    events = EventTable.concat(tables)
    terminal = {
        "S": np.exp(st[1]),
        "v": np.maximum(st[2], 0.0),
        "int_v": st[3].copy(),
        "X": np.exp(st[4]),
        "N": events.counts.astype(float),
    }
    trunc, active = sum(truncs), sum(actives)
    return SimulationResult(
        measure_tag=measure if measure == "P" else f"Q(a={selection.a:g})",
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        terminal=terminal,
        probes={t: np.exp(row) for t, row in zip(probe_k, log_x)},
        truncated_fraction=trunc / active if active else 0.0,
        events=events,
        bundles=[b for bs in chunk_bundles for b in bs] if record_full else None,
    )
