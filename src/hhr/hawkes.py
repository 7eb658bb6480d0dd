"""Simulation and exact compensators of the self-exciting event process.

The intensity solves d(lambda) = -beta*(lambda - lambda0)*dt + alpha*dN, so
between events it decays exponentially toward lambda0 and the decaying value
is itself a valid thinning bound.  Sampling is exact (Ogata thinning, no
time discretization), which keeps the compensator-martingale tests free of
scheme bias.

Paths are drawn in chunks of _CHUNK paths, and each kind of random number
of a chunk comes from its own stream (see rng), drawn for the whole chunk
in one call: the thinning blocks of each refill round, the marks, and for
the diffusion (see sde) the stage and event normals.  Events are kept in
one CSR table per batch of paths (EventTable), whose closed forms give the
intensity, counts, compound sums and compensators at any time.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import DomainError, EventOverflow
from .model import JumpDistribution, ValidatedModel
from .rng import (
    EVENT_NORMALS, EXPONENTIALS, MARKS, STAGE_NORMALS, UNIFORMS, path_rng, stream_index,
)

__all__ = [
    "HawkesPath",
    "EventTable",
    "chunks",
    "draw_events",
    "draw_normals",
    "simulate_events",
    "simulate_hawkes_batch",
    "mean_intensity_ode",
    "expected_intensity",
    "expected_events",
    "lambda_at",
    "n_at",
    "l_at",
    "compensator",
    "martingale_residual_test",
    "write_event_csv",
]

DEFAULT_EVENT_CAP = 1_000_000
_BLOCK = 64  # thinning candidates drawn per refill
_CHUNK = 8192  # paths per chunk, the unit of the random streams (see rng)


@dataclass(frozen=True)
class HawkesPath:
    """One exact path: ordered event times in [0, T] with their marks."""

    event_times: np.ndarray
    marks: np.ndarray


@dataclass(frozen=True)
class EventTable:
    """Events of a batch of paths in CSR form: path i owns the ordered
    times[offsets[i]:offsets[i + 1]] and the marks at the same positions."""

    times: np.ndarray
    marks: np.ndarray
    offsets: np.ndarray

    @classmethod
    def from_counts(cls, times, marks, counts) -> EventTable:
        offsets = np.zeros(len(counts) + 1, dtype=np.int64)
        np.cumsum(counts, out=offsets[1:])
        return cls(times, marks, offsets)

    @classmethod
    def concat(cls, tables) -> EventTable:
        """One table holding the paths of `tables`, in order."""
        return cls.from_counts(
            np.concatenate([t.times for t in tables]),
            np.concatenate([t.marks for t in tables]),
            np.concatenate([t.counts for t in tables]),
        )

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)

    @property
    def path(self) -> np.ndarray:
        """The path of each event."""
        return np.repeat(np.arange(self.counts.size), self.counts)

    def head(self, n: int) -> EventTable:
        """The table of the first n paths."""
        end = self.offsets[n]
        return EventTable(self.times[:end], self.marks[:end], self.offsets[: n + 1])

    def at(self, t) -> np.ndarray:
        """t at each event: a time, or one time per path."""
        t = np.asarray(t, dtype=float)
        return t if t.ndim == 0 else t[self.path]

    def per_path(self, values) -> np.ndarray:
        """Sum of one value per event over each path's events, in time order."""
        return np.bincount(self.path, weights=values, minlength=self.counts.size)


def chunks(n_paths: int) -> list[tuple[int, int]]:
    """(index, path count) of each chunk of a run of n_paths paths."""
    if n_paths < 1:
        raise DomainError(f"n_paths must be >= 1, got {n_paths}")
    return [(c, min(_CHUNK, n_paths - c * _CHUNK)) for c in range(-(-n_paths // _CHUNK))]


def _stream(seed, chunk, kind, r=0) -> np.random.Generator:
    """Generator of one kind of draw of a chunk, for refill round r (see rng)."""
    return path_rng(seed, stream_index(chunk, kind, r))


def _thin_lockstep(seed, chunk, n, lambda0, alpha, beta, horizon, max_events):
    """Exact thinning of the n paths of a chunk at once, with the
    decaying-intensity bound.

    Refill round r draws a block of 64 unit exponentials and one of 64
    uniforms for each path still live, in path order, from the chunk's
    round-r streams.  All live paths take the same candidate index
    together, with the float operations of the one-path algorithm (the
    decay factor through math.exp: numpy's SIMD exp rounds some arguments
    differently).  Returns (times, counts): the events ordered by path,
    then by time.
    """
    count = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    t = np.zeros(n)
    lam = np.full(n, float(lambda0))  # intensity just after t; a bound while decaying
    hit_path, hit_time = [], []
    col = _BLOCK
    rnd = 0
    while live.size:
        if col == _BLOCK:
            shape = (live.size, _BLOCK)
            exps = _stream(seed, chunk, EXPONENTIALS, rnd).standard_exponential(shape)
            unis = _stream(seed, chunk, UNIFORMS, rnd).random(shape)
            row = np.arange(live.size)  # each live path's row in the blocks
            rnd += 1
            col = 0
        wait = exps[row, col] / lam
        t = t + wait
        inside = t <= horizon
        if not inside.all():
            live, row, t, lam, wait = (x[inside] for x in (live, row, t, lam, wait))
        decay = np.fromiter(map(math.exp, (-beta * wait).tolist()), float, wait.size)
        lam_cand = lambda0 + (lam - lambda0) * decay
        accept = unis[row, col] * lam <= lam_cand
        col += 1
        hits = live[accept]
        if hits.size:
            count[hits] += 1
            if count[hits].max() > max_events:
                raise EventOverflow(
                    f"path exceeded {max_events} events; raise the cap only if intended"
                )
            hit_path.append(hits)
            hit_time.append(t[accept])
        # accepted: jump by alpha; rejected: the tightened bound
        lam = np.where(accept, lam_cand + alpha, lam_cand)
    if not hit_path:
        return np.empty(0), count
    by_path = np.argsort(np.concatenate(hit_path), kind="stable")
    return np.concatenate(hit_time)[by_path], count


def draw_events(seed, chunk, n, p, dist: JumpDistribution, max_events: int) -> EventTable:
    """Event table of the n paths of chunk `chunk` (paths chunk * _CHUNK
    onward) under the model parameters p: thinned in lockstep, then the
    marks drawn in one call, in table order."""
    times, count = _thin_lockstep(seed, chunk, n, p.lambda0, p.alpha, p.beta, p.T, max_events)
    marks = dist.sample(_stream(seed, chunk, MARKS), times.size)
    return EventTable.from_counts(times, marks, count)


def draw_normals(seed, chunk, n, n_steps, n_events, width) -> tuple[np.ndarray, np.ndarray]:
    """The standard normals of the diffusion stages of a chunk's n paths,
    the stock's then the variance's: (n, 2, n_steps) for the first stage of
    each step, path-major, and (n_events, 2) for the stage after each
    event, in table order.

    The first array is a view of one of `width` rows, the run's chunk
    width, so every chunk of a run allocates the same size: a shorter last
    chunk's array (14.8 MB at 20000 paths x 256 steps) raised glibc's mmap
    threshold, and with it the heap's trim threshold, and a second hhr
    verify in one process then peaked at 152 MB instead of 132 MB.
    """
    z = np.empty((width, 2, n_steps))[:n]
    _stream(seed, chunk, STAGE_NORMALS).standard_normal(out=z)
    ez = _stream(seed, chunk, EVENT_NORMALS).standard_normal((n_events, 2))
    return z, ez


def simulate_events(
    model: ValidatedModel, dist: JumpDistribution, n_paths: int, seed: int, *,
    max_events: int = DEFAULT_EVENT_CAP,
) -> EventTable:
    """Exact-law event table of n_paths independent paths on [0, T], drawn
    chunk by chunk from the run's streams (see rng); path i's events depend
    on the seed and the paths of its chunk up to i only."""
    return EventTable.concat([
        draw_events(seed, c, n, model.params, dist, max_events) for c, n in chunks(n_paths)
    ])


def simulate_hawkes_batch(model, dist, n_paths, seed) -> list[HawkesPath]:
    """Per-path view of simulate_events."""
    # kept only because perfbench/layers.py iterates it
    table = simulate_events(model, dist, n_paths, seed)
    cut = table.offsets[1:-1]
    return list(map(HawkesPath, np.split(table.times, cut), np.split(table.marks, cut)))


def mean_intensity_ode(model: ValidatedModel, t: float) -> tuple[float, float]:
    """(E[N_t], E[lambda_t]) from the first-moment system.

    Solves dE[lambda]/dt = beta*lambda0 - (beta - alpha)*E[lambda],
    dE[N]/dt = E[lambda] with a high-accuracy adaptive integrator; serves as
    the independent oracle for the simulated mean law.
    """
    p = model.params
    if t < 0 or t > p.T:
        raise ValueError(f"t must lie in [0, {p.T}], got {t}")
    if t == 0.0:
        return 0.0, p.lambda0

    def rhs(_, y):
        en, el = y
        return [el, p.beta * p.lambda0 - (p.beta - p.alpha) * el]

    sol = solve_ivp(rhs, (0.0, t), [0.0, p.lambda0], rtol=1e-10, atol=1e-12)
    return float(sol.y[0, -1]), float(sol.y[1, -1])


def expected_intensity(model: ValidatedModel, t) -> np.ndarray:
    """Closed form E[lambda_t] = lambda0*(beta - alpha*exp(-(beta-alpha)t))/(beta-alpha)."""
    p = model.params
    t = np.asarray(t, dtype=float)
    d = p.beta - p.alpha
    return p.lambda0 * (p.beta - p.alpha * np.exp(-d * t)) / d


def expected_events(model: ValidatedModel, t) -> np.ndarray:
    """Closed form E[N_t], the time integral of expected_intensity."""
    p = model.params
    t = np.asarray(t, dtype=float)
    d = p.beta - p.alpha
    return p.lambda0 * (p.beta * t + p.alpha / d * np.expm1(-d * t)) / d


def lambda_at(model: ValidatedModel, table: EventTable, t) -> np.ndarray:
    """Intensity lambda_t of every path (cadlag: includes the jump of an event
    at t), lambda0 + alpha * sum_{t_i <= t} exp(-beta*(t - t_i)).  Here and
    in n_at and l_at, t is a time or an array of one time per path."""
    p = model.params
    dtm = table.at(t) - table.times
    kernel = np.where(dtm >= 0.0, np.exp(-p.beta * np.maximum(dtm, 0.0)), 0.0)
    return p.lambda0 + p.alpha * table.per_path(kernel)


def n_at(table: EventTable, t) -> np.ndarray:
    """Counting value N_t of every path."""
    return np.bincount(table.path[table.times <= table.at(t)], minlength=table.counts.size)


def l_at(table: EventTable, t) -> np.ndarray:
    """Compound value L_t of every path, the sum of its marks up to t."""
    return table.per_path(np.where(table.times <= table.at(t), table.marks, 0.0))


def compensator(
    model: ValidatedModel, table: EventTable, mean_j: float, t: float
) -> tuple[np.ndarray, np.ndarray]:
    """(Lambda^N_t, Lambda^L_t) of every path in closed form, no quadrature.

    Integrating the exponential kernel event by event gives
    Lambda^N_t = lambda0*t + (alpha/beta) * sum_{t_i <= t} (1 - exp(-beta*(t-t_i))).
    The compound compensator is E[J] times the counting one.
    """
    p = model.params
    if t > p.T:
        raise ValueError(f"t={t} beyond simulated horizon {p.T}")
    dtm = t - table.times
    rise = np.where(dtm >= 0.0, -np.expm1(-p.beta * np.maximum(dtm, 0.0)), 0.0)
    lam_n = p.lambda0 * t + (p.alpha / p.beta) * table.per_path(rise)
    return lam_n, mean_j * lam_n


@dataclass(frozen=True)
class ResidualRow:
    t: float
    process: str
    mean: float
    se: float
    flagged: bool


def martingale_residual_test(
    model: ValidatedModel, table: EventTable, times, mean_j: float
) -> list[ResidualRow]:
    """Sample mean and standard error of N_t - Lambda^N_t and L_t - Lambda^L_t.

    Both residuals have zero expectation; a row is flagged when its mean falls
    outside 3 standard errors.
    """
    n = table.counts.size
    if n < 1000:
        raise ValueError("need at least 1000 paths for a meaningful residual test")
    rows = []
    for t in times:
        lam_n, lam_l = compensator(model, table, mean_j, t)
        for name, res in (("N", n_at(table, t) - lam_n), ("L", l_at(table, t) - lam_l)):
            mean, se = float(res.mean()), float(res.std(ddof=1) / math.sqrt(n))
            rows.append(ResidualRow(t, name, mean, se, abs(mean) > 3 * se > 0))
    return rows


def write_event_csv(model: ValidatedModel, table: EventTable, fileobj) -> None:
    """Dump events as path_id, event_index, time, mark, lambda_after, the
    closed-form intensity at the event with its own jump."""
    p = model.params
    t, path = table.times, table.path
    acc = np.zeros(t.size)
    # the kernel of each earlier event of the path, `lag` rows up, earliest first
    for lag in reversed(range(int(table.counts.max(initial=0)))):
        same = path[lag:] == path[: t.size - lag]
        acc[lag:][same] += np.exp(-p.beta * (t[lag:] - t[: t.size - lag])[same])
    rank = np.arange(t.size) - table.offsets[path]
    w = csv.writer(fileobj)
    w.writerow(["path_id", "event_index", "time", "mark", "lambda_after"])
    for row in zip(path.tolist(), rank.tolist(), t.tolist(), table.marks.tolist(),
                   (p.lambda0 + p.alpha * acc).tolist()):
        w.writerow([row[0], row[1], *map(repr, row[2:])])
