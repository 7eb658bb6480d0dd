"""Simulation and exact compensators of the self-exciting event process.

The intensity solves d(lambda) = -beta*(lambda - lambda0)*dt + alpha*dN, so
between events its excess over lambda0 decays exponentially, and the wait
to the next event is drawn exactly by inversion, from two exponentials and
with no rejection (Dassios & Zhao, "Exact simulation of Hawkes process with
exponentially decaying intensity", Electron. Commun. Probab. 18, 2013).
Sampling is exact (no time discretization), which keeps the
compensator-martingale tests free of scheme bias.

Paths are drawn in chunks of _CHUNK paths, and each kind of random number
of a chunk comes from its own stream (see rng), drawn path by path in
order: the two exponentials of each event iteration and the marks, each in
one call for the whole chunk, and for the diffusion (see sde) the stage
normals, in path tiles, and the event normals.  Events are kept in
one CSR table per batch of paths (EventTable), whose closed forms give the
intensity, counts, compound sums and compensators at any time, and the
mean and standard error of the compensated processes (hhr.stats judges
them).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EventOverflow
from .model import JumpDistribution, ValidatedModel
from .rng import (
    BASE_EXPONENTIALS, EVENT_NORMALS, EXCESS_EXPONENTIALS, MARKS, STAGE_NORMALS, path_rng,
    stream_index,
)
from .stats import mean_se

__all__ = [
    "HawkesPath",
    "EventTable",
    "chunks",
    "draw_events",
    "stage_normals",
    "event_normals",
    "simulate_events",
    "simulate_hawkes_batch",
    "expected_intensity",
    "expected_events",
    "lambda_at",
    "n_at",
    "l_at",
    "compensator",
    "martingale_residual_test",
    "lambda_after",
]

_EVENT_CAP = 1_000_000  # events a path may hold before EventOverflow
_CHUNK = 8192  # paths per chunk, the unit of the random streams (see rng)
MIN_RESIDUAL_PATHS = 1000  # paths martingale_residual_test needs at least


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

    @property
    def rank(self) -> np.ndarray:
        """The index of each event among its path's events."""
        return np.arange(self.times.size) - self.offsets[self.path]

    def head(self, n: int) -> EventTable:
        """The table of the first n paths."""
        return self.rows(0, n)

    def rows(self, lo: int, hi: int) -> EventTable:
        """The table of paths lo to hi - 1, renumbered from 0."""
        a, b = self.offsets[lo], self.offsets[hi]
        return EventTable(self.times[a:b], self.marks[a:b], self.offsets[lo:hi + 1] - a)

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


def _stream(seed, chunk, kind, j=0) -> np.random.Generator:
    """Generator of one kind of draw of a chunk, for event iteration j (see rng)."""
    return path_rng(seed, stream_index(chunk, kind, j))


def _invert_lockstep(seed, chunk, n, lambda0, alpha, beta, horizon):
    """Exact event times of the n paths of a chunk at once, by inversion.

    With x = lambda(t+) - lambda0, the excess left by the events so far,
    the wait to the next event is min(E0 / lambda0, -log1p(-beta E1 / x) /
    beta), the second term counting only where beta E1 < x: beyond that the
    excess decays away before its own event.  Iteration j draws the unit
    exponentials E0 and E1 for each path still live, in path order, from
    the chunk's iteration-j streams; a path whose event falls past the
    horizon leaves, and every other gets its (j + 1)-th event, with x
    decayed over the wait and raised by alpha.  Returns (times, counts):
    the events ordered by path, then by time.
    """
    live = np.arange(n)
    t = np.zeros(n)
    x = np.zeros(n)
    hit_path, hit_time = [], []
    j = 0  # events each live path holds
    while live.size:
        if j > _EVENT_CAP:
            raise EventOverflow(
                f"path exceeded {_EVENT_CAP} events; raise the cap only if intended"
            )
        e0 = _stream(seed, chunk, BASE_EXPONENTIALS, j).standard_exponential(live.size)
        e1 = _stream(seed, chunk, EXCESS_EXPONENTIALS, j).standard_exponential(live.size)
        wait = e0 / lambda0
        reach = beta * e1 < x
        wait[reach] = np.minimum(wait[reach], -np.log1p(-beta * e1[reach] / x[reach]) / beta)
        t = t + wait
        inside = t <= horizon
        if not inside.all():
            live, t, x, wait = (v[inside] for v in (live, t, x, wait))
        hit_path.append(live)
        hit_time.append(t)
        x = x * np.exp(-beta * wait) + alpha
        j += 1
    paths = np.concatenate(hit_path)
    times = np.concatenate(hit_time)[np.argsort(paths, kind="stable")]
    return times, np.bincount(paths, minlength=n)


def draw_events(seed, chunk, n, p, dist: JumpDistribution) -> EventTable:
    """Event table of the n paths of chunk `chunk` (paths chunk * _CHUNK
    onward) under the model parameters p: drawn in lockstep, then the
    marks drawn in one call, in table order."""
    times, count = _invert_lockstep(seed, chunk, n, p.lambda0, p.alpha, p.beta, p.T)
    marks = dist.sample(_stream(seed, chunk, MARKS), times.size)
    return EventTable.from_counts(times, marks, count)


def stage_normals(seed, chunk) -> np.random.Generator:
    """The stream of the standard normals of the first diffusion stage of
    each step (see sde) of a chunk's paths.

    It is drawn path by path in order, each path's (2, n_steps) normals,
    the stock's then the variance's.  Sequential draws from one Generator
    continue its stream, so drawing it in tiles of paths gives the numbers
    of one draw for the whole chunk.
    """
    return _stream(seed, chunk, STAGE_NORMALS)


def event_normals(seed, chunk, n_events) -> np.ndarray:
    """The (n_events, 2) standard normals of the diffusion stage after each
    event of a chunk, the stock's then the variance's, in table order."""
    return _stream(seed, chunk, EVENT_NORMALS).standard_normal((n_events, 2))


def simulate_events(
    model: ValidatedModel, dist: JumpDistribution, n_paths: int, seed: int
) -> EventTable:
    """Exact-law event table of n_paths independent paths on [0, T], drawn
    chunk by chunk from the run's streams (see rng); path i's events depend
    on the seed and the paths of its chunk up to i only."""
    return EventTable.concat([
        draw_events(seed, c, n, model.params, dist) for c, n in chunks(n_paths)
    ])


def simulate_hawkes_batch(model, dist, n_paths, seed) -> list[HawkesPath]:
    """Per-path view of simulate_events."""
    # kept only because perfbench/layers.py iterates it
    table = simulate_events(model, dist, n_paths, seed)
    cut = table.offsets[1:-1]
    return list(map(HawkesPath, np.split(table.times, cut), np.split(table.marks, cut)))


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


def martingale_residual_test(
    model: ValidatedModel, table: EventTable, times, mean_j: float
) -> list[ResidualRow]:
    """Sample mean and standard error of N_t - Lambda^N_t and L_t - Lambda^L_t.

    Both residuals have zero expectation; a caller judges each row's mean
    against its standard error with hhr.stats.budget.
    """
    if table.counts.size < MIN_RESIDUAL_PATHS:
        raise ValueError(f"need at least {MIN_RESIDUAL_PATHS} paths for a meaningful residual test")
    rows = []
    for t in times:
        lam_n, lam_l = compensator(model, table, mean_j, t)
        for name, res in (("N", n_at(table, t) - lam_n), ("L", l_at(table, t) - lam_l)):
            rows.append(ResidualRow(t, name, *mean_se(res)))
    return rows


def lambda_after(model: ValidatedModel, table: EventTable) -> np.ndarray:
    """The closed-form intensity at each event, with its own jump."""
    p = model.params
    t, path = table.times, table.path
    acc = np.zeros(t.size)
    # the kernel of each earlier event of the path, `lag` rows up, earliest first
    for lag in reversed(range(int(table.counts.max(initial=0)))):
        same = path[lag:] == path[: t.size - lag]
        acc[lag:][same] += np.exp(-p.beta * (t[lag:] - t[: t.size - lag])[same])
    return p.lambda0 + p.alpha * acc
