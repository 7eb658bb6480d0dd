"""Simulation and exact compensators of the self-exciting event process.

The intensity solves d(lambda) = -beta*(lambda - lambda0)*dt + alpha*dN, so
between events it decays exponentially toward lambda0 and the decaying value
is itself a valid thinning bound.  Sampling is exact (Ogata thinning, no
time discretization), which keeps the compensator-martingale tests free of
scheme bias.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np
from scipy.integrate import solve_ivp

from .errors import EventOverflow
from .model import JumpDistribution, ValidatedModel
from .rng import path_rng

__all__ = [
    "HawkesPath",
    "EventTable",
    "draw_events",
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
_CHUNK = 8192  # paths thinned together by simulate_events


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

    def per_path(self, values) -> np.ndarray:
        """Sum of one value per event over each path's events, in time order."""
        return np.bincount(self.path, weights=values, minlength=self.counts.size)


def _thin_lockstep(rngs, lambda0, alpha, beta, horizon, max_events):
    """Exact thinning of every path at once, with the decaying-intensity bound.

    Path i draws only from rngs[i]: a block of 64 unit exponentials, then 64
    uniforms, and a fresh pair of blocks after every 64 candidates.  All
    live paths take the same candidate index together, with the float
    operations of the one-path algorithm (the decay factor through
    math.exp: numpy's SIMD exp rounds some arguments differently), so a
    path's events do not depend on the batch it is thinned in.
    Returns (times, counts): the events ordered by path, then by time.
    """
    n = len(rngs)
    exps = np.empty((n, _BLOCK))
    unis = np.empty((n, _BLOCK))
    count = np.zeros(n, dtype=np.int64)
    live = np.arange(n)
    t = np.zeros(n)
    lam = np.full(n, float(lambda0))  # intensity just after t; a bound while decaying
    hit_path, hit_time = [], []
    col = _BLOCK
    while live.size:
        if col == _BLOCK:
            # the draws and stream positions of exponential(size=64), uniform(size=64)
            for i in live.tolist():
                rngs[i].standard_exponential(out=exps[i])
                rngs[i].random(out=unis[i])
            col = 0
        wait = exps[live, col] / lam
        t = t + wait
        inside = t <= horizon
        if not inside.all():
            live, t, lam, wait = live[inside], t[inside], lam[inside], wait[inside]
        decay = np.fromiter(map(math.exp, (-beta * wait).tolist()), float, wait.size)
        lam_cand = lambda0 + (lam - lambda0) * decay
        accept = unis[live, col] * lam <= lam_cand
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


def draw_events(rngs, p, dist: JumpDistribution, max_events: int) -> EventTable:
    """Event table of the paths of `rngs` under the model parameters p: each
    path's thinning draws, then its marks, from its own generator."""
    times, count = _thin_lockstep(rngs, p.lambda0, p.alpha, p.beta, p.T, max_events)
    table = EventTable.from_counts(times, np.empty(times.size), count)
    for rng, lo, hi in zip(rngs, table.offsets[:-1].tolist(), table.offsets[1:].tolist()):
        table.marks[lo:hi] = dist.sample(rng, hi - lo)
    return table


def simulate_events(
    model: ValidatedModel, dist: JumpDistribution, n_paths: int, seed: int, *,
    max_events: int = DEFAULT_EVENT_CAP,
) -> EventTable:
    """Exact-law event table of n_paths independent paths on [0, T], path i
    drawn from the (seed, i) stream."""
    chunks = [range(lo, min(lo + _CHUNK, n_paths)) for lo in range(0, n_paths, _CHUNK)]
    return EventTable.concat([
        draw_events([path_rng(seed, i) for i in c], model.params, dist, max_events)
        for c in chunks
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


def lambda_at(model: ValidatedModel, table: EventTable, t: float) -> np.ndarray:
    """Intensity lambda_t of every path (cadlag: includes the jump of an event
    at t), lambda0 + alpha * sum_{t_i <= t} exp(-beta*(t - t_i))."""
    p = model.params
    dtm = t - table.times
    kernel = np.where(dtm >= 0.0, np.exp(-p.beta * np.maximum(dtm, 0.0)), 0.0)
    return p.lambda0 + p.alpha * table.per_path(kernel)


def n_at(table: EventTable, t: float) -> np.ndarray:
    """Counting value N_t of every path."""
    return np.bincount(table.path[table.times <= t], minlength=table.counts.size)


def l_at(table: EventTable, t: float) -> np.ndarray:
    """Compound value L_t of every path, the sum of its marks up to t."""
    return table.per_path(np.where(table.times <= t, table.marks, 0.0))


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
