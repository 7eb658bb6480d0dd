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
    "simulate_hawkes",
    "simulate_hawkes_batch",
    "mean_intensity_ode",
    "expected_intensity",
    "expected_events",
    "compensator",
    "martingale_residual_test",
    "write_event_csv",
]

DEFAULT_EVENT_CAP = 1_000_000
_BLOCK = 64  # thinning candidates drawn per refill
_CHUNK = 8192  # paths thinned together by simulate_hawkes_batch


@dataclass(frozen=True)
class HawkesPath:
    """One exact path: ordered event times in [0, T] with their marks."""

    lambda0: float
    alpha: float
    beta: float
    horizon: float
    event_times: np.ndarray
    marks: np.ndarray

    def lambda_at(self, t):
        """Intensity lambda_t (cadlag: includes the jump of an event at t)."""
        t = np.asarray(t, dtype=float)
        if self.event_times.size == 0:
            return np.full_like(t, self.lambda0, dtype=float)
        dtm = t[..., None] - self.event_times
        contrib = np.where(dtm >= 0.0, np.exp(-self.beta * np.maximum(dtm, 0.0)), 0.0)
        return self.lambda0 + self.alpha * contrib.sum(axis=-1)

    def n_at(self, t):
        """Counting value N_t."""
        return np.searchsorted(self.event_times, np.asarray(t, dtype=float), side="right")

    def l_at(self, t):
        """Compound value L_t = sum of marks up to t."""
        cum = np.concatenate([[0.0], np.cumsum(self.marks)])
        return cum[self.n_at(t)]


@dataclass(frozen=True)
class EventTable:
    """Events of a batch of paths in CSR form: path i owns the ordered
    times[offsets[i]:offsets[i + 1]] and the marks at the same positions."""

    times: np.ndarray
    marks: np.ndarray
    offsets: np.ndarray

    @property
    def counts(self) -> np.ndarray:
        return np.diff(self.offsets)


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
    offsets = np.zeros(len(rngs) + 1, dtype=np.int64)
    np.cumsum(count, out=offsets[1:])
    marks = np.empty(times.size)
    for rng, lo, hi in zip(rngs, offsets[:-1].tolist(), offsets[1:].tolist()):
        marks[lo:hi] = dist.sample(rng, hi - lo)
    return EventTable(times, marks, offsets)


def _hawkes_paths(p, table: EventTable) -> list[HawkesPath]:
    off = table.offsets.tolist()
    return [
        HawkesPath(p.lambda0, p.alpha, p.beta, p.T, table.times[lo:hi], table.marks[lo:hi])
        for lo, hi in zip(off[:-1], off[1:])
    ]


def simulate_hawkes(
    model: ValidatedModel,
    dist: JumpDistribution,
    seed: int,
    *,
    path_index: int = 0,
    max_events: int = DEFAULT_EVENT_CAP,
    rng: np.random.Generator | None = None,
) -> HawkesPath:
    """Exact-law sample of the event process on [0, T], deterministic in seed."""
    p = model.params
    if rng is None:
        rng = path_rng(seed, path_index)
    return _hawkes_paths(p, draw_events([rng], p, dist, max_events))[0]


def simulate_hawkes_batch(
    model: ValidatedModel,
    dist: JumpDistribution,
    n_paths: int,
    seed: int,
    *,
    max_events: int = DEFAULT_EVENT_CAP,
) -> list[HawkesPath]:
    """n_paths independent paths, path i drawn from the (seed, i) stream."""
    p = model.params
    paths = []
    for lo in range(0, n_paths, _CHUNK):
        rngs = [path_rng(seed, i) for i in range(lo, min(lo + _CHUNK, n_paths))]
        paths += _hawkes_paths(p, draw_events(rngs, p, dist, max_events))
    return paths


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
    if p.alpha == p.beta:
        return p.lambda0 * (1.0 + p.beta * t)
    d = p.beta - p.alpha
    return p.lambda0 * (p.beta - p.alpha * np.exp(-d * t)) / d


def expected_events(model: ValidatedModel, t) -> np.ndarray:
    """Closed form E[N_t], the time integral of expected_intensity."""
    p = model.params
    t = np.asarray(t, dtype=float)
    d = p.beta - p.alpha
    return p.lambda0 * (p.beta * t + p.alpha / d * np.expm1(-d * t)) / d


def compensator(path: HawkesPath, mean_j: float, t: float) -> tuple[float, float]:
    """(Lambda^N_t, Lambda^L_t) in closed form, no quadrature.

    Integrating the exponential kernel event by event gives
    Lambda^N_t = lambda0*t + (alpha/beta) * sum_{t_i <= t} (1 - exp(-beta*(t-t_i))).
    The compound compensator is E[J] times the counting one.
    """
    if t > path.horizon:
        raise ValueError(f"t={t} beyond simulated horizon {path.horizon}")
    past = path.event_times[path.event_times <= t]
    lam_n = path.lambda0 * t
    if past.size and path.alpha > 0:
        lam_n += (path.alpha / path.beta) * float(
            np.sum(-np.expm1(-path.beta * (t - past)))
        )
    return lam_n, mean_j * lam_n


@dataclass(frozen=True)
class ResidualRow:
    t: float
    process: str
    mean: float
    se: float
    flagged: bool


def martingale_residual_test(
    paths: list[HawkesPath], times, mean_j: float
) -> list[ResidualRow]:
    """Sample mean and standard error of N_t - Lambda^N_t and L_t - Lambda^L_t.

    Both residuals have zero expectation; a row is flagged when its mean falls
    outside 3 standard errors.
    """
    if len(paths) < 1000:
        raise ValueError("need at least 1000 paths for a meaningful residual test")
    rows = []
    n = len(paths)
    for t in times:
        res_n = np.empty(n)
        res_l = np.empty(n)
        for i, p in enumerate(paths):
            lam_n, lam_l = compensator(p, mean_j, t)
            res_n[i] = p.n_at(t) - lam_n
            res_l[i] = p.l_at(t) - lam_l
        for name, res in (("N", res_n), ("L", res_l)):
            mean = float(res.mean())
            se = float(res.std(ddof=1) / math.sqrt(n)) if n > 1 else 0.0
            rows.append(ResidualRow(t, name, mean, se, abs(mean) > 3 * se > 0))
    return rows


def write_event_csv(paths: list[HawkesPath], fileobj) -> None:
    """Dump events as path_id, event_index, time, mark, lambda_after."""
    w = csv.writer(fileobj)
    w.writerow(["path_id", "event_index", "time", "mark", "lambda_after"])
    for pid, p in enumerate(paths):
        lam_after = p.lambda_at(p.event_times) if p.event_times.size else []
        for k, (t, m) in enumerate(zip(p.event_times, p.marks)):
            w.writerow([pid, k, repr(float(t)), repr(float(m)), repr(float(lam_after[k]))])
