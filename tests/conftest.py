import itertools

import numpy as np
import pytest

from hhr import measure, model, pide
from hhr.rng import path_rng


def desk_params(**overrides):
    base = dict(
        lambda0=1.0,
        alpha=0.5,
        beta=1.0,
        S0=100.0,
        r=0.03,
        rho=-0.5,
        v0=0.2,
        kappa=2.0,
        vbar=0.3,
        sigma=0.5,
        eta=0.1,
        T=1.0,
        mu=model.PiecewiseFlat.from_pairs([[0.0, 0.05], [0.5, 0.04]]),
    )
    base.update(overrides)
    return model.ModelParams(**base)


def bits(a):
    """a's float64s as their bit patterns, for comparisons that tell -0.0 from 0.0."""
    return np.ascontiguousarray(a).view(np.uint64)


def count_stepper_inits(monkeypatch):
    """The pide.Steppers built from here on: pide.Stepper.__init__ wrapped to
    record each, until the monkeypatch is undone."""
    built = []
    init = pide.Stepper.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(pide.Stepper, "__init__", counted)
    return built


@pytest.fixture(scope="session")
def desk_model():
    return model.validate(desk_params())


@pytest.fixture(scope="session")
def desk_dist():
    return model.ExponentialJump(2.0)


@pytest.fixture(scope="session")
def desk_selection(desk_model, desk_dist):
    sel, report = measure.select_measure(desk_model, desk_dist, measure.MeasureConfig())
    return sel


@pytest.fixture(scope="session")
def desk_report(desk_model, desk_dist):
    return measure.a_bounds(desk_model, desk_dist, measure.MeasureConfig())


def scalar_invert(draw, lambda0, alpha, beta, horizon):
    """Reference: one path by inversion, the loop that the lockstep sampler
    runs over all paths of a chunk, with numpy's exp and log1p on
    one-element arrays.  draw(j) gives the path's unit exponentials (E0,
    E1) of event iteration j, each a one-element array.  Returns the event
    times."""
    times = []
    t = x = np.zeros(1)
    for j in itertools.count():
        e0, e1 = draw(j)
        wait = e0 / lambda0
        if beta * e1 < x:
            wait = np.minimum(wait, -np.log1p(-beta * e1 / x) / beta)
        t = t + wait
        if t > horizon:
            return np.reshape(times, -1)
        times.append(t)
        x = x * np.exp(-beta * wait) + alpha


def reference_draws(m, dist, n_paths, seed, n_steps=None, chunk=8192):
    """Reference: the draws of paths 0 .. n_paths - 1, chunk by chunk of
    `chunk` paths.  Chunk c draws each kind of number from the stream
    path_rng(seed, (c << 32) | (kind << 24) | j), kinds 0-4 being the unit
    exponentials E1 and E0 of each event (one stream each per event
    iteration j), the marks, the stage normals and the event normals.  Its
    paths are drawn one at a time by scalar_invert, a path taking the next
    unused number of each iteration's streams; the marks and the normals
    are split in path order.  Returns one (times, marks, dropped) per path, dropped counting
    the earlier paths of its chunk that had left before the path's last
    iteration (its index in the chunk less its row there), and, given
    n_steps, also its (2, n_steps) stage normals and (events, 2) event
    normals."""
    p = m.params
    out = []
    for c, lo in enumerate(range(0, n_paths, chunk)):
        n = min(chunk, n_paths - lo)

        def stream(kind, j=0):
            return path_rng(seed, (c << 32) | (kind << 24) | j)

        iterations = []  # per event iteration: its two streams and the rows taken

        def draw(j):
            if j == len(iterations):
                iterations.append([stream(0, j), stream(1, j), 0])
            iterations[j][2] += 1
            return (iterations[j][1].standard_exponential(1),
                    iterations[j][0].standard_exponential(1))

        times, dropped = [], []
        for i in range(n):
            times.append(scalar_invert(draw, p.lambda0, p.alpha, p.beta, p.T))
            dropped.append(i + 1 - iterations[times[-1].size][2])
        counts = [t.size for t in times]
        cut = np.cumsum(counts)[:-1]
        marks = np.split(dist.sample(stream(2), sum(counts)), cut)
        rows = list(zip(times, marks, dropped))
        if n_steps is not None:
            z = stream(3).standard_normal((n, 2, n_steps))
            ez = np.split(stream(4).standard_normal((sum(counts), 2)), cut)
            rows = [row + (z[i], ez[i]) for i, row in enumerate(rows)]
        out += rows
    return out
