import itertools
import math

import numpy as np
import pytest

from hhr import measure, model
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


@pytest.fixture(scope="session")
def desk_model():
    return model.validate(desk_params())


@pytest.fixture(scope="session")
def desk_dist():
    return model.ExponentialJump(2.0)


@pytest.fixture(scope="session")
def desk_selection(desk_model, desk_dist):
    sel, report = measure.select_measure(desk_model, desk_dist, fraction=0.8)
    return sel


@pytest.fixture(scope="session")
def desk_report(desk_model, desk_dist):
    return measure.a_bounds(desk_model, desk_dist)


def scalar_thin(blocks, lambda0, alpha, beta, horizon):
    """Reference: one path at a time, the thinning loop the lockstep thinner
    replaced, taking each block of 64 candidates as the next (exponentials,
    uniforms) pair of the iterator `blocks`.  Returns the event times and
    the number of candidates drawn."""
    times = []
    t = 0.0
    lam = lambda0
    ptr = 64
    n_cand = 0
    while True:
        if ptr == 64:
            exps, unis = next(blocks)
            ptr = 0
        wait = exps[ptr] / lam
        t = t + wait
        n_cand += 1
        if t > horizon:
            break
        lam_cand = lambda0 + (lam - lambda0) * math.exp(-beta * wait)
        accept = unis[ptr] * lam <= lam_cand
        ptr += 1
        if accept:
            times.append(t)
            lam = lam_cand + alpha
        else:
            lam = lam_cand
    return np.asarray(times), n_cand


def reference_draws(m, dist, n_paths, seed, n_steps=None, chunk=8192):
    """Reference: the draws of paths 0 .. n_paths - 1, chunk by chunk of
    `chunk` paths.  Chunk c draws each kind of number from the stream
    path_rng(seed, (c << 32) | (kind << 24) | round), kinds 0-4 being the
    thinning exponentials and uniforms (one stream per refill round), the
    marks, the stage normals and the event normals.  Its paths are thinned
    one at a time by scalar_thin, a path taking the next unused row of each
    round's blocks; the marks and the normals are split in path order.
    Returns one (times, marks, candidates) per path and, given n_steps,
    also its (2, n_steps) stage normals and (events, 2) event normals."""
    p = m.params
    out = []
    for c, lo in enumerate(range(0, n_paths, chunk)):
        n = min(chunk, n_paths - lo)

        def stream(kind, r=0):
            return path_rng(seed, (c << 32) | (kind << 24) | r)

        rounds = []  # per refill round: its blocks and the rows taken so far

        def blocks():
            for r in itertools.count():
                if r == len(rounds):
                    shape = (n, 64)
                    rounds.append([stream(0, r).standard_exponential(shape),
                                   stream(1, r).random(shape), 0])
                exps, unis, row = rounds[r]
                rounds[r][2] += 1
                yield exps[row], unis[row]

        thinned = [scalar_thin(blocks(), p.lambda0, p.alpha, p.beta, p.T) for _ in range(n)]
        counts = [times.size for times, _ in thinned]
        cut = np.cumsum(counts)[:-1]
        marks = np.split(dist.sample(stream(2), sum(counts)), cut)
        rows = [(times, mk, n_cand) for (times, n_cand), mk in zip(thinned, marks)]
        if n_steps is not None:
            z = stream(3).standard_normal((n, 2, n_steps))
            ez = np.split(stream(4).standard_normal((sum(counts), 2)), cut)
            rows = [row + (z[i], ez[i]) for i, row in enumerate(rows)]
        out += rows
    return out
