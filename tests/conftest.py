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


def scalar_thin(rng, lambda0, alpha, beta, horizon):
    """Reference: one path at a time, the thinning loop the lockstep thinner
    replaced.  Returns the event times and the number of candidates drawn."""
    times = []
    t = 0.0
    lam = lambda0
    exps = rng.exponential(size=64)
    unis = rng.uniform(size=64)
    ptr = 0
    n_cand = 0
    while True:
        if ptr == 64:
            exps = rng.exponential(size=64)
            unis = rng.uniform(size=64)
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


def reference_draws(m, dist, paths, seed, n_steps=None):
    """Reference: each path's draws from its own generator path_rng(seed, i),
    one path at a time: (times, marks, candidates) and, given n_steps, then
    the stock and the variance normals of its n_steps + len(times) stages."""
    p = m.params
    out = []
    for i in paths:
        rng = path_rng(seed, i)
        times, n_cand = scalar_thin(rng, p.lambda0, p.alpha, p.beta, p.T)
        row = (times, dist.sample(rng, times.size), n_cand)
        if n_steps is not None:
            zb = rng.standard_normal(n_steps + times.size)
            zw = rng.standard_normal(n_steps + times.size)
            row += (zb, zw)
        out.append(row)
    return out
