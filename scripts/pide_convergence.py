"""Grid-refinement study of the guarantee price against a fixed Monte Carlo
reference.

Solves the pricing equation for max(G, S_T) on a sequence of grids and
reports the anchor-point price next to a large simulated estimate, showing
how the discretization error settles inside the statistical band.

Usage: python scripts/pide_convergence.py [--paths 200000] [--seed 11]
"""

import argparse
import math
import time

import numpy as np

from hhr import payoff, pide
from hhr.config import config_from_dict, default_config_dict
from hhr.sde import simulate
from hhr.stats import mean_se

GRIDS = [
    (16, 12, 8, 6),
    (32, 24, 12, 8),
    (64, 48, 24, 16),
    (96, 64, 32, 16),
]


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=200_000)
    ap.add_argument("--seed", type=int, default=11)
    args = ap.parse_args()

    cfg = config_from_dict(default_config_dict())
    m = cfg.validated_model()
    sel, _ = cfg.selection(m)
    g = m.S0 * math.exp(m.r * m.T)

    sim = simulate(m, cfg.dist, "Q", args.paths, 256, args.seed, selection=sel)
    pay = math.exp(-m.r * m.T) * np.maximum(g, sim.terminal["S"])
    mc, se = mean_se(pay)
    print(f"simulation reference: {mc:.4f} +- {se:.4f}  ({args.paths} paths)")
    print(f"{'grid':>14} {'price':>10} {'diff':>9} {'rel':>8} {'sec':>6}")
    for nt, nx, ny, nz in GRIDS:
        t0 = time.perf_counter()
        grid = pide.build_grid(m, m.T, nt, nx, ny, nz)
        sol = pide.solve_price_pide(payoff.guarantee(g), m.T, m, sel, cfg.dist, grid)
        u0 = sol.at(0, m.S0, m.v0, m.lambda0)
        dt = time.perf_counter() - t0
        print(
            f"{nt:>3}x{nx}x{ny}x{nz:<3} {u0:10.4f} {u0 - mc:+9.4f} "
            f"{abs(u0 - mc) / mc:8.4%} {dt:6.2f}"
        )


if __name__ == "__main__":
    main()
