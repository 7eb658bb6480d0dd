"""Equivalence premium of a guaranteed unit-linked endowment as the
guarantee level moves across the spot.

Usage: python scripts/premium_sweep.py [--grid 48x32x16x10]
"""

import argparse

import numpy as np

from hhr import markov, pide, thiele
from hhr.config import config_from_dict, default_config_dict, parse_grid


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=str, default="48x32x16x10")
    args = ap.parse_args()

    cfg = config_from_dict(default_config_dict())
    m = cfg.validated_model()
    sel, _ = cfg.selection(m)
    nt, nx, ny, nz = parse_grid(args.grid)
    st = pide.Stepper(pide.build_grid(m, m.T, nt, nx, ny, nz), m, sel, cfg.dist)

    print(f"{'guarantee':>10} {'premium rate':>13}")
    for g in np.linspace(0.6, 1.4, 5) * m.S0:
        pol = markov.endowment_guarantee(m.T, 0.02, float(g), death_benefit=False)
        pi = thiele.equivalence_premium(pol, m, st)
        print(f"{g:10.1f} {pi:13.4f}")


if __name__ == "__main__":
    main()
