"""Residuals of the compensated event process across parameter sets.

For each (lambda0, alpha, beta) the compensated counting and compound
processes should average to zero at every probe time; the table below shows
the sample means against their 3-standard-error bands, a row ok when its
mean lies inside (hhr.stats.budget at most 1).

Usage: python scripts/compensator_study.py [--paths 20000] [--seed 7]
"""

import argparse

from hhr import hawkes, model
from hhr.stats import budget

CASES = [
    dict(lambda0=1.0, alpha=0.5, beta=1.0),
    dict(lambda0=1.0, alpha=0.0, beta=1.0),
    dict(lambda0=2.0, alpha=0.2, beta=0.8),
    dict(lambda0=0.5, alpha=0.9, beta=2.0),
    dict(lambda0=3.0, alpha=1.5, beta=4.0),
]


def verdict(row) -> str:
    """The ok column of a residual row: yes when its mean is within 3 se."""
    return "yes" if budget(abs(row.mean), row.se) <= 1.0 else "no"


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--paths", type=int, default=20_000)
    ap.add_argument("--seed", type=int, default=7)
    args = ap.parse_args()

    dist = model.ExponentialJump(2.0)
    print(f"{'lambda0':>8} {'alpha':>6} {'beta':>5} {'proc':>4} {'t':>5} "
          f"{'mean':>10} {'3se':>10} {'ok':>3}")
    for case in CASES:
        m = model.validate(
            model.ModelParams(
                S0=100.0, r=0.03, rho=-0.5, v0=0.2, kappa=2.0, vbar=0.3,
                sigma=0.5, eta=0.1, T=1.0, **case,
            )
        )
        table = hawkes.simulate_events(m, dist, args.paths, args.seed)
        rows = hawkes.martingale_residual_test(m, table, [0.5, 1.0], dist.mean)
        for r in rows:
            print(
                f"{case['lambda0']:8.2f} {case['alpha']:6.2f} {case['beta']:5.2f} "
                f"{r.process:>4} {r.t:5.2f} {r.mean:10.5f} {3 * r.se:10.5f} "
                f"{verdict(r):>3}"
            )


if __name__ == "__main__":
    main()
