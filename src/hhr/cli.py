"""Command-line front end: admissible, simulate, price, reserve, verify."""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import pide, thiele
from .config import (
    RunConfig,
    config_from_dict,
    default_config_dict,
    load_config,
    parse_grid,
    read_json,
)
from .errors import HHRError
from .hawkes import write_event_csv
from .payoff import parse_payoff
from .sde import simulate
from .verification import run_verification


def _build_parser() -> argparse.ArgumentParser:
    # SUPPRESS keeps a subcommand's unset shared flags from clobbering values
    # parsed before the subcommand
    shared = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    shared.add_argument("--config", type=str, help="JSON run configuration")
    shared.add_argument("--seed", type=int, help="override run.seed")
    shared.add_argument("--out", type=str, help="output file or directory")

    ap = argparse.ArgumentParser(prog="hhr", description=__doc__, parents=[shared])
    sub = ap.add_subparsers(dest="command", required=True)

    sub.add_parser("admissible", parents=[shared], help="emit the admissibility report as JSON")

    sim = sub.add_parser("simulate", parents=[shared], help="dump simulated trajectories as CSV")
    sim.add_argument("--measure", choices=("P", "Q"), default="P")
    sim.add_argument("--a", type=float, default=None, help="override the tilt parameter")
    sim.add_argument("--paths", type=int, default=16)
    sim.add_argument("--steps", type=int, default=None)
    sim.add_argument("--events-out", type=str, default=None, help="also dump the event log CSV")

    pr = sub.add_parser("price", parents=[shared], help="solve the pricing equation, dump the t=0 slice")
    pr.add_argument("--payoff", type=str, required=True, help="constant[:c] | linear[:c] | guarantee:G")
    pr.add_argument("--maturity", type=float, default=None)
    pr.add_argument("--a", type=float, default=None)
    pr.add_argument("--grid", type=str, default=None, help="TxXxYxZ")

    rs = sub.add_parser("reserve", parents=[shared], help="compute reserves, dump the t=0 slice")
    rs.add_argument("--policy", type=str, default=None, help="JSON file with a policy section")
    rs.add_argument("--a", type=float, default=None)
    rs.add_argument("--method", choices=("pide", "quadrature", "both"), default="both")
    rs.add_argument("--grid", type=str, default=None)

    sub.add_parser("verify", parents=[shared], help="run the verification suite")
    return ap


def _parse(argv=None):
    args = _build_parser().parse_args(argv)
    for name in ("config", "seed", "out"):
        if not hasattr(args, name):
            setattr(args, name, None)
    return args


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else config_from_dict(default_config_dict())
    run = cfg.run
    cfg.run = replace(
        run,
        seed=args.seed if args.seed is not None else run.seed,
        out_dir=args.out or run.out_dir,
    )
    return cfg


def _reprs(values) -> list[str]:
    """repr of every element as a Python float, in C order."""
    return [repr(v) for v in np.ravel(values).tolist()]


def _cells(grid) -> list[tuple[str, str, str]]:
    """(x, y, z) repr strings of every grid node, in C order of a layer."""
    return list(itertools.product(_reprs(grid.x), _reprs(grid.y), _reprs(grid.z)))


def _cmd_admissible(cfg, args) -> int:
    model = cfg.validated_model()
    from .measure import a_bounds

    rep = a_bounds(
        model, cfg.dist, epsilon1=cfg.measure.epsilon1, epsilon2=cfg.measure.epsilon2
    )
    text = json.dumps(asdict(rep), sort_keys=True, indent=2)
    if args.out:
        path = Path(args.out)
        if path.is_dir() or not path.suffix:
            path.mkdir(parents=True, exist_ok=True)
            path = path / "admissible.json"
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def _cmd_simulate(cfg, args) -> int:
    model = cfg.validated_model()
    sel, _ = cfg.selection(model, a=args.a)
    steps = args.steps or cfg.run.steps
    res = simulate(
        model, cfg.dist, args.measure, args.paths, steps, cfg.run.seed,
        selection=sel, record_full=True,
    )
    out = args.out or "paths.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["path_id", "t", "S", "v", "lambda", "N", "L", "X"])
        for pid, b in enumerate(res.bundles):
            for j in range(len(b.time_grid)):
                w.writerow(
                    [pid, repr(float(b.time_grid[j])), repr(float(b.S[j])),
                     repr(float(b.v[j])), repr(float(b.lam[j])), int(b.N[j]),
                     repr(float(b.L[j])), repr(float(b.X[j]))]
                )
    print(f"wrote {out} ({len(res.bundles)} paths, measure {res.measure_tag})")
    if args.events_out:
        with open(args.events_out, "w", newline="") as fh:
            write_event_csv(model, res.events, fh)
        print(f"wrote {args.events_out}")
    return 0


def _cmd_price(cfg, args) -> int:
    model = cfg.validated_model()
    sel, _ = cfg.selection(model, a=args.a)
    pay = parse_payoff(args.payoff)
    maturity = args.maturity if args.maturity is not None else model.T
    nt, nx, ny, nz = parse_grid(args.grid) if args.grid else cfg.run.grid
    grid = pide.build_grid(model, maturity, nt, nx, ny, nz)
    sol = pide.solve_price_pide(pay, maturity, model, sel, cfg.dist, grid)
    out = args.out or "price.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["x", "y", "z", "U"])
        w.writerows((*cell, u) for cell, u in zip(_cells(grid), _reprs(sol.values[0])))
    anchor = sol.at(0, model.S0, model.v0, model.lambda0)
    print(f"wrote {out}; price at (0, S0, v0, lambda0) = {anchor:.6f}")
    return 0


def _cmd_reserve(cfg, args) -> int:
    model = cfg.validated_model()
    sel, _ = cfg.selection(model, a=args.a)
    if args.policy:
        doc = read_json(args.policy, "policy")
        if isinstance(doc, dict):  # a config file, or its policy section alone
            doc = doc.get("policy", doc)
        pol_cfg = config_from_dict({"model": cfg.raw["model"], "policy": doc})
        policy = pol_cfg.policy
    else:
        policy = cfg.policy
    if policy is None:
        print("no policy: give --policy or add a policy section to the config", file=sys.stderr)
        return 2
    nt, nx, ny, nz = parse_grid(args.grid) if args.grid else cfg.run.grid
    grid = pide.build_grid(model, policy.horizon, nt, nx, ny, nz)
    layers = {}
    if args.method in ("pide", "both"):
        surf = thiele.solve_thiele_pide(policy, model, sel, cfg.dist, grid)
        layers["pide"] = {st: surf.values[st][0] for st in policy.states}
        for st in policy.states:
            gz = float(np.max(np.abs(surf.z_gradient(st))))
            print(f"diagnostic max |dV/dz| ({st}): {gz:.6g}")
    if args.method in ("quadrature", "both"):
        quad = thiele.reserve_quadrature(policy, model, sel, cfg.dist, grid, 0.0)
        layers["quadrature"] = quad.values
    primary = layers.get("pide") or layers["quadrature"]
    out = args.out or "reserve.csv"
    with open(out, "w", newline="") as fh:
        w = csv.writer(fh)
        header = ["state", "t", "x", "y", "z", "V"]
        if args.method == "both":
            header.append("rel_diff")
        w.writerow(header)
        cells = _cells(grid)
        for st in policy.states:
            cols = [_reprs(primary[st])]
            if args.method == "both":
                a_val, b_val = layers["pide"][st], layers["quadrature"][st]
                cols.append(_reprs(np.abs(a_val - b_val) / np.maximum(np.abs(b_val), 1e-12)))
            w.writerows((st, 0.0, *cell, *vals) for cell, *vals in zip(cells, *cols))
    print(f"wrote {out} (method {args.method})")
    return 0


def _cmd_verify(cfg, args) -> int:
    report = run_verification(cfg)
    print(report.table())
    out_dir = Path(args.out or cfg.run.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    path = out_dir / "verification.json"
    path.write_text(report.to_json() + "\n")
    print(f"wrote {path}")
    return 0 if report.passed else 1


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        cfg = _load(args)
        if args.command == "admissible":
            return _cmd_admissible(cfg, args)
        if args.command == "simulate":
            return _cmd_simulate(cfg, args)
        if args.command == "price":
            return _cmd_price(cfg, args)
        if args.command == "reserve":
            return _cmd_reserve(cfg, args)
        if args.command == "verify":
            return _cmd_verify(cfg, args)
        raise AssertionError(args.command)
    except HHRError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
