"""Command-line front end: admissible, simulate, price, reserve, verify."""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import pide, thiele
from .config import (
    RunConfig,
    config_from_dict,
    default_config_dict,
    load_config,
    read_json,
)
from .errors import ConfigError, HHRError
from .hawkes import lambda_after
from .measure import a_bounds
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
    sim.add_argument("--steps", type=int, default=None, help="override run.steps")
    sim.add_argument("--events-out", type=str, default=None, help="also dump the event log CSV")

    pr = sub.add_parser("price", parents=[shared], help="solve the pricing equation, dump the t=0 slice")
    pr.add_argument("--payoff", type=str, required=True, help="constant[:c] | linear[:c] | guarantee:G")
    pr.add_argument("--maturity", type=float, default=None)
    pr.add_argument("--a", type=float, default=None)
    pr.add_argument("--grid", type=str, default=None, help="TxXxYxZ, override run.grid")

    rs = sub.add_parser("reserve", parents=[shared], help="compute reserves, dump the t=0 slice")
    rs.add_argument("--policy", type=str, default=None, help="JSON file with a policy section")
    rs.add_argument("--a", type=float, default=None)
    rs.add_argument("--method", choices=("pide", "quadrature", "both"), default="both")
    rs.add_argument("--grid", type=str, default=None)

    sub.add_parser("verify", parents=[shared], help="run the verification suite")
    return ap


def _parse(argv=None):
    args = _build_parser().parse_args(argv)
    for name in ("config", "seed", "out", "grid", "steps", "a"):
        if not hasattr(args, name):
            setattr(args, name, None)
    return args


def _load(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else config_from_dict(default_config_dict())
    flags = {"seed": args.seed, "out_dir": args.out, "grid": args.grid, "steps": args.steps}
    return cfg.with_flags({k: v for k, v in flags.items() if v is not None}, args.a)


def _out_file(path):
    """path, checked before any work as a file to write: its directory
    must exist and it must not be a directory itself."""
    p = Path(path)
    if p.is_dir() or not p.parent.is_dir():
        why = "it is a directory" if p.is_dir() else f"no directory {p.parent}"
        raise ConfigError(f"cannot write {path}: {why}")
    return path


def _out_dir(path) -> Path:
    """path, checked before any work as a directory to make with its
    parents: it, or else its nearest existing parent, must be a directory."""
    path = Path(path)
    first = next(d for d in (path, *path.parents) if d.exists())
    if not first.is_dir():
        raise ConfigError(f"cannot make directory {path}: {first} is not a directory")
    return path


def _reprs(values) -> list[str]:
    """repr of every element as a Python float, in C order."""
    return [repr(v) for v in np.ravel(values).tolist()]


def _field(value) -> str:
    """csv.writer's text for value as one field of a row of several."""
    buf = io.StringIO()
    csv.writer(buf).writerow([value, ""])
    return buf.getvalue()[:-3]  # drop the empty field's "," and the "\r\n"


def _write_csv(path, header, blocks) -> None:
    """Write header and then the rows of every block, byte for byte as
    csv.writer would.  A block is a tuple of columns of field text, one
    string per row (itertools.repeat for a constant); its rows are joined
    into one string, so no file-sized string is built.  Fields are written
    as given: a finite float's repr and an int need no quoting, other text
    goes through _field."""
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for cols in blocks:
            fh.write("".join([",".join(row) + "\r\n" for row in zip(*cols)]))


def _grid_blocks(grid, lead, *layers):
    """One block per x index of a layer's rows: the constant fields lead,
    then x, y, z and each layer's value at the node, in C order."""
    yz = [f"{y},{z}" for y, z in itertools.product(_reprs(grid.y), _reprs(grid.z))]
    consts = [itertools.repeat(f) for f in lead]
    for i, x in enumerate(_reprs(grid.x)):
        yield (*consts, itertools.repeat(x), yz, *(_reprs(a[i]) for a in layers))


def _cmd_admissible(cfg, args) -> int:
    path = args.out and Path(args.out)
    if path:
        if path.is_dir() or not path.suffix:
            path = _out_dir(path) / "admissible.json"
        else:
            _out_file(path)
    rep = a_bounds(cfg.validated_model(), cfg.dist, cfg.measure)
    text = json.dumps(asdict(rep), sort_keys=True, indent=2)
    if path:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote {path}")
    else:
        print(text)
    return 0


def _cmd_simulate(cfg, args) -> int:
    out = _out_file(args.out or "paths.csv")
    if args.events_out:
        _out_file(args.events_out)
    model = cfg.validated_model()
    sel, _ = cfg.selection(model)
    res = simulate(
        model, cfg.dist, args.measure, args.paths, cfg.run.steps, cfg.run.seed,
        selection=sel, record_full=True,
    )
    _write_csv(
        out, ["path_id", "t", "S", "v", "lambda", "N", "L", "X"],
        ((itertools.repeat(str(pid)), _reprs(b.time_grid), _reprs(b.S), _reprs(b.v),
          _reprs(b.lam), [str(n) for n in b.N.astype(int).tolist()], _reprs(b.L), _reprs(b.X))
         for pid, b in enumerate(res.bundles)),
    )
    print(f"wrote {out} ({len(res.bundles)} paths, measure {res.measure_tag})")
    if args.events_out:
        ev = res.events
        _write_csv(
            args.events_out, ["path_id", "event_index", "time", "mark", "lambda_after"],
            [([str(i) for i in ev.path.tolist()], [str(k) for k in ev.rank.tolist()],
              _reprs(ev.times), _reprs(ev.marks), _reprs(lambda_after(model, ev)))],
        )
        print(f"wrote {args.events_out}")
    return 0


def _cmd_price(cfg, args) -> int:
    out = _out_file(args.out or "price.csv")
    model = cfg.validated_model()
    sel, _ = cfg.selection(model)
    pay = parse_payoff(args.payoff)
    maturity = args.maturity if args.maturity is not None else model.T
    grid = pide.build_grid(model, maturity, *cfg.run.grid)
    sol = pide.solve_price_pide(pay, maturity, model, sel, cfg.dist, grid)
    _write_csv(out, ["x", "y", "z", "U"], _grid_blocks(grid, (), sol.values[0]))
    anchor = sol.at(0, model.S0, model.v0, model.lambda0)
    print(f"wrote {out}; price at (0, S0, v0, lambda0) = {anchor:.6f}")
    return 0


def _cmd_reserve(cfg, args) -> int:
    out = _out_file(args.out or "reserve.csv")
    model = cfg.validated_model()
    sel, _ = cfg.selection(model)
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
    grid = pide.build_grid(model, policy.horizon, *cfg.run.grid)
    stepper = pide.Stepper(grid, model, sel, cfg.dist)  # both routes march through it
    layers = {}
    if args.method in ("pide", "both"):
        surf = thiele.solve_thiele_pide(policy, stepper)
        layers["pide"] = {st: surf.values[st][0] for st in policy.states}
        for st in policy.states:
            gz = float(np.max(np.abs(surf.z_gradient(st))))
            print(f"diagnostic max |dV/dz| ({st}): {gz:.6g}")
    if args.method in ("quadrature", "both"):
        quad = thiele.reserve_quadrature(policy, stepper, 0.0)
        layers["quadrature"] = quad.values
    primary = layers.get("pide") or layers["quadrature"]
    header = ["state", "t", "x", "y", "z", "V"]
    if args.method == "both":
        header.append("rel_diff")

    def blocks():
        for st in policy.states:
            cols = [primary[st]]
            if args.method == "both":
                a_val, b_val = layers["pide"][st], layers["quadrature"][st]
                cols.append(np.abs(a_val - b_val) / np.maximum(np.abs(b_val), 1e-12))
            yield from _grid_blocks(grid, (_field(st), "0.0"), *cols)

    _write_csv(out, header, blocks())
    print(f"wrote {out} (method {args.method})")
    return 0


def _cmd_verify(cfg, args) -> int:
    out_dir = _out_dir(cfg.run.out_dir)
    report = run_verification(cfg)
    print(report.table())
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
