"""The four workloads: their generated inputs, set-up, operation and the
correctness gate applied to every operation.

Why these four:
- verify_desk: `hhr verify` on the desk config, the acceptance path a user
  runs before trusting any number; the only workload that reaches the
  batch event simulation, the closed-form oracles, the admissibility scans
  and the retry logic.  Events are sparse (E[N_T] = 1.21).
- reserve_desk: `hhr reserve --method both`, the production reserving call;
  all PIDE, Markov and reserve code, no Monte Carlo.
- mc_bursty: joint simulation under P and Q at dense, clustered events
  (E[N_T] = 10.2); all random streams, thinning and the stage loop, no PIDE.
- price_fine: one pricing PIDE solve on a grid whose layers (2.1 MB) do not
  fit in a core's L2, unlike the desk grid's (0.15 MB).

verify_desk runs the desk config at its own seed whatever the workload seed:
the recorded verification.json fingerprint and the known retry of
girsanov_price_crosscheck are defined at that seed.  reserve_desk and
price_fine are deterministic.  mc_bursty draws its two simulation seeds
from the workload seed.

Module level is standard library only: the worker times `import hhr`.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import json
import math
import os
from pathlib import Path

NAMES = ("verify_desk", "reserve_desk", "mc_bursty", "price_fine")

# dense, clustered events: branching ratio alpha/beta = 0.8 as on the desk
BURSTY_MODEL = {"lambda0": 6.0, "alpha": 1.6, "beta": 2.0}

SIZES = {
    "full": {
        "desk_grid": "64x48x24x16",
        "fine_grid": "128x128x64x32",
        "mc_paths": 20000,
        "mc_steps": 256,
        "verify_run": {},
    },
    # small enough for the benchmark's own tests; same code paths
    "tiny": {
        "desk_grid": "32x24x12x8",
        "fine_grid": "48x36x16x8",
        "mc_paths": 2000,
        "mc_steps": 64,
        "verify_run": {"paths": 2000, "steps": 64, "grid": "32x24x12x8"},
    },
}

ROUTE_GAP_LIMIT = 0.01  # relative, at the 27 interior probes
PRICE_GAP_LIMIT = 0.01  # fine-grid anchor price vs desk-grid anchor price
SE_GATE = 3.0


def sub_seed(seed: int, tag: str) -> int:
    digest = hashlib.sha256(f"{seed}:{tag}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def make_inputs(name: str, seed: int, size: str, root: Path, work: Path) -> dict:
    """Write the workload's config into `work` and describe its inputs."""
    sz = SIZES[size]
    cfg = json.loads((root / "configs" / "desk.json").read_text())
    inputs = {"workload": name, "seed": seed, "size": size, "work": str(work)}
    if name == "verify_desk":
        cfg["run"].update(sz["verify_run"])
    elif name == "reserve_desk":
        cfg["run"]["grid"] = sz["desk_grid"]
    elif name == "mc_bursty":
        cfg["model"].update(BURSTY_MODEL)
        cfg["run"].update(paths=sz["mc_paths"], steps=sz["mc_steps"])
        inputs["seed_p"] = sub_seed(seed, "mc_bursty/P")
        inputs["seed_q"] = sub_seed(seed, "mc_bursty/Q")
    elif name == "price_fine":
        cfg["run"]["grid"] = sz["fine_grid"]
        inputs["desk_grid"] = sz["desk_grid"]
        inputs["guarantee"] = cfg["policy"]["terminal"][0]["payoff"]["value"]
    else:
        raise ValueError(f"unknown workload {name!r}")
    path = work / "config.json"
    path.write_text(json.dumps(cfg, indent=2) + "\n")
    inputs["config"] = str(path)
    inputs["model"] = cfg["model"]
    inputs["run"] = cfg["run"]
    return inputs


class Workload:
    """Set-up state plus the operation and its gate.

    `op()` is the timed call into hhr; `check(out)` returns
    (fingerprint, summary, problems), and an operation with problems counts
    as failed."""

    def __init__(self, inputs: dict):
        import hhr.config

        self.inputs = inputs
        self.name = inputs["workload"]
        self.work = Path(inputs["work"])
        self.cfg = hhr.config.load_config(inputs["config"])
        self.model = self.cfg.validated_model()
        self.sel, _ = self.cfg.selection(self.model)
        self.grid = None
        if self.name == "price_fine":
            import hhr.pide

            self.grid = hhr.pide.build_grid(self.model, self.model.params.T, *self.cfg.run.grid)
        self._devnull = open(os.devnull, "w")
        self._reference = None

    def close(self) -> None:
        self._devnull.close()

    def describe(self) -> dict:
        return {"a": self.sel.a}

    # -- operations -------------------------------------------------------

    def op(self):
        return getattr(self, f"_op_{self.name}")()

    def _cli(self, argv):
        import hhr.cli

        with contextlib.redirect_stdout(self._devnull):
            return hhr.cli.main(argv)

    def _op_verify_desk(self):
        out = self.work / "verify"
        return self._cli(["verify", "--config", self.inputs["config"], "--out", str(out)])

    def _op_reserve_desk(self):
        out = self.work / "reserve.csv"
        return self._cli(
            ["reserve", "--config", self.inputs["config"], "--method", "both", "--out", str(out)]
        )

    def _op_mc_bursty(self):
        import hhr.sde

        p = self.model.params
        run = self.cfg.run
        sim_p = hhr.sde.simulate(
            self.model, self.cfg.dist, "P", run.paths, run.steps, self.inputs["seed_p"],
            selection=self.sel, probe_times=(p.T / 2, p.T),
        )
        sim_q = hhr.sde.simulate(
            self.model, self.cfg.dist, "Q", run.paths, run.steps, self.inputs["seed_q"],
            selection=self.sel,
        )
        return sim_p, sim_q

    def _op_price_fine(self):
        import hhr.payoff
        import hhr.pide

        return hhr.pide.solve_price_pide(
            hhr.payoff.guarantee(self.inputs["guarantee"]), self.model.params.T,
            self.model, self.sel, self.cfg.dist, self.grid,
        )

    # -- gates --------------------------------------------------------------

    def check(self, out):
        return getattr(self, f"_check_{self.name}")(out)

    def _check_verify_desk(self, rc):
        problems = [] if rc == 0 else [f"hhr verify exit code {rc}"]
        data = (self.work / "verify" / "verification.json").read_bytes()
        sha = hashlib.sha256(data).hexdigest()
        return sha, {"verification_sha256": sha}, problems

    def _check_reserve_desk(self, rc):
        problems = [] if rc == 0 else [f"hhr reserve exit code {rc}"]
        data = (self.work / "reserve.csv").read_bytes()
        gap, anchor = reserve_csv_gate(data.decode(), self.cfg.run.grid[1:], self.model.params)
        if not gap <= ROUTE_GAP_LIMIT:
            problems.append(f"routes differ by {gap:.3%} at an interior probe (limit 1%)")
        summary = {"anchor_reserve": anchor, "route_gap": gap}
        return hashlib.sha256(data).hexdigest(), summary, problems

    def _check_mc_bursty(self, out):
        import numpy as np

        sim_p, sim_q = out
        p = self.model.params
        x = sim_p.terminal["X"]
        disc = math.exp(-p.r * p.T) * sim_q.terminal["S"]
        z_x = (x.mean() - 1.0) / (x.std(ddof=1) / math.sqrt(x.size))
        z_s = (disc.mean() - p.S0) / (disc.std(ddof=1) / math.sqrt(disc.size))
        problems = []
        if not abs(z_x) <= SE_GATE:
            problems.append(f"E_P[X_T] = {x.mean():.6f} is {z_x:+.2f} SE from 1")
        if not abs(z_s) <= SE_GATE:
            problems.append(f"E_Q[e^-rT S_T] = {disc.mean():.4f} is {z_s:+.2f} SE from S0")
        h = hashlib.sha256()
        for sim in (sim_p, sim_q):
            for key in sorted(sim.terminal):
                h.update(key.encode())
                h.update(np.ascontiguousarray(sim.terminal[key], dtype=float).tobytes())
        digest = h.hexdigest()
        summary = {
            "terminal_digest": digest,
            "mean_X_T": float(x.mean()), "z_X_T": float(z_x),
            "mean_disc_S_T": float(disc.mean()), "z_disc_S_T": float(z_s),
        }
        return digest, summary, problems

    def _check_price_fine(self, sol):
        p = self.model.params
        anchor = sol.at(0, p.S0, p.v0, p.lambda0)
        ref = self.desk_grid_price()
        gap = abs(anchor / ref - 1.0)
        problems = [] if gap <= PRICE_GAP_LIMIT else [
            f"fine-grid price {anchor:.6f} is {gap:.3%} from the desk-grid {ref:.6f}"
        ]
        digest = hashlib.sha256(sol.values[0].tobytes()).hexdigest()
        summary = {"anchor_price": anchor, "desk_grid_price": ref, "grid_gap": gap}
        return digest, summary, problems

    def desk_grid_price(self) -> float:
        """Anchor price of the same payoff on the desk grid (gate reference,
        solved once, outside any timed operation)."""
        if self._reference is None:
            import hhr.config
            import hhr.payoff
            import hhr.pide

            p = self.model.params
            dims = hhr.config.parse_grid(self.inputs["desk_grid"])
            grid = hhr.pide.build_grid(self.model, p.T, *dims)
            sol = hhr.pide.solve_price_pide(
                hhr.payoff.guarantee(self.inputs["guarantee"]), p.T,
                self.model, self.sel, self.cfg.dist, grid,
            )
            self._reference = sol.at(0, p.S0, p.v0, p.lambda0)
        return self._reference


def interior_probes(nx: int, ny: int, nz: int) -> list[tuple[int, int, int]]:
    """The 27 interior probe nodes of the reserve cross-check."""
    return [
        (i, j, k)
        for i in (nx // 4, nx // 2, 3 * nx // 4)
        for j in (ny // 4, ny // 2, 3 * ny // 4)
        for k in (nz // 4, nz // 2, 3 * nz // 4)
    ]


def reserve_csv_gate(text: str, shape, params) -> tuple[float, float]:
    """(worst rel_diff over states at the 27 interior probes, reserve of the
    first state at the node nearest (S0, v0, lambda0)) from `hhr reserve
    --method both` output, whose rows run over state, x, y, z."""
    nx, ny, nz = shape
    rows = list(csv.DictReader(text.splitlines()))
    n_states = len(rows) // (nx * ny * nz)

    def row(s, i, j, k):
        return rows[((s * nx + i) * ny + j) * nz + k]

    worst = max(
        float(row(s, i, j, k)["rel_diff"])
        for s in range(n_states)
        for i, j, k in interior_probes(nx, ny, nz)
    )

    def nearest(axis_values, target):
        return min(range(len(axis_values)), key=lambda n: abs(axis_values[n] - target))

    xs = [float(row(0, i, 0, 0)["x"]) for i in range(nx)]
    ys = [float(row(0, 0, j, 0)["y"]) for j in range(ny)]
    zs = [float(row(0, 0, 0, k)["z"]) for k in range(nz)]
    anchor = row(0, nearest(xs, params.S0), nearest(ys, params.v0), nearest(zs, params.lambda0))
    return worst, float(anchor["V"])
