"""JSON run configuration: model + jump law + measure + policy + run sizes."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .markov import PolicySpec
from .measure import select_measure
from .model import (
    JumpDistribution,
    ModelParams,
    PiecewiseFlat,
    ValidatedModel,
    jump_from_dict,
    validate,
)
from .payoff import parse_payoff

__all__ = ["RunSettings", "MeasureConfig", "RunConfig", "load_config", "config_from_dict", "default_config_dict"]


@dataclass(frozen=True)
class MeasureConfig:
    level: str = "EmQS"
    a: float | None = None
    fraction_of_bound: float | None = 0.8
    epsilon1: float = 0.1
    epsilon2: float = 0.1


@dataclass(frozen=True)
class RunSettings:
    seed: int = 20240801
    paths: int = 20000
    steps: int = 256
    grid: tuple[int, int, int, int] = (64, 48, 24, 16)
    threads: int = 1
    out_dir: str = "out"
    tolerances: dict = field(default_factory=dict)


@dataclass
class RunConfig:
    model: ModelParams
    dist: JumpDistribution
    measure: MeasureConfig
    policy: PolicySpec | None
    run: RunSettings
    raw: dict

    def validated_model(self) -> ValidatedModel:
        return validate(self.model)

    def selection(self, model: ValidatedModel | None = None):
        """Certified measure selection per the config (raises on inadmissible a)."""
        m = model or self.validated_model()
        return select_measure(
            m,
            self.dist,
            a=self.measure.a,
            fraction=self.measure.fraction_of_bound if self.measure.a is None else None,
            level=self.measure.level,
            epsilon1=self.measure.epsilon1,
            epsilon2=self.measure.epsilon2,
        )

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def parse_grid(spec) -> tuple[int, int, int, int]:
    if isinstance(spec, (list, tuple)):
        parts = list(spec)
    else:
        parts = str(spec).lower().split("x")
    if len(parts) != 4:
        raise ConfigError(f"grid must be TxXxYxZ, got {spec!r}")
    try:
        nt, nx, ny, nz = (int(v) for v in parts)
    except ValueError as exc:
        raise ConfigError(f"grid entries must be integers: {spec!r}") from exc
    if min(nt, nx, ny, nz) < 1:
        raise ConfigError(f"grid entries must be >= 1: {spec!r}")
    return nt, nx, ny, nz


def _parse_policy(d: dict, default_horizon: float) -> PolicySpec:
    try:
        states = tuple(d["states"])
        horizon = float(d.get("horizon", default_horizon))
        intensities = {}
        for item in d.get("intensities", []):
            intensities[(item["from"], item["to"])] = PiecewiseFlat.from_pairs(
                item["rate_segments"]
            )
        terminal = {
            item["state"]: parse_payoff(item["payoff"]) for item in d.get("terminal", [])
        }
        rate = {
            item["state"]: parse_payoff(item["payoff"]) for item in d.get("rate", [])
        }
        transition = {
            (item["from"], item["to"]): parse_payoff(item["payoff"])
            for item in d.get("transition", [])
        }
        return PolicySpec(
            states=states,
            horizon=horizon,
            intensities=intensities,
            terminal=terminal,
            rate=rate,
            transition=transition,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad policy section: {exc}") from exc


def _unknown_keys(d: dict) -> list[str]:
    """Dotted names of the keys that no section of the config reads."""
    model = d["model"]
    sections = {
        "": (d, {"model", "measure", "policy", "run"}),
        "model.": (model, {f.name for f in fields(ModelParams)} - {"mu"} | {"mu_breakpoints", "jump"}),
        "model.jump.": (model.get("jump"), {"kind", "value", "rate"}),
        "measure.": (d.get("measure"), {f.name for f in fields(MeasureConfig)}),
        "run.": (d.get("run"), {f.name for f in fields(RunSettings)}),
    }
    return [prefix + k for prefix, (section, keys) in sections.items()
            if isinstance(section, dict) for k in section if k not in keys]


def config_from_dict(d: dict) -> RunConfig:
    problems = []
    if "model" not in d:
        raise ConfigError("config needs a 'model' section")
    unknown = _unknown_keys(d)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    md = dict(d["model"])
    jump_spec = md.pop("jump", None)
    if jump_spec is None:
        problems.append("model.jump is required")
        dist = None
    else:
        try:
            dist = jump_from_dict(jump_spec)
        except (KeyError, ValueError) as exc:
            problems.append(f"model.jump: {exc}")
            dist = None
    try:
        params = ModelParams.from_dict(md)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc
    if problems:
        raise ConfigError("; ".join(problems))

    mz = d.get("measure", {})
    measure = MeasureConfig(
        level=mz.get("level", "EmQS"),
        a=mz.get("a"),
        fraction_of_bound=mz.get("fraction_of_bound", 0.8 if "a" not in mz else None),
        epsilon1=float(mz.get("epsilon1", 0.1)),
        epsilon2=float(mz.get("epsilon2", 0.1)),
    )

    policy = None
    if "policy" in d:
        policy = _parse_policy(d["policy"], params.T)

    rz = d.get("run", {})
    run = RunSettings(
        seed=int(rz.get("seed", 20240801)),
        paths=int(rz.get("paths", 20000)),
        steps=int(rz.get("steps", 256)),
        grid=parse_grid(rz.get("grid", "64x48x24x16")),
        threads=int(rz.get("threads", 1)),
        out_dir=str(rz.get("out_dir", "out")),
        tolerances=dict(rz.get("tolerances", {})),
    )
    return RunConfig(model=params, dist=dist, measure=measure, policy=policy, run=run, raw=d)


def load_config(path) -> RunConfig:
    try:
        with open(path) as fh:
            d = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    return config_from_dict(d)


def default_config_dict() -> dict:
    """Desk defaults used when no --config is given; mirrors configs/desk.json."""
    return {
        "model": {
            "lambda0": 1.0,
            "alpha": 0.5,
            "beta": 1.0,
            "S0": 100.0,
            "r": 0.03,
            "mu_breakpoints": [[0.0, 0.05], [0.5, 0.04]],
            "rho": -0.5,
            "v0": 0.2,
            "kappa": 2.0,
            "vbar": 0.3,
            "sigma": 0.5,
            "eta": 0.1,
            "T": 1.0,
            "jump": {"kind": "exponential", "rate": 2.0},
        },
        "measure": {
            "level": "EmQS",
            "fraction_of_bound": 0.8,
            "epsilon1": 0.1,
            "epsilon2": 0.1,
        },
        "policy": {
            "states": ["alive", "dead"],
            "horizon": 1.0,
            "intensities": [
                {"from": "alive", "to": "dead", "rate_segments": [[0.0, 0.02]]}
            ],
            "terminal": [
                {"state": "alive", "payoff": {"kind": "guarantee", "value": 103.045453395}}
            ],
            "transition": [
                {
                    "from": "alive",
                    "to": "dead",
                    "payoff": {"kind": "guarantee", "value": 103.045453395},
                }
            ],
        },
        "run": {
            "seed": 20240801,
            "paths": 20000,
            "steps": 256,
            "grid": "64x48x24x16",
            "threads": 1,
            "out_dir": "out",
        },
    }
