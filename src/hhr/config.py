"""JSON run configuration: model + jump law + measure + policy + run sizes."""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields

from .errors import ConfigError
from .markov import PolicySpec
from .measure import LEVELS, select_measure
from .model import (
    JumpDistribution,
    ModelParams,
    PiecewiseFlat,
    ValidatedModel,
    jump_from_dict,
    validate,
)
from .payoff import parse_payoff

__all__ = [
    "RunSettings", "MeasureConfig", "RunConfig", "load_config", "read_json", "config_from_dict",
    "default_config_dict",
]


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

    def selection(self, model: ValidatedModel, a: float | None = None):
        """Certified measure selection per the config, or at the tilt `a`
        when given (raises on inadmissible a)."""
        a = self.measure.a if a is None else a
        return select_measure(
            model,
            self.dist,
            a=a,
            fraction=self.measure.fraction_of_bound if a is None else None,
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


_POLICY_ITEMS = {
    "intensities": {"from", "to", "rate_segments"},
    "terminal": {"state", "payoff"},
    "rate": {"state", "payoff"},
    "transition": {"from", "to", "payoff"},
}


def _unknown_keys(d: dict) -> list[str]:
    """Dotted names of the keys that no section of the config reads."""
    model = d["model"]
    policy = d.get("policy")
    sections = {
        "": (d, {"model", "measure", "policy", "run"}),
        "model.": (model, {f.name for f in fields(ModelParams)} - {"mu"} | {"mu_breakpoints", "jump"}),
        "model.jump.": (model.get("jump"), {"kind", "value", "rate"}),
        "measure.": (d.get("measure"), {f.name for f in fields(MeasureConfig)}),
        "policy.": (policy, {"states", "horizon", *_POLICY_ITEMS}),
        "run.": (d.get("run"), {f.name for f in fields(RunSettings)}),
    }
    for name, keys in _POLICY_ITEMS.items():
        items = policy.get(name) if isinstance(policy, dict) else None
        for i, item in enumerate(items if isinstance(items, list) else []):
            sections[f"policy.{name}[{i}]."] = (item, keys)
            if "payoff" in keys and isinstance(item, dict):
                sections[f"policy.{name}[{i}].payoff."] = (item.get("payoff"), {"kind", "value"})
    return [prefix + k for prefix, (section, keys) in sections.items()
            if isinstance(section, dict) for k in section if k not in keys]


def _object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be an object, got {value!r}")
    return value


def config_from_dict(d: dict) -> RunConfig:
    if "model" not in _object(d, "config"):
        raise ConfigError("config needs a 'model' section")
    md = dict(_object(d["model"], "model"))
    mz, rz = (_object(d.get(key, {}), key) for key in ("measure", "run"))
    tolerances = _object(rz.get("tolerances", {}), "run.tolerances")
    unknown = _unknown_keys(d)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if md.get("jump") is None:
        raise ConfigError("model.jump is required")
    try:
        dist = jump_from_dict(_object(md.pop("jump"), "model.jump"))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"model.jump: {exc}") from exc
    try:
        params = ModelParams.from_dict(md)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc

    if mz.get("level", "EmQS") not in LEVELS:
        raise ConfigError(f"measure.level must be one of {', '.join(LEVELS)}, got {mz['level']!r}")
    for key in ("a", "fraction_of_bound", "epsilon1", "epsilon2"):
        if key in mz and (isinstance(mz[key], bool) or not isinstance(mz[key], (int, float))):
            raise ConfigError(f"measure.{key} must be a number, got {mz[key]!r}")
    measure = MeasureConfig(
        level=mz.get("level", "EmQS"),
        a=mz.get("a"),
        fraction_of_bound=mz.get("fraction_of_bound", 0.8 if "a" not in mz else None),
        epsilon1=float(mz.get("epsilon1", 0.1)),
        epsilon2=float(mz.get("epsilon2", 0.1)),
    )

    policy = None
    if "policy" in d:
        policy = _parse_policy(_object(d["policy"], "policy"), params.T)

    try:
        counts = {key: rz[key] for key in ("seed", "paths", "steps") if key in rz}
        for key, value in counts.items():
            if type(value) is not int:  # a bool is an int subclass: refused too
                raise TypeError(f"run.{key} must be an integer, got {value!r}")
        if counts.get("paths", 1) < 1:
            raise ValueError(f"run.paths must be >= 1, got {counts['paths']}")
        run = RunSettings(
            **counts,
            grid=parse_grid(rz.get("grid", "64x48x24x16")),
            out_dir=str(rz.get("out_dir", "out")),
            tolerances=dict(tolerances),
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad run section: {exc}") from exc
    return RunConfig(model=params, dist=dist, measure=measure, policy=policy, run=run, raw=d)


def read_json(path, what: str = "config"):
    """The JSON document in the file at path; an unreadable or malformed
    file raises ConfigError naming it as `what`."""
    try:
        with open(path) as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def load_config(path) -> RunConfig:
    return config_from_dict(read_json(path))


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
            "out_dir": "out",
        },
    }
