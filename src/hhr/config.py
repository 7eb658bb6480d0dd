"""JSON run configuration: model + jump law + measure + policy + run sizes.

Every setting gets its type here, once (a number passes _number, a count is
an int), and its default from the fields of MeasureConfig or RunSettings:
a section passes on only the keys it gives.  Command-line flags go through
the same readers (RunConfig.with_flags).
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, fields, replace
from operator import itemgetter

from .errors import ConfigError
from .markov import PolicySpec
from .measure import MeasureConfig, select_measure
from .model import (
    ConstantJump,
    ExponentialJump,
    JumpDistribution,
    ModelParams,
    PiecewiseFlat,
    ValidatedModel,
    validate,
)
from .payoff import parse_payoff

__all__ = [
    "RunSettings", "RunConfig", "load_config", "read_json", "config_from_dict",
    "default_config_dict",
]

_MODEL_SCALARS = [f.name for f in fields(ModelParams) if f.name != "mu"]


@dataclass(frozen=True)
class RunSettings:
    seed: int = 20240801
    paths: int = 20000
    steps: int = 256
    grid: tuple[int, int, int, int] = (64, 48, 24, 16)
    out_dir: str = "out"


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

    def selection(self, model: ValidatedModel):
        """Certified measure selection per the config (raises on an
        inadmissible a), with its admissibility report."""
        return select_measure(model, self.dist, self.measure)

    def with_flags(self, run: dict, a: float | None = None) -> RunConfig:
        """This config with flags' run keys and tilt `a` (in place of a or
        fraction_of_bound) read by the file's rules; raw stays the file's."""
        mz = self.raw.get("measure", {})
        if a is not None:
            mz = {k: v for k, v in mz.items() if k != "fraction_of_bound"} | {"a": a}
        return replace(self, measure=_measure(mz), run=_run_settings(self.raw.get("run", {}) | run))

    def canonical(self) -> str:
        return json.dumps(self.raw, sort_keys=True, separators=(",", ":"))


def _number(value, key: str) -> float:
    """The value of the dotted key as a float: an int or a float (so never
    a bool or a string), and finite."""
    if type(value) not in (int, float) or not abs(value) <= sys.float_info.max:  # NaN, inf
        raise ConfigError(f"{key} must be a number, got {value!r}")
    return float(value)


def parse_grid(spec) -> tuple[int, int, int, int]:
    if isinstance(spec, (list, tuple)):
        if any(type(v) is not int for v in spec):  # a bool is an int subclass: refused too
            raise ConfigError(f"run.grid entries must be integers, got {spec!r}")
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


def _flat(pairs, key: str) -> PiecewiseFlat:
    """A piecewise-flat function of time from its [t, value] pairs."""
    pairs = [(_number(t, key), _number(v, key)) for t, v in pairs]
    try:
        return PiecewiseFlat.from_pairs(pairs)
    except ValueError as exc:  # no pair, a first breakpoint other than 0, or a repeat
        raise ConfigError(f"{key}: {exc}") from exc


def _jump(jd: dict) -> JumpDistribution:
    kind = str(jd.get("kind")).lower()
    if kind == "constant":
        return ConstantJump(_number(jd.get("value"), "model.jump.value"))
    if kind == "exponential":
        return ExponentialJump(_number(jd.get("rate"), "model.jump.rate"))
    raise ConfigError(f"model.jump.kind must be constant or exponential, got {jd.get('kind')!r}")


def _parse_policy(d: dict, default_horizon: float) -> PolicySpec:
    state, pair = itemgetter("state"), itemgetter("from", "to")

    def payoffs(name, key):
        out = {}
        for i, item in enumerate(d.get(name, [])):
            spec = item["payoff"]  # a 'kind[:value]' string, or a dict with a number value
            if isinstance(spec, dict) and "value" in spec:
                _number(spec["value"], f"policy.{name}[{i}].payoff.value")
            out[key(item)] = parse_payoff(spec)
        return out

    try:
        return PolicySpec(
            states=tuple(d["states"]),
            horizon=_number(d["horizon"], "policy.horizon") if "horizon" in d else default_horizon,
            intensities={
                pair(item): _flat(item["rate_segments"], f"policy.intensities[{i}].rate_segments")
                for i, item in enumerate(d.get("intensities", []))
            },
            terminal=payoffs("terminal", state),
            rate=payoffs("rate", state),
            transition=payoffs("transition", pair),
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
        "model.": (model, {*_MODEL_SCALARS, "mu_breakpoints", "jump"}),
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


def _measure(mz: dict) -> MeasureConfig:
    return MeasureConfig(
        **{k: v if k == "level" else _number(v, f"measure.{k}") for k, v in mz.items()}
    )


def _run_settings(rz: dict) -> RunSettings:
    try:
        run = dict(rz)
        for key in ("seed", "paths", "steps"):
            if key in run and type(run[key]) is not int:  # a bool is an int subclass: refused too
                raise ConfigError(f"run.{key} must be an integer, got {run[key]!r}")
        if run.get("paths", 1) < 1:
            raise ConfigError(f"run.paths must be >= 1, got {run['paths']}")
        if "grid" in run:
            run["grid"] = parse_grid(run["grid"])
        if not isinstance(run.get("out_dir", ""), str):
            raise ConfigError(f"run.out_dir must be a string, got {run['out_dir']!r}")
        return RunSettings(**run)
    except ConfigError as exc:
        raise ConfigError(f"bad run section: {exc}") from exc


def config_from_dict(d: dict) -> RunConfig:
    if "model" not in _object(d, "config"):
        raise ConfigError("config needs a 'model' section")
    md = _object(d["model"], "model")
    mz, rz = (_object(d.get(key, {}), key) for key in ("measure", "run"))
    unknown = _unknown_keys(d)
    if unknown:
        raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    if md.get("jump") is None:
        raise ConfigError("model.jump is required")
    try:
        dist = _jump(_object(md["jump"], "model.jump"))
        mu = md.get("mu_breakpoints")
        params = ModelParams(
            **{k: _number(md.get(k), f"model.{k}") for k in _MODEL_SCALARS},
            mu=_flat(mu, "model.mu_breakpoints") if mu else None,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"bad model section: {exc}") from exc
    policy = _parse_policy(_object(d["policy"], "policy"), params.T) if "policy" in d else None
    return RunConfig(model=params, dist=dist, measure=_measure(mz), policy=policy,
                     run=_run_settings(rz), raw=d)


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
