"""Payoff objects shared by the pricing solver and the policy templates."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["Payoff", "constant", "linear", "guarantee", "parse_payoff"]


@dataclass(frozen=True)
class Payoff:
    """phi(s, x) of one of three shapes: c, c*x, or max(G, x).

    `kinked` marks payoffs with a gradient discontinuity, which the solver
    damps with an implicit startup.
    """

    kind: str  # "constant" | "linear" | "guarantee"
    value: float = 1.0

    def __post_init__(self):
        if self.kind not in ("constant", "linear", "guarantee"):
            raise ValueError(f"unknown payoff kind {self.kind!r}")

    @property
    def kinked(self) -> bool:
        return self.kind == "guarantee"

    def __call__(self, s, x):
        x = np.asarray(x, dtype=float)
        if self.kind == "constant":
            out = np.full_like(x, self.value)
        elif self.kind == "linear":
            out = self.value * x
        else:
            out = np.maximum(self.value, x)
        return out if out.ndim else float(out)

    @property
    def is_zero(self) -> bool:
        return self.kind in ("constant", "linear") and self.value == 0.0


def constant(c: float = 1.0) -> Payoff:
    return Payoff("constant", c)


def linear(c: float = 1.0) -> Payoff:
    return Payoff("linear", c)


def guarantee(g: float) -> Payoff:
    return Payoff("guarantee", g)


ZERO = constant(0.0)


def parse_payoff(spec) -> Payoff:
    """Parse 'constant[:c]', 'linear[:c]', 'guarantee:G', or a dict."""
    if isinstance(spec, Payoff):
        return spec
    if isinstance(spec, dict):
        if spec["kind"] == "guarantee" and "value" not in spec:
            raise ValueError("guarantee payoff needs a value")
        return Payoff(spec["kind"], float(spec.get("value", 1.0)))
    name, _, arg = str(spec).partition(":")
    if name == "guarantee" and not arg:
        raise ValueError("guarantee payoff needs a level, e.g. guarantee:120")
    return Payoff(name, float(arg) if arg else 1.0)
