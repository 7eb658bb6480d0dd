"""Pricing and reserving engine for Heston dynamics with self-exciting
variance jumps: exact event-process simulation, risk-neutral measure
construction, joint Monte Carlo, a four-dimensional pricing PIDE solver, and
multi-state reserves computed two independent ways.
"""

from .errors import (
    AdmissibilityError,
    ConfigError,
    DomainError,
    EventOverflow,
    HypothesisViolated,
    InvalidModel,
    NonConvergence,
    TimeOrderError,
)
from .model import (
    ConstantJump,
    ExponentialJump,
    ModelParams,
    PiecewiseFlat,
    ValidatedModel,
    validate,
)

__version__ = "0.1.0"
