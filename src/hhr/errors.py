"""Shared exception types."""

from __future__ import annotations


class HHRError(Exception):
    """Base class for all engine errors."""


class DomainError(HHRError, ValueError):
    """Argument outside the mathematical domain of an operation."""


class InvalidModel(HHRError, ValueError):
    """Model rejected at validation; carries the full violation list."""

    def __init__(self, violations):
        self.violations = list(violations)
        lines = "; ".join(f"{v.code}: {v.message}" for v in self.violations)
        super().__init__(f"invalid model: {lines}")


class EventOverflow(HHRError, RuntimeError):
    """A simulated path exceeded the hard event cap."""


class AdmissibilityError(HHRError, ValueError):
    """Girsanov parameter or model fails an admissibility precondition."""

    def __init__(self, message, condition=None):
        super().__init__(message)
        self.condition = condition


class RhoTooLarge(AdmissibilityError):
    """rho^2 >= c_l: the martingale-measure band is empty."""


class DegenerateReversion(AdmissibilityError):
    """kappa + a*sigma <= 0 under the tilted measure."""


class NonConvergence(HHRError, ArithmeticError):
    """Series or iteration failed to converge within the term budget."""


class HypothesisViolated(DomainError):
    """Closed-form moment formula called outside its validity hypothesis."""


class TimeOrderError(HHRError, ValueError):
    """Times passed in the wrong order (need t <= s)."""


class ConfigError(HHRError, ValueError):
    """Configuration document failed validation."""
