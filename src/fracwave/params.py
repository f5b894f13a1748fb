"""Fractional order and the admissible exponent windows of the estimates."""

from __future__ import annotations

import math
from dataclasses import dataclass

__all__ = [
    "FracOrder",
    "ThetaRange",
    "velocity_dual_range",
    "gradient_range",
    "caputo_dual_range",
    "identity_overlap_range",
]


@dataclass(frozen=True)
class ThetaRange:
    """Open/half-open admissible interval for a power-scale exponent."""

    purpose: str
    lower: float
    upper: float
    upper_inclusive: bool = False

    def contains(self, theta: float) -> bool:
        if theta <= self.lower:
            return False
        return theta <= self.upper if self.upper_inclusive else theta < self.upper

    def validate(self, theta: float) -> float:
        if not self.contains(theta):
            bracket = "]" if self.upper_inclusive else ")"
            raise ValueError(
                f"theta={theta} outside the admissible {self.purpose} range "
                f"({self.lower:.6g}, {self.upper:.6g}{bracket}"
            )
        return float(theta)


def velocity_dual_range(alpha: float) -> ThetaRange:
    """Dual-norm exponents for which the velocity stays continuous in time."""
    return ThetaRange("velocity-dual", (2.0 - alpha) / (2.0 * alpha), 0.5, upper_inclusive=True)


def gradient_range(alpha: float) -> ThetaRange:
    """Exponents with square-integrable-in-time smoothed gradient."""
    return ThetaRange("gradient", 0.0, 1.0 / (2.0 * alpha))


def caputo_dual_range(alpha: float) -> ThetaRange:
    """Dual exponents with square-integrable fractional time derivative."""
    return ThetaRange("caputo-dual", (alpha - 1.0) / (2.0 * alpha), 0.5)


def identity_overlap_range(alpha: float) -> ThetaRange:
    """Overlap of the gradient and caputo-dual windows; midpoint is 1/4."""
    return ThetaRange("identity-overlap", (alpha - 1.0) / (2.0 * alpha), 1.0 / (2.0 * alpha))


@dataclass(frozen=True)
class FracOrder:
    """Time-derivative order, strictly between diffusion and wave."""

    alpha: float

    def __post_init__(self):
        if not (math.isfinite(self.alpha) and 1.0 < self.alpha < 2.0):
            raise ValueError(f"alpha must lie strictly in (1, 2), got {self.alpha}")


def as_alpha(value) -> float:
    """Accept either a float or a FracOrder and return the validated float."""
    if isinstance(value, FracOrder):
        return value.alpha
    return FracOrder(float(value)).alpha
