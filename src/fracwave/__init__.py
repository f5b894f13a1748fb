"""Spectral solver and verification lab for the time-fractional
diffusion-wave equation with Dirichlet boundary, order in (1, 2)."""

from .fracops import (
    KernelPhi,
    SampledPath,
    TimeGrid,
    caputo_derivative,
    frac_integral,
    gagliardo_seminorm,
    norm_equivalence_study,
    semigroup_check,
    sobolev_norm,
    young_bound_check,
)
from .mittag_leffler import BoundFit, MLParams, Z_MAX, gamma, max_ratio, ml, verify_decay_bound
from .params import FracOrder, ThetaRange
from .solver import (
    ModeState,
    SolutionQuery,
    mode_solution,
    solve_field,
    truncation_tail,
)
from .spectral import (
    ModeCoefficients,
    SpectralDomain,
    build_interval,
    build_rectangle,
    frac_power_norm,
    project,
    synthesize,
)

__version__ = "0.1.0"

__all__ = [
    "BoundFit",
    "FracOrder",
    "KernelPhi",
    "MLParams",
    "ModeCoefficients",
    "ModeState",
    "SampledPath",
    "SolutionQuery",
    "SpectralDomain",
    "ThetaRange",
    "TimeGrid",
    "Z_MAX",
    "build_interval",
    "build_rectangle",
    "caputo_derivative",
    "frac_integral",
    "frac_power_norm",
    "gagliardo_seminorm",
    "gamma",
    "max_ratio",
    "ml",
    "mode_solution",
    "norm_equivalence_study",
    "project",
    "semigroup_check",
    "sobolev_norm",
    "solve_field",
    "synthesize",
    "truncation_tail",
    "verify_decay_bound",
    "young_bound_check",
]
