"""Named initial-data generators shared by the CLI and the test harnesses."""

from __future__ import annotations

import math

import numpy as np

from .fracops import TimeGrid
from .spectral import ModeCoefficients, SpectralDomain

__all__ = [
    "single_mode",
    "poly_bump",
    "random_decay",
    "power_decay",
    "h1_saturating",
    "build_preset",
    "PRESET_NAMES",
]


def single_mode(N: int, k: int = 1) -> ModeCoefficients:
    """Unit position datum in mode ``k``, zero velocity."""
    if not 1 <= k <= N:
        raise ValueError("mode index out of range")
    a = np.zeros(N)
    a[k - 1] = 1.0
    return ModeCoefficients(a, np.zeros(N))


def poly_bump(domain: SpectralDomain) -> ModeCoefficients:
    """Position datum x (L - x) on the interval; cubic coefficient decay."""
    if not domain.is_interval:
        raise ValueError("the polynomial bump preset is interval-only")
    (L,) = domain.lengths
    n = np.arange(1, domain.mode_count + 1)
    a = math.sqrt(2.0 / L) * 2.0 * L**3 * (1.0 - np.cos(n * math.pi)) / (n * math.pi) ** 3
    return ModeCoefficients(a, np.zeros_like(a))


def random_decay(N: int, p: float, seed: int) -> ModeCoefficients:
    """Gaussian draws on both data, damped by n^-p; the seed fixes the draw exactly."""
    if p <= 0.5:
        raise ValueError("need p > 1/2 for square-summable data")
    rng = np.random.default_rng(seed)
    n = np.arange(1, N + 1, dtype=float)
    a = rng.standard_normal(N) * n ** (-p)
    b = rng.standard_normal(N) * n ** (-p)
    return ModeCoefficients(a, b)


def power_decay(N: int, s: float) -> ModeCoefficients:
    """Deterministic position coefficients n^-s, zero velocity."""
    n = np.arange(1, N + 1, dtype=float)
    return ModeCoefficients(n ** (-s), np.zeros(N))


def h1_saturating(N: int, delta: float = 0.05) -> ModeCoefficients:
    """Position data barely inside the energy class: lambda_n a_n^2 ~ n^(-1-delta).

    Useful for rate fits that must realize the worst-case envelope rather
    than the faster single-mode decay.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    return power_decay(N, (3.0 + delta) / 2.0)


PRESET_NAMES = ("single-mode", "poly-bump", "random-decay", "h1-saturating")


def build_preset(name: str, domain: SpectralDomain, *, mode: int = 1, p: float = 2.0,
                 seed: int = 0, delta: float = 0.05) -> ModeCoefficients:
    """Construct a named preset sized for the given domain."""
    N = domain.mode_count
    if name == "single-mode":
        return single_mode(N, k=mode)
    if name == "poly-bump":
        return poly_bump(domain)
    if name == "random-decay":
        return random_decay(N, p=p, seed=seed)
    if name == "h1-saturating":
        return h1_saturating(N, delta=delta)
    raise ValueError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")


def _random_trig_paths(grid: TimeGrid, count: int, seed: int) -> list[np.ndarray]:
    """``count`` sine polynomials ``sum_k c_k sin(k pi t / T)``, k = 1..8, on
    the nodes of ``grid``, draw i with standard normal ``c`` from seed
    ``seed + i``.  The eight sines are formed once for all draws, and each
    draw adds them up in k order."""
    t = grid.nodes
    basis = [np.sin((k + 1) * math.pi * t / grid.t_end) for k in range(8)]
    paths = []
    for i in range(count):
        c = np.random.default_rng(seed + i).standard_normal(8)
        vals = np.zeros_like(t)
        for ck, row in zip(c, basis):
            vals += ck * row
        paths.append(vals)
    return paths
