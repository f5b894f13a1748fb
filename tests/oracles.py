"""Independent reference computations backing the expected-value tests.

Nothing here imports evaluation code from the package: the series oracle is
a direct extended-precision summation, integrals go through mpmath
quadrature, the peak search is a plain golden-section loop, and the
seminorm reference forms the whole difference tensor.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np


def ml_series_ref(alpha: float, beta: float, z: float) -> float:
    """Direct power-series summation of E_{alpha,beta}(z) in extended precision.

    Working digits grow with the cancellation scale |z|**(1/alpha) so the
    result is correct to double precision wherever the tests evaluate it.
    """
    m = abs(z) ** (1.0 / alpha)
    dps = max(60, 35 + int(0.95 * m))
    max_terms = _terms_to_stop(alpha, beta, z, dps) + 20
    with mp.workdps(dps):
        a = mp.mpf(alpha)
        b = mp.mpf(beta)
        zz = mp.mpf(z)
        total = mp.mpf(0)
        biggest = mp.mpf(0)
        term = 1 / mp.gamma(b)
        k = 0
        while True:
            total += term
            biggest = max(biggest, abs(term))
            k += 1
            if k > max_terms:
                raise RuntimeError("oracle series did not converge")
            term = zz**k / mp.gamma(a * k + b)
            if k > 8 and abs(term) < mp.mpf(10) ** (-dps - 5) * max(biggest, abs(total), mp.mpf(1e-300)):
                break
        return float(total)


def _terms_to_stop(alpha: float, beta: float, z: float, dps: int) -> int:
    """The latest term at which the stopping rule of ``ml_series_ref`` fires,
    estimated in floats.

    The log-terms ``k log|z| - lgamma(alpha k + beta)`` are concave in k, and
    the rule compares each term with at least the largest one, so the first
    term past the largest that lies ``dps + 5`` digits below it ends the sum.
    """
    if z == 0.0:
        return 9
    log_z = math.log(abs(z))
    drop = (dps + 5) * math.log(10.0)
    top = -math.inf
    k = 0
    while True:
        log_term = k * log_z - math.lgamma(alpha * k + beta)
        top = max(top, log_term)
        if k > 8 and log_term < top - drop:
            return k
        k += 1


def golden_section_max(f, lo: float, hi: float, tol: float = 1e-12):
    """Golden-section maximizer returning (argmax, value)."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol * max(1.0, abs(a) + abs(b)):
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    x = 0.5 * (a + b)
    return x, f(x)


def quad_ref(f, lo: float, hi: float, dps: int = 30) -> float:
    """Adaptive quadrature reference via mpmath."""
    with mp.workdps(dps):
        return float(mp.quad(f, [lo, hi]))


def frac_integral_ref(f, beta: float, t: float, dps: int = 30) -> float:
    """Reference value of the order-beta fractional integral at time t."""
    if t == 0.0:
        return 0.0
    with mp.workdps(dps):
        b = mp.mpf(beta)
        tt = mp.mpf(t)
        val = mp.quad(lambda tau: (tt - tau) ** (b - 1) * f(tau), [0, tt])
        return float(val / mp.gamma(b))


def gagliardo_linear_ref(beta: float, t_end: float) -> float:
    """Closed form of the Slobodeckij seminorm of v(t) = t on (0, T).

    The double integral of |t - tau|**(1-2 beta) evaluates to
    2 T^(3-2b) / ((2-2b)(3-2b)).
    """
    return math.sqrt(2.0 * t_end ** (3.0 - 2.0 * beta) / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta)))


def _sqnorm_ref(diff, wts):
    return np.sum(diff**2, axis=-1) if wts is None else diff**2 @ wts


def pair_sqnorms_ref(vals, weights=None):
    """``|v_i - v_j|**2`` (weighted) of every node pair of (n, d) samples,
    from the full (n, n, d) difference tensor."""
    wts = None if weights is None else np.asarray(weights, dtype=float)
    return _sqnorm_ref(vals[:, None, :] - vals[None, :, :], wts)


def gagliardo_tensor_ref(values, t_end: float, beta: float, weights=None) -> float:
    """Slobodeckij seminorm of node samples on a uniform grid of (0, t_end)
    from the full (M+1) x (M+1) x d difference tensor: the exterior cells by
    the tensor trapezoid, the cells touching the diagonal by the exact
    moments of local linear slopes.

    The same floating-point operations in the same order as the package's
    evaluation, so the two agree bit for bit.
    """
    vals = np.asarray(values, dtype=float)
    vals = vals[:, None] if vals.ndim == 1 else vals
    M = vals.shape[0] - 1
    h = t_end / M
    wts = None if weights is None else np.asarray(weights, dtype=float)
    t = np.linspace(0.0, t_end, M + 1)
    dt = np.abs(t[:, None] - t[None, :])
    with np.errstate(divide="ignore"):
        kern = np.where(dt > 0, dt ** (-1.0 - 2.0 * beta), 0.0)
    cells = np.arange(M)
    far = np.zeros((M + 2, M + 2))
    far[1:-1, 1:-1] = np.abs(cells[:, None] - cells[None, :]) >= 2
    counts = far[:-1, :-1] + far[1:, :-1] + far[:-1, 1:] + far[1:, 1:]
    pair_w = counts * (h * h / 4.0)
    sq = pair_sqnorms_ref(vals, wts)
    total = float(np.sum(pair_w * sq * kern))

    c0 = 2.0 / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta))
    c1 = (2.0 ** (3.0 - 2.0 * beta) - 2.0) / ((2.0 - 2.0 * beta) * (3.0 - 2.0 * beta))
    slopes = (vals[1:] - vals[:-1]) / h
    total += c0 * h ** (3.0 - 2.0 * beta) * float(np.sum(_sqnorm_ref(slopes, wts)))
    if M >= 2:
        mid = (vals[2:] - vals[:-2]) / (2.0 * h)
        total += 2.0 * c1 * h ** (3.0 - 2.0 * beta) * float(np.sum(_sqnorm_ref(mid, wts)))
    return math.sqrt(total)
