"""Independent reference computations backing the expected-value tests.

Nothing here imports evaluation code from the package: the series oracle is
a direct extended-precision summation, integrals go through mpmath
quadrature, and the peak search is a plain golden-section loop.
"""

from __future__ import annotations

import math

import mpmath as mp


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
