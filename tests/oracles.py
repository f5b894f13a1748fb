"""Independent reference computations backing the expected-value tests.

Nothing here imports evaluation code from the package: the series oracle is
a direct extended-precision summation, the Mittag-Leffler tier references
are the whole-table, whole-loop forms of the series and expansion tiers,
integrals go through mpmath quadrature, the peak search is a plain golden-section loop, the
seminorm reference forms the whole difference tensor, and the interval and
rectangle references write out each domain's sine basis by hand.
"""

from __future__ import annotations

import functools
import math
import sys

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


# ---------------------------------------------------------------------------
# the Mittag-Leffler tiers in their whole-table, whole-loop forms.  Each
# takes the same floating-point and 20-digit mpmath operations in the same
# order as the package, so the two agree bit for bit

_TABLE_DPS = 20
_EPS = 2.220446049250313e-16
_FACTOR_MAX = 2.0**995
_ASYM_KMAX = 40


def series_table_ref(alpha: float, beta: float, size: int):
    """``(R_k, k < size; c_0)``: the ratios ``c_{k+1}/c_k`` of ``c_k =
    1/Gamma(alpha k + beta)`` and ``c_0``, all ``size + 1`` coefficients
    taken at once at 20 digits, at exactly formed arguments, and rounded to
    double."""
    with mp.workdps(_TABLE_DPS):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        c = [mp.rgamma(mp.fadd(mp.fmul(a, k, exact=True), b, exact=True)) for k in range(size + 1)]
        return np.array([float(c[k + 1] / c[k]) for k in range(size)]), float(c[0])


def _series_length(alpha: float, m_max: float) -> int:
    return min(1400, int(3.8 * max(m_max, 1.0) / alpha) + 48)


def series_double_ref(alpha: float, beta: float, z, tol):
    """The Kahan-compensated series tier on each value alone, in Python
    floats, over a table built whole for its half-axis (out to m = 12 for
    negative ``z``, 60 for positive): declined where ``|z|`` times any of
    its ``n`` ratios (``n`` at its own ``m``) reaches ``_FACTOR_MAX``, and
    stopped after the first 8 terms that end on ``|t| <= 1e-20 acc`` or
    reach ``n - 1`` terms; returns (value, accept mask)."""
    m_cap = 60.0 if z[0] > 0.0 else 12.0
    ratios, c0 = series_table_ref(alpha, beta, _series_length(alpha, m_cap) + 8)
    val, ok = np.zeros_like(z), np.zeros(z.shape, dtype=bool)
    for i, (x, m) in enumerate(zip(z.tolist(), np.abs(z) ** (1.0 / alpha))):
        n = _series_length(alpha, min(m, m_cap))
        if float(np.max(ratios[:n])) * abs(x) < _FACTOR_MAX:
            t = s = c0
            comp, acc, k = 0.0, abs(t), 0
            while True:
                t = t * (x * float(ratios[k]))
                y = t - comp
                tmp = s + y
                comp, s = (tmp - s) - y, tmp
                acc += abs(t)
                k += 1
                if k % 8 == 0 and (abs(t) <= 1e-20 * acc or k >= n - 1):
                    break
            val[i], ok[i] = s, 4.0 * _EPS * acc + abs(t) <= tol[i] * abs(s)
    return val, ok


def asym_coeffs_ref(alpha: float, beta: float) -> np.ndarray:
    """``1/Gamma(beta - alpha k)``, k = 1..40, at the exactly formed
    arguments, from 20 digits; 0.0 at the poles and where the value leaves
    the double range."""
    with mp.workdps(_TABLE_DPS):
        a, b = mp.mpf(alpha), mp.mpf(beta)
        out = [float(mp.rgamma(mp.fsub(b, mp.fmul(a, k, exact=True), exact=True)))
               for k in range(1, _ASYM_KMAX + 1)]
    return np.array([r if abs(r) * sys.float_info.max >= 1.0 else 0.0 for r in out])


def _pole_flags(alpha: float, beta: float):
    """``(end, pole, near)``: the first k (up to 41) at which the algebraic
    series ends, at a gamma pole of an integer ``alpha``, and for k = 1..40
    whether ``beta - alpha k``, as the exact fraction ``num / den`` of the
    two doubles' ratios, is a pole (a non-positive integer) and whether, as
    rounded to double, it lies within 1e-6 of one."""
    (p, q), (bn, bd) = alpha.as_integer_ratio(), beta.as_integer_ratio()
    end, pole, near = _ASYM_KMAX + 1, [], []
    for k in range(1, _ASYM_KMAX + 1):
        num, den = bn * q - k * p * bd, bd * q
        pole.append(num <= 0 and num % den == 0)
        if pole[-1] and alpha == round(alpha):
            end = min(end, k)
        arg = beta - alpha * k
        near.append(arg < 0.5 and abs(arg - round(arg)) < 1e-6)
    return end, pole, near


def _add_term(near, p, rg, s, s_abs, active, main, side):
    """Term k of the algebraic series into the running sums.  The terms next
    to a pole (``side``) and the others (``main``) each keep ``(prev, on,
    est)``: the last term kept, whether they still run and the charge; the
    ``on`` of ``main`` is ``active``.  A term stops the values at which it
    fails to decrease against the last of its kind, and is charged to them;
    a stop of ``main`` ends the value, one of ``side`` ends only its terms.
    The term is added to the rest."""
    t = p * rg
    mag = np.abs(t)
    prev, on, est = side if near else main
    stop = active & on & (mag >= prev)
    np.copyto(est, mag, where=stop)
    on &= ~stop
    if not active.any():
        return False
    add = active & on
    np.copyto(prev, mag, where=add)
    np.add(s, t, out=s, where=add)
    np.add(s_abs, mag, out=s_abs, where=add)
    return True


def _streams(z):
    """``(active, main, side)`` for ``_add_term`` before the first term."""
    active = np.ones(z.shape, dtype=bool)
    main = (np.full(z.shape, np.inf), active, np.zeros_like(z))
    side = (np.full(z.shape, np.inf), np.ones(z.shape, dtype=bool), np.zeros_like(z))
    return active, main, side


def _charge_last(active, streams):
    """The series ran out of terms while still decreasing: each kind's last
    kept term is charged; the estimate is the larger charge."""
    for prev, on, est in streams:
        np.copyto(est, np.where(np.isfinite(prev), prev, 0.0), where=active & on)


def algebraic_ref(alpha: float, beta: float, z, coeffs):
    """The algebraic series of the large-argument expansions over all 40
    terms: ``(sum, abs_sum, truncation_estimate)``, stopping each value
    before its first term that fails to decrease.  Terms next to a gamma
    pole (see ``_pole_flags``) take no part in that test but stop on their
    own growth (see ``_add_term``), and for integer ``alpha`` the first pole
    ends the sum."""
    end, _, near = _pole_flags(alpha, beta)
    invz = 1.0 / z
    p = invz.copy()
    s = np.zeros_like(z)
    s_abs = np.zeros_like(z)
    active, main, side = _streams(z)
    for k in range(1, _ASYM_KMAX + 1):
        if k == end:
            return s, s_abs, np.maximum(main[2], side[2])
        rg = coeffs[k - 1]
        if rg != 0.0 and not _add_term(near[k - 1], p, rg, s, s_abs, active, main, side):
            break
        p = p * invz
    _charge_last(active, (main, side))
    return s, s_abs, np.maximum(main[2], side[2])


def algebraic_masked_ref(alpha: float, beta: float, z, coeffs):
    """The algebraic series with the early exit of the package, in the form
    that masks every update with the values still running: ``(sum,
    abs_sum, truncation_estimate)``.

    After every 8 terms it ends once each term that a running value could
    still add or stop at lies below ``2**-54`` times that value's
    ``|sum|``, bounding ``|1/Gamma(x)|`` by 1.13 for ``x > 0`` and by
    ``Gamma(1 - x)/pi`` for ``x < 0`` (times 1.01 for rounding), 0 at the
    exact poles, and ``|z|**-j`` by ``zmin**(1-j)/|z|``.  Every estimate is
    then raised to at least ``2**-54 |sum|``.
    """
    end, pole, near = _pole_flags(alpha, beta)
    log_g = np.full(_ASYM_KMAX, -np.inf)
    for k in range(1, end):
        arg = beta - alpha * k
        if not pole[k - 1]:
            log_g[k - 1] = math.log(1.01 * 1.13) if arg > 0.0 else (
                math.lgamma(1.0 - arg) - math.log(math.pi / 1.01))
    az = np.abs(z)
    slack = _ASYM_KMAX * 2.0**-1074 * math.exp(min(np.max(log_g), 709.0)) * np.max(az)
    invz = 1.0 / z
    p = invz.copy()
    s = np.zeros_like(z)
    s_abs = np.zeros_like(z)
    active, main, side = _streams(z)
    for k in range(1, _ASYM_KMAX + 1):
        if k == end:
            break
        rg = coeffs[k - 1]
        if rg != 0.0 and not _add_term(near[k - 1], p, rg, s, s_abs, active, main, side):
            break
        if k % 8 == 0 and k < _ASYM_KMAX:
            top = np.max(log_g[k:] - np.arange(k, _ASYM_KMAX)
                         * math.log(np.where(active, az, np.inf).min()))
            bound = math.exp(min(top, 709.0)) + slack
            if top > -np.inf and bound < 2.0**-54 * np.where(active, np.abs(s) * az, np.inf).min():
                break
        p = p * invz
    else:
        _charge_last(active, (main, side))
    return s, s_abs, np.maximum(np.maximum(main[2], side[2]), 2.0**-54 * np.abs(s))


def contour_blocks_ref(alpha: float, beta: float, x, mu, u):
    """The real part of the contour integrand at the nodes ``u`` for every
    value at once, as one (row slice, block) pair: each value's row of
    ``num`` and ``den`` gathered from its level of ``mu``."""
    levels, which = np.unique(mu, return_inverse=True)
    mu_col, w = levels[:, None], 1.0 + 1j * u
    a, b = alpha, beta
    num = np.exp(mu_col * (w * w)) * w ** (2 * (2 * a - b) + 1)
    den = mu_col**a * w ** (2 * a)
    yield slice(None), np.ascontiguousarray((num[which] / (den[which] + x[:, None])).real)


def mpmath_single_ref(alpha: float, beta: float, z: float) -> float:
    """The arbitrary-precision power-series fallback with a fresh reciprocal
    gamma per term: ``sum_k z**k / Gamma(alpha k + beta)`` in raw mpf
    operations at ``30 + 0.45 m`` digits (``0.92 m`` for alpha <= 1), each
    ``1/Gamma`` at an exactly formed argument, stopping once a term lies
    ``dps + 5`` digits below the largest term or the sum.  The package's
    fallback must round to the same doubles."""
    lib = mp.libmp
    m = abs(z) ** (1.0 / alpha)
    dps = 30 + int((0.45 if alpha > 1.0 else 0.92) * m)
    ctx = mp.MPContext()
    ctx.dps = dps
    prec, rnd = ctx.prec, lib.round_nearest
    a, b, zz = lib.from_float(alpha), lib.from_float(beta), lib.from_float(z)
    tiny = lib.from_float(1e-300)
    eps = (ctx.mpf(10) ** (-dps - 5))._mpf_

    def coeff(k):
        return lib.mpf_rgamma(lib.mpf_add(lib.mpf_mul(a, lib.from_int(k)), b), prec, rnd)

    s = biggest = lib.fzero
    power = lib.fone
    t = coeff(0)
    k = 0
    while True:
        s = lib.mpf_add(s, t, prec, rnd)
        if lib.mpf_gt(lib.mpf_abs(t), biggest):
            biggest = lib.mpf_abs(t)
        k += 1
        power = lib.mpf_mul(power, zz, prec, rnd)
        t = lib.mpf_mul(power, coeff(k), prec, rnd)
        if k > 5:
            scale = max(biggest, lib.mpf_abs(s), tiny, key=functools.cmp_to_key(lib.mpf_cmp))
            if lib.mpf_gt(lib.mpf_mul(eps, scale, prec, rnd), lib.mpf_abs(t)):
                return lib.to_float(s, rnd=rnd)


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

    O(M**2 d) time and memory: the package sums the same quadrature in
    O(M log M) by a near-diagonal band and an FFT far field, and agrees
    with this form to rounding.
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


def _gauss_panels_ref(a: float, b: float, panels: int, order: int = 10):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[:-1] + edges[1:])
    half = 0.5 * (edges[1] - edges[0])
    return (mid[:, None] + half * x[None, :]).ravel(), np.tile(half * w, panels)


def _panel_count_ref(top) -> int:
    return max(4, int(top) // 2 + 3)


def interval_ref(L: float, N: int) -> dict:
    """Eigenvalues, mode indices, quadrature and boundary data of the sine
    basis on (0, L), written out for one axis."""
    n = np.arange(1, N + 1)
    pts, wts = _gauss_panels_ref(0.0, L, _panel_count_ref(N))
    return {"eigenvalues": (n * math.pi / L) ** 2, "mode_index": n,
            "quad_points": pts, "quad_weights": wts,
            "boundary_points": np.array([0.0, L]), "boundary_weights": np.array([1.0, 1.0])}


def rectangle_ref(L1: float, L2: float, N: int) -> dict:
    """The same data for the tensor sine basis on (0, L1) x (0, L2): the N
    lowest index pairs sorted by eigenvalue, ties by the pair, boundary edges
    in the order x = 0, x = L1, y = 0, y = L2."""
    K = max(2, int(math.isqrt(N)) + 2)
    while True:
        j = np.arange(1, K + 1)
        lam = ((j * math.pi / L1) ** 2)[:, None] + ((j * math.pi / L2) ** 2)[None, :]
        lam = lam.ravel()
        ia, ib = np.repeat(j, K), np.tile(j, K)
        order = np.lexsort((ib, ia, lam))
        cutoff = min((math.pi * (K + 1) / L1) ** 2 + (math.pi / L2) ** 2,
                     (math.pi / L1) ** 2 + (math.pi * (K + 1) / L2) ** 2)
        if order.size >= N and lam[order[N - 1]] < cutoff:
            break
        K *= 2
    chosen = order[:N]
    idx = np.stack([ia[chosen], ib[chosen]], axis=1)
    px, wx = _gauss_panels_ref(0.0, L1, _panel_count_ref(idx[:, 0].max()))
    py, wy = _gauss_panels_ref(0.0, L2, _panel_count_ref(idx[:, 1].max()))
    PX, PY = np.meshgrid(px, py, indexing="ij")
    b_pts = [np.stack([np.full_like(py, x0), py], axis=1) for x0 in (0.0, L1)]
    b_pts += [np.stack([px, np.full_like(px, y0)], axis=1) for y0 in (0.0, L2)]
    return {"eigenvalues": lam[chosen], "mode_index": idx,
            "quad_points": np.stack([PX.ravel(), PY.ravel()], axis=1),
            "quad_weights": np.outer(wx, wy).ravel(),
            "boundary_points": np.concatenate(b_pts, axis=0),
            "boundary_weights": np.concatenate([wy, wy, wx, wx])}


def rectangle_strip_ref(L1: float, L2: float, N: int):
    """Mode indices and eigenvalues of the N lowest modes on (0, L1) x
    (0, L2), L1 >= L2, taken from the strip of index pairs i <= N, j <= J.

    J is the last index with (pi/L1)^2 + (J pi/L2)^2 at most the eigenvalue
    of the pair (N, 1).  No pair outside the strip can be among the N
    lowest: past i = N the pairs (1..N, j) come first, and past J every
    eigenvalue exceeds that of (N, 1).  On thin rectangles the strip holds
    few rows where the square search of ``rectangle_ref`` does not fit in
    memory.
    """
    i = np.arange(1, N + 1)
    t1 = (i * math.pi / L1) ** 2
    top = t1[-1] + (math.pi / L2) ** 2
    J = 1
    while t1[0] + ((J + 1) * math.pi / L2) ** 2 <= top:
        J += 1
    j = np.arange(1, J + 1)
    lam = (t1[:, None] + ((j * math.pi / L2) ** 2)[None, :]).ravel()
    ia, ib = np.repeat(i, J), np.tile(j, N)
    order = np.lexsort((ib, ia, lam))[:N]
    return np.stack([ia[order], ib[order]], axis=1), lam[order]


def eval_modes_ref(lengths, mode_index, points) -> np.ndarray:
    """e_n(x_p), (N, P), on the interval (one length) or the rectangle."""
    if len(lengths) == 1:
        (L,) = lengths
        return math.sqrt(2.0 / L) * np.sin(np.outer(mode_index * math.pi / L, points))
    L1, L2 = lengths
    j, k = mode_index[:, [0]], mode_index[:, [1]]
    x, y = points[None, :, 0], points[None, :, 1]
    return 2.0 / math.sqrt(L1 * L2) * np.sin(j * math.pi * x / L1) * np.sin(k * math.pi * y / L2)


def boundary_normal_deriv_ref(lengths, mode_index, boundary_points) -> np.ndarray:
    """Outward normal derivative of every mode at the boundary nodes, (N, B)."""
    if len(lengths) == 1:
        (L,) = lengths
        dn = math.sqrt(2.0 / L) * (mode_index * math.pi / L)
        return np.stack([-dn, dn * np.cos(mode_index * math.pi)], axis=1)
    amp = 2.0 / math.sqrt(lengths[0] * lengths[1])
    w = [mode_index[:, [a]] * math.pi / L for a, L in enumerate(lengths)]
    cols = []
    for a, L in enumerate(lengths):
        for x0, sgn in ((0.0, -1.0), (L, 1.0)):
            nodes = boundary_points[boundary_points[:, a] == x0, 1 - a]
            cos = np.cos(mode_index[:, [a]] * math.pi * (x0 / L))
            cols.append(sgn * amp * w[a] * cos * np.sin(w[1 - a] * nodes))
    return np.concatenate(cols, axis=1)


def mode_combinations_ref(lam, alpha: float, times, kernels, a, b) -> dict:
    """Value, velocity, Caputo derivative and (where ``kernels`` holds
    E_{alpha,alpha-1}) second derivative of the modes ``lam`` with data
    ``(a, b)``, each written as one expression over the Mittag-Leffler
    kernels ``kernels[beta]`` = E_{alpha,beta}(-lam t**alpha), shape (N, T).

    Each expression rounds in the order the solver's combinations keep.
    """
    lam, t = np.asarray(lam, dtype=float), np.asarray(times, dtype=float)
    a, b = np.reshape(a, (-1, 1)), np.reshape(b, (-1, 1))
    tpow = np.zeros_like(t)
    tpow[t > 0.0] = t[t > 0.0] ** (alpha - 1.0)
    te2 = t[None, :] * kernels[2.0]
    value = a * kernels[1.0] + b * te2
    out = {"value": value,
           "velocity": -lam[:, None] * a * tpow[None, :] * kernels[alpha] + b * kernels[1.0],
           "caputo": -lam[:, None] * value}
    if alpha - 1.0 in kernels:
        t2 = t ** (alpha - 2.0)
        out["second_derivative"] = -lam[:, None] * (a * t2[None, :] * kernels[alpha - 1.0]
                                                     + b * tpow[None, :] * kernels[alpha])
    return out


def trace_energy_ref(e1, te2, a, b, normal_deriv, weights, nodes) -> float:
    """Trace energy of one dataset ``(a, b)`` by the per-draw route: its mode
    values ``a e1 + b te2`` (kernels of shape (N, T)) times the boundary
    normal derivatives ``normal_deriv`` (N, B), summed over the modes by
    pairwise halving, then the ``weights``-weighted squares integrated over
    ``nodes`` by the trapezoid rule."""
    value = np.reshape(a, (-1, 1)) * e1 + np.reshape(b, (-1, 1)) * te2
    terms = value[:, :, None] * np.asarray(normal_deriv)[:, None, :]
    while terms.shape[0] > 1:
        n = terms.shape[0]
        halved = terms[0 : n - n % 2 : 2] + terms[1:n:2]
        terms = np.concatenate([halved, terms[-1:]]) if n % 2 else halved
    return float(np.trapezoid(terms[0] ** 2 @ weights, nodes))
