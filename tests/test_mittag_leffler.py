import math
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import mpmath as mp
import fracwave.mittag_leffler as mlmod
from fracwave.mittag_leffler import (
    Z_MAX,
    BoundFit,
    MLParams,
    _asym_neg,
    _asym_pos,
    _contour_neg,
    _series_double,
    _series_table,
    _tail_growth_violation,
    gamma,
    max_ratio,
    ml,
    verify_decay_bound,
)
from oracles import golden_section_max, ml_series_ref

# frozen extended-precision series values (see oracles.ml_series_ref)
ML_1P5_1_M5 = -0.3000820504131309
ML_1P25_1P25_M5 = -0.01122191771732039
ML_1P75_2_M30 = 0.01903396646586622
ML_1P5_1P5_M120 = -2.8759567175019854e-05
ML_1P25_1_M300 = -0.0006847792156716808


class TestGamma:
    def test_known_values(self):
        assert gamma(1.0) == 1.0
        assert abs(gamma(0.5) - math.sqrt(math.pi)) < 1e-15
        assert gamma(5.0) == 24.0

    def test_accuracy_over_contract_range(self):
        for x in np.geomspace(1e-3, 170.0, 60):
            ref = float(mp.gamma(mp.mpf(float(x))))
            assert abs(gamma(float(x)) - ref) <= 1e-13 * abs(ref)

    def test_poles_rejected(self):
        for x in (0.0, -1.0, -7.0):
            with pytest.raises(ValueError):
                gamma(x)

    def test_negative_non_integer(self):
        ref = float(mp.gamma(mp.mpf(-2.5)))
        assert abs(gamma(-2.5) - ref) <= 1e-12 * abs(ref)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            gamma(float("nan"))


class TestParams:
    @pytest.mark.parametrize("alpha,beta", [(0.0, 1.0), (2.1, 1.0), (1.5, 0.0), (1.5, -2.0)])
    def test_invalid(self, alpha, beta):
        with pytest.raises(ValueError):
            MLParams(alpha, beta)

    def test_alpha_two_allowed(self):
        MLParams(2.0, 1.0)


class TestIdentities:
    def test_exp(self):
        p = MLParams(1.0, 1.0)
        for x in (-1.0, 0.0, 1.0, -30.0, 20.0):
            assert abs(ml(p, x) - math.exp(x)) <= 1e-12 * math.exp(x)

    def test_cos_zero(self):
        assert abs(ml(MLParams(2.0, 1.0), -math.pi**2 / 4.0)) < 1e-12

    def test_sinc_zero(self):
        assert abs(ml(MLParams(2.0, 2.0), -math.pi**2)) < 1e-12

    def test_cos_grid(self):
        x = np.geomspace(0.1, 1e6, 80)
        got = ml(MLParams(2.0, 1.0), -x)
        ref = np.cos(np.sqrt(x))
        assert np.max(np.abs(got - ref) / np.maximum(np.abs(ref), 1e-10)) < 1e-10

    def test_value_at_zero(self):
        for beta in (0.5, 1.0, 1.7, 3.2):
            assert abs(ml(MLParams(1.5, beta), 0.0) - 1.0 / gamma(beta)) < 1e-13

    def test_range_cap(self):
        with pytest.raises(ValueError):
            ml(MLParams(1.5, 1.0), -2.0 * Z_MAX)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            ml(MLParams(1.5, 1.0), float("inf"))


class TestOracleAgreement:
    @pytest.mark.parametrize(
        "alpha,beta,z,frozen",
        [
            (1.5, 1.0, -5.0, ML_1P5_1_M5),
            (1.25, 1.25, -5.0, ML_1P25_1P25_M5),
            (1.75, 2.0, -30.0, ML_1P75_2_M30),
            (1.5, 1.5, -120.0, ML_1P5_1P5_M120),
            (1.25, 1.0, -300.0, ML_1P25_1_M300),
        ],
    )
    def test_frozen_values(self, alpha, beta, z, frozen):
        # frozen numbers are pinned against the live oracle as well
        assert abs(ml_series_ref(alpha, beta, z) - frozen) <= 1e-14 * abs(frozen)
        tol = 1e-10 if abs(z) <= 50 else 1e-8
        assert abs(ml(MLParams(alpha, beta), z) - frozen) <= tol * abs(frozen)

    @pytest.mark.parametrize("alpha", [1.1, 1.5, 1.9])
    def test_sweep(self, alpha):
        for beta in (1.0, alpha):
            for z in (-0.3, -3.0, -12.0, -45.0, -150.0, -700.0):
                ref = ml_series_ref(alpha, beta, z)
                tol = 1e-10 if abs(z) <= 50 else 1e-8
                assert abs(ml(MLParams(alpha, beta), z) - ref) <= tol * max(abs(ref), 1e-300)

    def test_positive_axis(self):
        for alpha, beta in ((1.5, 1.0), (0.75, 1.0), (1.25, 2.0)):
            for z in (0.5, 5.0, 40.0):
                ref = ml_series_ref(alpha, beta, z)
                assert abs(ml(MLParams(alpha, beta), z) - ref) <= 1e-11 * abs(ref)


class TestRecurrence:
    @given(
        alpha=st.floats(0.9, 2.0),
        beta=st.floats(0.3, 2.5),
        z=st.floats(-100.0, 25.0),
    )
    def test_shift_recurrence(self, alpha, beta, z):
        # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b), scale-normalized so the
        # check stays meaningful where the two big terms cancel
        lhs = ml(MLParams(alpha, beta), z)
        mid = z * ml(MLParams(alpha, alpha + beta), z)
        rhs = mid + 1.0 / gamma(beta)
        scale = max(abs(lhs), abs(mid), 1.0 / gamma(beta))
        assert abs(lhs - rhs) <= 1e-9 * scale

    def test_regime_consistency(self):
        # both the contour sum, which takes the band between the series and
        # the expansion, and the large-argument expansion claim 1e-8 accuracy
        # on an overlap band; they must agree there (production uses tighter
        # gates and bridges any gap through the arbitrary-precision fallback)
        tol = 1e-8
        for alpha in (1.3, 1.6, 1.9):
            for beta in (1.0, 2.0, alpha):
                z = -np.geomspace(33.0**alpha, 40.0**alpha, 7)
                c_val, c_ok = _contour_neg(alpha, beta, z, np.full(z.shape, tol))
                a_val, a_ok = _asym_neg(alpha, beta, z, np.full(z.shape, 10.0 * tol))
                both = c_ok & a_ok
                assert np.any(both)
                agree = np.abs(c_val[both] - a_val[both]) / np.abs(c_val[both])
                assert np.max(agree) < tol


class TestContract:
    # the whole stated contract, alpha in (0, 2], beta in (0, 3] and
    # |z| <= Z_MAX on both half-axes, under the derandomized profile of
    # conftest.py; alpha stops at 0.01, below which a single positive value
    # near z = 1 takes the power series seconds
    @given(
        alpha=st.floats(0.01, 2.0),
        beta=st.floats(0.0, 3.0, exclude_min=True),
        log_z=st.floats(-6.0, math.log10(Z_MAX)),
        negative=st.booleans(),
    )
    def test_values_recurrence_and_oracle(self, alpha, beta, log_z, negative):
        z = (-1.0 if negative else 1.0) * 10.0**log_z
        try:
            lhs = ml(MLParams(alpha, beta), z)
        except ValueError as exc:
            # the one documented failure: the value leaves the double range
            assert z > 0.0 and "overflows double precision" in str(exc)
            return
        assert math.isfinite(lhs)
        mid = z * ml(MLParams(alpha, alpha + beta), z)
        lead = float(mp.rgamma(beta))
        assert abs(lhs - (mid + lead)) <= 1e-9 * max(abs(lhs), abs(mid), lead)
        # the oracle's cost grows with m; the cap keeps each example fast
        if math.log(abs(z)) / alpha <= math.log(min(200.0, 100.0 * alpha)):
            ref = ml_series_ref(alpha, beta, z)
            tol = 3e-11 if abs(z) <= 64.0 else 1e-9
            assert abs(lhs - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("beta", [5e-324, 1e-300])
    @pytest.mark.parametrize("alpha,z", [(1.0, 1.0), (1.5, -30.0), (1.5, -20.0**1.5),
                                         (0.5, 5.0), (2.0, -1600.0)])
    def test_tiny_beta_is_declined_silently(self, alpha, beta, z):
        # 1/Gamma(beta) is about beta, so the series ratio R_0 = c_1/c_0 is
        # huge (infinite for subnormal beta): the series tiers must decline
        # without a floating-point warning and a later tier take the value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            value = ml(MLParams(alpha, beta), z)
            # E_{a,b}(z) = z E_{a,a+b}(z) + 1/Gamma(b), and alpha + beta == alpha
            ref = z * ml(MLParams(alpha, alpha), z)
        assert value == pytest.approx(ref, rel=1e-9)


class TestCascade:
    # (alpha, beta, z, float.hex of the value, tier that produces it)
    PINNED = [
        (1.5, 1.0, -5.0, "-0x1.3348b5829067dp-2", "_series_double"),
        (1.5, 1.0, -200.0, "-0x1.71a1202036157p-10", "_contour_neg"),
        (1.5, 1.5, -5000.0, "-0x1.22c7d7f90dfb5p-26", "_asym_neg"),
        (1.75, 0.75, -1e6, "0x1.1835bb20d934dp-40", "_asym_neg"),
        (0.5, 1.0, -40.0, "0x1.ce0a30f4a2d8fp-7", "_asym_neg"),
        (1.153934466291663, 1.153934466291663, -60.67957098593296, "-0x1.87876f356ed78p-15",
         "_contour_neg"),
        (1.05, 1.05, -40.0, "-0x1.2b3cfbc35b906p-15", "_contour_neg"),
        (2.0, 3.0, -15792.111111111113, "0x1.311deb5447fb6p-32", "_contour_mp"),
        (1.0, 1.0, -3.0, "0x1.97db0ccceb0afp-5", None),
        (1.0, 2.0, -3.0, "0x1.4456df777634ep-2", None),
        (1.5, 2.0, 0.0, "0x1.0000000000000p+0", None),
        (1.5, 1.0, 30.0, "0x1.44f5104ef5bf5p+13", "_series_double"),
        (1.0, 1.0, 3.0, "0x1.415e5bf6fb106p+4", "_series_double"),
        (1.5, 1.0, 1000.0, "0x1.9b70e241ecf22p+143", "_asym_pos"),
        (0.75, 2.0, 40.0, "0x1.994e8aae13c92p+190", "_asym_pos"),
    ]

    @pytest.mark.parametrize("alpha,beta,z,bits,tier", PINNED)
    def test_pinned_bits_and_tier(self, monkeypatch, alpha, beta, z, bits, tier):
        accepted = []

        def record(fn):
            def wrapped(a, b, zz, tol):
                val, ok = fn(a, b, zz, tol)
                if np.any(ok):
                    accepted.append(fn.__name__)
                return val, ok
            return wrapped

        def fallback(name):
            def wrapped(a, b, zz, orig=getattr(mlmod, name)):
                accepted.append(name)
                return orig(a, b, zz)
            return wrapped

        for name in ("_NEG_TIERS", "_POS_TIERS"):
            tiers = getattr(mlmod, name)
            monkeypatch.setattr(mlmod, name, tuple((lim, record(fn)) for lim, fn in tiers))
        for name in ("_mpmath_single", "_contour_mp"):
            monkeypatch.setattr(mlmod, name, fallback(name))
        assert ml(MLParams(alpha, beta), z).hex() == bits
        assert accepted == ([tier] if tier else [])

    def test_largest_finite_positive_value_kept(self):
        # m = 700: exp(m) still fits in a double
        assert ml(MLParams(1.5, 1.0), 700.0**1.5).hex() == "0x1.3b83ea35098c6p+1009"

    @pytest.mark.parametrize("beta", [2.0, 3.0])
    def test_value_kept_where_only_exp_overflows(self, beta):
        # m = 712: exp(m) overflows, the lead exp(m) m**(1-beta) / alpha does not
        z = 712.0**1.5
        with mp.workdps(30):
            ref = float(mp.exp(712) * mp.mpf(712) ** (1 - beta) / mp.mpf(1.5))
        assert abs(ml(MLParams(1.5, beta), z) / ref - 1.0) < 1e-12

    @pytest.mark.parametrize("alpha,beta,z", [(1.25, 0.25, 5000.0), (1.5, 1.0, 720.0**1.5)])
    def test_positive_overflow_raises(self, monkeypatch, alpha, beta, z):
        def fallback(*args):
            raise AssertionError("overflowing value sent to arbitrary precision")

        monkeypatch.setattr(mlmod, "_mpmath_single", fallback)
        with pytest.raises(ValueError, match=r"overflows double precision \(alpha=.*beta=.*z="):
            ml(MLParams(alpha, beta), z)
        with pytest.raises(ValueError, match="overflows double precision"):
            ml(MLParams(alpha, beta), np.array([1.0, z, -z]))

    @pytest.mark.parametrize("alpha", [0.75, 1.25, 1.5, 1.9])
    def test_positive_regime_consistency(self, alpha):
        # series and exponential expansion both accept on m in [40, 60]
        z = np.geomspace(40.0, 60.0, 9) ** alpha
        tol = np.where(z <= 64.0, 3e-11, 1e-9)
        for beta in (1.0, 2.0, alpha):
            s_val, s_ok = _series_double(alpha, beta, z, tol)
            a_val, a_ok = _asym_pos(alpha, beta, z, tol)
            assert np.all(s_ok) and np.all(a_ok)
            assert np.max(np.abs(s_val - a_val) / s_val) < 1e-12

    def test_series_table_built_once(self, empty_coeff_cache):
        # negative arguments build the table out to m = 12 only; the first
        # positive one replaces it, once, with the table out to m = 60
        alpha, beta = 1.37, 1.11
        p = MLParams(alpha, beta)
        ml(p, -1.0)
        short = _series_table(alpha, beta, mlmod._M_DOUBLE)
        assert short[0].size == mlmod._series_length(alpha, mlmod._M_DOUBLE)
        ml(p, np.array([-(11.0**alpha), -(40.0**alpha)]))
        assert _series_table(alpha, beta, mlmod._M_DOUBLE) is short
        ml(p, np.array([-(40.0**alpha), 55.0**alpha]))
        long = _series_table(alpha, beta, mlmod._M_POS_SERIES)
        assert long[0].size == mlmod._series_length(alpha, mlmod._M_POS_SERIES)
        assert long[0][: short[0].size].tolist() == short[0].tolist() and long[1] == short[1]
        ml(p, np.array([-1.0, 3.0]))
        assert _series_table(alpha, beta, mlmod._M_DOUBLE) is long


class TestContourTier:
    # the trapezoid sum on the parabolic contour against the tiers on either
    # side of it, the oracle, and itself

    @pytest.mark.parametrize("alpha", [1.05, 1.1539, 1.3, 1.6, 1.9])
    def test_mid_band_against_oracle(self, alpha):
        # the band between the series and the expansion, where the contour
        # sum is tried first; alpha = 1.1539 puts the pole pair near the
        # real u-axis, where the step must be halved
        m = np.geomspace(12.5, 46.0, 9)
        z = -(m**alpha)
        tol = np.where(-z <= 64.0, 3e-11, 1e-9)
        for beta in (1.0, 2.0, alpha):
            val, ok = _contour_neg(alpha, beta, z, tol)
            ref = np.array([ml_series_ref(alpha, beta, float(v)) for v in z])
            assert np.all(ok)
            assert np.all(np.abs(val - ref) <= tol * np.abs(ref))

    def test_step_halved_only_where_the_step_change_declines(self, monkeypatch):
        # at alpha = beta = 1.1539 and m of 32 to 37 the pole pair sits 0.39
        # above the real u-axis at mu = 4, and the sum at twice the step
        # differs by about 1e-10 relative: that change alone declines these
        # values at the first step.  At z = -20 and -25 it does not
        alpha = 1.153934466291663
        z = -np.concatenate([[20.0, 25.0], np.geomspace(55.0, 64.0, 6)])
        tol = np.full(z.shape, 3e-11)
        ref = np.array([ml_series_ref(alpha, alpha, float(v)) for v in z])
        blocks = []

        def spy(a, b, x, mu, u, orig=mlmod._contour_blocks):
            blocks.append((x.size, u.size))
            return orig(a, b, x, mu, u)

        monkeypatch.setattr(mlmod, "_contour_blocks", spy)
        val, ok = _contour_neg(alpha, alpha, z, tol)
        assert np.all(ok) and np.all(np.abs(val - ref) <= tol * np.abs(ref))
        # one halving, on the six declined values: the odd nodes only
        assert blocks == [(8, mlmod._CONTOUR_NODES), (6, mlmod._CONTOUR_NODES - 1)]
        monkeypatch.setattr(mlmod, "_CONTOUR_HALVINGS", 0)
        assert _contour_neg(alpha, alpha, z, tol)[1].tolist() == [True] * 2 + [False] * 6

    @pytest.mark.parametrize("alpha", [1.05, 1.3, 1.6, 1.9])
    def test_agrees_with_asymptotic_expansion(self, alpha):
        z = -np.geomspace(60.0, 200.0, 15) ** alpha
        tol = np.full(z.shape, 1e-9)
        for beta in (1.0, 2.0, alpha):
            a_val, a_ok = _asym_neg(alpha, beta, z, tol)
            c_val, c_ok = _contour_neg(alpha, beta, z, tol)
            both = a_ok & c_ok
            assert np.any(both)
            assert np.max(np.abs(a_val[both] - c_val[both]) / np.abs(a_val[both])) < 1e-12

    @pytest.mark.parametrize("alpha,beta", [(1.01, 1.0), (1.01, 1.01), (1.99, 0.5), (1.99, 1.99),
                                            (1.0, 0.5), (1.0, 2.5), (0.9, 0.9), (0.5, 2.0)])
    def test_order_edges_against_oracle(self, alpha, beta):
        # poles next to the branch cut (alpha -> 1), next to the imaginary
        # axis (alpha -> 2), and none on the principal sheet (alpha <= 1)
        z = -np.array([20.0, 46.0, 120.0]) ** alpha
        tol = np.where(-z <= 64.0, 3e-11, 1e-9)
        val, ok = _contour_neg(alpha, beta, z, tol)
        assert np.all(ok)
        ref = np.array([ml_series_ref(alpha, beta, float(v)) for v in z])
        assert np.all(np.abs(val - ref) <= tol * np.abs(ref))

    @pytest.mark.parametrize("rows", [1, 3])
    def test_blocked_sum_is_bit_identical(self, monkeypatch, rows):
        z = -np.geomspace(20.0, 400.0, 101) ** 1.37
        tol = np.full(z.shape, 1e-9)
        whole = _contour_neg(1.37, 0.8, z, tol)
        monkeypatch.setattr(mlmod, "_CONTOUR_BLOCK_BYTES", rows * 64 * mlmod._CONTOUR_NODES)
        blocked = _contour_neg(1.37, 0.8, z, tol)
        assert whole[0].tobytes() == blocked[0].tobytes()
        assert np.array_equal(whole[1], blocked[1])

    def test_near_zero_of_the_saddle_pair(self):
        # near a zero of the saddle pair's cosine its phase rounding is large
        # against the pair as evaluated (a true 5.3e-10 relative here, where
        # charging it against the pair read 1e-10), so the double tiers
        # charge it against the pair's amplitude.  The cascade's value must
        # meet the tolerance against the arbitrary-precision contour sum,
        # whose bits equal those of the series oracle at 530 digits
        alpha = 1.9539344662916631
        z = -199456.8666800397
        ref = mlmod._contour_mp(alpha, alpha, z)
        assert abs(ml(MLParams(alpha, alpha), z) - ref) <= 1e-9 * abs(ref)

    def test_expansion_declines_near_a_zero_of_the_value(self):
        # an alpha-sweep argument where the pair's amplitude is 1.1e5 times
        # the value: charged against the pair as evaluated, the phase rounding
        # let the expansion's value through at a true error of 1.4e-8
        # relative, 14 times the tolerance
        alpha, z = 1.9872677996249966, -64109.04010678201
        assert not _asym_neg(alpha, 1.0, np.array([z]), np.array([1e-9]))[1][0]
        ref = mlmod._contour_mp(alpha, 1.0, z)
        assert abs(ml(MLParams(alpha, 1.0), z) - ref) <= 1e-9 * abs(ref)


@pytest.fixture
def empty_coeff_cache(monkeypatch):
    """A fresh series-table cache, restored afterwards."""
    monkeypatch.setattr(mlmod, "_TABLE_CACHE", {})
    return mlmod._TABLE_CACHE


@pytest.fixture
def gamma_calls(monkeypatch):
    """List that grows by one entry, the working precision in bits, per
    reciprocal gamma the module takes."""
    calls = []

    def counting(ctx, x, orig=mlmod._rgamma_raw):
        calls.append(ctx.prec)
        return orig(ctx, x)

    monkeypatch.setattr(mlmod, "_rgamma_raw", counting)
    return calls


def byte_caches():
    """Name -> cache of every byte-bounded cache of the module."""
    return {name: obj for name, obj in vars(mlmod).items() if isinstance(obj, mlmod._ByteLRU)}


class TestCoefficientTable:
    # (alpha, beta, z, float.hex of the fallback value): the bits of the
    # textbook series with a fresh mp.gamma per term at the same working
    # precision, 44 to 194 digits, including alpha <= 1 (about twice the
    # digits per unit of m)
    FALLBACK = [
        (1.05, 1.05, -40.0, "-0x1.2b3cfbc35b91fp-15"),
        (0.3, 0.5, -3.25, "0x1.1eb19e18aae0ap-4"),
        (0.9, 0.9, -25.0, "0x1.6e5792f124181p-13"),
        (1.0539344662916632, 1.0539344662916632, -39.904412505965276, "-0x1.44f2ade78df18p-15"),
        (1.2872677996249964, 1.0, -122.58712507113859, "-0x1.e836db13b4ed3p-10"),
        (1.2539344662916632, 1.2539344662916632, -162.66330594451733, "-0x1.5099c1b64fd81p-17"),
        (1.8539344662916633, 1.0, -3587.5330675233577, "-0x1.4cdb92561a2abp-25"),
        (1.9206011329583297, 1.0, -24953.07542083895, "-0x1.1807be7f0fc03p-28"),
        (1.9539344662916631, 1.0, -102015.01353125887, "0x1.d9d8785e8c559p-31"),
    ]

    @pytest.mark.parametrize("alpha,beta,z,bits", FALLBACK)
    def test_fallback_bits_frozen(self, alpha, beta, z, bits):
        assert mlmod._mpmath_single(alpha, beta, z).hex() == bits

    def test_fallback_keeps_nothing_in_the_caches(self, monkeypatch):
        # the power series takes its coefficients as it reaches them: no
        # cache of the module gains a byte
        caches = byte_caches()
        assert set(caches) == {"_TABLE_CACHE", "_ASYM_CACHE"}
        for name, cache in caches.items():
            monkeypatch.setattr(mlmod, name, mlmod._ByteLRU(cache.nbytes, cache.budget))
        for alpha, beta, z, bits in self.FALLBACK:
            assert mlmod._mpmath_single(alpha, beta, z).hex() == bits
        assert {name: cache.total for name, cache in byte_caches().items()} == dict.fromkeys(caches, 0)

    def test_batch_sets_precision_once(self, empty_coeff_cache, gamma_calls):
        # no tiers: every value goes to arbitrary precision, the power series
        # up to m = _M_MP_SERIES and the contour sum above it (z = -3000,
        # m = 208).  Each series sets its own precision once and takes all
        # its coefficients at it
        alpha, beta = 1.5, 1.0
        z = -np.array([10.0, 100.0, 1000.0, 3000.0])
        series = (np.abs(z) ** (1.0 / alpha) <= mlmod._M_MP_SERIES).tolist()
        assert series[:2] == [True, True] and not series[-1]
        vals = mlmod._cascade(alpha, beta, z, ())
        runs = [prec for i, prec in enumerate(gamma_calls) if i == 0 or gamma_calls[i - 1] != prec]
        assert runs[:2] == [mp.libmp.dps_to_prec(mlmod._fallback_dps(alpha, v)) for v in z[:2]]
        assert vals.tolist() == [(mlmod._mpmath_single if s else mlmod._contour_mp)(alpha, beta, v)
                                 for s, v in zip(series, z)]
        assert not empty_coeff_cache

    def test_concurrent_calls_match_serial(self, empty_coeff_cache):
        # each thread works at its own precision; a shared global precision
        # lets one thread's working digits leak into another's sum
        cases = [row[:3] for row in self.FALLBACK[:8]]
        want = [row[3] for row in self.FALLBACK[:8]]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda c: mlmod._mpmath_single(*c).hex(), cases * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 4

    @pytest.mark.parametrize("alpha,beta,z,bits", FALLBACK)
    def test_contour_reproduces_fallback_bits(self, alpha, beta, z, bits):
        # the arbitrary-precision contour sum rounds to the same doubles
        assert mlmod._contour_mp(alpha, beta, z).hex() == bits

    def test_concurrent_contour_calls_match_serial(self):
        cases = [row[:3] for row in self.FALLBACK]
        want = [row[3] for row in self.FALLBACK]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda c: mlmod._contour_mp(*c).hex(), cases * 2, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 2

    def test_over_cap_element_raises_before_building(self, monkeypatch, empty_coeff_cache):
        alpha, beta, z, bits = self.FALLBACK[0]
        far = -1.0e6  # m of about 5e5 needs over 2e5 digits
        message = ("argument needs more than the supported working precision "
                   f"(alpha={alpha}, z={far}); see module docstring for the envelope")
        cap = mp.libmp.dps_to_prec(mlmod._MP_MAX_DPS)
        precs = []

        def guarded(ctx, x, orig=mlmod._rgamma_raw):
            assert ctx.prec <= cap, "gamma taken past the precision cap"
            precs.append(ctx.prec)
            return orig(ctx, x)

        monkeypatch.setattr(mlmod, "_rgamma_raw", guarded)
        # with the series tier alone and no arbitrary-precision contour both
        # elements reach the power-series fallback
        monkeypatch.setattr(mlmod, "_NEG_TIERS", mlmod._NEG_TIERS[:1])
        monkeypatch.setattr(mlmod, "_M_MP_SERIES", math.inf)
        with pytest.raises(ValueError) as info:
            ml(MLParams(alpha, beta), np.array([z, far]))
        assert str(info.value) == message
        # the in-cap element took its gammas at its own precision, the most
        # any gamma was taken at
        assert max(precs) == mp.libmp.dps_to_prec(mlmod._fallback_dps(alpha, z))


@pytest.fixture
def no_fallback(monkeypatch):
    def refuse(alpha, beta, z):
        raise AssertionError(f"E_{{{alpha},{beta}}}({z}) went to arbitrary precision")

    monkeypatch.setattr(mlmod, "_mpmath_single", refuse)


class TestTerminatingAlgebraicSeries:
    # for integer alpha the algebraic series ends at gamma poles, so what it
    # keeps is exact and must not be charged its last term as truncation error

    def test_alpha_two_beta_three(self, no_fallback):
        # E_{2,3}(-x) = (1 - cos sqrt x) / x: one algebraic term plus the
        # saddle pair; x from m = 47, past the series tiers, up to Z_MAX.  Near
        # the zeros of 1 - cos the saddle pair's roundoff is rightly refused,
        # so those points are left out
        x = np.geomspace(47.0**2, Z_MAX, 600)
        x = x[1.0 - np.cos(np.sqrt(x)) > 0.5]
        ref = (1.0 - np.cos(np.sqrt(x))) / x
        got = ml(MLParams(2.0, 3.0), -x)
        assert np.max(np.abs(got - ref) / ref) < 1e-11

    def test_alpha_two_beta_three_pointwise(self):
        # one point at a time over the whole range, the zeros of 1 - cos
        # included: past m = 1,700 these once raised the precision-cap error
        for x in np.geomspace(1e-6, 1e8, 400):
            got = ml(MLParams(2.0, 3.0), -x)
            with mp.workdps(50):
                ref = float((1 - mp.cos(mp.sqrt(mp.mpf(x)))) / x)
            tol = 3e-11 if x <= 64.0 else 1e-9
            assert abs(got - ref) <= tol * abs(ref), x

    def test_alpha_one_beta_three(self, no_fallback):
        # E_{1,3}(-x) = (x - 1 + e^-x) / x^2: two algebraic terms, then poles
        x = np.geomspace(47.0, 1e5, 300)
        ref = (x - 1.0 + np.exp(-x)) / x**2
        got = ml(MLParams(1.0, 3.0), -x)
        assert np.max(np.abs(got - ref) / ref) < 1e-13


class TestCacheBudget:
    # the orders of the frozen fallback values at their fallback arguments
    # and at two smaller ones, and one order across the tiers
    CASES = [(a, b, np.array([-0.5, z / 2, z])) for a, b, z, _ in TestCoefficientTable.FALLBACK]
    CASES.append((1.5, 1.0, -np.array([0.5, 30.0, 700.0, 2.0e4])))

    def test_tiny_budget_bounds_caches_and_keeps_bits(self, monkeypatch, empty_coeff_cache):
        unbounded = [ml(MLParams(a, b), z).tolist() for a, b, z in self.CASES]
        # series tables take 0.8 to 1.9 kB here, expansion coefficients 576 bytes
        tables = mlmod._ByteLRU(mlmod._table_bytes, 3_000)
        coeffs = mlmod._ByteLRU(mlmod._ASYM_CACHE.nbytes, 2_000)
        monkeypatch.setattr(mlmod, "_TABLE_CACHE", tables)
        monkeypatch.setattr(mlmod, "_ASYM_CACHE", coeffs)
        for (a, b, z), want in zip(self.CASES, unbounded):
            assert ml(MLParams(a, b), z).tolist() == want
            for c in (tables, coeffs):
                assert c.total <= c.budget
                assert c.total == sum(size for _, size in c._items.values())
        assert all(0 < len(c._items) < len(self.CASES) for c in (coeffs, tables))

    def test_concurrent_eviction_keeps_values_and_count(self, monkeypatch):
        # threads building, replacing (the positive argument needs the longer
        # series table) and evicting the entries of two caches too small for
        # these four orders (series tables of 0.8 to 2.7 kB, expansion
        # coefficients of 576 bytes)
        tables = mlmod._ByteLRU(mlmod._table_bytes, 6_000)
        coeffs = mlmod._ByteLRU(mlmod._ASYM_CACHE.nbytes, 1_200)
        rows = [TestCoefficientTable.FALLBACK[i] for i in (0, 2, 3, 4)]
        cases = [(MLParams(a, b), np.array([-0.5, z / 2, z, 5.0])) for a, b, z, _ in rows]
        want = [ml(p, z).tobytes() for p, z in cases]
        monkeypatch.setattr(mlmod, "_TABLE_CACHE", tables)
        monkeypatch.setattr(mlmod, "_ASYM_CACHE", coeffs)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda c: ml(*c).tobytes(), cases * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 4
        for c in (tables, coeffs):
            assert c.total == sum(size for _, size in c._items.values()) <= c.budget
            assert 0 < len(c._items) < len(rows)


class TestAsymCoefficients:
    # 1/Gamma(beta - alpha k) of the large-argument expansions, rounded to
    # double from arbitrary precision once per (alpha, beta)
    ALPHAS = [0.1, 0.37, 0.5, 0.75, 1.0, 1.153934466291663, 1.25, 1.5, 1.75, 1.9539344662916631, 2.0]
    BETAS = [0.05, 0.5, 0.75, 1.0, 1.5, 1.75, 2.0, 2.5, 3.0]

    @pytest.fixture
    def fresh(self, monkeypatch):
        cache = mlmod._ByteLRU(mlmod._ASYM_CACHE.nbytes, mlmod._CACHE_BYTES)
        monkeypatch.setattr(mlmod, "_ASYM_CACHE", cache)
        return cache

    def test_grid_is_correctly_rounded(self, fresh):
        for alpha in self.ALPHAS:
            for beta in self.BETAS:
                coeffs = mlmod._asym_coeffs(alpha, beta)
                assert coeffs.shape == (mlmod._ASYM_KMAX,)
                with mp.workdps(50):
                    ref = [float(mp.rgamma(beta - alpha * k)) for k in range(1, mlmod._ASYM_KMAX + 1)]
                assert coeffs.tolist() == ref, (alpha, beta)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0, -79.0])
    def test_poles_give_zero(self, x):
        ctx = mlmod._mp_context()
        with ctx.workdps(30):
            assert mlmod._rgamma_double(ctx, x) == 0.0

    def test_pole_coefficients_are_zero(self, fresh):
        # beta - alpha k = 1 - k for alpha = beta = 1; for alpha = 0.5 every
        # second argument is a pole
        assert not mlmod._asym_coeffs(1.0, 1.0).any()
        half = mlmod._asym_coeffs(0.5, 1.0)
        assert not half[1::2].any() and half[0::2].all()
        # beta = alpha: the contour's lead 1/Gamma(0)
        assert mlmod._asym_coeffs(1.5, 1.5)[0] == 0.0

    @pytest.mark.parametrize("x,zero", [(171.0, False), (171.62, False), (171.63, True),
                                        (171.7, True), (200.0, True), (1.0e4, True)])
    def test_zero_where_gamma_overflows(self, x, zero):
        ctx = mlmod._mp_context()
        with ctx.workdps(30):
            got = mlmod._rgamma_double(ctx, x)
        assert (got == 0.0) == zero
        if not zero:
            with mp.workdps(50):
                assert got == float(mp.rgamma(x))

    def test_large_beta_coefficients_underflow_to_zero(self, fresh):
        coeffs = mlmod._asym_coeffs(0.5, 200.0)  # arguments 199.5 down to 180
        assert not coeffs.any()

    def test_concurrent_builds_match_serial(self, monkeypatch, fresh):
        # every build is fresh (a zero budget keeps nothing) while other
        # threads run contour sums at their own working precisions; a shared
        # precision would show in the contour bits
        orders = [(a, b) for a in self.ALPHAS[::2] for b in self.BETAS[::3]]
        serial = [mlmod._asym_coeffs(a, b).tobytes() for a, b in orders]
        monkeypatch.setattr(mlmod, "_ASYM_CACHE", mlmod._ByteLRU(fresh.nbytes, 0))
        fallback = TestCoefficientTable.FALLBACK[:4]

        def task(i):
            if i % 2:
                alpha, beta, z, _ = fallback[(i // 2) % len(fallback)]
                return mlmod._contour_mp(alpha, beta, z).hex()
            return mlmod._asym_coeffs(*orders[(i // 2) % len(orders)]).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(task, range(4 * len(orders)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got[0::2] == serial * 2
        assert got[1::2] == [fallback[j % len(fallback)][3] for j in range(2 * len(orders))]

    def test_cache_is_bounded_and_keeps_bits(self, monkeypatch, fresh):
        assert mlmod._ASYM_CACHE.budget == mlmod._CACHE_BYTES
        # asymptotic-tier arguments on both axes for 12 orders
        orders = [(a, b) for a in (1.25, 1.5, 1.75) for b in (0.5, 1.0, 1.5, 2.0)]
        z = np.array([-5.0e3, -1.0e6, 1.0e3])
        unbounded = [ml(MLParams(a, b), z).tolist() for a, b in orders]
        entry = fresh.nbytes(mlmod._asym_coeffs(1.5, 1.0))
        small = mlmod._ByteLRU(fresh.nbytes, 5 * entry)
        monkeypatch.setattr(mlmod, "_ASYM_CACHE", small)
        for (a, b), want in zip(orders, unbounded):
            assert ml(MLParams(a, b), z).tolist() == want
            assert small.total <= small.budget
        assert len(small._items) == 5


class TestDecayBound:
    SAMPLES = [-(2.0**k) for k in range(21)]

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_envelope_saturates(self, alpha):
        fit = verify_decay_bound(MLParams(alpha, 1.0), self.SAMPLES)
        assert isinstance(fit, BoundFit)
        assert math.isfinite(fit.c_empirical) and fit.c_empirical > 0
        assert fit.max_violation == 0.0
        assert not fit.violated
        assert math.pi * alpha / 2 < fit.mu < math.pi

    def test_second_parameter(self):
        fit = verify_decay_bound(MLParams(1.25, 1.25), self.SAMPLES)
        assert math.isfinite(fit.c_empirical)
        assert fit.max_violation == 0.0

    def test_alpha_two_excluded(self):
        with pytest.raises(ValueError):
            verify_decay_bound(MLParams(2.0, 1.0), self.SAMPLES)

    def test_empty_samples(self):
        with pytest.raises(ValueError):
            verify_decay_bound(MLParams(1.5, 1.0), [])

    def test_positive_samples_rejected(self):
        with pytest.raises(ValueError):
            verify_decay_bound(MLParams(1.5, 1.0), [-1.0, 2.0])

    def test_growth_flag_logic(self):
        # an envelope that keeps doubling (cosine-like weighting) must trip
        growing = 2.0 ** np.arange(12, dtype=float)
        assert _tail_growth_violation(growing) > 0
        flat = np.array([0.3, 0.9, 1.1, 1.1, 1.1, 1.1, 1.1])
        assert _tail_growth_violation(flat) == 0.0

    def test_bounded_by_one_on_negative_axis(self):
        # |E_{a,1}(-x)| <= 1 for the wave-interpolating orders; anchors the
        # sup-norm value used by the uniform-bound study
        x = np.geomspace(1e-3, 1e5, 200)
        for alpha in (1.25, 1.5, 1.75):
            vals = ml(MLParams(alpha, 1.0), -x)
            assert np.max(np.abs(vals)) <= 1.0 + 1e-12


class TestMaxRatio:
    def test_half(self):
        argmax, value = max_ratio(0.5)
        assert abs(argmax - 1.0) < 1e-14
        assert abs(value - 0.5) < 1e-14

    def test_quarter(self):
        argmax, value = max_ratio(0.25)
        assert abs(argmax - 1.0 / 3.0) < 1e-14
        assert abs(value - 0.25**0.25 * 0.75**0.75) < 1e-14

    def test_against_golden_section(self):
        rng = np.random.default_rng(11)
        for beta in rng.uniform(0.02, 0.98, size=50):
            argmax, value = max_ratio(float(beta))
            xg, vg = golden_section_max(lambda x: x**beta / (1.0 + x), 0.0, 10.0 * argmax)
            assert abs(vg - value) <= 1e-10
            assert abs(xg - argmax) <= 1e-5 * (1.0 + argmax)

    @pytest.mark.parametrize("beta", [0.0, 1.0, -0.2, 1.4])
    def test_domain(self, beta):
        with pytest.raises(ValueError):
            max_ratio(beta)
