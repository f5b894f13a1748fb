import functools
import math
import subprocess
import sys
import tracemalloc
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import mpmath as mp
import fracwave.mittag_leffler as mlmod
from fracwave.mittag_leffler import (
    DECAY_SAMPLES,
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
from oracles import (algebraic_masked_ref, algebraic_ref, asym_coeffs_ref, contour_blocks_ref,
                     golden_section_max, ml_series_ref, mpmath_single_ref, series_double_ref,
                     series_table_ref)

# frozen extended-precision series values (see oracles.ml_series_ref)
ML_1P5_1_M5 = -0.3000820504131309
ML_1P25_1P25_M5 = -0.01122191771732039
ML_1P75_2_M30 = 0.01903396646586622
ML_1P5_1P5_M120 = -2.8759567175019854e-05
ML_1P25_1_M300 = -0.0006847792156716808


@st.composite
def _contract_args(draw):
    """(alpha, beta, z) with alpha in [0.05, 2], beta in (0.02, 5] and z of
    either sign at cancellation scale m = |z|**(1/alpha) <= 35."""
    alpha = draw(st.floats(0.05, 2.0))
    beta = draw(st.floats(0.02, 5.0, exclude_min=True))
    sign = draw(st.sampled_from((-1.0, 1.0)))
    return alpha, beta, sign * draw(st.floats(0.0, 35.0)) ** alpha


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

    def test_value_at_zero_where_gamma_overflows(self):
        # Gamma(beta) leaves the double range above beta of about 171.62 and
        # for subnormal beta; 1/Gamma(beta) is then rounded from 20 digits,
        # as the series table's c_0, next to the other values of the array
        p = MLParams(1.5, 200.0)
        assert ml(p, np.array([0.0, -1.0])).tolist() == [0.0, ml(p, -1.0)]
        with mp.workdps(50):
            assert ml(MLParams(1.5, 172.0), 0.0) == float(mp.rgamma(172)) == 8.05790039644312e-310
        assert ml(MLParams(1.5, 5e-324), 0.0) == 5e-324
        assert ml(MLParams(1.5, 1e-310), np.zeros(2)).tolist() == [1e-310, 1e-310]

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

    @given(args=_contract_args())
    # alpha <= 0.19, where the series' terms fall slowly: charged only its
    # last term, the series tier accepted this value 2.7e-10 relative off
    @example(args=(0.05616401146738228, 0.052124676048760324, 1.1185103868546284))
    def test_within_tolerance_of_the_oracle(self, args):
        # ml's own tolerance: 3e-11 for |z| <= 64, 1e-9 beyond
        alpha, beta, z = args
        ref = ml_series_ref(alpha, beta, z)
        tol = 3e-11 if abs(z) <= 64.0 else 1e-9
        assert abs(ml(MLParams(alpha, beta), z) - ref) <= tol * abs(ref)


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

    @given(
        alpha=st.floats(0.0, 2.0, exclude_min=True),
        k=st.integers(1, mlmod._ASYM_KMAX),
        pick=st.floats(0.0, 1.0),
        delta=st.floats(1e-9, 1e-6),
        sign=st.sampled_from([-1.0, 1.0]),
        log_x=st.lists(st.floats(2.0, 6.0), min_size=4, max_size=4),
    )
    def test_near_pole_orders(self, alpha, k, pick, delta, sign, log_x):
        # beta - alpha k = -n +- delta sits next to the gamma pole -n: the
        # expansions' coefficient 1/Gamma(beta - alpha k) is small but not
        # zero, and the series must not drop it.  The reference is the
        # oracle within its cap and the contour sum beyond it.  Integer
        # alpha at moderate |z| has cases of its own below
        shift = alpha * k + sign * delta
        lo, hi = max(0, math.ceil(shift - 3.0)), math.ceil(shift) - 1  # beta in (0, 3]
        beta = shift - min(hi, lo + int(pick * (hi - lo + 1)))
        assume(0.0 < beta <= 3.0)
        z = -(10.0 ** np.array(log_x))
        got = ml(MLParams(alpha, beta), z)
        for zi, v in zip(z.tolist(), got.tolist()):
            if math.log(-zi) / alpha <= math.log(min(200.0, 100.0 * alpha)):
                ref = ml_series_ref(alpha, beta, zi)
            else:
                ref = mlmod._contour_mp(alpha, beta, zi)
            assert abs(v - ref) <= 1e-9 * abs(ref), (alpha, beta, zi)

    @pytest.mark.parametrize("alpha,beta,z", [
        *((1.0, b, z) for b in (1e-7, 1.0 - 1e-7, 1.0 + 1e-7) for z in (-15.0, -20.0, -30.0, -40.0)),
        # next to zeros of cos m and sin m, m = sqrt(-z)
        *((2.0, b, -(n * math.pi) ** 2) for b in (1e-7, 1.0 - 1e-7, 1.0 + 1e-7, 2.0 - 1e-7, 2.0 + 1e-7)
          for n in (3.5, 4.0, 4.5, 5.0)),
    ])
    def test_integer_alpha_next_to_integer_beta(self, alpha, beta, z):
        # every term of the algebraic series sits next to a pole; they
        # diverge past k ~ |z|**(1/alpha) and must stop there, not run on
        # to the last term uncharged
        ref = mlmod._mpmath_single(alpha, beta, z)
        tol = mlmod._TOL_NEAR if -z <= mlmod._NEAR_LIMIT else mlmod._TOL_FAR
        assert abs(ml(MLParams(alpha, beta), z) - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("delta", [2.0**-52, 1e-12, 1e-8, 1e-6, 1e-4])
    def test_alpha_just_above_one(self, delta):
        # the saddle pair's poles lie pi delta off the branch cut, where the
        # truncated series switches on only half of them; for beta = 1 and
        # beta = alpha its terms sit next to gamma poles and do not show it,
        # so the expansion must decline wherever that half matters
        alpha = 1.0 + delta
        z = -(np.linspace(14.0, 62.0, 17) ** alpha)
        tol = np.where(-z <= mlmod._NEAR_LIMIT, mlmod._TOL_NEAR, mlmod._TOL_FAR)
        for beta in (1.0, alpha):
            ref = np.array([ml_series_ref(alpha, beta, v) for v in z.tolist()])
            assert np.all(np.abs(ml(MLParams(alpha, beta), z) - ref) <= tol * np.abs(ref)), beta

    def test_alpha_one_tiny_beta_stays_in_double(self, empty_tables, monkeypatch):
        # 1e-300 - k rounds to the pole -k: taken there, every coefficient
        # of the expansion would read zero and the far fallback would climb
        # in precision for seconds
        def refuse(*args):
            raise AssertionError("fallback reached")

        for name in ("_contour_mp", "_expansion_mp", "_mpmath_single"):
            monkeypatch.setattr(mlmod, name, refuse)
        value = ml(MLParams(1.0, 1e-300), -1e4)
        assert value == pytest.approx(-1.0002000600240121e-304, rel=1e-12)

    @pytest.mark.parametrize("beta", [1e-300, 1e-7, 0.01, 0.5, 2.5])
    @pytest.mark.parametrize("z", [-50.0, -200.0, -600.0])
    def test_alpha_one_matches_the_power_series(self, beta, z):
        # at alpha = 1 the saddle pair's two poles meet in the real pole
        # z**(1-beta) e**z, which the expansion adds; without it tiny beta
        # loses all but the algebraic part
        ref = mlmod._mpmath_single(1.0, beta, z)
        assert abs(ml(MLParams(1.0, beta), z) - ref) <= 1e-9 * abs(ref)


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
        (2.0, 3.0, -15792.111111111113, "0x1.311deb5447fb6p-32", "_expansion_mp"),
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
                val = orig(a, b, zz)
                if val is not None:  # the expansion declines with None
                    accepted.append(name)
                return val
            return wrapped

        for name in ("_NEG_TIERS", "_POS_TIERS"):
            tiers = getattr(mlmod, name)
            monkeypatch.setattr(mlmod, name, tuple((lim, record(fn)) for lim, fn in tiers))
        for name in ("_mpmath_single", "_expansion_mp", "_contour_mp"):
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

    @pytest.mark.parametrize("tier,sign,m_max", [(_asym_neg, -1.0, 5000.0),
                                                 (_asym_pos, 1.0, 700.0)])
    def test_expansion_blocks_keep_the_bits(self, tier, sign, m_max):
        # 20,000 values, more than two cascade windows, keep the bits of
        # the same values run 1,000 at a time: where the expansion's loop
        # stops for a batch changes no value nor its acceptance
        alpha, beta = 1.37, 1.11
        z = sign * np.random.default_rng(5).uniform(2.0, m_max, 20_000) ** alpha
        tol = np.where(np.abs(z) <= 64.0, 3e-11, 1e-9)
        assert 1_000 < mlmod._CASCADE_CHUNK < z.size / 2
        val, ok = tier(alpha, beta, z, tol)
        parts = [tier(alpha, beta, z[i : i + 1_000], tol[i : i + 1_000])
                 for i in range(0, z.size, 1_000)]
        assert np.array_equal(val, np.concatenate([v for v, _ in parts]))
        assert np.array_equal(ok, np.concatenate([k for _, k in parts]))
        assert ok.any() and not ok.all()

    def test_series_table_built_once(self, empty_tables):
        # the table grows _TERM_CHUNK ratios at a time as far as the series
        # reads it: a call that reads no further reuses the same tuple, one
        # that reads further replaces it, once, with a longer table of the
        # same leading bits, which a later negative argument reuses
        alpha, beta = 1.37, 1.11
        chunk = mlmod._TERM_CHUNK
        p = MLParams(alpha, beta)
        ml(p, -1e-3)
        record = empty_tables(alpha, beta)
        short = record.series
        assert short[0].size == chunk < mlmod._series_length(alpha, mlmod._M_DOUBLE)
        ml(p, np.array([-5e-4, -1e-3, -(40.0**alpha)]))
        assert record.series is short
        ml(p, np.array([-(11.0**alpha), -(40.0**alpha)]))
        mid = record.series
        assert chunk < mid[0].size <= mlmod._series_length(alpha, mlmod._M_DOUBLE) + chunk
        ml(p, np.array([-(40.0**alpha), 55.0**alpha]))
        long = record.series
        assert mid[0].size < long[0].size <= mlmod._series_length(alpha, mlmod._M_POS_SERIES) + chunk
        assert long[0].size % chunk == mid[0].size % chunk == 0
        assert long[0][: short[0].size].tolist() == short[0].tolist() and long[1] == short[1]
        assert long[0].tolist() == series_table_ref(alpha, beta, long[0].size)[0].tolist()
        ml(p, np.array([-1.0, 3.0]))
        assert empty_tables(alpha, beta) is record and record.series is long
        assert empty_tables.cache_info().currsize == 1


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

    @pytest.mark.parametrize("alpha,beta", [(1.153934466291663, 1.153934466291663),
                                            (1.9539344662916631, 1.0)])
    def test_elementwise_on_slices(self, alpha, beta):
        # the cascade runs the contour sum window by window: a batch must give
        # the bits and accept flags of its slices.  The first order halves the
        # step for some values, the second declines a few near zeros
        z = -np.random.default_rng(9).uniform(10.0, 150.0, 20_000) ** alpha
        tol = np.where(np.abs(z) <= 64.0, 3e-11, 1e-9)
        val, ok = _contour_neg(alpha, beta, z, tol)
        parts = [_contour_neg(alpha, beta, z[i : i + 1_000], tol[i : i + 1_000])
                 for i in range(0, z.size, 1_000)]
        assert np.array_equal(val, np.concatenate([v for v, _ in parts]))
        assert np.array_equal(ok, np.concatenate([k for _, k in parts]))
        assert ok.any() and (alpha < 1.5 or not ok.all())

    @pytest.mark.parametrize("alpha,m_lo,m_hi,levels", [(1.6, 12.5, 46.0, 1),
                                                         (1.153934466291663, 10.0, 150.0, 2),
                                                         (1.153934466291663, 32.0, 37.0, 1)])
    def test_levels_broadcast_like_the_gather(self, monkeypatch, alpha, m_lo, m_hi, levels):
        # each level of mu meets its values by broadcasting: the sums, the
        # halvings and the accept flags keep the bits of gathering one
        # (num, den) row per value, with one level and with two
        m = np.random.default_rng(13).uniform(m_lo, m_hi, 3_000)
        z = -(m**alpha)
        tol = np.where(-z <= 64.0, 3e-11, 1e-9)
        mu, _ = mlmod._contour_scale(alpha, m)
        assert np.unique(mu).size == levels
        val, ok = _contour_neg(alpha, 1.0, z, tol)
        monkeypatch.setattr(mlmod, "_contour_blocks", contour_blocks_ref)
        ref_val, ref_ok = _contour_neg(alpha, 1.0, z, tol)
        assert val.tobytes() == ref_val.tobytes() and ok.tolist() == ref_ok.tolist()


def _near_zero(alpha, beta, m_lo, m_hi):
    """Two adjacent doubles ``z < 0`` between which ``E_{alpha,beta}``
    changes sign, the first sign change on a grid of ``m`` from ``m_lo`` to
    ``m_hi``, bisected on the arbitrary-precision contour sum."""
    z = -np.linspace(m_lo, m_hi, 400) ** alpha
    v = ml(MLParams(alpha, beta), z)
    i = int(np.flatnonzero(np.sign(v[:-1]) != np.sign(v[1:]))[0])
    lo, hi = float(z[i]), float(z[i + 1])
    sign_lo = math.copysign(1.0, mlmod._contour_mp(alpha, beta, lo))
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return lo, hi
        if math.copysign(1.0, mlmod._contour_mp(alpha, beta, mid)) == sign_lo:
            lo = mid
        else:
            hi = mid


class TestExpansionMp:
    # the large-argument expansion in arbitrary precision, which the far
    # fallback tries ahead of the contour sum

    @settings(max_examples=12, deadline=None)
    @given(alpha=st.floats(1.001, 2.0), beta=st.floats(0.1, 3.0), m=st.floats(100.5, 600.0))
    def test_matches_the_contour(self, alpha, beta, m):
        z = -(m**alpha)
        assert mlmod._expansion_mp(alpha, beta, z).hex() == mlmod._contour_mp(alpha, beta, z).hex()

    @pytest.mark.parametrize("alpha,beta", [(1.9872677996249966, 1.0), (1.95, 1.95), (2.0, 1.5)])
    def test_matches_the_contour_next_to_zeros(self, alpha, beta):
        # the value is many digits below its terms here, and the double
        # tiers decline it
        for z in _near_zero(alpha, beta, 120.0, 160.0):
            got = mlmod._expansion_mp(alpha, beta, z)
            ref = mlmod._contour_mp(alpha, beta, z)
            assert got.hex() == ref.hex()
            assert not _asym_neg(alpha, beta, np.array([z]), np.array([1e-9]))[1][0]

    def test_declines_next_to_a_zero_its_bound_misses(self):
        # at m = 61 the remainder bound lies 28 digits below the sum's terms
        # but only 12 below the value next to a zero: declined by the value
        ctx = mlmod._mp_context()
        for z in _near_zero(1.95, 1.0, 60.0, 75.0):
            with ctx.workdps(mlmod._CONTOUR_MP_DIGITS + 15):
                val, est, size = mlmod._expansion_sum_mp(ctx, 1.95, 1.0, z)
            assert est < 1e-25 * size and est > 1e-20 * abs(val)
            assert mlmod._expansion_mp(1.95, 1.0, z) is None

    @pytest.mark.parametrize("alpha,beta,z", [(1.5, 1.0, -(40.0**1.5)), (1.9, 1.9, -(30.0**1.9)),
                                              (1.0, 0.5, -200.0), (0.7, 1.0, -(300.0**0.7))])
    def test_declines_where_its_bound_misses(self, monkeypatch, alpha, beta, z):
        # at m of 30-40 the smallest bound on the remainder lies about
        # exp(-m) below the terms, short of 20 digits; for alpha <= 1 the
        # expansion is not tried.  With its band edge moved below these m,
        # the far fallback hands the value on to the contour sum
        assert mlmod._expansion_mp(alpha, beta, z) is None
        calls = []

        def spy(a, b, zz, orig=mlmod._expansion_mp):
            calls.append(orig(a, b, zz))
            return calls[-1]

        monkeypatch.setattr(mlmod, "_expansion_mp", spy)
        monkeypatch.setattr(mlmod, "_M_MP_SERIES", 20.0)
        got = np.empty(1)
        mlmod._cascade(alpha, beta, np.array([z]), (), np.ones(1, dtype=bool), got)
        assert calls == [None] and got[0].hex() == mlmod._contour_mp(alpha, beta, z).hex()


def _solver_grid(N=512, M=512, alpha=1.5):
    """``z = -lambda_n t_j**alpha`` of the interval solve of N modes on M steps."""
    lam = (np.arange(1, N + 1) * math.pi) ** 2
    return -np.outer(lam, np.linspace(0.0, 1.0, M + 1) ** alpha)


def _every_band(rng, alpha, size):
    """``size`` arguments drawn from every band of ``m`` on both half-axes,
    shuffled, with a zero every 50th: the series, the contour sum and the
    expansion on the negative axis up to ``|z| = Z_MAX``, the series and the
    exponential lead on the positive axis up to ``m = 690``, where every
    value still fits in a double."""
    n = size // 6
    top = math.log10(Z_MAX) / alpha
    m = np.concatenate([rng.uniform(0.0, 12.0, n), rng.uniform(12.0, 46.0, n),
                        rng.uniform(46.0, 100.0, n), 10.0 ** rng.uniform(2.0, top, n)])
    z = np.concatenate([-np.minimum(m**alpha, Z_MAX), rng.uniform(0.0, 60.0, n) ** alpha,
                        rng.uniform(60.0, 690.0, size - 5 * n) ** alpha])
    rng.shuffle(z)
    z[::50] = 0.0
    return z


class TestWindows:
    # the cascade runs every tier and both fallbacks over windows of
    # _CASCADE_CHUNK positions of its input; no value depends on the window
    # or on the rest of its call

    def test_window_size_keeps_the_bits(self, monkeypatch):
        alpha, beta = 1.2872677996249964, 1.0
        rng = np.random.default_rng(11)
        n = 103_304
        # every band of m on the negative axis, both positive bands, zeros
        m = np.concatenate([rng.uniform(0.0, 12.0, n // 5), rng.uniform(12.0, 46.0, n // 5),
                            rng.uniform(46.0, 100.0, n // 5),
                            10.0 ** rng.uniform(2.0, 8.0 / alpha, n // 5)])
        z = np.concatenate([-(m**alpha), rng.uniform(0.0, 700.0, n - m.size) ** alpha])
        rng.shuffle(z)
        z[::1001] = 0.0
        fallbacks = []

        def counting(a, b, v, orig=mlmod._mpmath_single):
            fallbacks.append(v)
            return orig(a, b, v)

        monkeypatch.setattr(mlmod, "_mpmath_single", counting)
        windowed = ml(MLParams(alpha, beta), z)
        assert fallbacks
        # windows whose edges fall mid-band, and one window over everything
        for chunk in (1_000, z.size + 1):
            monkeypatch.setattr(mlmod, "_CASCADE_CHUNK", chunk)
            assert np.array_equal(ml(MLParams(alpha, beta), z), windowed)

    @settings(max_examples=25, deadline=None)
    @given(alpha=st.floats(0.1, 2.0), beta=st.floats(0.01, 5.0), seed=st.integers(0, 2**32 - 1))
    def test_a_value_is_its_own(self, alpha, beta, seed):
        # each entry of a batch has the bits of the entry evaluated alone,
        # whatever the window
        z = _every_band(np.random.default_rng(seed), alpha, 150)
        p = MLParams(alpha, beta)
        alone = np.array([ml(p, z[i : i + 1])[0] for i in range(z.size)])
        for chunk in (13, mlmod._CASCADE_CHUNK):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(mlmod, "_CASCADE_CHUNK", chunk)
                assert ml(p, z).tobytes() == alone.tobytes()

    @pytest.mark.parametrize("shape", [(512, 512), (1024, 1025)])
    def test_peak_memory_is_a_small_multiple_of_the_input(self, shape):
        z = _solver_grid(*shape)
        assert z.size >= 2**18
        ml(MLParams(1.5, 1.0), z[:, :2])  # the coefficient tables, built once
        for beta in (1.0, 2.0):
            tracemalloc.start()
            try:
                ml(MLParams(1.5, beta), z)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 4 * z.nbytes

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.9])
    def test_small_t_solver_block_peak_memory(self, alpha):
        # one solver block of the 512-mode interval: its first 64 rows, most
        # of them in the series band and the contour's.  The contour's
        # (values x nodes) blocks set the peak, 5.3-8.3 times the input
        for steps in (512, 2048, 16384):
            z = np.ascontiguousarray(_solver_grid(512, steps, alpha)[:, :64])
            for beta in (1.0, 2.0):
                ml(MLParams(alpha, beta), z)  # the coefficient tables, built once
                tracemalloc.start()
                try:
                    ml(MLParams(alpha, beta), z)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert peak <= 9 * z.nbytes

    def test_empty_input(self):
        for z in (np.array([]), np.empty((3, 0))):
            out = ml(MLParams(1.5, 1.0), z)
            assert out.shape == z.shape and out.dtype == np.float64

    @pytest.mark.parametrize("bad,message", [
        (math.nan, "z must be finite"), (math.inf, "z must be finite"),
        (-math.inf, "z must be finite"), (-2.0 * Z_MAX, "exceeds the supported range"),
        (1.5 * Z_MAX, "exceeds the supported range")])
    def test_rejected_entries(self, bad, message):
        z = np.array([-1.0, 0.0, 2.0, bad, -5.0])
        for arg in (bad, z, z[::-1].reshape(5, 1)):
            with pytest.raises(ValueError, match=message):
                ml(MLParams(1.5, 1.0), arg)

    def test_input_is_read_only(self):
        z = _solver_grid(64, 63)
        z[0, ::7] = 3.0
        ref = ml(MLParams(1.5, 1.0), z.copy())
        before = z.copy()
        frozen = z.copy()
        frozen.flags.writeable = False
        for arg in (z, frozen, np.asfortranarray(z)):
            out = ml(MLParams(1.5, 1.0), arg)
            assert np.array_equal(out, ref) and not np.shares_memory(out, arg)
        assert np.array_equal(z, before)
        # strided views: every other column, a transpose
        assert np.array_equal(ml(MLParams(1.5, 1.0), z[:, ::2]), ref[:, ::2])
        assert np.array_equal(ml(MLParams(1.5, 1.0), frozen.T), ref.T)
        assert np.array_equal(z, before)


@pytest.fixture
def empty_tables():
    """The module's table cache, ``_tables``, emptied before the test and
    after it."""
    tables = mlmod._tables
    tables.cache_clear()
    yield tables
    tables.cache_clear()


def bounded_tables(monkeypatch, maxsize):
    """Put an empty table cache of ``maxsize`` orders in place of
    ``_tables`` for the rest of the test, and return it."""
    tables = functools.lru_cache(maxsize=maxsize)(mlmod._tables.__wrapped__)
    monkeypatch.setattr(mlmod, "_tables", tables)
    return tables


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

    def test_fallback_keeps_nothing_in_the_caches(self, empty_tables):
        # the power series takes its coefficients as it reaches them: the
        # table cache gains no order
        for alpha, beta, z, bits in self.FALLBACK:
            assert mlmod._mpmath_single(alpha, beta, z).hex() == bits
        assert empty_tables.cache_info().currsize == 0

    def test_batch_sets_precision_once(self, empty_tables, gamma_calls):
        # no tiers: every value goes to arbitrary precision, the power series
        # up to m = _M_MP_SERIES and the contour sum above it (z = -3000,
        # m = 208).  Each series sets its own precision once and takes all
        # its coefficients at it
        alpha, beta = 1.5, 1.0
        z = -np.array([10.0, 100.0, 1000.0, 3000.0])
        series = (np.abs(z) ** (1.0 / alpha) <= mlmod._M_MP_SERIES).tolist()
        assert series[:2] == [True, True] and not series[-1]
        vals = np.empty_like(z)
        mlmod._cascade(alpha, beta, z, (), np.ones(z.shape, dtype=bool), vals)
        runs = [prec for i, prec in enumerate(gamma_calls) if i == 0 or gamma_calls[i - 1] != prec]
        assert runs[:2] == [mp.libmp.dps_to_prec(mlmod._fallback_dps(alpha, v)) for v in z[:2]]
        assert vals.tolist() == [(mlmod._mpmath_single if s else mlmod._contour_mp)(alpha, beta, v)
                                 for s, v in zip(series, z)]
        assert empty_tables.cache_info().currsize == 0

    def test_concurrent_calls_match_serial(self, empty_tables):
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

    @pytest.mark.parametrize("alpha,beta,z,bits", FALLBACK)
    def test_per_term_reference_reproduces_fallback_bits(self, alpha, beta, z, bits):
        assert mpmath_single_ref(alpha, beta, z).hex() == bits

    def test_over_cap_element_raises_before_building(self, monkeypatch, empty_tables):
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


class TestRationalOrderRecurrence:
    # alpha = p/q with q <= 8 in (1, 2): the doubles with such a q are the
    # multiples of 1/8
    ALPHAS = [p / 8 for p in range(9, 16)]
    Z = (-0.7, -5.0, -30.0, -90.0, -400.0)

    @pytest.mark.parametrize("alpha", ALPHAS)
    def test_same_doubles_as_the_per_term_series(self, alpha):
        for beta in (1.0, 2.0, alpha, alpha - 1.0):
            for z in self.Z:
                assert mlmod._mpmath_single(alpha, beta, z) == mpmath_single_ref(alpha, beta, z), \
                    (alpha, beta, z)

    @pytest.mark.parametrize("alpha", [1.0, 1.25, 1.5, 1.75, 2.0, 1.125, 1.9375])
    def test_at_most_q_gammas_per_value(self, alpha, gamma_calls):
        q = alpha.as_integer_ratio()[1]
        assert q <= mlmod._RECURRENCE_Q_MAX
        for z in (-0.7, -90.0, 3.0):
            del gamma_calls[:]
            assert mlmod._mpmath_single(alpha, 1.0, z) == mpmath_single_ref(alpha, 1.0, z)
            assert 1 <= len(gamma_calls) <= q

    def test_other_orders_take_a_gamma_per_term(self, gamma_calls):
        # the alpha sweep's golden offsets are no fractions of small q
        alpha = 1.1539344662916632
        assert alpha.as_integer_ratio()[1] > mlmod._RECURRENCE_Q_MAX
        assert mlmod._mpmath_single(alpha, alpha, -30.0) == mpmath_single_ref(alpha, alpha, -30.0)
        assert len(gamma_calls) > mlmod._RECURRENCE_Q_MAX


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

    def test_tiny_budget_bounds_caches_and_keeps_bits(self, monkeypatch, empty_tables):
        unbounded = [ml(MLParams(a, b), z).tolist() for a, b, z in self.CASES]
        # three orders for ten: every order but the last three is evicted
        tables = bounded_tables(monkeypatch, 3)
        for (a, b, z), want in zip(self.CASES, unbounded):
            assert ml(MLParams(a, b), z).tolist() == want
            assert tables.cache_info().currsize <= 3
        info = tables.cache_info()
        assert info.currsize == 3 and info.misses == len(self.CASES)

    def test_concurrent_eviction_keeps_values_and_count(self, monkeypatch):
        # threads building, extending (the positive argument reads further
        # into the series table) and evicting the records of a cache of two
        # orders for these four
        rows = [TestCoefficientTable.FALLBACK[i] for i in (0, 2, 3, 4)]
        cases = [(MLParams(a, b), np.array([-0.5, z / 2, z, 5.0])) for a, b, z, _ in rows]
        want = [ml(p, z).tobytes() for p, z in cases]
        tables = bounded_tables(monkeypatch, 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(lambda c: ml(*c).tobytes(), cases * 4, timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got == want * 4
        info = tables.cache_info()
        assert info.currsize == 2 and info.misses > len(rows)


class TestAsymCoefficients:
    # 1/Gamma(beta - alpha k) of the large-argument expansions, at the
    # exactly formed arguments, rounded to double from arbitrary precision
    # once per (alpha, beta)
    ALPHAS = [0.1, 0.37, 0.5, 0.75, 1.0, 1.153934466291663, 1.25, 1.5, 1.75, 1.9539344662916631, 2.0]
    BETAS = [0.05, 0.5, 0.75, 1.0, 1.5, 1.75, 2.0, 2.5, 3.0]

    def test_grid_is_correctly_rounded(self, empty_tables):
        for alpha in self.ALPHAS:
            for beta in self.BETAS:
                coeffs = mlmod._asym_coeffs(alpha, beta, mlmod._ASYM_KMAX)
                assert coeffs.shape == (mlmod._ASYM_KMAX,)
                with mp.workdps(50):
                    a, b = mp.mpf(alpha), mp.mpf(beta)
                    ref = [float(mp.rgamma(mp.fsub(b, mp.fmul(a, k, exact=True), exact=True)))
                           for k in range(1, mlmod._ASYM_KMAX + 1)]
                assert coeffs.tolist() == ref, (alpha, beta)

    @pytest.mark.parametrize("x", [0.0, -1.0, -2.0, -17.0, -79.0])
    def test_poles_give_zero(self, empty_tables, x):
        # the argument x = beta - 2 k, with beta 1 or 2
        k = int(-x // 2.0) + 1
        assert mlmod._asym_coeffs(2.0, x + 2.0 * k, k)[k - 1] == 0.0

    def test_poles_are_decided_on_the_exact_argument(self):
        def flags(alpha, beta):  # (ends, pole, near) of the first four terms
            terms = mlmod._pole_terms(alpha, beta)
            return [next(terms)[1:] for _ in range(4)]

        # 1e-300 - k rounds to the pole -k but is none
        assert flags(1.0, 1e-300) == [(False, False, True)] * 4
        # 3 - 2k is a pole from k = 2 on, where the series ends
        assert flags(2.0, 3.0) == [(False, False, False)] + [(True, True, True)] * 3
        # every second argument of alpha = 0.5 is a pole, and the series goes on
        assert flags(0.5, 1.0) == [(False, False, False), (False, True, True)] * 2

    @pytest.mark.parametrize("beta", [1e-300, 1e-7])
    def test_arguments_next_to_poles_are_exact(self, empty_tables, beta):
        # 1e-300 - k rounds to the pole -k; the exact argument does not, and
        # 1/Gamma(beta - k) is about (-1)**k k! beta
        coeffs = mlmod._asym_coeffs(1.0, beta, 20)
        ref = [(-1.0) ** k * math.factorial(k) * beta for k in range(1, 21)]
        assert np.allclose(coeffs, ref, rtol=1e-6, atol=0.0)

    def test_pole_coefficients_are_zero(self, empty_tables):
        # beta - alpha k = 1 - k for alpha = beta = 1; for alpha = 0.5 every
        # second argument is a pole
        kmax = mlmod._ASYM_KMAX
        assert not mlmod._asym_coeffs(1.0, 1.0, kmax).any()
        half = mlmod._asym_coeffs(0.5, 1.0, kmax)
        assert not half[1::2].any() and half[0::2].all()
        # beta = alpha: the contour's lead 1/Gamma(0)
        assert mlmod._asym_coeffs(1.5, 1.5, 1)[0] == 0.0

    @pytest.mark.parametrize("x,zero", [(171.0, False), (171.62, False), (171.63, True),
                                        (171.7, True), (200.0, True), (1.0e4, True)])
    def test_zero_where_gamma_overflows(self, empty_tables, x, zero):
        # the argument x = (x + 1) - 1, formed exactly
        assert (x + 1.0) - 1.0 == x
        got = mlmod._asym_coeffs(1.0, x + 1.0, 1)[0]
        assert (got == 0.0) == zero
        if not zero:
            with mp.workdps(50):
                assert got == float(mp.rgamma(x))

    def test_large_beta_coefficients_underflow_to_zero(self, empty_tables):
        coeffs = mlmod._asym_coeffs(0.5, 200.0, mlmod._ASYM_KMAX)  # arguments 199.5 down to 180
        assert not coeffs.any()

    def test_concurrent_builds_match_serial(self, monkeypatch, empty_tables):
        # every build is fresh (a cache of no orders keeps nothing) while other
        # threads run contour sums at their own working precisions; a shared
        # precision would show in the contour bits
        orders = [(a, b) for a in self.ALPHAS[::2] for b in self.BETAS[::3]]
        serial = [mlmod._asym_coeffs(a, b, mlmod._ASYM_KMAX).tobytes() for a, b in orders]
        tables = bounded_tables(monkeypatch, 0)
        fallback = TestCoefficientTable.FALLBACK[:4]

        def task(i):
            if i % 2:
                alpha, beta, z, _ = fallback[(i // 2) % len(fallback)]
                return mlmod._contour_mp(alpha, beta, z).hex()
            return mlmod._asym_coeffs(*orders[(i // 2) % len(orders)], mlmod._ASYM_KMAX).tobytes()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=4) as pool:
                got = list(pool.map(task, range(4 * len(orders)), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert got[0::2] == serial * 2
        assert got[1::2] == [fallback[j % len(fallback)][3] for j in range(2 * len(orders))]
        assert tables.cache_info().currsize == 0

    def test_cache_is_bounded_and_keeps_bits(self, monkeypatch, empty_tables):
        # a record holds at most _SERIES_KMAX + _ASYM_KMAX doubles, so the
        # order count bounds the cache's bytes, near 3 MB
        record_bytes = 8 * (mlmod._SERIES_KMAX + mlmod._ASYM_KMAX)
        assert empty_tables.cache_info().maxsize * record_bytes < 3 * 2**20
        # asymptotic-tier arguments on both axes for 12 orders through a
        # cache of five
        orders = [(a, b) for a in (1.25, 1.5, 1.75) for b in (0.5, 1.0, 1.5, 2.0)]
        z = np.array([-5.0e3, -1.0e6, 1.0e3])
        unbounded = [ml(MLParams(a, b), z).tolist() for a, b in orders]
        small = bounded_tables(monkeypatch, 5)
        for (a, b), want in zip(orders, unbounded):
            assert ml(MLParams(a, b), z).tolist() == want
            assert small.cache_info().currsize <= 5
        assert small.cache_info().currsize == 5


class TestOnDemandTables:
    # both tables grow as their tier reads them; what is built equals, bit
    # for bit, the whole table built at once (oracles.series_table_ref,
    # oracles.asym_coeffs_ref)
    ORDERS = dict(alpha=st.floats(0.0, 2.0, exclude_min=True),
                  beta=st.floats(1e-8, 200.0))

    @given(**ORDERS, steps=st.lists(st.integers(1, 60), min_size=1, max_size=4))
    def test_grown_series_table_equals_one_shot(self, alpha, beta, steps):
        size = 0
        mlmod._tables.cache_clear()
        for step in steps:
            size += step
            ratios, c0, _ = _series_table(alpha, beta, size)
        ref, ref_c0 = series_table_ref(alpha, beta, size)
        assert ratios.size == size and c0 == ref_c0
        assert ratios.tobytes() == ref.tobytes()

    @given(**ORDERS, steps=st.lists(st.integers(1, 16), min_size=1, max_size=4))
    def test_grown_coefficients_equal_one_shot(self, alpha, beta, steps):
        size = 0
        mlmod._tables.cache_clear()
        for step in steps:
            size = min(size + step, mlmod._ASYM_KMAX)
            coeffs = mlmod._asym_coeffs(alpha, beta, size)
        assert coeffs.tobytes() == asym_coeffs_ref(alpha, beta)[:size].tobytes()

    @given(**ORDERS)
    def test_ratios_never_increase(self, alpha, beta):
        # R_k = Gamma(alpha k + beta)/Gamma(alpha k + alpha + beta) falls as
        # k grows (digamma increases on (0, inf)): R_0 decides the decline
        mlmod._tables.cache_clear()
        ratios = _series_table(alpha, beta, 200)[0]
        assert np.all(ratios[1:] <= ratios[:-1]) and ratios[-1] > 0.0

    @given(alpha=st.floats(0.01, 2.0), log_m=st.floats(-3.0, 0.0),
           shift=st.sampled_from([-2.0**-20, -2.0**-45, 0.0, 2.0**-45, 2.0**-20]),
           sign=st.sampled_from([-1.0, 1.0]))
    def test_decline_at_the_factor_edge_is_unchanged(self, alpha, log_m, shift, sign):
        # tiny beta, set so that R_0 ~ 1/(beta Gamma(alpha)) meets the bound
        # _FACTOR_MAX / max|z| at m = 12 * 10**log_m; max|z| is then moved
        # off that edge, within and beyond the slack, to either side.  The
        # decision is that of the test over all n ratios
        beta = (12.0 * 10.0**log_m) ** alpha / (mlmod._FACTOR_MAX * math.gamma(alpha))
        mlmod._tables.cache_clear()
        r0 = _series_table(alpha, beta, 1)[0][0]
        z = sign * mlmod._FACTOR_MAX / r0 * (1.0 + shift) * np.array([0.25, 1.0, 0.5])
        tol = np.full(z.shape, 3e-11)
        val, ok = _series_double(alpha, beta, z, tol)
        ref_val, ref_ok = series_double_ref(alpha, beta, z, tol)
        assert ok.tolist() == ref_ok.tolist() and val.tobytes() == ref_val.tobytes()

    @pytest.mark.parametrize("beta", [5e-324, 1e-310])
    def test_subnormal_beta_is_declined(self, empty_tables, beta):
        # R_0 overflows to inf: no argument passes the decline test
        z = -np.array([1e-3, 0.5, 2.0])
        val, ok = _series_double(1.5, beta, z, np.full(3, 3e-11))
        assert not ok.any()
        assert series_double_ref(1.5, beta, z, np.full(3, 3e-11))[1].tolist() == ok.tolist()

    @pytest.mark.parametrize("alpha,beta", [(1.37, 1.11), (1.5, 1.0), (0.5, 2.0), (2.0, 1.0),
                                            (1.9539344662916631, 1.9539344662916631)])
    @pytest.mark.parametrize("sign,m_max", [(-1.0, 12.0), (1.0, 60.0)])
    def test_series_in_place_keeps_the_bits(self, empty_tables, alpha, beta, sign, m_max):
        # the in-place loop against the one-expression-per-step form
        z = sign * np.random.default_rng(2).uniform(0.0, m_max, 3_000) ** alpha
        tol = np.where(np.abs(z) <= 64.0, 3e-11, 1e-9)
        val, ok = _series_double(alpha, beta, z, tol)
        ref_val, ref_ok = series_double_ref(alpha, beta, z, tol)
        assert val.tobytes() == ref_val.tobytes() and ok.tolist() == ref_ok.tolist()
        assert ok.any()

    def test_series_band_peak_memory(self):
        # 2**18 values all in the series band: about 2.0 times the input
        # (the result, two masks, and one window's m, selection and series
        # arrays)
        z = -(np.random.default_rng(3).uniform(0.0, 12.0, 2**18) ** 1.5)
        ml(MLParams(1.5, 1.0), z)  # the table, built once
        tracemalloc.start()
        try:
            ml(MLParams(1.5, 1.0), z)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * z.nbytes

    def test_threads_extend_one_record(self, empty_tables):
        # four threads grow the same order's two tables, each to its own
        # lengths; whichever stores last wins, so a thread may see a table
        # longer than it asked for, or rebuild one another thread had grown.
        # Every table returned is the prefix of the one built whole, and
        # every series table ends on the raw coefficient of its length
        alpha, beta = 1.37, 1.11
        ratios_ref, c0_ref = series_table_ref(alpha, beta, 240)
        coeffs_ref = asym_coeffs_ref(alpha, beta)

        def grow(i):
            got = []
            for size in range(1 + i, 241, 9 + 4 * i):
                got.append((size, _series_table(alpha, beta, size),
                            mlmod._asym_coeffs(alpha, beta, min(1 + size // 6, mlmod._ASYM_KMAX))))
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            runs = []
            for _ in range(3):
                empty_tables.cache_clear()
                with ThreadPoolExecutor(max_workers=4) as pool:
                    runs += list(pool.map(grow, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        with mp.workdps(mlmod._TABLE_DPS):
            a, b = mp.mpf(alpha), mp.mpf(beta)
            c_ref = [mp.rgamma(mp.fadd(mp.fmul(a, k, exact=True), b, exact=True))._mpf_
                     for k in range(241)]
        for size, (ratios, c0, last), coeffs in (row for run in runs for row in run):
            assert size <= ratios.size <= 240 and c0 == c0_ref
            assert ratios.tobytes() == ratios_ref[:ratios.size].tobytes()
            assert last == c_ref[ratios.size]
            assert min(1 + size // 6, mlmod._ASYM_KMAX) <= coeffs.size
            assert coeffs.tobytes() == coeffs_ref[:coeffs.size].tobytes()

    def test_reciprocal_gammas_of_one_sweep_solve(self, empty_tables, gamma_calls):
        # one alpha-sweep-sized solve (256 modes, 33 time nodes, the value)
        # takes 138 reciprocal gammas, all at the tables' 20 digits; whole
        # tables would take 244 (82 for each series table and 40 for each
        # set of expansion coefficients)
        from fracwave import FracOrder, SolutionQuery, TimeGrid, build_interval
        from fracwave.presets import random_decay
        from fracwave.solver import solve_field

        query = SolutionQuery(FracOrder(1.37), build_interval(1.0, 256), random_decay(256, 2.0, 5),
                              TimeGrid(1.0, 32), "value")
        solve_field(query, np.linspace(0.0, 1.0, 65))
        assert len(gamma_calls) == 138
        assert set(gamma_calls) == {mp.libmp.dps_to_prec(mlmod._TABLE_DPS)}


def _expansion_block(rng, alpha, sign, size=3_000):
    """Expansion-tier arguments of one sign: |z| log-uniform from 60 to 1e8
    on the negative axis, m from 47 to 700 on the positive axis, where the
    value still fits in a double."""
    if sign < 0.0:
        return -(10.0 ** rng.uniform(math.log10(60.0), 8.0, size))
    return rng.uniform(47.0, 700.0, size) ** alpha


class TestAlgebraicExit:
    # the algebraic series stops once no later term can change a running
    # sum; against the 40-term loop (oracles.algebraic_ref) its sums keep
    # their bits, its estimate is that loop's raised to 2**-54 |sum|, and
    # the expansions accept the same values.  It adds its terms without
    # masks until a value stops, and keeps every bit of the loop that masks
    # each update (oracles.algebraic_masked_ref)
    NEAR_POLE = [(1.3, 1.0 + 1e-5), (1.3, 1.0 - 1e-5), (1.5, 1.0 + 1e-7), (0.7, 0.4 + 1e-6)]
    # series that skip an exact pole, and for integer alpha end at one
    AT_POLE = [(1.5, 1.5), (2.0, 0.5), (1.0, 0.25), (2.0, 3.0)]

    @staticmethod
    def _check(alpha, beta, z):
        s, s_abs, est = mlmod._algebraic(alpha, beta, z)
        masked = algebraic_masked_ref(alpha, beta, z, asym_coeffs_ref(alpha, beta))
        assert [a.tobytes() for a in (s, s_abs, est)] == [a.tobytes() for a in masked]

        def whole(a, b, zz):  # the whole loop, its estimate raised to 2**-54 |sum|
            s, s_abs, est = algebraic_ref(a, b, zz, asym_coeffs_ref(a, b))
            return s, s_abs, np.maximum(est, 2.0**-54 * np.abs(s))

        ref = whole(alpha, beta, z)
        assert [a.tobytes() for a in (s, s_abs, est)] == [a.tobytes() for a in ref]
        tol = np.where(np.abs(z) <= 64.0, 3e-11, 1e-9)
        tier = _asym_neg if z[0] < 0.0 else _asym_pos
        val, ok = tier(alpha, beta, z, tol)
        with pytest.MonkeyPatch.context() as m:
            m.setattr(mlmod, "_algebraic", whole)
            ref_val, ref_ok = tier(alpha, beta, z, tol)
        assert val.tobytes() == ref_val.tobytes() and ok.tolist() == ref_ok.tolist()

    @given(alpha=st.floats(0.3, 2.0), beta=st.floats(0.05, 3.0), negative=st.booleans(),
           seed=st.integers(0, 2**16), size=st.integers(1, 3_000))
    def test_random_blocks(self, alpha, beta, negative, seed, size):
        rng = np.random.default_rng(seed)
        self._check(alpha, beta, _expansion_block(rng, alpha, -1.0 if negative else 1.0, size))

    @pytest.mark.parametrize("alpha,beta", NEAR_POLE + AT_POLE)
    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_near_pole_orders(self, alpha, beta, sign):
        # beta - 10 alpha sits 1e-5 from -12 at (1.3, 1 + 1e-5): outside the
        # 1e-6 pole window, so the term is kept, with a tiny coefficient
        rng = np.random.default_rng(int(alpha * 1e3))
        self._check(alpha, beta, _expansion_block(rng, alpha, sign))

    @pytest.mark.parametrize("alpha,beta", [(1.37, 1.0), (1.9, 2.0), (2.0, 3.0), (1.0, 3.0)])
    def test_grid_blocks_stop_early(self, empty_tables, alpha, beta):
        # the solver's kernel arguments past m = 46: on non-integer orders
        # the loop stops before reading every coefficient
        lam = (np.arange(1, 513) * math.pi) ** 2
        z = -np.outer(lam, np.linspace(0.0, 1.0, 65) ** alpha).ravel()
        z = z[np.abs(z) ** (1.0 / alpha) > 46.0][:mlmod._CASCADE_CHUNK]
        self._check(alpha, beta, z)
        if alpha != round(alpha):
            assert mlmod._tables(alpha, beta).coeffs.size < mlmod._ASYM_KMAX


class TestDecayBound:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_envelope_saturates(self, alpha):
        fit = verify_decay_bound(MLParams(alpha, 1.0))
        assert isinstance(fit, BoundFit)
        assert math.isfinite(fit.c_empirical) and fit.c_empirical > 0
        assert fit.max_violation == 0.0
        assert not fit.violated
        assert math.pi * alpha / 2 < fit.mu < math.pi

    def test_level_sups_as_unique_levels_give_them(self):
        # the samples are z = -2**k, k = 0..20: one per dyadic level
        # floor(log2 |z|), in ascending |z|, so each is its level's sup
        params = MLParams(1.5, 1.0)
        z = np.array(DECAY_SAMPLES)
        assert z.tolist() == [-(2.0**k) for k in range(21)]
        values = np.abs(ml(params, z)) * (1.0 + np.abs(z))
        fit = verify_decay_bound(params)
        assert fit.max_violation == mlmod._tail_growth_violation(values)
        assert fit.c_empirical == float(np.max(values))
        assert fit.sample_count == z.size

    def test_fit_loads_no_numpy_ma(self):
        # np.unique without indices or counts imports numpy.ma (10-17 ms)
        code = ("import sys; from fracwave.cli import main; from fracwave.verify import "
                "check_decay_envelope; assert main(['ml', '--decay-check']) == 0; "
                "assert check_decay_envelope().passed; print('numpy.ma' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[-1] == "False"

    def test_second_parameter(self):
        fit = verify_decay_bound(MLParams(1.25, 1.25))
        assert math.isfinite(fit.c_empirical)
        assert fit.max_violation == 0.0

    def test_alpha_two_excluded(self):
        with pytest.raises(ValueError):
            verify_decay_bound(MLParams(2.0, 1.0))

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
