import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from fracwave.fracops import (
    KernelPhi,
    _BAND,
    _band_counts,
    _fast_len,
    SampledPath,
    TimeGrid,
    caputo_derivative,
    frac_integral,
    gagliardo_seminorm,
    l2_time_norm,
    norm_equivalence_study,
    semigroup_check,
    sobolev_norm,
    young_bound_check,
)
from fracwave.mittag_leffler import gamma
from oracles import gagliardo_linear_ref, gagliardo_tensor_ref

# reference value of the half-order integral of sin(2 pi t) at t = 0.75
# (oracles.frac_integral_ref, adaptive quadrature; cross-checked by series)
I_HALF_SIN_AT_0P75 = -0.18113655610647125

GRID = TimeGrid(1.0, 512)


def trig_path(grid, seed, modes=8):
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(modes)
    t = grid.nodes
    vals = np.zeros_like(t)
    for k in range(modes):
        vals += c[k] * np.sin((k + 1) * math.pi * t / grid.t_end)
    return SampledPath(grid, vals)


class TestTypes:
    def test_grid_validation(self):
        with pytest.raises(ValueError):
            TimeGrid(0.0, 16)
        with pytest.raises(ValueError):
            TimeGrid(1.0, 1)

    def test_grid_nodes(self):
        g = TimeGrid(2.0, 4)
        assert np.allclose(g.nodes, [0.0, 0.5, 1.0, 1.5, 2.0])
        assert g.spacing == 0.5

    def test_kernel(self):
        phi = KernelPhi(0.5)
        t = np.array([0.25, 1.0])
        assert np.allclose(phi(t), t ** (-0.5) / gamma(0.5))
        assert abs(phi.l1_norm(1.0) - 1.0 / gamma(1.5)) < 1e-15
        with pytest.raises(ValueError):
            KernelPhi(0.0)

    def test_path_validation(self):
        with pytest.raises(ValueError):
            SampledPath(GRID, np.ones(7))
        with pytest.raises(ValueError):
            SampledPath(GRID, np.full(GRID.steps + 1, np.nan))


class TestFracIntegral:
    def test_beta_one_is_cumulative_trapezoid(self):
        f = trig_path(GRID, 0)
        out = frac_integral(f, 1.0)
        h = GRID.spacing
        ref = np.concatenate([[0.0], np.cumsum(0.5 * h * (f.values[1:] + f.values[:-1]))])
        assert np.max(np.abs(out.values - ref)) < 1e-13

    @pytest.mark.parametrize("beta", [0.3, 0.5, 0.9])
    def test_constant_image(self, beta):
        out = frac_integral(SampledPath(GRID, np.ones(GRID.steps + 1)), beta)
        ref = GRID.nodes**beta / gamma(beta + 1.0)
        assert np.max(np.abs(out.values[1:] - ref[1:]) / ref[1:]) < 1e-12

    def test_zero_path(self):
        out = frac_integral(SampledPath(GRID, np.zeros(GRID.steps + 1)), 0.5)
        assert np.all(out.values == 0.0)
        assert out.values[0] == 0.0

    def test_against_quadrature_oracle(self):
        g = TimeGrid(1.0, 1024)
        f = SampledPath(g, np.sin(2.0 * math.pi * g.nodes))
        out = frac_integral(f, 0.5)
        i = 768  # node at exactly t = 0.75
        assert g.nodes[i] == 0.75
        assert abs(out.values[i] - I_HALF_SIN_AT_0P75) < 1e-5

    def test_domain_error(self):
        with pytest.raises(ValueError):
            frac_integral(trig_path(GRID, 0), 0.0)
        with pytest.raises(ValueError):
            frac_integral(trig_path(GRID, 0), 1.2)

    @given(a=st.floats(-3.0, 3.0), b=st.floats(-3.0, 3.0))
    def test_linearity(self, a, b):
        f = trig_path(GRID, 1)
        g = trig_path(GRID, 2)
        combo = SampledPath(GRID, a * f.values + b * g.values)
        lhs = frac_integral(combo, 0.4).values
        rhs = a * frac_integral(f, 0.4).values + b * frac_integral(g, 0.4).values
        assert np.max(np.abs(lhs - rhs)) <= 1e-11 * (1.0 + np.max(np.abs(rhs)))

    def test_positivity(self):
        rng = np.random.default_rng(5)
        f = SampledPath(GRID, rng.uniform(0.0, 1.0, GRID.steps + 1))
        assert np.all(frac_integral(f, 0.5).values >= 0.0)

    def test_matches_fftconvolve_route(self):
        # the real-FFT convolution pads exactly as scipy.signal.fftconvolve
        # does, so the two routes agree bit for bit
        import scipy.signal

        from fracwave.fracops import _conv_weights

        vals = np.stack([trig_path(GRID, s).values for s in (4, 5, 6)], axis=1)
        beta = 0.35
        w, v = _conv_weights(beta, GRID.steps, GRID.spacing)
        ref = scipy.signal.fftconvolve(vals, w[:, None], axes=0)[: GRID.steps + 1]
        ref -= v[1 : GRID.steps + 2, None] * vals[0][None, :]
        ref[0] = 0.0
        assert np.array_equal(frac_integral(SampledPath(GRID, vals), beta).values, ref)

    @pytest.mark.parametrize("steps", [2, 3, 7, 64, 512, 999, 2048])
    def test_matches_scipy_fft_route(self, steps):
        # numpy.fft runs the pocketfft of scipy.fft: same bits as the real-FFT
        # convolution through scipy.fft.rfftn/irfftn, scalar and vector paths
        import scipy.fft

        from fracwave.fracops import _conv_weights

        grid = TimeGrid(1.0, steps)
        beta = 0.35
        w, v = _conv_weights(beta, steps, grid.spacing)
        vals = np.stack([trig_path(grid, s).values for s in (4, 5, 6)], axis=1)
        size = [scipy.fft.next_fast_len(2 * steps + 1, True)]
        spec = scipy.fft.rfftn(vals, size, axes=[0]) * scipy.fft.rfftn(w[:, None], size, axes=[0])
        ref = scipy.fft.irfftn(spec, size, axes=[0])[: steps + 1]
        ref -= v[1 : steps + 2, None] * vals[0][None, :]
        ref[0] = 0.0
        assert np.array_equal(frac_integral(SampledPath(grid, vals), beta).values, ref)
        for j in range(3):
            scalar = frac_integral(SampledPath(grid, vals[:, j]), beta).values
            assert np.array_equal(scalar, ref[:, j])

    def test_fast_len_matches_scipy(self):
        import scipy.fft

        got = [_fast_len(n) for n in range(1, 5001)]
        assert got == [scipy.fft.next_fast_len(n, True) for n in range(1, 5001)]

    def test_vector_valued(self):
        f = trig_path(GRID, 3)
        stacked = SampledPath(GRID, np.stack([f.values, 2.0 * f.values], axis=1))
        out = frac_integral(stacked, 0.5)
        single = frac_integral(f, 0.5).values
        assert np.allclose(out.values[:, 0], single)
        assert np.allclose(out.values[:, 1], 2.0 * single)


class TestCaputo:
    def test_linear_function_vanishes(self):
        # f(t) = t has zero second derivative
        out = caputo_derivative(SampledPath(GRID, np.zeros(GRID.steps + 1)), 1.5)
        assert np.max(np.abs(out.values)) <= 1e-12

    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_quadratic(self, alpha):
        out = caputo_derivative(SampledPath(GRID, np.full(GRID.steps + 1, 2.0)), alpha)
        ref = 2.0 * GRID.nodes ** (2.0 - alpha) / gamma(3.0 - alpha)
        assert np.max(np.abs(out.values[1:] - ref[1:]) / ref[1:]) < 1e-12

    def test_cubic(self):
        # f = t^3 has f'' = 6t, and the rule is exact on linear input
        alpha = 1.4
        out = caputo_derivative(SampledPath(GRID, 6.0 * GRID.nodes), alpha)
        ref = 6.0 * GRID.nodes ** (3.0 - alpha) / gamma(4.0 - alpha)
        assert np.max(np.abs(out.values[1:] - ref[1:]) / ref[1:]) < 1e-10

    @pytest.mark.parametrize("alpha", [1.0, 2.0, 0.5])
    def test_order_domain(self, alpha):
        with pytest.raises(ValueError):
            caputo_derivative(SampledPath(GRID, np.ones(GRID.steps + 1)), alpha)


class TestYoungBound:
    def test_constant(self):
        lhs, rhs = young_bound_check(SampledPath(GRID, np.ones(GRID.steps + 1)), 0.5)
        assert lhs < rhs

    def test_zero(self):
        lhs, rhs = young_bound_check(SampledPath(GRID, np.zeros(GRID.steps + 1)), 0.5)
        assert lhs == 0.0 and rhs == 0.0

    def test_random_ensemble(self):
        for seed in range(100):
            f = trig_path(TimeGrid(1.0, 128), seed)
            lhs, rhs = young_bound_check(f, 0.5)
            assert lhs <= rhs * (1.0 + 1e-3)


class TestSemigroup:
    def test_refinement(self):
        discs = []
        for M in (1024, 4096):
            g = TimeGrid(1.0, M)
            discs.append(semigroup_check(SampledPath(g, g.nodes), 0.5, 0.5))
        assert discs[0] <= 1e-2
        assert discs[1] <= 0.5 * discs[0]

    def test_analytic_composition(self):
        # I^0.3 I^0.4 applied to 1 must approach t^0.7/Gamma(1.7); the inner
        # image has infinite slope at the origin, so compare away from it
        g = TimeGrid(1.0, 1024)
        composed = frac_integral(frac_integral(SampledPath(g, np.ones(g.steps + 1)), 0.4), 0.3)
        ref = g.nodes**0.7 / gamma(1.7)
        sel = g.nodes >= 0.1
        assert np.max(np.abs(composed.values[sel] - ref[sel]) / ref[sel]) < 1e-3

    def test_zero_path(self):
        assert semigroup_check(SampledPath(GRID, np.zeros(GRID.steps + 1)), 0.5, 0.5) == 0.0

    def test_order_sum_gate(self):
        with pytest.raises(ValueError):
            semigroup_check(trig_path(GRID, 0), 1.0, 0.5)

    def test_empirical_order_at_least_one(self):
        errs = []
        for M in (256, 512, 1024):
            g = TimeGrid(1.0, M)
            errs.append(semigroup_check(SampledPath(g, g.nodes), 0.5, 0.5))
        order = np.polyfit(np.log([1 / 256, 1 / 512, 1 / 1024]), np.log(errs), 1)[0]
        assert order >= 1.0


class TestGagliardo:
    def test_constant_path(self):
        v = SampledPath(GRID, np.full(GRID.steps + 1, 3.7))
        assert gagliardo_seminorm(v, 0.25) == 0.0

    def test_linear_against_closed_form(self):
        v = SampledPath(GRID, GRID.nodes)
        ref = gagliardo_linear_ref(0.25, 1.0)
        assert abs(gagliardo_seminorm(v, 0.25) - ref) < 1e-3 * ref

    def test_half_order_linear(self):
        v = SampledPath(GRID, GRID.nodes)
        assert abs(gagliardo_seminorm(v, 0.5) - 1.0) < 1e-3

    def test_image_of_rough_path_finite(self):
        rng = np.random.default_rng(9)
        u = SampledPath(GRID, rng.standard_normal(GRID.steps + 1))
        v = frac_integral(u, 0.25)
        val = gagliardo_seminorm(v, 0.25)
        assert math.isfinite(val) and val > 0
        assert v.values[0] == 0.0

    def test_domain(self):
        with pytest.raises(ValueError):
            gagliardo_seminorm(SampledPath(GRID, GRID.nodes), 1.0)

    @given(scale=st.floats(-5.0, 5.0))
    def test_absolute_homogeneity(self, scale):
        v = trig_path(GRID, 4)
        base = gagliardo_seminorm(v, 0.3)
        scaled = gagliardo_seminorm(SampledPath(GRID, scale * v.values), 0.3)
        assert abs(scaled - abs(scale) * base) <= 1e-9 * (1.0 + base)

    def test_triangle_inequality(self):
        for seed in range(10):
            u = trig_path(GRID, seed)
            v = trig_path(GRID, seed + 50)
            s = SampledPath(GRID, u.values + v.values)
            lhs = gagliardo_seminorm(s, 0.3)
            rhs = gagliardo_seminorm(u, 0.3) + gagliardo_seminorm(v, 0.3)
            assert lhs <= rhs * (1.0 + 1e-6)

    def test_weighted_components(self):
        v = trig_path(GRID, 6)
        stacked = SampledPath(GRID, np.stack([v.values, np.zeros_like(v.values)], axis=1))
        w = gagliardo_seminorm(stacked, 0.3, weights=np.array([4.0, 1.0]))
        assert abs(w - 2.0 * gagliardo_seminorm(v, 0.3)) < 1e-10

    @pytest.mark.parametrize("weighted", [False, True], ids=["plain", "weighted"])
    @pytest.mark.parametrize("d", [1, 2, 3, 7, 8, 9])
    @pytest.mark.parametrize("M", [2, 3, 64, 193, _BAND - 1, _BAND, _BAND + 1, 512])
    def test_bits_of_the_difference_tensor(self, M, d, weighted):
        """Within 1e-12 of the seminorm summed over the whole difference
        tensor, on both sides of the band edge."""
        rng = np.random.default_rng(100 * M + d)
        # components of very different sizes, so that a lost one shows
        vals = rng.standard_normal((M + 1, d)) * np.logspace(0, 4, d)
        weights = rng.uniform(0.1, 2.0, d) if weighted else None
        v = SampledPath(TimeGrid(1.3, M), vals[:, 0] if d == 1 else vals)
        ref = gagliardo_tensor_ref(v.values, 1.3, 0.3, weights)
        assert abs(gagliardo_seminorm(v, 0.3, weights) - ref) <= 1e-12 * ref

    @given(
        beta=st.floats(0.05, 0.95),
        M=st.integers(2, 600),
        d=st.sampled_from([1, 2, 3, 9]),
        weighted=st.booleans(),
        kind=st.sampled_from(["smooth", "rough", "noise", "constant"]),
        offset=st.floats(-1e6, 1e6),
        seed=st.integers(0, 2**16),
    )
    def test_matches_the_tensor_oracle(self, beta, M, d, weighted, kind, offset, seed):
        rng = np.random.default_rng(seed)
        grid = TimeGrid(1.0, M)
        t = grid.nodes[:, None]
        scales = rng.uniform(0.1, 10.0, d)
        if kind == "smooth":
            vals = np.sin(rng.uniform(1.0, 20.0, d) * t + rng.uniform(0.0, 6.0, d)) * scales
        elif kind == "rough":
            vals = t**0.45 * scales
        elif kind == "noise":
            vals = frac_integral(SampledPath(grid, rng.standard_normal((M + 1, d))), 0.3).values
        else:
            vals = np.zeros((M + 1, d))
        vals = vals + offset
        weights = rng.uniform(0.0, 2.0, d) if weighted else None
        v = SampledPath(grid, vals[:, 0] if d == 1 else vals)
        got = gagliardo_seminorm(v, beta, weights)
        if kind == "constant":
            assert got == 0.0
            return
        ref = gagliardo_tensor_ref(v.values, 1.0, beta, weights)
        assert abs(got - ref) <= 1e-12 * ref

    @pytest.mark.parametrize("M", [_BAND + 1, 25, 31])
    def test_path_with_no_far_pair(self, M):
        # only the middle nodes move, none of them _BAND steps from another
        # moving node: the far sum is zero and may round below it
        vals = np.zeros(M + 1)
        vals[M - _BAND + 1 : _BAND] = np.random.default_rng(M).standard_normal(2 * _BAND - M - 1)
        v = SampledPath(TimeGrid(1.0, M), vals)
        for beta in (0.05, 0.6, 0.95):
            ref = gagliardo_tensor_ref(vals, 1.0, beta)
            assert abs(gagliardo_seminorm(v, beta) - ref) <= 1e-12 * ref

    def test_extreme_magnitudes(self):
        v = trig_path(GRID, 3)
        base = gagliardo_seminorm(v, 0.3, [1.0])
        for scale, weight in ((1e200, 1.0), (1e-200, 1.0), (1.0, 1e300), (1e150, 1e-300)):
            got = gagliardo_seminorm(SampledPath(GRID, scale * v.values), 0.3, [weight])
            assert abs(got - scale * math.sqrt(weight) * base) <= 1e-13 * got

    @pytest.mark.parametrize("M", [1024, 4096])
    def test_peak_memory(self, M):
        d = 2
        v = SampledPath(TimeGrid(1.0, M), np.random.default_rng(M).standard_normal((M + 1, d)))
        weights = np.ones(d)
        gagliardo_seminorm(v, 0.3, weights)  # builds the cached factors
        tracemalloc.start()
        try:
            gagliardo_seminorm(v, 0.3, weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * 8 * (M + 1) * d

    @pytest.mark.parametrize("M", [*range(2, 10), _BAND + 3])
    def test_exterior_node_counts_enumerated(self, M):
        # cell (a, b) spans nodes a..a+1 by b..b+1; count far cells per node pair
        ref = np.zeros((M + 1, M + 1))
        for a in range(M):
            for b in range(M):
                if abs(a - b) >= 2:
                    ref[a:a + 2, b:b + 2] += 1.0
        counts = _band_counts(M)
        for k in range(1, _BAND):
            pairs = np.diagonal(ref, k)
            assert np.array_equal(counts[k - 1, : pairs.size], pairs)
            assert not counts[k - 1, pairs.size :].any()
        # beyond the band every touching cell is exterior
        n = np.full(M + 1, 2.0)
        n[0] = n[-1] = 1.0
        for k in range(_BAND, M + 1):
            assert np.array_equal(np.diagonal(ref, k), n[:-k] * n[k:])

    @pytest.mark.parametrize("func", [l2_time_norm, gagliardo_seminorm, sobolev_norm])
    @pytest.mark.parametrize("weights,message", [
        ([1.0, np.nan], "finite"),
        ([np.inf, 1.0], "finite"),
        ([-1.0, 1.0], "non-negative"),
        ([-5.0, 0.1], "non-negative"),
        ([1.0, 1.0, 1.0], "one entry per component"),
        ([[1.0, 1.0]], "one entry per component"),
        (2.0, "one entry per component"),
    ], ids=["nan", "inf", "negative", "negative-large", "length", "2d", "scalar"])
    def test_weights_are_checked(self, func, weights, message):
        v = trig_path(GRID, 5)
        stacked = SampledPath(GRID, np.stack([v.values, -v.values], axis=1))
        args = (stacked,) if func is l2_time_norm else (stacked, 0.3)
        with pytest.raises(ValueError, match=message):
            func(*args, weights)


class TestL2TimeNorm:
    def test_large_values_do_not_overflow(self):
        # the squares of 1e160 leave the double range; the norm does not
        t = GRID.nodes
        v = SampledPath(GRID, 1e160 * np.sin(3.0 * t))
        base = SampledPath(GRID, np.sin(3.0 * t))
        assert abs(l2_time_norm(v) - 1e160 * l2_time_norm(base)) <= 1e-15 * l2_time_norm(v)
        total = sobolev_norm(v, 0.3)
        assert math.isfinite(total)
        assert total == l2_time_norm(v) + gagliardo_seminorm(v, 0.3)

    def test_extreme_magnitudes(self):
        v = trig_path(GRID, 3)
        base = l2_time_norm(v, [1.0])
        for scale, weight in ((1e200, 1.0), (1e-200, 1.0), (1.0, 1e300), (1e150, 1e-300)):
            got = l2_time_norm(SampledPath(GRID, scale * v.values), [weight])
            assert abs(got - scale * math.sqrt(weight) * base) <= 1e-13 * got

    @pytest.mark.parametrize("d", [1, 2])
    def test_ordinary_paths_keep_their_bits(self, d):
        # the rescaling is by exact powers of two: where no square leaves
        # the normal range the norm is the plain trapezoid, bit for bit
        rng = np.random.default_rng(d)
        h = GRID.spacing
        node_w = np.full(GRID.steps + 1, h)
        node_w[0] = node_w[-1] = h / 2.0
        for scale in (1e-100, 1e-3, 1.0, 7.5, 1e100):
            vals = scale * rng.standard_normal((GRID.steps + 1, d))
            wts = rng.uniform(0.1, 3.0, d)
            path = SampledPath(GRID, vals if d > 1 else vals[:, 0])
            plain = float(np.sqrt(np.sum(node_w * np.sum(vals**2, axis=1))))
            weighted = float(np.sqrt(np.sum(node_w * (vals**2 @ wts))))
            assert l2_time_norm(path) == plain
            assert l2_time_norm(path, wts) == weighted


class TestNormEquivalence:
    def test_bracket(self):
        paths = [trig_path(TimeGrid(1.0, 256), s) for s in range(50)]
        study = norm_equivalence_study(paths, 0.25)
        assert 0.0 < study.ratio_min <= study.ratio_max < math.inf
        assert study.ratio_max / study.ratio_min < 100.0

    def test_singleton_constant(self):
        g = TimeGrid(1.0, 128)
        study = norm_equivalence_study([SampledPath(g, np.ones(g.steps + 1))], 0.25)
        assert study.ratio_min == study.ratio_max

    def test_zero_member_skipped(self):
        g = TimeGrid(1.0, 128)
        study = norm_equivalence_study(
            [SampledPath(g, np.zeros(g.steps + 1)), trig_path(g, 1)], 0.25
        )
        assert study.skipped == 1
        assert study.ratios.size == 1

    def test_refinement_stability(self):
        b1 = norm_equivalence_study([trig_path(TimeGrid(1.0, 256), s) for s in range(20)], 0.25)
        b2 = norm_equivalence_study([trig_path(TimeGrid(1.0, 512), s) for s in range(20)], 0.25)
        assert 0.5 <= b2.ratio_min / b1.ratio_min <= 2.0
        assert 0.5 <= b2.ratio_max / b1.ratio_max <= 2.0

    def test_empty(self):
        with pytest.raises(ValueError):
            norm_equivalence_study([], 0.25)

    def test_no_lower_bound_without_u0_zero(self):
        # the integral's (M+1) x (M+1) matrix has a zero row 0, so rank M;
        # its null vector is mostly a spike at t = 0 and its ratio is ~0
        g = TimeGrid(1.0, 64)
        matrix = frac_integral(SampledPath(g, np.eye(g.steps + 1)), 0.25).values
        assert not np.any(matrix[0])
        assert np.linalg.matrix_rank(matrix) == g.steps
        null = np.linalg.svd(matrix)[2][-1]
        assert abs(null[0]) > 0.9
        assert norm_equivalence_study([SampledPath(g, null)], 0.25).ratio_max < 1e-12


class TestInverse:
    def test_sobolev_norm_is_sum(self):
        v = trig_path(GRID, 13)
        assert abs(
            sobolev_norm(v, 0.3) - (l2_time_norm(v) + gagliardo_seminorm(v, 0.3))
        ) < 1e-14
