import csv
import dataclasses
import io
import json
import math
import os
import resource
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import fracwave.spectral as spectral
from fracwave.boundary import interval_multiplier, multiplier_identity_check, trig_test_function
from fracwave.spectral import (
    ModeCoefficients,
    SpectralDomain,
    build_interval,
    build_rectangle,
    domain_to_config,
    eval_modes,
    frac_power_norm,
    grid_sum,
    mode_sum,
    pairwise_sum,
    project,
    synthesize,
    tail_stabilizes,
    uniform_grid,
)
from oracles import (boundary_normal_deriv_ref, eval_modes_ref, interval_ref, rectangle_ref,
                     rectangle_strip_ref)

_DOMAIN_DATA = ("eigenvalues", "mode_index", "quad_points", "quad_weights", "boundary_points",
                "boundary_weights")


class TestInterval:
    def test_first_eigenvalue(self):
        d = build_interval(1.0, 4)
        assert abs(d.eigenvalues[0] - math.pi**2) < 1e-12

    def test_scaling(self):
        d = build_interval(2.0, 4)
        assert abs(d.eigenvalues[0] - math.pi**2 / 4.0) < 1e-12

    def test_normalization(self):
        d = build_interval(1.0, 1)
        E = eval_modes(d, d.quad_points)
        norm = math.sqrt(float((E[0] ** 2 * d.quad_weights).sum()))
        assert abs(norm - 1.0) < 1e-12

    def test_orthonormality(self):
        d = build_interval(1.0, 64)
        E = eval_modes(d, d.quad_points)
        gram = (E * d.quad_weights) @ E.T
        assert np.max(np.abs(gram - np.eye(64))) < 1e-10

    def test_normal_derivatives(self):
        d = build_interval(1.0, 3)
        amp = math.sqrt(2.0)
        assert abs(d.boundary_normal_deriv[0, 0] + amp * math.pi) < 1e-12
        assert abs(d.boundary_normal_deriv[0, 1] - amp * math.pi * math.cos(math.pi)) < 1e-12

    def test_validation(self):
        with pytest.raises(ValueError):
            build_interval(-1.0, 4)
        with pytest.raises(ValueError):
            build_interval(1.0, 0)


class TestRectangle:
    def test_first_eigenvalue(self):
        r = build_rectangle(1.0, 1.0, 4)
        assert abs(r.eigenvalues[0] - 2.0 * math.pi**2) < 1e-10

    def test_degenerate_pair_lexicographic(self):
        r = build_rectangle(1.0, 1.0, 4)
        assert abs(r.eigenvalues[1] - 5.0 * math.pi**2) < 1e-10
        assert abs(r.eigenvalues[2] - 5.0 * math.pi**2) < 1e-10
        assert tuple(r.mode_index[1]) == (1, 2)
        assert tuple(r.mode_index[2]) == (2, 1)

    @pytest.mark.parametrize("L,N", [(1.0, 1), (1.0, 7), (1.0, 60), (1.0, 300), (2.0, 120)])
    def test_order_matches_tuple_sort(self, L, N):
        # square domains: degenerate eigenvalue ties are common
        j = np.arange(1, N + 1)
        lj = (j * math.pi / L) ** 2
        lam = lj[:, None] + lj[None, :]
        pairs = sorted((lam[a, b], a + 1, b + 1) for a in range(N) for b in range(N))[:N]
        r = build_rectangle(L, L, N)
        assert np.array_equal(r.eigenvalues, [p[0] for p in pairs])
        assert np.array_equal(r.mode_index, [[p[1], p[2]] for p in pairs])

    def test_sorted_for_hundred_modes(self):
        r = build_rectangle(1.0, 2.0, 100)
        assert np.all(np.diff(r.eigenvalues) >= -1e-12)
        assert r.mode_count == 100

    def test_orthonormality(self):
        r = build_rectangle(1.0, 1.5, 16)
        E = eval_modes(r, r.quad_points)
        gram = (E * r.quad_weights) @ E.T
        assert np.max(np.abs(gram - np.eye(16))) < 1e-10

    def test_boundary_normal_derivative(self):
        r = build_rectangle(1.0, 1.0, 4)
        i = int(np.argmin(np.sum((r.boundary_points - np.array([0.0, 0.5])) ** 2, axis=1)))
        y = r.boundary_points[i, 1]
        expected = -2.0 * math.pi * math.sin(math.pi * y)
        assert abs(r.boundary_normal_deriv[0, i] - expected) < 1e-10


def _largest_entries(blocks):
    """``max |got - ref|`` and ``max |ref|`` over ``(got, ref)`` blocks."""
    diff = top = 0.0
    for got, ref in blocks:
        diff = max(diff, float(np.max(np.abs(got - ref))))
        top = max(top, float(np.max(np.abs(ref))))
    return diff, top


class TestTensorDomain:
    """The one tensor-sine domain against each domain's basis written out."""

    @pytest.mark.parametrize("N", [1, 8, 64, 512, 2048])
    def test_interval_bits(self, N):
        d, ref = build_interval(1.3, N), interval_ref(1.3, N)
        for name in _DOMAIN_DATA:
            got = getattr(d, name)
            assert got.shape == ref[name].shape and np.array_equal(got, ref[name]), name
        pts = np.concatenate([uniform_grid(d, 9), d.quad_points[::7]])
        assert np.array_equal(eval_modes(d, pts), eval_modes_ref(d.lengths, d.mode_index, pts))
        assert np.array_equal(d.boundary_normal_deriv,
                              boundary_normal_deriv_ref(d.lengths, d.mode_index, d.boundary_points))

    @pytest.mark.parametrize("L1,L2,N", [(1.0, 1.0, 1), (1.0, 1.0, 7), (2.0, 2.0, 300),
                                         (1.0, 1.5, 64), (1.5, 1.0, 399), (0.3, 1.7, 1000),
                                         (1.0, 1.5, 16384)])
    def test_rectangle_last_places(self, L1, L2, N):
        d, ref = build_rectangle(L1, L2, N), rectangle_ref(L1, L2, N)
        # the mode selection, quadrature and boundary data keep every bit
        for name in _DOMAIN_DATA:
            got = getattr(d, name)
            assert got.shape == ref[name].shape and np.array_equal(got, ref[name]), name
        # the modes take sqrt(2/L1) sqrt(2/L2) for 2/sqrt(L1 L2) and round
        # (j pi / L) x for j pi x / L: last places only
        # every entry, compared in blocks of 1,024 modes against the largest
        # entry of the whole reference
        pts = np.concatenate([uniform_grid(d, 9), d.quad_points[::97]])
        blocks = [slice(lo, lo + 1024) for lo in range(0, N, 1024)]
        diff, top = _largest_entries(
            (eval_modes(SpectralDomain(d.lengths, d.mode_index[b]), pts),
             eval_modes_ref(d.lengths, d.mode_index[b], pts)) for b in blocks)
        assert diff <= 1e-12 * top
        nd = d.boundary_normal_deriv
        diff, top = _largest_entries(
            (nd[b], boundary_normal_deriv_ref(d.lengths, d.mode_index[b], d.boundary_points))
            for b in blocks)
        assert diff <= 1e-15 * top

    @pytest.mark.parametrize("L1,L2,N", [(1.0, 0.1, 16384), (0.1, 1.0, 5000), (1.0, 1e-2, 3000),
                                         (1.0, 0.3, 17), (3.0, 1.0, 5), (1.0, 1.0, 2),
                                         (1e-150, 1e-150, 50), (1e150, 1e150, 50)])
    def test_mode_search_on_any_aspect_ratio(self, L1, L2, N):
        # the block sized per axis selects what the square block selects
        d, ref = build_rectangle(L1, L2, N), rectangle_ref(L1, L2, N)
        assert np.array_equal(d.mode_index, ref["mode_index"])
        assert np.array_equal(d.eigenvalues, ref["eigenvalues"])

    def test_mode_search_memory_is_linear(self):
        # the square block of the thin rectangle held 17 MB of index pairs
        tracemalloc.start()
        try:
            d = build_rectangle(1.0, 0.1, 16384)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * d.mode_index.nbytes

    def test_strip_oracle_agrees_with_the_square_one(self):
        for L1, L2, N in ((1.0, 0.1, 3000), (1.0, 0.5, 700), (2.0, 2.0, 300)):
            idx, lam = rectangle_strip_ref(L1, L2, N)
            ref = rectangle_ref(L1, L2, N)
            assert np.array_equal(idx, ref["mode_index"]) and np.array_equal(lam, ref["eigenvalues"])

    def test_extreme_aspect_ratios(self):
        # run apart, under a 1 GB address space and a timeout: a square block
        # on (1, 1e-3) needs gigabytes, and on (1, 1e-100), where each
        # eigenvalue's first term is lost next to the second, it never ends
        script = """
import numpy as np
from fracwave.spectral import build_rectangle
from oracles import rectangle_strip_ref
d = build_rectangle(1.0, 1e-3, 16384)
idx, lam = rectangle_strip_ref(1.0, 1e-3, 16384)
assert np.array_equal(d.mode_index, idx) and np.array_equal(d.eigenvalues, lam)
for L2 in (1e-100, 1e-10):
    try:
        build_rectangle(1.0, L2, 16)
    except ValueError as exc:
        assert str(exc).startswith("domain lengths (1.0, "), exc
    else:
        raise AssertionError(L2)
print("ok")
"""
        here = os.path.dirname(os.path.abspath(__file__))
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([os.path.join(here, os.pardir, "src"), here]))
        proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                              text=True, timeout=60, preexec_fn=_limited_address_space)
        assert proc.returncode == 0 and proc.stdout == "ok\n", proc.stderr

    def test_state_is_lengths_and_indices(self):
        d = build_rectangle(1.0, 1.5, 12)
        assert [f.name for f in dataclasses.fields(d)] == ["lengths", "mode_index"]
        assert (d.kind, d.mode_count, build_interval(1.0, 3).kind) == ("rectangle", 12, "interval")

    def test_quadrature_built_on_first_use(self):
        d = build_rectangle(1.0, 1.5, 64)
        lazy = {"quad_points", "quad_weights", "boundary_points", "boundary_weights",
                "boundary_normal_deriv"}
        assert not lazy & d.__dict__.keys()
        assert d.quad_points is d.quad_points
        assert "boundary_points" not in d.__dict__


def _limited_address_space():
    resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30))


class TestDomainLengths:
    @pytest.mark.parametrize("lengths", [(math.inf,), (math.nan,), (0.0,), (-1.0,),
                                         (1.0, math.inf), (1.0, -2.0), (math.nan, 1.0)])
    def test_finite_and_positive(self, lengths):
        with pytest.raises(ValueError, match="finite and positive"):
            SpectralDomain(lengths, np.ones((1, len(lengths)), dtype=int))

    @pytest.mark.parametrize("lengths", [(1e308,), (1e-300,), (1e308, 1e308), (1.0, 1e200),
                                         (1e-300, 1.0)])
    def test_eigenvalues_in_range(self, lengths):
        # 1e308 underflows (j pi / L)^2 to 0, 1e-300 overflows it
        with pytest.raises(ValueError, match="out of floating-point range"):
            SpectralDomain(lengths, np.ones((1, len(lengths)), dtype=int))

    def test_builders_reject(self):
        with pytest.raises(ValueError):
            build_interval(math.inf, 4)
        for L1, L2 in ((1.0, math.inf), (1e308, 1e308), (1.0, 1e200)):
            with pytest.raises(ValueError):
                build_rectangle(L1, L2, 16)

    def test_extreme_lengths_in_range_accepted(self):
        for L in (1e-150, 1e150):
            assert np.all(np.isfinite(build_interval(L, 8).eigenvalues))
            assert build_interval(L, 8).eigenvalues[0] > 0


class TestProject:
    def test_eigenfunction_projection(self):
        d = build_interval(1.0, 8)
        c = project(d, lambda x: math.sqrt(2.0) * np.sin(3.0 * math.pi * x))
        assert abs(c[2] - 1.0) < 1e-10
        assert np.max(np.abs(np.delete(c, 2))) < 1e-10

    def test_poly_bump_coefficients(self):
        # analytic sine transform of x(1-x): 4 sqrt(2)/(n pi)^3 on odd modes
        d = build_interval(1.0, 16)
        c = project(d, lambda x: x * (1.0 - x))
        n = np.arange(1, 17)
        ref = np.where(n % 2 == 1, 4.0 * math.sqrt(2.0) / (n * math.pi) ** 3, 0.0)
        assert np.max(np.abs(c - ref)) < 1e-12

    def test_zero(self):
        d = build_interval(1.0, 8)
        assert np.max(np.abs(project(d, lambda x: 0.0 * x))) == 0.0

    def test_non_finite_rejected(self):
        d = build_interval(1.0, 4)
        bad = np.full(d.quad_points.shape[0], np.nan)
        with pytest.raises(ValueError):
            project(d, bad)

    def test_rectangle_projection(self):
        r = build_rectangle(1.0, 1.0, 6)
        c = project(r, lambda x, y: 2.0 * np.sin(math.pi * x) * np.sin(2.0 * math.pi * y))
        k = next(i for i, jk in enumerate(r.mode_index) if tuple(jk) == (1, 2))
        assert abs(c[k] - 1.0) < 1e-10


class TestSynthesize:
    def test_single_mode_midpoint(self):
        d = build_interval(1.0, 4)
        c = np.array([1.0, 0.0, 0.0, 0.0])
        val = synthesize(d, c, np.array([0.5]))
        assert abs(val[0] - math.sqrt(2.0)) < 1e-13

    def test_roundtrip(self):
        d = build_interval(1.0, 32)
        rng = np.random.default_rng(2)
        c = rng.standard_normal(32)
        back = project(d, synthesize(d, c, d.quad_points))
        assert np.max(np.abs(back - c)) < 1e-9

    def test_boundary_zero(self):
        d = build_interval(1.0, 16)
        c = np.random.default_rng(3).standard_normal(16)
        vals = synthesize(d, c, np.array([0.0, 1.0]))
        assert np.max(np.abs(vals)) < 1e-12

    def test_outside_domain_rejected(self):
        d = build_interval(1.0, 4)
        with pytest.raises(ValueError):
            synthesize(d, np.ones(4), np.array([1.5]))

    def test_parseval(self):
        d = build_interval(1.0, 32)
        c = np.random.default_rng(4).standard_normal(32)
        vals = synthesize(d, c, d.quad_points)
        quad_norm = math.sqrt(float((vals**2 * d.quad_weights).sum()))
        assert abs(quad_norm - float(np.linalg.norm(c))) < 1e-9


class TestFracPowerNorm:
    def test_theta_zero_is_euclidean(self):
        d = build_interval(1.0, 8)
        c = np.random.default_rng(5).standard_normal(8)
        assert abs(frac_power_norm(d, c, 0.0) - np.linalg.norm(c)) < 1e-13

    def test_single_mode_half_powers(self):
        d = build_interval(1.0, 4)
        c = np.array([1.0, 0.0, 0.0, 0.0])
        assert abs(frac_power_norm(d, c, 0.5) - math.pi) < 1e-12
        assert abs(frac_power_norm(d, c, -0.5) - 1.0 / math.pi) < 1e-12

    def test_theta_range(self):
        d = build_interval(1.0, 4)
        with pytest.raises(ValueError):
            frac_power_norm(d, np.ones(4), 1.5)

    def test_monotone_in_theta(self):
        # all eigenvalues exceed one on the unit interval
        d = build_interval(1.0, 16)
        c = np.random.default_rng(6).standard_normal(16)
        thetas = np.linspace(-1.0, 1.0, 9)
        vals = [frac_power_norm(d, c, t) for t in thetas]
        assert np.all(np.diff(vals) > 0)

    def test_duality_sandwich(self):
        d = build_interval(1.0, 16)
        rng = np.random.default_rng(7)
        for _ in range(10):
            c = rng.standard_normal(16)
            lhs = frac_power_norm(d, c, -0.3) * frac_power_norm(d, c, 0.3)
            assert lhs >= np.dot(c, c) * (1.0 - 1e-12)
        single = np.zeros(16)
        single[4] = 2.0
        lhs = frac_power_norm(d, single, -0.3) * frac_power_norm(d, single, 0.3)
        assert abs(lhs - np.dot(single, single)) < 1e-10


class TestHelpers:
    def test_pairwise_sum_matches_numpy(self):
        rng = np.random.default_rng(8)
        a = rng.standard_normal((37, 5))
        assert np.allclose(pairwise_sum(a, axis=0), a.sum(axis=0), atol=1e-12)

    def test_tail_stabilizes(self):
        n = np.arange(1, 257, dtype=float)
        assert tail_stabilizes(n**-2.0)
        assert not tail_stabilizes(np.ones(256))

    def test_tail_stabilizes_per_row(self):
        # rows near the threshold, a zero row and a row of one term: each
        # row's flag is the flag of the row alone
        rng = np.random.default_rng(4)
        n = np.arange(1, 65, dtype=float)
        rows = np.array([n ** -p * rng.uniform(0.5, 1.5, n.size) for p in np.linspace(0.0, 2.0, 200)])
        rows[7] = 0.0
        flags = tail_stabilizes(rows, frac=0.25, tol=0.22)
        assert flags.shape == (200,) and 0 < flags.sum() < 200
        assert flags.tolist() == [tail_stabilizes(r, frac=0.25, tol=0.22) for r in rows]
        assert tail_stabilizes(np.ones((3, 1)), tol=1.0).tolist() == [True] * 3

    def test_mode_coefficients_validation(self):
        with pytest.raises(ValueError):
            ModeCoefficients(np.ones(4), np.ones(5))
        with pytest.raises(ValueError):
            ModeCoefficients(np.array([np.inf]), np.array([0.0]))


    def test_gauss_rule_built_once_per_order(self, monkeypatch):
        calls = []
        leggauss = np.polynomial.legendre.leggauss
        monkeypatch.setattr(np.polynomial.legendre, "leggauss",
                            lambda n: calls.append(n) or leggauss(n))
        spectral._leggauss.cache_clear()
        try:
            for N in (8, 16):
                build_interval(1.0, N).quad_points
                build_rectangle(1.0, 1.5, N).boundary_weights
            for c in ([1.0], [0.5, -2.0]):
                multiplier_identity_check(trig_test_function(c), interval_multiplier(1.0))
            assert sorted(calls) == [10, 64]
            x, w = spectral._leggauss(10)
            assert np.array_equal(x, leggauss(10)[0]) and np.array_equal(w, leggauss(10)[1])
            assert not (x.flags.writeable or w.flags.writeable)
        finally:
            spectral._leggauss.cache_clear()


class TestModeSum:
    N, R, P = 7, 10, 13
    ROW = 16 * N * P  # budget bytes for one row of points

    # (budget in bytes or None for the default, expected pairwise_sum calls)
    @pytest.mark.parametrize("budget,calls", [
        (None, 1),
        (3 * ROW, 4),  # row blocks of 3, 3, 3, 1
        (16 * N * 4, 40),  # one row per block, points in blocks of 4, 4, 4, 1
        (8, 130),  # below one column: single elements
    ])
    def test_blocks_are_bit_identical(self, monkeypatch, budget, calls):
        rng = np.random.default_rng(3)
        coeff = rng.standard_normal((self.N, self.R)) * np.logspace(0, -9, self.N)[:, None]
        basis = rng.standard_normal((self.N, self.P))
        full = pairwise_sum(coeff[:, :, None] * basis[:, None, :], axis=0)
        if budget is not None:
            monkeypatch.setattr(spectral, "_MODE_SUM_BYTES", budget)
        seen = []

        def counted(arr, axis=0, orig=pairwise_sum):
            seen.append(arr.shape)
            return orig(arr, axis)

        monkeypatch.setattr(spectral, "pairwise_sum", counted)
        got = mode_sum(coeff, basis)
        assert len(seen) == calls
        assert np.array_equal(got, full)

    # fewer points than rows
    @pytest.mark.parametrize("budget", [None, 16 * N * 4, 8])
    @pytest.mark.parametrize("P,R", [(1, 2), (1, 193), (2, 3), (2, 193)])
    def test_rows_inner_are_bit_identical(self, monkeypatch, budget, P, R):
        rng = np.random.default_rng(R + P)
        coeff = rng.standard_normal((self.N, R)) * np.logspace(0, -9, self.N)[:, None]
        basis = rng.standard_normal((self.N, P))
        full = pairwise_sum(coeff[:, :, None] * basis[:, None, :], axis=0)
        if budget is not None:
            monkeypatch.setattr(spectral, "_MODE_SUM_BYTES", budget)
        got = mode_sum(coeff, basis)
        assert got.flags.c_contiguous
        assert np.array_equal(got, full)

    def test_synthesize_is_a_one_row_mode_sum(self):
        d = build_interval(1.0, 9)
        c = np.random.default_rng(4).standard_normal(9)
        x = np.linspace(0.0, 1.0, 11)
        assert np.array_equal(synthesize(d, c, x),
                              pairwise_sum(c[:, None] * eval_modes(d, x), axis=0))


# (domain, P): intervals with N > P - 1 and modes at multiples of P - 1
# (vanishing on the grid) and rectangles whose modes alias along both axes
GRID_CASES = (
    [(build_interval(1.3, N), P) for N in (1, 8, 64, 300) for P in (2, 3, 9, 65)]
    + [(build_rectangle(1.0, 1.5, N), P) for N in (1, 64, 2000) for P in (2, 3, 9, 17)]
)


class TestUniformGrid:
    def test_interval_is_linspace(self):
        assert np.array_equal(uniform_grid(build_interval(1.3, 4), 7), np.linspace(0.0, 1.3, 7))

    def test_rectangle_is_x_major_tensor_grid(self):
        pts = uniform_grid(build_rectangle(1.0, 1.5, 4), 3)
        x, y = np.linspace(0.0, 1.0, 3), np.linspace(0.0, 1.5, 3)
        assert np.array_equal(pts, [[a, b] for a in x for b in y])

    @pytest.mark.parametrize("P", [1, 0, -3])
    def test_fewer_than_two_points_rejected(self, P):
        with pytest.raises(ValueError, match="at least 2 points"):
            uniform_grid(build_interval(1.0, 4), P)
        with pytest.raises(ValueError, match="at least 2 points"):
            grid_sum(np.ones((4, 1)), build_interval(1.0, 4), P)


class TestGridSum:
    @pytest.mark.parametrize("domain,P", GRID_CASES,
                             ids=[f"{d.kind}-N{d.mode_count}-P{P}" for d, P in GRID_CASES])
    def test_matches_mode_sum(self, domain, P):
        rng = np.random.default_rng(domain.mode_count + P)
        N = domain.mode_count
        pts = uniform_grid(domain, P)
        basis = eval_modes(domain, pts)
        ends = (pts == 0.0) | (pts == np.asarray(domain.lengths))
        on_boundary = ends if domain.is_interval else ends.any(axis=1)
        for n in sorted({N, max(1, N // 3)}):  # all modes, and the first n only
            coeff = rng.standard_normal((n, 4))
            ref = mode_sum(coeff, basis[:n])
            got = grid_sum(coeff, domain, P)
            assert got.shape == ref.shape == (4, len(pts))
            # the reference holds sin(n pi)-sized roundoff on the boundary,
            # where the transform gives exact zeros; inside, eval_modes rounds
            # n pi x / L, so the reference carries roundoff of a few eps
            # times the mode count, which sets the tolerance
            assert np.all(got[:, on_boundary] == 0.0)
            inner = ~on_boundary
            assert np.max(np.abs(got[:, inner] - ref[:, inner]), initial=0.0) \
                <= 1e-13 * np.max(np.abs(ref[:, inner]), initial=0.0)

    def test_aliases_fold_onto_the_grid(self):
        # on 5 nodes (K = 4) mode 7 is minus mode 1, modes 4 and 8 vanish
        d = build_interval(1.0, 8)
        coeff = np.zeros((8, 1))
        coeff[[0, 3, 6, 7], 0] = [2.0, 5.0, 3.0, 7.0]
        got = grid_sum(coeff, d, 5)[0]
        assert np.allclose(got, math.sqrt(2.0) * (2.0 - 3.0) * np.sin(np.pi * np.arange(5) / 4),
                           rtol=0, atol=1e-15)

    def test_blocks_are_bit_identical(self, monkeypatch):
        rng = np.random.default_rng(8)
        for domain, P in ((build_interval(1.0, 40), 9), (build_rectangle(1.0, 1.5, 200), 9)):
            coeff = rng.standard_normal((domain.mode_count, 11))
            full = grid_sum(coeff, domain, P)
            monkeypatch.setattr(spectral, "_MODE_SUM_BYTES", 1)  # one time row per block
            assert np.array_equal(grid_sum(coeff, domain, P), full)
            monkeypatch.undo()

    def test_too_many_rows_rejected(self):
        with pytest.raises(ValueError):
            grid_sum(np.ones((5, 2)), build_interval(1.0, 4), 9)


class TestDst1:
    # the numpy DST-I gives the bits of scipy's pocketfft transform, on the
    # block shapes grid_sum forms: (rows, K - 1) and (rows, K - 1, K - 1)
    @pytest.mark.parametrize("rows", [1, 3, 7])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 8, 15, 16, 63, 64, 100, 511])
    def test_equals_scipy_1d(self, rows, n):
        import scipy.fft

        blk = np.random.default_rng(n + rows).standard_normal((rows, n))
        assert np.array_equal(spectral._dst1(blk, (1,)), scipy.fft.dstn(blk, type=1, axes=(1,)))

    @pytest.mark.parametrize("rows", [1, 4])
    @pytest.mark.parametrize("n", [1, 2, 3, 6, 7, 16, 31])
    def test_equals_scipy_2d(self, rows, n):
        import scipy.fft

        blk = np.random.default_rng(10 * n + rows).standard_normal((rows, n, n))
        got = spectral._dst1(blk, (1, 2))
        assert np.array_equal(got, scipy.fft.dstn(blk, type=1, axes=(1, 2)))


class TestSerialization:
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_json_without_nan_or_infinity(self, tmp_path, bad):
        fname = tmp_path / "out.json"
        fname.write_text("kept\n")
        with pytest.raises(ValueError):
            spectral._write_json(str(fname), {"a": [1.0, {"b": bad}]})
        assert fname.read_text() == "kept\n"
        spectral._write_json(str(fname), {"b": 2.5, "a": [1, None]})
        assert fname.read_text() == '{\n  "a": [\n    1,\n    null\n  ],\n  "b": 2.5\n}\n'

    def test_domain_config_roundtrip(self):
        d = build_rectangle(1.0, 2.0, 12)
        cfg = domain_to_config(d)
        assert cfg == {"kind": "rectangle", "lengths": [1.0, 2.0], "mode_count": d.mode_count}
        assert json.loads(json.dumps(cfg)) == cfg

    def test_csv_bytes_match_csv_writer(self, tmp_path):
        header = ["t", "x=0.0;y=0.25", "x=1e-07;y=1.5", "n"]
        rows = [[0.0, -0.0, 5e-324, 3], [1e308, -1.7976931348623157e308, 1.0 / 3.0, -12],
                [2.5e-300, 0.1 + 0.2, 123456789.0, 0]]
        buf = io.StringIO(newline="")
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(map(repr, row) for row in rows)
        fname = tmp_path / "rows.csv"
        spectral._write_csv(str(fname), header, iter(rows))
        assert fname.read_bytes() == buf.getvalue().encode()

    def test_failed_table_leaves_no_file(self, tmp_path):
        def rows():
            yield [1.0, 2.0]
            raise RuntimeError("the row source fails")

        fname = tmp_path / "rows.csv"
        with pytest.raises(RuntimeError, match="row source fails"):
            spectral._write_csv(str(fname), ["a", "b"], rows())
        assert not list(tmp_path.iterdir())
