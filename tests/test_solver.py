import json
import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fracwave.mittag_leffler as mlmod
import fracwave.solver
import fracwave.spectral
from fracwave.fracops import SampledPath, TimeGrid, caputo_derivative
from fracwave.mittag_leffler import MLParams, ml
from fracwave.params import FracOrder
from fracwave.presets import poly_bump, random_decay, single_mode
from fracwave.solver import (
    ModePropagator,
    SolutionQuery,
    coefficient_evolution,
    mode_second_derivative_samples,
    mode_solution,
    solve_field,
    solve_grid,
    truncation_tail,
    write_grid_snapshots_csv,
    write_manifest,
    write_snapshots_csv,
)
from fracwave.spectral import (
    ModeCoefficients,
    build_interval,
    build_rectangle,
    eval_modes,
    pairwise_sum,
    synthesize,
    uniform_grid,
)
from oracles import ml_series_ref, mode_combinations_ref

LAM1 = math.pi**2

# extended-precision series value of the first-mode amplitude at t = 1,
# order 1.5 (the solver composes this with the eigenfunction)
Y_1P5_PI2_AT_1 = -0.1152743484427077


class TestModeSolution:
    def test_initial_state(self):
        st = mode_solution(LAM1, 1.5, 2.0, 3.0, 0.0)
        assert st.y == 2.0
        assert st.y_prime == 3.0
        assert abs(st.y_caputo + 2.0 * LAM1) < 1e-12

    def test_bad_eigenvalue(self):
        with pytest.raises(ValueError):
            mode_solution(0.0, 1.5, 1.0, 0.0, 0.5)

    def test_negative_time(self):
        with pytest.raises(ValueError):
            mode_solution(LAM1, 1.5, 1.0, 0.0, -0.5)

    def test_wave_limit(self):
        # approaching order 2 the mode tends to the cosine
        t = 0.7
        errs = []
        for eps in (0.1, 0.01):
            st = mode_solution(LAM1, 2.0 - eps, 1.0, 0.0, t)
            errs.append(abs(st.y - math.cos(math.pi * t)))
        assert errs[1] < errs[0]
        assert errs[1] < 5e-3

    def test_oracle_composition(self):
        st = mode_solution(LAM1, 1.5, 1.0, 0.0, 1.0)
        assert abs(st.y - Y_1P5_PI2_AT_1) < 1e-10 * abs(Y_1P5_PI2_AT_1)
        assert abs(ml_series_ref(1.5, 1.0, -LAM1) - Y_1P5_PI2_AT_1) < 1e-14

    def test_caputo_is_minus_lambda_y(self):
        t = np.linspace(0.0, 2.0, 33)
        st = mode_solution(LAM1, 1.3, 0.7, -0.4, t)
        assert np.max(np.abs(st.y_caputo + LAM1 * st.y)) < 1e-12

    def test_velocity_data_at_zero(self):
        st = mode_solution(LAM1, 1.5, 0.0, 4.0, 0.0)
        assert st.y_prime == 4.0


class TestSecondDerivative:
    def test_against_finite_differences(self):
        # independent oracle: central differences of the analytic velocity
        t0, dh = 0.5, 1e-5
        for alpha in (1.25, 1.6):
            vp = mode_solution(LAM1, alpha, 1.0, 0.5, t0 + dh).y_prime
            vm = mode_solution(LAM1, alpha, 1.0, 0.5, t0 - dh).y_prime
            fd = (vp - vm) / (2.0 * dh)
            got = ModePropagator(LAM1, alpha, t0).second_derivative(1.0, 0.5)[0, 0]
            assert abs(got - fd) < 1e-5 * abs(fd)

    def test_origin_rejected(self):
        with pytest.raises(ValueError):
            ModePropagator(LAM1, 1.5, 0.0).second_derivative(1.0, 0.0)

    def test_sample_panel_means(self):
        # near the origin the samples must reproduce the exact panel means
        # of the second derivative (increments of the analytic velocity)
        g = TimeGrid(1.0, 64)
        v = mode_second_derivative_samples(LAM1, 1.25, 1.0, 0.0, g)
        st = mode_solution(LAM1, 1.25, 1.0, 0.0, g.nodes)
        means = np.diff(st.y_prime) / g.spacing
        lin_means = 0.5 * (v[1:] + v[:-1])
        assert np.max(np.abs(lin_means[:8] - means[:8])) < 1e-9 * np.max(np.abs(means[:8]))

    @pytest.mark.parametrize("alpha", [1.25, 1.75])
    def test_samples_of_many_modes_at_once(self, alpha):
        # one ml call per kernel for all modes; the series' term count is set
        # by the batch's largest argument, so the last bits may differ
        g = TimeGrid(1.0, 256)
        lam = (np.arange(1, 33) * np.pi) ** 2
        a, b = np.linspace(1.0, 0.1, 32), np.linspace(0.5, -0.3, 32)
        batch = mode_second_derivative_samples(lam, alpha, a, b, g)
        single = np.array([mode_second_derivative_samples(lam_n, alpha, a_n, b_n, g)
                           for lam_n, a_n, b_n in zip(lam, a, b)])
        assert batch.shape == single.shape == (32, 257)
        assert np.all(np.abs(batch - single) <= 1e-14 * np.abs(single))


class TestModePropagator:
    def setup_method(self):
        self.lam = np.array([LAM1, 4.0 * LAM1, 9.0 * LAM1])
        self.a = np.array([1.0, -0.5, 0.25])
        self.b = np.array([0.3, 0.0, -2.0])

    def test_each_kernel_evaluated_once(self, monkeypatch):
        betas = []
        original = fracwave.solver.ml

        def counting_ml(params, z):
            betas.append(params.beta)
            return original(params, z)

        monkeypatch.setattr(fracwave.solver, "ml", counting_ml)
        prop = ModePropagator(self.lam, 1.5, np.linspace(0.1, 1.0, 7))
        for _ in range(2):
            for which in ("value", "velocity", "caputo", "second_derivative"):
                getattr(prop, which)(self.a, self.b)
        assert sorted(betas) == [0.5, 1.0, 1.5, 2.0]

    def test_initial_values(self):
        prop = ModePropagator(self.lam, 1.5, [0.0, 0.5])
        assert np.array_equal(prop.value(self.a, self.b)[:, 0], self.a)
        assert np.array_equal(prop.velocity(self.a, self.b)[:, 0], self.b)
        assert np.array_equal(prop.caputo(self.a, self.b), -self.lam[:, None] * prop.value(self.a, self.b))

    @pytest.mark.parametrize("t0", [0.0, 0.01])
    def test_combinations_keep_the_bits(self, t0):
        # the in-place combinations against the formulas written out
        lam = (np.arange(1, 41) * math.pi) ** 2
        a, b = random_decay(40, 2.0, 4).a, random_decay(40, 2.0, 5).b
        t = np.linspace(t0, 1.0, 33)
        prop = ModePropagator(lam, 1.37, t)
        betas = (1.0, 2.0, 1.37) + ((1.37 - 1.0,) if t0 > 0.0 else ())
        kernels = {beta: ml(MLParams(1.37, beta), prop.z) for beta in betas}
        ref = mode_combinations_ref(lam, 1.37, t, kernels, a, b)
        assert len(ref) == len(betas)
        for which, expected in ref.items():
            assert np.array_equal(getattr(prop, which)(a, b), expected), which

    def test_rows_match_single_modes(self):
        t = np.linspace(0.0, 1.0, 9)
        prop = ModePropagator(self.lam, 1.3, t)
        y, v = prop.value(self.a, self.b), prop.velocity(self.a, self.b)
        for n in range(3):
            st = mode_solution(self.lam[n], 1.3, self.a[n], self.b[n], t)
            assert np.allclose(y[n], st.y, rtol=1e-12, atol=1e-14)
            assert np.allclose(v[n], st.y_prime, rtol=1e-12, atol=1e-13)


    # ``verify``'s trace-energy check serves its 64-mode studies from the
    # leading rows of the 128-mode kernels on its 192-step grid; that rests
    # on an ``ml`` value not depending on the rest of its call
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    @pytest.mark.parametrize("beta", [1.0, 2.0])
    def test_ml_rows_are_the_rows_own_call(self, alpha, beta):
        t = TimeGrid(1.0, 192).nodes
        z = -np.outer(build_interval(1.0, 128).eigenvalues, t**alpha)
        rows = -np.outer(build_interval(1.0, 64).eigenvalues, t**alpha)
        assert np.array_equal(z[:64], rows)
        params = MLParams(alpha, beta)
        assert np.array_equal(ml(params, z)[:64], ml(params, rows))

    def test_head_shares_computed_kernels(self):
        # uniform times, and random times on which the head's series band
        # ends near m = 11.6, where the other 64 modes' runs on to m = 12
        lam = build_interval(1.0, 128).eigenvalues
        data = random_decay(64, 2.0, 3)
        for alpha, t in ((1.5, TimeGrid(1.0, 192).nodes),
                         (1.75, np.sort(np.random.default_rng(0).uniform(0.0, 0.027, 193)))):
            prop = ModePropagator(lam, alpha, t)
            want = ModePropagator(lam[:64], alpha, t).value(data.a, data.b)
            prop.value(np.zeros(128), np.zeros(128))
            calls = []
            original = fracwave.solver.ml
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(fracwave.solver, "ml",
                              lambda params, z: calls.append(params.beta) or original(params, z))
                head = prop.head(64)
                assert np.array_equal(head.z, ModePropagator(lam[:64], alpha, t).z)
                assert np.array_equal(head.value(data.a, data.b), want)
                assert calls == []
                # a kernel the larger propagator has not computed is computed
                # for the head's rows alone
                head.velocity(data.a, data.b)
            assert calls == [alpha]
            assert "ea" not in vars(prop)


class TestRandomAlpha:
    # the solver's contract is every alpha in (1, 2), not only the three
    # that ``verify`` samples: at m = l_n^(1/alpha) t <= 25 its kernels match
    # the series oracle at ``ml``'s own tolerance, and the combinations lie
    # within that tolerance of the sum of their terms' sizes

    @settings(max_examples=20, deadline=None)
    @given(alpha=st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
           fracs=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=4))
    def test_kernels_and_combinations_match_the_series(self, alpha, fracs):
        lam = build_interval(1.0, 3).eigenvalues
        t = np.sort(fracs) * (25.0 / lam[-1] ** (1.0 / alpha))
        a, b = np.array([1.0, -0.5, 0.25]), np.array([0.3, 0.0, -2.0])
        prop = ModePropagator(lam, alpha, t)
        ref = {beta: np.vectorize(ml_series_ref)(alpha, beta, prop.z) for beta in (1.0, 2.0, alpha)}
        tol = np.where(-prop.z <= mlmod._NEAR_LIMIT, mlmod._TOL_NEAR, mlmod._TOL_FAR)
        tol += 8.0 * np.finfo(float).eps  # the roundings of a product or a combination
        e1, te2, ea = ref[1.0], t * ref[2.0], ref[alpha]
        for got, want in ((prop.e1, e1), (prop.te2, te2), (prop.ea, ea)):
            assert np.all(np.abs(got - want) <= tol * np.abs(want))
        A, B, L = np.abs(a)[:, None], np.abs(b)[:, None], lam[:, None]
        size = A * np.abs(e1) + B * np.abs(te2)
        sizes = {"value": size, "caputo": L * size,
                 "velocity": L * A * t ** (alpha - 1.0) * np.abs(ea) + B * np.abs(e1)}
        for which, want in mode_combinations_ref(lam, alpha, t, ref, a, b).items():
            got = getattr(prop, which)(a, b)
            assert np.all(np.abs(got - want) <= tol * sizes[which]), which


class TestSolveField:
    def setup_method(self):
        self.domain = build_interval(1.0, 8)
        self.grid = TimeGrid(1.0, 32)

    def test_single_mode_field(self):
        data = single_mode(8, 1)
        q = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid)
        x = np.array([0.25, 0.5])
        got = solve_field(q, x)
        amp = np.array([mode_solution(LAM1, 1.5, 1.0, 0.0, t).y for t in self.grid.nodes])
        ref = np.outer(amp, math.sqrt(2.0) * np.sin(math.pi * x))
        assert np.max(np.abs(got - ref)) < 1e-12

    def test_boundary_dirichlet(self):
        data = poly_bump(self.domain)
        q = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid)
        got = solve_field(q, np.array([0.0, 1.0]))
        assert np.max(np.abs(got)) < 1e-10

    def test_velocity_at_zero_matches_data(self):
        rng = np.random.default_rng(1)
        data = ModeCoefficients(np.zeros(8), rng.standard_normal(8) / np.arange(1, 9) ** 2)
        q = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid, which="velocity")
        x = np.linspace(0.1, 0.9, 7)
        got = solve_field(q, x)
        ref = synthesize(self.domain, data.b, x)
        assert np.max(np.abs(got[0] - ref)) < 1e-12

    def test_linearity(self):
        d1 = single_mode(8, 1)
        d2 = ModeCoefficients(np.zeros(8), 0.5 * np.eye(8)[2])
        combo = ModeCoefficients(2.0 * d1.a + d2.a, 2.0 * d1.b + d2.b)
        x = np.array([0.3, 0.6])
        f1 = solve_field(SolutionQuery(FracOrder(1.5), self.domain, d1, self.grid), x)
        f2 = solve_field(SolutionQuery(FracOrder(1.5), self.domain, d2, self.grid), x)
        fc = solve_field(SolutionQuery(FracOrder(1.5), self.domain, combo, self.grid), x)
        assert np.max(np.abs(fc - (2.0 * f1 + f2))) < 1e-12

    def test_query_validation(self):
        with pytest.raises(ValueError):
            SolutionQuery(FracOrder(1.5), self.domain, single_mode(4, 1), self.grid)
        with pytest.raises(ValueError):
            SolutionQuery(FracOrder(1.5), self.domain, single_mode(8, 1), self.grid, which="bogus")
        with pytest.raises(ValueError):
            SolutionQuery(FracOrder(1.5), self.domain, single_mode(8, 1), self.grid, n_sum=9)

    def test_caputo_field_is_minus_laplacian(self):
        data = single_mode(8, 2)
        qv = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid, which="value")
        qc = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid, which="caputo")
        cv = coefficient_evolution(qv)
        cc = coefficient_evolution(qc)
        lam = self.domain.eigenvalues[:, None]
        assert np.max(np.abs(cc + lam * cv)) < 1e-12


class TestLowOrder:
    def test_alpha_near_one_with_256_modes(self):
        # mode arguments up to 2.6e5 at alpha = 1.05 once raised the ML
        # evaluator's precision-cap error
        domain = build_interval(1.0, 256)
        grid = TimeGrid(1.0, 32)
        data = random_decay(256, 2.0, 7)
        x = np.linspace(0.0, 1.0, 65)
        for which in ("value", "velocity", "caputo"):
            field = solve_field(SolutionQuery(FracOrder(1.05), domain, data, grid, which), x)
            assert np.all(np.isfinite(field))
        # kernels against the oracle between the series tiers' reach and the
        # asymptotic regime
        prop = ModePropagator(domain.eigenvalues, 1.05, grid.nodes)
        m = np.abs(prop.z) ** (1.0 / 1.05)
        picks = np.flatnonzero((m > 46.0) & (m < 120.0))
        for i in picks[:: max(1, picks.size // 6)]:
            for beta, kernel in ((1.0, prop.e1), (1.05, prop.ea)):
                ref = ml_series_ref(1.05, beta, prop.z.flat[i])
                assert abs(kernel.flat[i] - ref) <= 1e-9 * abs(ref)


class TestSolveGrid:
    @pytest.mark.parametrize("which", ["value", "velocity", "caputo"])
    @pytest.mark.parametrize("domain,P,n_sum", [
        (build_interval(1.0, 48), 17, None),
        (build_interval(1.0, 48), 17, 20),
        (build_interval(2.0, 40), 9, None),  # modes alias onto the grid
        (build_rectangle(1.0, 1.5, 300), 9, None),
        (build_rectangle(1.0, 1.5, 300), 9, 77),
    ])
    def test_matches_solve_field(self, which, domain, P, n_sum):
        data = random_decay(domain.mode_count, 1.5, 2)
        q = SolutionQuery(FracOrder(1.4), domain, data, TimeGrid(1.0, 12), which, n_sum)
        pts = uniform_grid(domain, P)
        ref = solve_field(q, pts)
        got = solve_grid(q, P)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        ends = (pts == 0.0) | (pts == np.asarray(domain.lengths))
        assert np.all(got[:, ends if domain.is_interval else ends.any(axis=1)] == 0.0)


class TestBoundedAssembly:
    def test_blocked_field_is_bit_identical(self, monkeypatch):
        domain = build_interval(1.0, 33)
        q = SolutionQuery(FracOrder(1.5), domain, random_decay(33, 1.5, 5), TimeGrid(1.0, 20))
        x = np.linspace(0.0, 1.0, 17)
        coeff = coefficient_evolution(q)
        E = eval_modes(domain, x)
        full = pairwise_sum(coeff[:, :, None] * E[:, None, :], axis=0)
        # three time rows per block, then one row with points in blocks of 5
        for budget in (16 * 33 * 17 * 3, 16 * 33 * 5):
            monkeypatch.setattr(fracwave.spectral, "_MODE_SUM_BYTES", budget)
            assert np.array_equal(solve_field(q, x), full)

    def test_peak_memory_is_bounded(self):
        N, M, P = 256, 256, 257
        domain = build_interval(1.0, N)
        q = SolutionQuery(FracOrder(1.5), domain, random_decay(N, 2.0, 3), TimeGrid(1.0, M))
        full_product = N * (M + 1) * P * 8  # 135 MB
        tracemalloc.start()
        try:
            field = solve_field(q, np.linspace(0.0, 1.0, P))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert field.shape == (M + 1, P)
        assert peak < full_product / 3

    def test_grid_solve_peak_memory(self, tmp_path, monkeypatch):
        # the interval solve of the benchmark: 512 modes, 513 times, 513
        # points; the field is 2.1 MB, each ML kernel of the solve too
        domain = build_interval(1.0, 512)
        data = random_decay(512, 2.0, 7)
        q = SolutionQuery(FracOrder(1.5), domain, data, TimeGrid(1.0, 512))
        solve_grid(q, 2)  # the coefficient tables, built once
        tracemalloc.start()
        try:
            field = solve_grid(q, 513)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * field.nbytes
        # streamed to CSV, nothing grows with the steps: at 4096 steps an
        # N x (M+1) kernel grid would be 14.7 MB larger than at 512, while
        # the peaks differ by at most the working set of one block
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # one process to trace
        peaks = []
        for steps in (512, 4096):
            q = SolutionQuery(FracOrder(1.5), domain, data, TimeGrid(1.0, steps))
            tracemalloc.start()
            try:
                write_grid_snapshots_csv(q, 33, str(tmp_path / "snapshots.csv"))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert abs(peaks[1] - peaks[0]) < 8 * 8 * fracwave.solver._BLOCK_VALUES

    def test_boundary_derivatives_built_on_first_use(self):
        dom = build_rectangle(1.0, 1.5, 4096)
        q = SolutionQuery(FracOrder(1.5), dom, random_decay(4096, 2.0, 1), TimeGrid(1.0, 2))
        solve_field(q, np.array([[0.5, 0.75]]))
        assert "boundary_normal_deriv" not in dom.__dict__
        nd = dom.boundary_normal_deriv
        assert nd.shape == (4096, dom.boundary_points.shape[0])
        assert dom.boundary_normal_deriv is nd

    def test_grid_solve_builds_no_quadrature(self):
        dom = build_rectangle(1.0, 1.5, 4096)
        q = SolutionQuery(FracOrder(1.5), dom, random_decay(4096, 2.0, 1), TimeGrid(1.0, 2))
        solve_grid(q, 5)
        assert "quad_points" not in dom.__dict__


class TestEquationResidual:
    @pytest.mark.parametrize("alpha", [1.5])
    def test_residual_decreases(self, alpha):
        errs = []
        for M in (256, 512):
            g = TimeGrid(1.0, M)
            st = mode_solution(LAM1, alpha, 1.0, 0.0, g.nodes)
            second = mode_second_derivative_samples(LAM1, alpha, 1.0, 0.0, g)
            cap = caputo_derivative(SampledPath(g, second), alpha)
            target = -LAM1 * st.y
            sel = g.nodes >= 0.05
            num = math.sqrt(float(np.trapezoid((cap.values[sel] - target[sel]) ** 2, g.nodes[sel])))
            den = math.sqrt(float(np.trapezoid(target[sel] ** 2, g.nodes[sel])))
            errs.append(num / den)
        assert errs[1] < errs[0]
        assert errs[0] < 1e-2


class TestTruncationTail:
    def setup_method(self):
        self.domain = build_interval(1.0, 256)
        self.grid = TimeGrid(1.0, 16)

    def test_single_mode_no_tail(self):
        data = single_mode(256, 1)
        q = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid)
        assert truncation_tail(q, 0.0, 1.0) == 0.0

    def test_monotone_in_retained_modes(self):
        data = poly_bump(self.domain)
        tails = []
        for ns in (8, 16, 32, 64, 128):
            q = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid, n_sum=ns)
            tails.append(truncation_tail(q, 0.0, 1.0))
        assert all(t2 < t1 for t1, t2 in zip(tails, tails[1:]))
        # cubic coefficient decay plus the envelope: doubling the retained
        # modes at least halves the estimate
        assert all(t2 / t1 <= 0.6 for t1, t2 in zip(tails, tails[1:]))

    def test_zero_time_is_coefficient_tail(self):
        data = poly_bump(self.domain)
        q = SolutionQuery(FracOrder(1.5), self.domain, data, self.grid, n_sum=16)
        expected = math.sqrt(float(np.sum(data.a[16:] ** 2)))
        assert abs(truncation_tail(q, 0.0, 0.0) - expected) < 1e-14

    @pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
    @pytest.mark.parametrize("n_sum", [None, 4])
    def test_t_must_be_finite_and_non_negative(self, n_sum, t):
        # checked before anything else: with every mode summed there is no tail
        q = SolutionQuery(FracOrder(1.5), self.domain, poly_bump(self.domain), self.grid, n_sum=n_sum)
        with pytest.raises(ValueError, match="t must be finite and non-negative"):
            truncation_tail(q, 0.0, t)

    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_non_finite_theta_rejected_before_writing(self, tmp_path, theta):
        q = SolutionQuery(FracOrder(1.5), self.domain, poly_bump(self.domain), self.grid, n_sum=16)
        with pytest.raises(ValueError, match="theta must be finite"):
            truncation_tail(q, theta, 1.0)
        with pytest.raises(ValueError, match="theta must be finite"):
            write_manifest(q, str(tmp_path / "manifest.json"), theta=theta)
        assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("make,name", [
    (lambda n: TimeGrid(1.0, n), "steps"),
    (lambda n: build_interval(1.0, n), "the mode count"),
    (lambda n: build_rectangle(1.0, 1.0, n), "the mode count"),
    (lambda n: uniform_grid(build_interval(1.0, 4), n), "the points per axis"),
    (lambda n: SolutionQuery(FracOrder(1.5), build_interval(1.0, 8), random_decay(8, 2.0, 1),
                             TimeGrid(1.0, 8), n_sum=n), "n_sum"),
], ids=["TimeGrid", "build_interval", "build_rectangle", "uniform_grid", "SolutionQuery"])
def test_counts_must_be_integers(make, name):
    for bad in (3.5, 4.0, "4"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {bad!r}$"):
            make(bad)
    for good in (4, np.int64(4), np.int32(4)):
        make(good)
    # kept as a Python int, so a manifest can hold it
    assert type(TimeGrid(1.0, np.int64(8)).steps) is int


class TestExports:
    def test_snapshots_and_manifest(self, tmp_path):
        domain = build_interval(1.0, 8)
        grid = TimeGrid(1.0, 8)
        q = SolutionQuery(FracOrder(1.5), domain, poly_bump(domain), grid, n_sum=4)
        x = np.linspace(0.0, 1.0, 5)
        fields = solve_field(q, x)
        csv_file = tmp_path / "snap.csv"
        man_file = tmp_path / "manifest.json"
        write_snapshots_csv(q, x, fields, str(csv_file))
        write_manifest(q, str(man_file), theta=0.25)
        lines = csv_file.read_text().strip().splitlines()
        assert len(lines) == grid.steps + 2
        manifest = json.loads(man_file.read_text())
        assert manifest["alpha"] == 1.5
        assert manifest["modes_summed"] == 4
        assert manifest["tail_estimate"]["at_t_end"] > 0.0

    def test_snapshot_bytes_are_shortest_reprs(self, tmp_path):
        domain = build_interval(1.0, 4)
        q = SolutionQuery(FracOrder(1.5), domain, poly_bump(domain), TimeGrid(0.3, 2))
        x = np.array([0.0, 0.1])
        fields = np.array([[-0.0, 5e-324], [1.0 / 3.0, -1e300], [2.0, 0.1 + 0.2]])
        csv_file = tmp_path / "snap.csv"
        write_snapshots_csv(q, x, fields, str(csv_file))
        assert csv_file.read_bytes() == (
            b"t,x=0.0,x=0.1\r\n"
            b"0.0,-0.0,5e-324\r\n"
            b"0.15,0.3333333333333333,-1e+300\r\n"
            b"0.3,2.0,0.30000000000000004\r\n"
        )
