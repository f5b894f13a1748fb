import math
import sys
import tracemalloc
from collections import Counter

import numpy as np
import pytest

import fracwave.mittag_leffler
from fracwave import boundary
from fracwave.boundary import (
    _coefficients,
    _draws,
    _ratio_study,
    _route_reports,
    _traces,
    MultiplierField,
    fractional_identity_check,
    hidden_inequality_ratio,
    interval_multiplier,
    multiplier_identity_check,
    normal_trace,
    trace_seminorm_bound,
    trace_to_csv,
    trig_test_function,
)
from fracwave.fracops import TimeGrid, frac_integral, gagliardo_seminorm, l2_time_norm
from fracwave.regularity import NormReport
from fracwave.presets import power_decay, random_decay, single_mode
from fracwave.solver import ModePropagator
from fracwave.spectral import (_MODE_SUM_BYTES, ModeCoefficients, build_interval, build_rectangle,
                               tail_stabilizes)
from fracwave.verify import check_trace_energy_bound
from oracles import ml_series_ref, quad_ref, trace_energy_ref

LAM1 = math.pi**2

# 4 * int_0^1 E_{1.5,1}(-pi^2 t^1.5)^2 dt, adaptive quadrature over the
# extended-precision series (oracles module)
HIDDEN_RATIO_1P5 = 0.6642075318684325


class TestMultiplierField:
    def test_interval_field_matches_normals(self):
        h = interval_multiplier(2.0)
        assert h.h(np.array([0.0]))[0] == -1.0
        assert h.h(np.array([2.0]))[0] == 1.0
        assert np.all(h.dh(np.linspace(0, 2, 5)) == 1.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            interval_multiplier(0.0)


class TestNormalTrace:
    def test_single_mode_closed_form(self):
        dom = build_interval(1.0, 8)
        grid = TimeGrid(1.0, 16)
        tr = normal_trace(dom, single_mode(8, 1), 1.5, grid)
        for i in (0, 4, 9, 16):
            t = grid.nodes[i]
            e = ml_series_ref(1.5, 1.0, float(-LAM1 * t**1.5))
            ref = -math.sqrt(2.0) * math.pi * e
            assert abs(tr.values[i, 0] - ref) < 1e-10 * max(abs(ref), 1.0)

    def test_mixed_data_closed_form(self):
        dom = build_interval(1.0, 8)
        grid = TimeGrid(1.0, 8)
        a0, b0 = 0.8, -1.3
        data = ModeCoefficients(a0 * np.eye(8)[0], b0 * np.eye(8)[0])
        tr = normal_trace(dom, data, 1.5, grid)
        dnu0 = -math.sqrt(2.0) * math.pi
        for i in (2, 5, 8):
            t = grid.nodes[i]
            ref = (a0 * ml_series_ref(1.5, 1.0, float(-LAM1 * t**1.5))
                   + b0 * t * ml_series_ref(1.5, 2.0, float(-LAM1 * t**1.5))) * dnu0
            assert abs(tr.values[i, 0] - ref) < 1e-10 * max(abs(ref), 1.0)

    def test_initial_trace_is_data_trace(self):
        dom = build_interval(1.0, 16)
        grid = TimeGrid(1.0, 8)
        data = power_decay(16, 3.0)
        tr = normal_trace(dom, data, 1.5, grid)
        expected = float(np.sum(data.a * dom.boundary_normal_deriv[:, 0]))
        assert abs(tr.values[0, 0] - expected) < 1e-12

    def test_reflection_symmetry(self):
        dom = build_interval(1.0, 4)
        grid = TimeGrid(1.0, 8)
        tr = normal_trace(dom, single_mode(4, 1), 1.5, grid)
        assert np.max(np.abs(np.abs(tr.values[:, 0]) - np.abs(tr.values[:, 1]))) < 1e-12

    def test_divergent_tail_rejected(self):
        dom = build_interval(1.0, 256)
        with pytest.raises(ValueError, match="stabilized"):
            normal_trace(dom, power_decay(256, 1.0), 1.5, TimeGrid(1.0, 8))

    def test_rectangle_trace_runs(self):
        dom = build_rectangle(1.0, 1.0, 8)
        data = ModeCoefficients(np.eye(8)[0], np.zeros(8))
        tr = normal_trace(dom, data, 1.5, TimeGrid(1.0, 8))
        assert np.all(np.isfinite(tr.values))
        assert tr.values.shape[1] == dom.boundary_points.shape[0]

    def test_csv_export(self, tmp_path):
        dom = build_interval(1.0, 4)
        tr = normal_trace(dom, single_mode(4, 1), 1.5, TimeGrid(1.0, 4))
        fname = tmp_path / "trace.csv"
        trace_to_csv(tr, str(fname))
        lines = fname.read_text().strip().splitlines()
        assert lines[0] == "t,boundary_point,value"
        assert len(lines) == 1 + 5 * 2


class TestHiddenRatio:
    def test_single_mode_against_quadrature_oracle(self):
        dom = build_interval(1.0, 4)
        study = hidden_inequality_ratio(dom, [single_mode(4, 1)], 1.5, TimeGrid(1.0, 1024))
        assert abs(study.max_ratio - HIDDEN_RATIO_1P5) < 1e-5

    def test_scaling_invariance(self):
        dom = build_interval(1.0, 16)
        data = random_decay(16, 2.0, 5)
        grid = TimeGrid(1.0, 64)
        r1 = hidden_inequality_ratio(dom, [data], 1.5, grid).max_ratio
        r2 = hidden_inequality_ratio(dom, [ModeCoefficients(7.0 * data.a, 7.0 * data.b)], 1.5, grid).max_ratio
        assert abs(r1 - r2) <= 1e-12 * r1

    def test_zero_energy_skipped(self):
        dom = build_interval(1.0, 8)
        zero = ModeCoefficients(np.zeros(8), np.zeros(8))
        study = hidden_inequality_ratio(dom, [zero, single_mode(8, 1)], 1.5, TimeGrid(1.0, 32))
        assert study.skipped == 1
        assert study.ratios.size == 1

    def test_rectangle_supported(self):
        dom = build_rectangle(1.0, 1.0, 8)
        draws = [
            ModeCoefficients(
                np.random.default_rng(s).standard_normal(8) / np.arange(1, 9) ** 3,
                np.zeros(8),
            )
            for s in range(5)
        ]
        study = hidden_inequality_ratio(dom, draws, 1.5, TimeGrid(1.0, 64))
        assert math.isfinite(study.max_ratio)

    @pytest.mark.parametrize("p", [0.75, 1.0])
    def test_unconverged_mode_sum_rejected(self, p):
        # the ratio study applies the same tail check as normal_trace
        dom = build_interval(1.0, 64)
        draws = [random_decay(64, p, seed) for seed in range(7, 17)]
        with pytest.raises(ValueError, match="not stabilized"):
            hidden_inequality_ratio(dom, draws, 1.5, TimeGrid(1.0, 192))


# the trace-energy check's time grid and a rectangle of P = 280 boundary nodes
CHECK_GRID = TimeGrid(1.0, 192)


def _kernels(domain, alpha=1.5, grid=CHECK_GRID):
    # a 64-mode interval reads the leading rows of the 128-mode kernels, as
    # the check does
    if domain.is_interval and domain.mode_count == 64:
        prop = ModePropagator(build_interval(1.0, 128).eigenvalues, alpha, grid.nodes)
        prop.e1, prop.te2
        return prop.head(64)
    return ModePropagator(domain.eigenvalues, alpha, grid.nodes)


def _stacked(domain, prop, draws, grid=CHECK_GRID):
    return np.concatenate(list(_traces(domain, prop, _coefficients(domain, draws, grid.t_end))))


def route_report_alone(domain, data, al, beta, trace):
    """The two routes of one draw from its own trace alone, as the route
    code measured each draw before the stacked reports: one
    ``frac_integral``, two ``l2_time_norm`` and one ``gagliardo_seminorm``
    call; a zero-energy draw reports zeros."""
    energy = data.energy(domain.eigenvalues)
    if energy == 0.0:
        return (NormReport("integrated-trace-energy", {"alpha": al, "beta": beta}, 0.0, 0.0),
                NormReport("plain-trace-energy", {"alpha": al, "beta": beta}, 0.0, 0.0), 0.0)
    wts = domain.boundary_weights
    path = trace.as_path()
    itr = frac_integral(path, beta)
    il2 = l2_time_norm(itr, wts)
    semi = gagliardo_seminorm(itr, beta, wts)
    plain = l2_time_norm(path, wts)
    params = {"alpha": al, "beta": beta, "t_end": trace.grid.t_end, "steps": trace.grid.steps}
    return (NormReport("integrated-trace-energy", params, (il2**2 + semi**2) / energy, energy),
            NormReport("plain-trace-energy", params, plain**2 / energy, energy),
            plain / (il2 + semi) if (il2 + semi) > 0 else 0.0)


class TestTraces:
    @pytest.mark.parametrize("domain, count", [(build_interval(1.0, 64), 100),
                                               (build_interval(1.0, 128), 100),
                                               (build_rectangle(1.0, 1.5, 64), 25)],
                             ids=["interval64", "interval128", "rectangle64"])
    def test_a_trace_has_its_own_bits_in_any_block(self, monkeypatch, domain, count):
        n = domain.mode_count
        draws = [random_decay(n, 2.0, 7 + i) for i in range(count)]
        prop = _kernels(domain)
        batch = _stacked(domain, prop, draws)
        assert batch.shape == (count, 193, domain.boundary_points.shape[0])
        for i in range(0, count, 25):
            assert np.array_equal(_stacked(domain, prop, draws[i : i + 25]), batch[i : i + 25])
        for i, data in enumerate(draws):
            assert np.array_equal(_stacked(domain, prop, [data])[0], batch[i])
        # one draw per block
        monkeypatch.setattr(boundary, "_MODE_SUM_BYTES", 1)
        assert np.array_equal(_stacked(domain, prop, draws), batch)

    def test_study_traces_are_the_normal_and_route_traces(self):
        dom = build_interval(1.0, 64)
        draws = [random_decay(64, 2.0, 7 + i) for i in range(20)]
        keep = range(0, 20, 4)
        study = _ratio_study(_kernels(dom), _draws(dom, draws, CHECK_GRID), keep=keep)
        routes = trace_seminorm_bound(dom, [draws[i] for i in keep], 1.5, 0.25, CHECK_GRID)
        for i, route in zip(keep, routes):
            trace = study.traces[i]
            assert np.array_equal(trace.values, normal_trace(dom, draws[i], 1.5, CHECK_GRID).values)
            integrated, plain, cross = route_report_alone(dom, draws[i], 1.5, 0.25, trace)
            assert cross == route.cross_ratio
            assert integrated.value == route.integrated_route.value
            assert plain.value == route.plain_route.value

    @pytest.mark.parametrize("domain", [build_interval(1.0, 64), build_rectangle(1.0, 1.5, 16)],
                             ids=["interval", "rectangle"])
    def test_stacked_route_reports_are_each_draw_alone(self, domain):
        # the check's route reports: the kept traces of a study, with a
        # zero-energy draw among them, measured as one stack
        n = domain.mode_count
        draws = [random_decay(n, 2.0, 7 + i) for i in range(9)]
        draws[4] = ModeCoefficients(np.zeros(n), np.zeros(n))
        prop = _kernels(domain)
        study = _ratio_study(prop, _draws(domain, draws, CHECK_GRID), keep=range(9))
        assert sorted(study.traces) == [0, 1, 2, 3, 5, 6, 7, 8]
        energies = [data.energy(domain.eigenvalues) for data in draws]
        reps = _route_reports(domain, CHECK_GRID, energies, prop.alpha, 0.25,
                              [study.traces[i].as_path() for i in sorted(study.traces)])
        assert reps == trace_seminorm_bound(domain, draws, 1.5, 0.25, CHECK_GRID)
        for i, (data, rep) in enumerate(zip(draws, reps)):
            integrated, plain, cross = route_report_alone(domain, data, 1.5, 0.25,
                                                          study.traces.get(i))
            assert rep.integrated_route == integrated and rep.plain_route == plain
            assert rep.cross_ratio == cross
            assert (rep.cross_ratio == 0.0) == (i == 4)


class TestRatioStudy:
    @pytest.mark.parametrize("domain", [build_interval(1.0, 64), build_rectangle(1.0, 1.5, 64)],
                             ids=["interval", "rectangle"])
    def test_energies_match_the_per_draw_route(self, domain):
        draws = [random_decay(domain.mode_count, 2.0, 7 + i) for i in range(10)]
        prop = _kernels(domain)
        study = _ratio_study(prop, _draws(domain, draws, CHECK_GRID))
        assert [row["draw"] for row in study.table] == list(range(10))
        for row in study.table:
            data = draws[row["draw"]]
            ref = trace_energy_ref(prop.e1, prop.te2, data.a, data.b, domain.boundary_normal_deriv,
                                   domain.boundary_weights, CHECK_GRID.nodes)
            assert abs(row["trace_energy"] - ref) <= 1e-13 * ref
            assert row["data_energy"] == data.energy(domain.eigenvalues)
            assert row["ratio"] == row["trace_energy"] / row["data_energy"]
        assert np.array_equal(study.ratios, [row["ratio"] for row in study.table])

    def test_zero_energy_draw_skipped_and_kept_traces_exact(self):
        dom = build_interval(1.0, 64)
        draws = [random_decay(64, 2.0, 7 + i) for i in range(6)]
        draws[2] = ModeCoefficients(np.zeros(64), np.zeros(64))
        study = _ratio_study(_kernels(dom), _draws(dom, draws, CHECK_GRID), keep={1, 2, 5})
        assert study.skipped == 1
        assert [row["draw"] for row in study.table] == [0, 1, 3, 4, 5]
        assert sorted(study.traces) == [1, 5]
        for i in (1, 5):
            assert study.traces[i].values.shape == (193, 2)
            assert np.array_equal(study.traces[i].values,
                                  normal_trace(dom, draws[i], 1.5, CHECK_GRID).values)

    def test_late_unconverged_draw_raises_as_alone(self):
        dom = build_interval(1.0, 64)
        bad = random_decay(64, 0.75, 7)
        with pytest.raises(ValueError, match="not stabilized") as alone:
            normal_trace(dom, bad, 1.5, CHECK_GRID)
        draws = [random_decay(64, 2.0, 7 + i) for i in range(5)] + [bad]
        with pytest.raises(ValueError, match="not stabilized") as study:
            _ratio_study(_kernels(dom), _draws(dom, draws, CHECK_GRID))
        assert str(study.value) == str(alone.value)

    def test_one_tail_check_per_study(self, monkeypatch):
        calls, original = [], boundary.tail_stabilizes

        def counting(terms, **kw):
            calls.append(np.shape(terms))
            return original(terms, **kw)

        monkeypatch.setattr(boundary, "tail_stabilizes", counting)
        dom = build_interval(1.0, 64)
        _ratio_study(_kernels(dom), _draws(dom, [random_decay(64, 2.0, s) for s in range(50)],
                                          CHECK_GRID))
        assert calls == [(50, 64)]

    def test_stacked_tail_check_flags_each_draw_as_alone(self):
        # the guard one draw at a time, as each study applied it before
        def alone(dom, data):
            terms = np.sqrt(dom.eigenvalues) * (np.abs(data.a) + np.abs(data.b))
            return tail_stabilizes(terms, frac=0.25, tol=0.22)

        dom = build_interval(1.0, 64)
        draws = [random_decay(64, p, s) for s, p in enumerate(np.linspace(0.55, 1.5, 60))]
        passes = [alone(dom, d) for d in draws]
        assert 0 < sum(passes) < len(draws)
        for start in range(len(draws)):
            rest = draws[start:]
            if all(passes[start:]):
                boundary._coefficients(dom, rest, 1.0)
                continue
            first = passes.index(False, start)
            with pytest.raises(ValueError, match="not stabilized") as alone_err:
                boundary._coefficients(dom, [draws[first]], 1.0)
            with pytest.raises(ValueError, match="not stabilized") as study_err:
                boundary._coefficients(dom, rest, 1.0)
            assert str(study_err.value) == str(alone_err.value)

    def test_memory_does_not_grow_with_the_draws(self):
        # 2,000 rectangle draws in blocks of a few: one unblocked W would be
        # 2000 * 280 * 128 doubles, about 570 MB
        dom = build_rectangle(1.0, 1.5, 64)
        grid = TimeGrid(1.0, 8)
        draws = [random_decay(64, 2.0, s) for s in range(2000)]
        # the domain's boundary data and the ML tables are built once, untraced
        hidden_inequality_ratio(dom, draws[:1], 1.5, grid)
        tracemalloc.start()
        try:
            study = hidden_inequality_ratio(dom, draws, 1.5, grid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert study.ratios.size == 2000
        kernels = 3 * 64 * (grid.steps + 1) * 8  # z, e1, te2
        assert peak <= kernels + 2 * _MODE_SUM_BYTES


class TestMultiplierIdentity:
    def test_sine_case_exact(self):
        res = multiplier_identity_check(trig_test_function([1.0]), interval_multiplier(1.0))
        assert abs(res["lhs"] - math.pi**2) < 1e-12 * math.pi**2
        assert abs(res["rhs"] - math.pi**2) < 1e-12 * math.pi**2
        assert res["residual"] <= 1e-10

    def test_zero_function(self):
        res = multiplier_identity_check(trig_test_function([0.0]), interval_multiplier(1.0))
        assert res["residual"] == 0.0

    def test_second_mode(self):
        res = multiplier_identity_check(trig_test_function([0.0, 1.0]), interval_multiplier(1.0))
        assert res["residual"] <= 1e-12

    def test_lhs_against_quadrature_oracle(self):
        w = trig_test_function([0.3, -0.7, 0.2])
        h = interval_multiplier(1.0)
        res = multiplier_identity_check(w, h)
        ref = 2.0 * quad_ref(lambda x: w.d2w([x])[0] * (2.0 * x - 1.0) * w.dw([x])[0], 0.0, 1.0)
        assert abs(res["lhs"] - ref) < 1e-10 * max(1.0, abs(ref))

    def test_polynomial_times_sine(self):
        from fracwave.boundary import TestFunction

        k = 3.0 * math.pi
        w = TestFunction(
            w=lambda x: np.asarray(x) * (1.0 - np.asarray(x)) * np.sin(k * np.asarray(x)),
            dw=lambda x: (1.0 - 2.0 * np.asarray(x)) * np.sin(k * np.asarray(x))
            + np.asarray(x) * (1.0 - np.asarray(x)) * k * np.cos(k * np.asarray(x)),
            d2w=lambda x: -2.0 * np.sin(k * np.asarray(x))
            + 2.0 * (1.0 - 2.0 * np.asarray(x)) * k * np.cos(k * np.asarray(x))
            - np.asarray(x) * (1.0 - np.asarray(x)) * k**2 * np.sin(k * np.asarray(x)),
        )
        res = multiplier_identity_check(w, interval_multiplier(1.0))
        assert res["residual"] <= 1e-8

    def test_nonvanishing_rejected(self):
        bad = MultiplierField(h=lambda x: np.asarray(x), dh=lambda x: np.ones_like(np.asarray(x)))
        from fracwave.boundary import TestFunction

        w = TestFunction(
            w=lambda x: np.cos(np.pi * np.asarray(x)),
            dw=lambda x: -np.pi * np.sin(np.pi * np.asarray(x)),
            d2w=lambda x: -np.pi**2 * np.cos(np.pi * np.asarray(x)),
        )
        with pytest.raises(ValueError, match="vanish"):
            multiplier_identity_check(w, bad)


class TestFractionalIdentity:
    def test_zero_data(self):
        dom = build_interval(1.0, 4)
        zero = ModeCoefficients(np.zeros(4), np.zeros(4))
        chk = fractional_identity_check(dom, zero, 1.5, 0.25, TimeGrid(1.0, 64))
        assert chk.residual == 0.0

    def test_refinement(self):
        dom = build_interval(1.0, 4)
        data = single_mode(4, 1)
        r_coarse = fractional_identity_check(dom, data, 1.75, 0.25, TimeGrid(1.0, 512)).residual
        r_fine = fractional_identity_check(dom, data, 1.75, 0.25, TimeGrid(1.0, 2048)).residual
        assert r_coarse <= 5e-2
        assert r_fine < 0.5 * r_coarse

    def test_plain_integral_reduction(self):
        # order one turns the fractional integral into the running integral
        dom = build_interval(1.0, 4)
        data = single_mode(4, 1)
        chk = fractional_identity_check(dom, data, 1.75, 1.0, TimeGrid(1.0, 1024))
        assert chk.residual <= 5e-2

    def test_multimode_refinement(self):
        dom = build_interval(1.0, 8)
        data = random_decay(8, 2.0, 3)
        r1 = fractional_identity_check(dom, data, 1.5, 0.25, TimeGrid(1.0, 512)).residual
        r2 = fractional_identity_check(dom, data, 1.5, 0.25, TimeGrid(1.0, 2048)).residual
        assert r2 < r1

    def test_rectangle_rejected(self):
        dom = build_rectangle(1.0, 1.0, 4)
        data = ModeCoefficients(np.eye(4)[0], np.zeros(4))
        with pytest.raises(ValueError, match="interval"):
            fractional_identity_check(dom, data, 1.5, 0.25, TimeGrid(1.0, 64))


class TestTraceSeminormBound:
    def test_zero_data(self):
        dom = build_interval(1.0, 4)
        zero = ModeCoefficients(np.zeros(4), np.zeros(4))
        rep = trace_seminorm_bound(dom, [zero], 1.5, 0.25, TimeGrid(1.0, 64))[0]
        assert rep.integrated_route.value == 0.0
        assert rep.cross_ratio == 0.0

    def test_routes_positive_and_comparable(self):
        dom = build_interval(1.0, 16)
        data = random_decay(16, 2.0, 9)
        rep = trace_seminorm_bound(dom, [data], 1.5, 0.25, TimeGrid(1.0, 128))[0]
        assert rep.integrated_route.value > 0
        assert rep.plain_route.value > 0
        assert 0.05 < rep.cross_ratio < 20.0

    def test_horizon_study_recorded(self):
        # equivalent-norm ratio varies with the horizon but stays bracketed
        dom = build_interval(1.0, 8)
        data = single_mode(8, 1)
        ratios = []
        for t_end in (0.5, 1.0, 2.0):
            rep = trace_seminorm_bound(dom, [data], 1.5, 0.25, TimeGrid(t_end, 128))[0]
            ratios.append(rep.cross_ratio)
        ratios = np.asarray(ratios)
        assert np.all(ratios > 0.02) and np.all(ratios < 50.0)
        assert np.max(ratios) / np.min(ratios) < 10.0

    def test_ensemble_matches_singletons(self):
        dom = build_interval(1.0, 16)
        grid = TimeGrid(1.0, 96)
        draws = [random_decay(16, 2.0, s) for s in range(4)]
        draws.insert(2, ModeCoefficients(np.zeros(16), np.zeros(16)))
        reps = trace_seminorm_bound(dom, draws, 1.5, 0.25, grid)
        assert len(reps) == len(draws)
        for data, rep in zip(draws, reps):
            (one,) = trace_seminorm_bound(dom, [data], 1.5, 0.25, grid)
            assert rep.cross_ratio == one.cross_ratio
            for got, ref in ((rep.integrated_route, one.integrated_route),
                             (rep.plain_route, one.plain_route)):
                assert got.value == ref.value
                assert got.bound_rhs == ref.bound_rhs
                assert got.params == ref.params

    def test_trace_energy_check_evaluates_kernels_once(self, monkeypatch):
        # every study of the check reads one 128-mode propagator per alpha
        # (the 64-mode studies through its leading rows), so each alpha needs
        # exactly two ML evaluations, E_{a,1} and E_{a,2}
        original = fracwave.mittag_leffler.ml
        alphas = []

        def counting_ml(params, z):
            alphas.append(params.alpha)
            return original(params, z)

        for name, module in list(sys.modules.items()):
            if name.startswith("fracwave") and getattr(module, "ml", None) is original:
                monkeypatch.setattr(module, "ml", counting_ml)
        assert check_trace_energy_bound(7).passed
        per_alpha = Counter(alphas)
        assert per_alpha == {1.25: 2, 1.5: 2, 1.75: 2}

    def test_beta_gate(self):
        dom = build_interval(1.0, 4)
        with pytest.raises(ValueError):
            trace_seminorm_bound(dom, [single_mode(4, 1)], 1.5, 1.0, TimeGrid(1.0, 64))
