import math

import numpy as np
import pytest

from fracwave.params import (
    FracOrder,
    caputo_dual_range,
    gradient_range,
    identity_overlap_range,
    velocity_dual_range,
)
from fracwave.presets import h1_saturating, power_decay, random_decay, single_mode
from fracwave.regularity import (
    fit_loglog_slope,
    initial_convergence,
    l2_time_norms,
    smooth_data_velocity,
    uniform_bound_report,
    velocity_blowup_rate,
)
from fracwave.solver import ModePropagator
from fracwave.spectral import ModeCoefficients, build_interval

T_SEQ = 2.0 ** (-np.arange(4, 15, dtype=float))


class TestThetaGates:
    def test_velocity_dual_boundaries(self):
        alpha = 1.5
        rng = velocity_dual_range(alpha)
        lower = (2.0 - alpha) / (2.0 * alpha)
        assert not rng.contains(lower)
        assert rng.contains(lower + 1e-12)
        assert rng.contains(0.5)  # inclusive upper end
        assert not rng.contains(0.5 + 1e-12)

    def test_gradient_boundaries(self):
        alpha = 1.5
        rng = gradient_range(alpha)
        assert not rng.contains(0.0)
        assert rng.contains(1.0 / (2.0 * alpha) - 1e-12)
        assert not rng.contains(1.0 / (2.0 * alpha))

    def test_caputo_dual_boundaries(self):
        alpha = 1.5
        rng = caputo_dual_range(alpha)
        assert not rng.contains((alpha - 1.0) / (2.0 * alpha))
        assert rng.contains(0.49999)
        assert not rng.contains(0.5)

    def test_overlap_midpoint(self):
        for alpha in (1.01, 1.5, 1.99):
            rng = identity_overlap_range(alpha)
            assert abs(0.5 * (rng.lower + rng.upper) - 0.25) < 1e-12
            assert rng.lower < rng.upper

    def test_error_names_interval(self):
        with pytest.raises(ValueError, match="velocity-dual"):
            velocity_dual_range(1.5).validate(0.01)

    def test_frac_order(self):
        with pytest.raises(ValueError):
            FracOrder(2.0)
        with pytest.raises(ValueError):
            FracOrder(1.0)


class TestInitialConvergence:
    def test_single_mode_errors_vanish(self):
        dom = build_interval(1.0, 8)
        table = initial_convergence(dom, single_mode(8, 1), 1.5, 0.4, T_SEQ)
        assert np.all(np.diff(table["h1_error"]) < 0)
        assert np.all(np.diff(table["velocity_error"]) < 0)
        assert table["h1_error"][-1] < 1e-4
        # dual velocity error decays like t^(alpha-1); at the last dyadic
        # time that is about 3.5e-2 for this order
        assert table["velocity_error"][-1] < 0.05

    def test_time_zero_is_exact(self):
        dom = build_interval(1.0, 8)
        seq = np.array([0.25, 0.0625, 0.0])
        table = initial_convergence(dom, single_mode(8, 1), 1.5, 0.4, seq)
        assert table["h1_error"][-1] == 0.0
        assert table["velocity_error"][-1] == 0.0

    def test_theta_gate(self):
        dom = build_interval(1.0, 8)
        with pytest.raises(ValueError, match="velocity-dual"):
            initial_convergence(dom, single_mode(8, 1), 1.5, 0.05, T_SEQ)

    def test_velocity_envelope_from_above(self):
        # single-mode decay beats the worst-case envelope, so the error
        # anchored at the largest time dominates the whole dyadic tail
        alpha, theta = 1.5, 0.4
        dom = build_interval(1.0, 8)
        table = initial_convergence(dom, single_mode(8, 1), alpha, theta, T_SEQ)
        expo = (alpha - 2.0 + 2.0 * alpha * theta) / 2.0
        t, err = table["t"], table["velocity_error"]
        envelope = err[0] * (t / t[0]) ** expo
        assert np.all(err <= envelope * (1.0 + 1e-12))

    def test_saturating_data_realizes_envelope_slope(self):
        alpha, theta = 1.3, 0.45
        dom = build_interval(1.0, 2048)
        table = initial_convergence(dom, h1_saturating(2048, 0.05), alpha, theta, T_SEQ)
        slope = fit_loglog_slope(table["t"], table["velocity_error"])
        target = (alpha - 2.0 + 2.0 * alpha * theta) / 2.0
        assert abs(slope - target) <= 0.1


class TestUniformBounds:
    def test_scaling_invariance(self):
        dom = build_interval(1.0, 16)
        data = random_decay(16, 2.0, 3)
        r1 = uniform_bound_report(dom, [data], 1.5, 0.4, 1.0)[0]
        r2 = uniform_bound_report(dom, [ModeCoefficients(10.0 * data.a, 10.0 * data.b)], 1.5, 0.4, 1.0)[0]
        assert abs(r1.value - r2.value) <= 1e-12 * abs(r1.value)

    def test_single_mode_sup_is_energy_norm(self):
        # |E_{a,1}| peaks at one, attained at t = 0, so the sup equals pi
        dom = build_interval(1.0, 4)
        rep = uniform_bound_report(dom, [single_mode(4, 1)], 1.5, 0.4, 1.0)[0]
        assert abs(rep.params["sup_energy"] - math.pi) < 1e-12

    def test_ensemble_finite_and_zero_skipped(self):
        dom = build_interval(1.0, 32)
        from fracwave.spectral import ModeCoefficients

        ensemble = [random_decay(32, 2.0, s) for s in range(50)]
        ensemble.append(ModeCoefficients(np.zeros(32), np.zeros(32)))
        reports = uniform_bound_report(dom, ensemble, 1.5, 0.4, 1.0)
        assert len(reports) == 50
        vals = [r.value for r in reports]
        assert np.all(np.isfinite(vals))


class TestL2TimeNorms:
    def test_zero_data(self):
        dom = build_interval(1.0, 8)
        zero = ModeCoefficients(np.zeros(8), np.zeros(8))
        grad, cap = l2_time_norms(dom, zero, 1.5, 0.2, 0.3, 1.0)
        assert grad.value == 0.0 and cap.value == 0.0

    def test_theta_gates(self):
        dom = build_interval(1.0, 8)
        data = single_mode(8, 1)
        with pytest.raises(ValueError, match="gradient"):
            l2_time_norms(dom, data, 1.5, 0.4, 0.3, 1.0)
        with pytest.raises(ValueError, match="caputo-dual"):
            l2_time_norms(dom, data, 1.5, 0.2, 0.1, 1.0)

    def test_graded_mesh_stability(self):
        dom = build_interval(1.0, 8)
        data = single_mode(8, 1)
        g1, c1 = l2_time_norms(dom, data, 1.5, 0.2, 0.3, 1.0, steps=512)
        g2, c2 = l2_time_norms(dom, data, 1.5, 0.2, 0.3, 1.0, steps=1024)
        assert abs(g2.value - g1.value) <= 0.01 * g1.value
        assert abs(c2.value - c1.value) <= 0.01 * c1.value

    @pytest.mark.parametrize("steps", [1, 0, 2.5])
    def test_steps_must_be_an_integer_of_at_least_two(self, steps):
        dom = build_interval(1.0, 8)
        with pytest.raises(ValueError, match="steps"):
            l2_time_norms(dom, single_mode(8, 1), 1.5, 0.2, 0.3, 1.0, steps=steps)

    def test_ratios_bounded_over_ensemble(self):
        dom = build_interval(1.0, 64)
        ratios = []
        for s in range(10):
            data = random_decay(64, 2.0, s)
            grad, cap = l2_time_norms(dom, data, 1.5, 0.2, 0.3, 1.0)
            ratios.append(grad.value / grad.bound_rhs)
            ratios.append(cap.value / cap.bound_rhs)
        assert np.all(np.isfinite(ratios))
        assert max(ratios) < 50.0

    def test_origin_blowup_exponent(self):
        # saturating position data: the gradient integrand grows like
        # t^(-2 alpha theta) toward the origin
        alpha, theta = 1.5, 0.2
        dom = build_interval(1.0, 2048)
        data = h1_saturating(2048, 0.05)
        times = np.geomspace(1e-4, 1e-2, 9)
        y = ModePropagator(dom.eigenvalues, alpha, times).value(data.a, data.b)
        integrand = np.sum(dom.eigenvalues[:, None] ** (1.0 + 2.0 * theta) * y**2, axis=0)
        slope = fit_loglog_slope(times, integrand)
        assert abs(slope - (-2.0 * alpha * theta)) <= 0.15


class TestSmoothDataVelocity:
    def test_single_mode_limit(self):
        dom = build_interval(1.0, 8)
        table = smooth_data_velocity(dom, single_mode(8, 1), 1.5, 0.3, T_SEQ)
        assert np.all(np.diff(table["velocity_error"]) < 0)
        # plain-L2 error decays like t^(alpha-1) as well
        assert table["velocity_error"][-1] < 0.1

    def test_velocity_only_data(self):
        # error reduces to |E(-lambda_2 t^a) - 1| for a pure second mode
        dom = build_interval(1.0, 8)
        table = smooth_data_velocity(dom, single_mode(8, 2, on="u1"), 1.5, 0.3, T_SEQ)
        assert np.all(np.diff(table["velocity_error"]) < 0)
        assert table["velocity_error"][-1] < 1e-3

    def test_envelope_slope(self):
        alpha, eps, delta = 1.5, 0.3, 0.05
        dom = build_interval(1.0, 2048)
        data = power_decay(2048, (3.0 + 4.0 * eps + delta) / 2.0)
        table = smooth_data_velocity(dom, data, alpha, eps, T_SEQ)
        slope = fit_loglog_slope(table["t"], table["velocity_error"])
        assert abs(slope - table["envelope_exponent"]) <= 0.1

    def test_rough_data_rejected(self):
        dom = build_interval(1.0, 256)
        with pytest.raises(ValueError, match="stabilized"):
            smooth_data_velocity(dom, power_decay(256, 1.6), 1.5, 0.3, T_SEQ)

    def test_epsilon_gate(self):
        dom = build_interval(1.0, 8)
        with pytest.raises(ValueError, match="smooth-data"):
            smooth_data_velocity(dom, single_mode(8, 1), 1.5, 0.05, T_SEQ)


class TestBlowupRate:
    @pytest.mark.parametrize("alpha", [1.25, 1.5, 1.75])
    def test_exponent(self, alpha):
        dom = build_interval(1.0, 4)
        fit = velocity_blowup_rate(dom, single_mode(4, 1), alpha)
        assert abs(fit.exponent - (alpha - 1.0)) <= 0.05
        assert not fit.multi_mode

    def test_multi_mode_flagged(self):
        dom = build_interval(1.0, 8)
        data = power_decay(8, 2.0)
        fit = velocity_blowup_rate(dom, data, 1.5)
        assert fit.multi_mode
        assert abs(fit.exponent - 0.5) <= 0.05

    def test_velocity_data_rejected(self):
        dom = build_interval(1.0, 4)
        with pytest.raises(ValueError):
            velocity_blowup_rate(dom, single_mode(4, 1, on="u1"), 1.5)
