"""Closed-form kinematics against independent numerical oracles."""

import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy.integrate import quad

from cuq.analytic import (AsymptoticBranch, asymptotic_state, cuq_clock,
                          cuq_projections, cuq_theta, half_angle_slope,
                          mixed_ellipse, mixed_magnitude,
                          mixed_magnitude_vs_angle, polar_rates,
                          restore_units)
from cuq._base import _one_minus_r2
from cuq.core import QubitModel, _generator
from cuq.integrate import evolve, propagate

# r log-uniform down to 1e-8, and 1 - r log-uniform down to 1e-15
R_OSC = st.one_of(st.floats(-8.0, -0.01).map(lambda x: 10.0 ** x),
                  st.floats(-15.0, -1.0).map(lambda x: 1.0 - 10.0 ** x))


class TestClock:
    def test_frozen_values(self):
        # [DERIVED] P = 2 pi r / sqrt(1-r^2), w = sqrt(1-r^2)/r at r = 0.85
        clock = cuq_clock(0.85)
        assert clock.P_hat == pytest.approx(10.138350474277011, rel=1e-12)
        assert clock.omega_hat == pytest.approx(0.6197443384031024, rel=1e-12)
        assert clock.P_hat * clock.omega_hat == pytest.approx(2 * np.pi)

    def test_near_critical_period(self):
        assert cuq_clock(0.99).P_hat == pytest.approx(44.09491652125692,
                                                      rel=1e-12)

    def test_period_quadrature_oracle(self):
        # [DERIVED] dtheta/dtau = -1/r - cos(theta): the return time is the
        # loop integral of dtau/dtheta over one turn of the phase angle
        for r in (0.3, 0.85, 0.99):
            oracle, est = quad(lambda th: 1.0 / (1.0 / r + np.cos(th)),
                               0.0, 2.0 * np.pi)
            assert cuq_clock(r).P_hat == pytest.approx(oracle, abs=1e-10)

    @settings(max_examples=200, deadline=None)
    @given(R_OSC)
    def test_clock_is_the_generators_root(self, r):
        # omega_hat = sqrt(1 - r^2)/r is Im mu of the model at 90 degrees,
        # bit for bit: both form 1 - r^2 as (1 - r)(1 + r)
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        assert cuq_clock(r).omega_hat == _generator(m)[2].imag

    @settings(max_examples=100, deadline=None)
    @given(R_OSC.filter(lambda r: 1.0 - r >= 1e-9))
    @example(1.0 - 1e-9)
    def test_propagate_returns_after_one_and_three_periods(self, r):
        # the pure CUQ orbit through e x gamma closes after every P_hat; what
        # is left is propagate's own rounding, up to 1.9e-10 next to
        # 1 - r = 1e-9 over 2,000 draws
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        P = cuq_clock(r).P_hat
        b = propagate(m, m.e_cross_gamma, [P, 3.0 * P])
        assert np.max(np.abs(b - m.e_cross_gamma)) <= 1e-9

    def test_restore_units(self):
        P, omega = restore_units(0.85, 2.0)
        root = np.sqrt(1 - 0.85 ** 2)
        assert P == pytest.approx(np.pi / (2.0 * root), rel=1e-14)
        assert omega == pytest.approx(4.0 * root, rel=1e-14)
        assert P * omega == pytest.approx(2 * np.pi)

    @settings(max_examples=300, deadline=None)
    @given(R_OSC, st.floats(-300.0, 300.0).map(lambda x: 10.0 ** x))
    def test_restore_units_keeps_the_numpy_bits(self, r, E):
        # math.sqrt and np.sqrt are both correctly rounded, and 2 (|E| root)
        # is (2 |E|) root wherever neither is past the float range
        root = np.sqrt(_one_minus_r2(r))
        assert restore_units(r, E) == (np.pi / (E * root), 2.0 * E * root)

    @pytest.mark.parametrize("E", [np.inf, np.nan, 0.0, -1.0])
    def test_restore_units_rejects_a_scale_that_is_not_positive_and_finite(
            self, E):
        with pytest.raises(ValueError, match="E_mag must be positive and "
                                             "finite"):
            restore_units(0.85, E)

    @pytest.mark.parametrize("r, E", [(0.1, 1e308), (0.85, 1e-320)])
    def test_restore_units_overflow_names_r_and_the_scale(self, r, E):
        # omega = 2 |E| sqrt(1 - r^2) and P = pi / (|E| sqrt(1 - r^2))
        with pytest.raises(OverflowError,
                           match=re.escape(f"r = {r!r}, |E| = {E!r}")):
            restore_units(r, E)

    def test_restore_units_frequency_within_range_past_twice_the_scale(self):
        # 2 |E| = 2e308 is past the float range, omega = 1.7e308 is not
        assert restore_units(0.5, 1e308)[1] / 1e308 == pytest.approx(
            math.sqrt(3.0))

    def test_rejects_overdamped(self):
        with pytest.raises(ValueError):
            cuq_clock(1.0)


class TestPhaseAngle:
    def test_ode_oracle(self):
        # [DERIVED] theta(tau) must satisfy dtheta/dtau = -1/r - cos(theta);
        # central finite differences on a fine grid
        r = 0.7
        taus = np.linspace(0.3, 3.0 * cuq_clock(r).P_hat, 40001)
        th = cuq_theta(taus, r)
        h = taus[1] - taus[0]
        lhs = (th[2:] - th[:-2]) / (2 * h)
        rhs = -1.0 / r - np.cos(th[1:-1])
        assert np.max(np.abs(lhs - rhs)) < 1e-5

    def test_monotone_decreasing_unwrap(self):
        r = 0.85
        taus = np.linspace(0.0, 4.0 * cuq_clock(r).P_hat, 2000)
        th = cuq_theta(taus, r)
        assert np.all(np.diff(th) < 0.0)
        assert th[0] == pytest.approx(0.0, abs=1e-12)

    def test_winds_one_turn_per_period(self):
        r = 0.5
        P = cuq_clock(r).P_hat
        assert cuq_theta(P, r) - cuq_theta(0.0, r) == pytest.approx(
            -2 * np.pi, abs=1e-10)

    def test_continuous_at_half_periods(self):
        # tau = (k + 1/2) P puts omega tau / 2 on a pole of tan, where the
        # rounding of tau - m P picks either side
        for r in (0.01, 0.3, 0.85, 0.999):
            P = cuq_clock(r).P_hat
            tau = (np.arange(-6, 14) + 0.5) * P
            sides = (cuq_theta(tau - 1e-9 * P, r)
                     + cuq_theta(tau + 1e-9 * P, r)) / 2
            assert np.max(np.abs(cuq_theta(tau, r) - sides)) < 1e-6
        assert cuq_theta(6.5 * cuq_clock(0.3).P_hat, 0.3) == pytest.approx(
            -13 * np.pi, abs=1e-9)

    def test_half_angle_slope(self):
        # tan(theta/2) = -slope * tan(w tau / 2) with
        # slope = sqrt((1+r)/(1-r)); half_angle_slope returns its inverse
        # Fourier form q = r/(1+sqrt(1-r^2))
        r = 0.85
        q = half_angle_slope(r)
        assert q == pytest.approx((1 - np.sqrt(1 - r * r)) / r, rel=1e-13)


class TestProjections:
    def test_circle_identity(self):
        # (b.gamma)^2 + (b.exg)^2 = 1 on the pure reference orbit
        r = 0.85
        taus = np.linspace(0, 2 * cuq_clock(r).P_hat, 400)
        bg, bexg = cuq_projections(taus, r)
        assert np.allclose(bg ** 2 + bexg ** 2, 1.0, atol=1e-12)

    def test_matches_phase_angle(self):
        r = 0.6
        taus = np.linspace(0.05, 8.0, 97)
        bg, bexg = cuq_projections(taus, r)
        th = cuq_theta(taus, r)
        # theta decreases from zero, so b.gamma = -sin(theta)
        assert np.allclose(bg, -np.sin(th), atol=1e-10)
        assert np.allclose(bexg, np.cos(th), atol=1e-10)

    def test_initial_point(self):
        bg, bexg = cuq_projections(0.0, 0.85)
        assert bg == pytest.approx(0.0, abs=1e-15)
        assert bexg == pytest.approx(1.0, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(R_OSC, st.floats(allow_nan=False, allow_infinity=False),
           st.booleans())
    @example(0.5, 1e300, False)
    @example(1e-8, -1.7e300, True)
    def test_scalar_and_array_calls_keep_the_clocks_bits(self, r, tau, np64):
        # one sample, as a Python float, an np.float64 or a 0-d array, is a
        # Python float that equals its element of an array call, and both
        # are the form with omega_hat read off the clock and the prefactor
        # taken as a root of its own, bit for bit, at any tau whose phase
        # is finite
        r = np.float64(r) if np64 else r
        assume(math.isfinite(cuq_clock(r).omega_hat * tau))
        phase = cuq_clock(r).omega_hat * np.asarray(tau, dtype=float)
        denom = 1.0 - r * np.cos(phase)
        want = (np.sqrt(_one_minus_r2(r)) * np.sin(phase) / denom,
                (np.cos(phase) - r) / denom)
        array = cuq_projections(np.array([0.0, tau, -tau]), r)
        for sample in (tau, np.float64(tau), np.array(tau)):
            scalar = cuq_projections(sample, r)
            for w, s, a in zip(want, scalar, array):
                assert type(s) is float
                assert np.float64(s).tobytes() == np.float64(w).tobytes()
                assert a[1].tobytes() == np.float64(w).tobytes()

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf, float("nan"),
                                     np.float64(np.inf), [0.5, np.nan],
                                     [np.inf, 0.5]])
    def test_rejects_a_tau_that_is_not_finite(self, tau):
        # nan returned nan unwarned; inf warned in np.cos
        with pytest.raises(ValueError, match="tau must be finite"):
            cuq_projections(tau, 0.85)

    @pytest.mark.parametrize("tau", [1e308, -1e308, np.float64(1e308),
                                     [0.5, -1e308]])
    def test_overflowing_phase_is_an_overflow_error(self, tau):
        # w = sqrt(1 - 0.01)/0.1 = 9.95, so w tau is past the float range
        with pytest.raises(OverflowError, match=r"r = 0\.1, tau = 1e\+308"):
            cuq_projections(tau, 0.1)


class TestAsymptoticState:
    @pytest.mark.parametrize("r", [0.2, 0.6, 1.0, 1.4, 1.8])
    @pytest.mark.parametrize("theta", [10.0, 30.0, 55.0, 80.0])
    def test_is_fixed_point_of_the_flow(self, r, theta):
        # [DERIVED] db/dtau must vanish at b*
        from cuq.core import BlochState, bloch_derivative
        m = QubitModel.from_angle(r, theta, degrees=True)
        st = asymptotic_state(m)
        assert st.branch is AsymptoticBranch.GENERAL
        d = bloch_derivative(BlochState(b=st.b_star), m)
        assert np.max(np.abs(d)) < 1e-10
        assert np.linalg.norm(st.b_star) == pytest.approx(1.0, abs=1e-10)

    def test_matches_long_integration(self):
        m = QubitModel.from_angle(0.9, 45.0, degrees=True)
        traj = evolve(m, np.zeros(3), 120.0, rel_tol=1e-10, abs_tol=1e-13)
        assert np.allclose(traj.bs[-1], asymptotic_state(m).b_star, atol=1e-6)

    def test_aligned_branch(self):
        for theta, sign in ((0.0, 1.0), (180.0, -1.0)):
            m = QubitModel.from_angle(0.5, theta, degrees=True)
            st = asymptotic_state(m)
            assert st.branch is AsymptoticBranch.ALIGNED
            assert np.allclose(st.b_star, sign * m.e)

    def test_perpendicular_overdamped(self):
        r = 1.5
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        st = asymptotic_state(m)
        assert st.branch is AsymptoticBranch.PERPENDICULAR_OVERDAMPED
        expected = (np.sqrt(r * r - 1) / r) * m.gamma - m.e_cross_gamma / r
        assert np.allclose(st.b_star, expected, atol=1e-14)
        assert np.linalg.norm(st.b_star) == pytest.approx(1.0, abs=1e-12)

    def test_perpendicular_cuq_has_no_stationary_state(self):
        st = asymptotic_state(QubitModel.from_angle(0.85, 90.0, degrees=True))
        assert st.branch is AsymptoticBranch.CRITICAL_NO_STATIONARY
        assert st.b_star is None

    def test_large_r_near_perpendicular(self):
        # 1 - r^2 + sqrt((1-r^2)^2 + 4c^2r^2) cancels at large r and small c;
        # the spectral limit does not share the formula
        from cuq.integrate import evolve_to_asymptote
        m = QubitModel.from_angle(47.9, 89.9, degrees=True)
        st = asymptotic_state(m)
        assert st.branch is AsymptoticBranch.GENERAL
        assert np.allclose(st.b_star, evolve_to_asymptote(m, np.zeros(3)),
                           rtol=0.0, atol=1e-13)

    def test_rabi_limit(self):
        # r -> 0 with e.gamma != 0: b* approaches the precession axis
        m = QubitModel.from_angle(1e-4, 40.0, degrees=True)
        st = asymptotic_state(m)
        assert np.allclose(st.b_star, m.e, atol=1e-3)
        assert st.alpha == pytest.approx(1.0, abs=1e-3)


class TestMixedStart:
    def test_magnitude_formula_vs_ode(self):
        # [DERIVED] |b|^2 = 1 - (1-r^2)^2 [1 - r^2 cos(w tau / r ... )]^-2
        r = 0.6
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        traj = evolve(m, np.zeros(3), 20.0, rel_tol=1e-11, abs_tol=1e-13)
        taus = np.linspace(0.0, 20.0, 101)
        ref = mixed_magnitude(taus, r)
        got = np.array([np.linalg.norm(traj.interpolate(t)) for t in taus])
        assert np.max(np.abs(got - ref)) < 1e-8

    def test_critical_r_equals_one(self):
        taus = np.array([0.0, 1.0, 5.0, 50.0])
        ref = np.sqrt(1.0 - 4.0 / (2.0 + taus ** 2) ** 2)
        assert np.allclose(mixed_magnitude(taus, 1.0), ref, atol=1e-14)

    def test_peak_magnitude(self):
        r = 0.85
        taus = np.linspace(0, 3 * cuq_clock(r).P_hat, 20001)
        peak = mixed_magnitude(taus, r).max()
        assert peak == pytest.approx(2 * r / (1 + r * r), abs=1e-7)

    def test_magnitude_vs_angle(self):
        # |b|(phi) = -2 r sin(phi) / (1 + r^2 sin^2(phi)), frozen point
        assert mixed_magnitude_vs_angle(-np.pi / 4, 0.4) == pytest.approx(
            0.523782800878924, rel=1e-12)


class TestMixedEllipse:
    def test_frozen_geometry(self):
        ell = mixed_ellipse(0.6)
        assert ell.semi_major == pytest.approx(0.5144957554275265, rel=1e-12)
        assert ell.semi_minor == pytest.approx(0.4411764705882352, rel=1e-12)
        assert ell.eccentricity == pytest.approx(0.5144957554275265, rel=1e-12)
        assert ell.center_offset == pytest.approx(-0.4411764705882352,
                                                  rel=1e-12)

    def test_trajectory_lies_on_ellipse(self):
        # [DERIVED] the mixed-start orbit in the (gamma, e x gamma) plane
        # satisfies the implicit ellipse equation
        r = 0.6
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        traj = evolve(m, np.zeros(3), 25.0, rel_tol=1e-11, abs_tol=1e-13)
        ell = mixed_ellipse(r)
        x = traj.bs @ m.gamma
        y = traj.bs @ m.e_cross_gamma - ell.center_offset
        resid = (x / ell.semi_major) ** 2 + (y / ell.semi_minor) ** 2 - 1.0
        assert np.max(np.abs(resid)) < 1e-8


class TestPolarRates:
    def test_quotient_identity(self):
        # the two rates combine into the planar vector field: check against
        # bloch_derivative at a point reconstructed from (|b|, phi)
        from cuq.core import BlochState, bloch_derivative
        r, phi = 0.7, -2.0
        b_mag = mixed_magnitude_vs_angle(phi, r)
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        b = b_mag * (np.cos(phi) * m.gamma + np.sin(phi) * m.e_cross_gamma)
        d = bloch_derivative(BlochState(b=b), m)
        db_mag, dphi = polar_rates(b_mag, phi, r)
        assert d @ b / b_mag == pytest.approx(db_mag, rel=1e-10)
        tang = np.cross(m.e, b) / b_mag
        assert d @ tang / b_mag == pytest.approx(dphi, rel=1e-10)

    def test_formulas(self):
        r, phi, b_mag = 0.5, -1.0, 0.6
        db_mag, dphi = polar_rates(b_mag, phi, r)
        assert db_mag == pytest.approx((1 - b_mag ** 2) * np.cos(phi),
                                       rel=1e-14)
        assert dphi == pytest.approx(-1 / r - np.sin(phi) / b_mag, rel=1e-14)

    def test_rejects_degenerate_radius(self):
        with pytest.raises(ValueError):
            polar_rates(0.0, 1.0, 0.5)

    @pytest.mark.parametrize("r", [0.0, -1.0, np.inf, np.nan])
    def test_rejects_r_outside_its_domain(self, r):
        with pytest.raises(ValueError, match="r must be positive and finite"):
            polar_rates(0.5, -1.0, r)


@pytest.mark.parametrize("x", [np.inf, -np.inf, np.nan, [0.0, np.nan]])
@pytest.mark.parametrize("call, name", [
    (lambda x: cuq_theta(x, 0.5), "tau"),
    (lambda x: mixed_magnitude(x, 0.5), "tau"),
    (lambda x: mixed_magnitude(x, 1.0), "tau"),
    (lambda x: mixed_magnitude_vs_angle(x, 0.5), "phi"),
    (lambda x: polar_rates(0.5, x, 0.5), "phi")],
    ids=["cuq_theta", "mixed_magnitude", "mixed_magnitude_at_1",
         "mixed_magnitude_vs_angle", "polar_rates"])
def test_non_finite_time_or_angle_is_a_value_error_naming_it(call, name, x):
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        call(x)


@pytest.mark.parametrize("tau", [1e300, -1e300, [0.5, 1e300]])
@pytest.mark.parametrize("call", [cuq_theta, cuq_projections, mixed_magnitude])
def test_overflowing_phase_is_an_overflow_error_naming_r_and_tau(call, tau):
    # w = sqrt(1 - r^2)/r is 1e10 at r = 1e-10, so w tau is past the float
    # range; numpy warned, and mixed_magnitude returned nan unwarned
    with pytest.raises(OverflowError, match=r"the phase w tau overflows at "
                                            r"r = 1e-10, tau = 1e\+300"):
        call(tau, 1e-10)
