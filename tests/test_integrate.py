"""Exact propagator, adaptive integrator, and asymptote detection."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cuq.analytic import asymptotic_state, cuq_clock, cuq_projections
from cuq.core import (SIGMA, BlochState, QubitModel, _effective_matrices,
                      density_from_bloch)
from cuq.integrate import (NON_CONVERGENT, StepSizeUnderflow, evolve,
                           evolve_to_asymptote, propagate)

radii = st.floats(0.05, 20.0)
angles = st.floats(0.0, 180.0)
unit_ball = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda v: np.array(v) / max(1.0, float(np.linalg.norm(v))))


def perp_model(r):
    return QubitModel.from_angle(r, 90.0, 1.0, degrees=True)


class TestEvolve:
    def test_matches_closed_form_projections(self):
        # [DERIVED] the pure perpendicular solution is known in closed form
        r = 0.85
        m = perp_model(r)
        clock = cuq_clock(r)
        traj = evolve(m, m.e_cross_gamma, 2.0 * clock.P_hat,
                      rel_tol=1e-11, abs_tol=1e-13)
        taus = np.linspace(0.1, 2.0 * clock.P_hat, 57)
        bg_ref, bexg_ref = cuq_projections(taus, r)
        for tau, bg, bexg in zip(taus, bg_ref, bexg_ref):
            b = traj.interpolate(tau)
            assert b @ m.gamma == pytest.approx(bg, abs=5e-9)
            assert b @ m.e_cross_gamma == pytest.approx(bexg, abs=5e-9)

    def test_periodicity(self):
        r = 0.85
        m = perp_model(r)
        clock = cuq_clock(r)
        traj = evolve(m, m.e_cross_gamma, 3.0 * clock.P_hat,
                      rel_tol=1e-11, abs_tol=1e-13)
        b0 = traj.interpolate(0.0)
        for k in (1, 2, 3):
            assert np.allclose(traj.interpolate(k * clock.P_hat), b0,
                               atol=1e-8)

    def test_pure_state_stays_pure(self):
        m = perp_model(0.5)
        traj = evolve(m, m.e_cross_gamma, 30.0, rel_tol=1e-11, abs_tol=1e-13)
        assert np.max(np.abs(traj.magnitudes() - 1.0)) < 1e-9

    def test_trajectory_stays_planar(self):
        # perpendicular geometry with b0 in the gamma, e x gamma plane
        m = perp_model(0.3)
        traj = evolve(m, 0.4 * m.gamma, 40.0, rel_tol=1e-10, abs_tol=1e-12)
        assert np.max(np.abs(traj.bs @ m.e)) < 1e-7

    def test_tolerance_halving_reduces_error(self):
        r = 0.6
        m = perp_model(r)
        clock = cuq_clock(r)
        tau_probe = 1.7 * clock.P_hat
        ref, _ = cuq_projections(tau_probe, r)
        errs = []
        for tol in (1e-6, 1e-8, 1e-10):
            traj = evolve(m, m.e_cross_gamma, 2.0 * clock.P_hat,
                          rel_tol=tol, abs_tol=tol * 1e-3)
            errs.append(abs(traj.interpolate(tau_probe) @ m.gamma - ref))
        assert errs[2] < errs[1] < errs[0]

    def test_mixed_start_from_origin(self):
        m = perp_model(0.3)
        traj = evolve(m, np.zeros(3), 5.0, rel_tol=1e-10, abs_tol=1e-13)
        # max |b| = 2r/(1+r^2) is never exceeded from the fully mixed state
        assert traj.magnitudes().max() <= 2 * 0.3 / 1.09 + 1e-9

    def test_rejects_bad_tolerance(self):
        m = perp_model(0.5)
        with pytest.raises(ValueError):
            evolve(m, np.zeros(3), 1.0, rel_tol=0.5)

    def test_rejects_bad_horizon(self):
        with pytest.raises(ValueError):
            evolve(perp_model(0.5), np.zeros(3), -1.0)

    @pytest.mark.parametrize("tau_end", [np.inf, np.nan])
    def test_rejects_non_finite_horizon(self, tau_end):
        # an infinite horizon would never finish
        with pytest.raises(ValueError):
            evolve(perp_model(0.5), np.zeros(3), tau_end)

    def test_rejects_non_finite_b0(self):
        with pytest.raises(ValueError):
            evolve(perp_model(0.5), [0.0, np.nan, 0.0], 1.0)

    def test_controller_stats_recorded(self):
        traj = evolve(perp_model(0.5), np.zeros(3), 5.0)
        st = traj.controller_stats
        assert st["n_accepted"] > 0 and st["max_local_error"] <= 1.0
        assert st["n_fev"] == 1 + 6 * (st["n_accepted"] + st["n_rejected"])

    @pytest.mark.parametrize("r, theta, tau_end, tol", [
        (0.02, 70.0, 1.0, 1e-9), (0.85, 90.0, 5.0, 1e-9),
        (1.0, 90.0, 5.0, 1e-9), (3.0, 40.0, 40.0, 1e-4),
        (1.5, 90.0, 40.0, 1e-4)])
    def test_field_calls_per_step(self, r, theta, tau_end, tol):
        # one field call to start, then six per attempted step (FSAL) in
        # every regime: n_fev counts field calls.  The loose-tolerance runs
        # reject a step, so rejected steps are counted too.
        m = QubitModel.from_angle(r, theta, degrees=True)
        st = evolve(m, -m.gamma, tau_end, rel_tol=tol,
                    abs_tol=tol).controller_stats
        assert st["n_fev"] == 1 + 6 * (st["n_accepted"] + st["n_rejected"])
        assert st["n_rejected"] > 0 or tol < 1e-5


class TestInterpolation:
    def test_dense_output_between_nodes(self):
        r = 0.7
        m = perp_model(r)
        traj = evolve(m, m.e_cross_gamma, 10.0, rel_tol=1e-10, abs_tol=1e-13)
        mids = 0.5 * (traj.taus[:-1] + traj.taus[1:])
        bg_ref, _ = cuq_projections(mids, r)
        bg = np.array([traj.interpolate(t) @ m.gamma for t in mids])
        assert np.max(np.abs(bg - bg_ref)) < 1e-7

    def test_out_of_range_raises(self):
        traj = evolve(perp_model(0.5), np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            traj.interpolate(2.0)

    @pytest.mark.parametrize("tau", [np.nan, np.inf, -np.inf,
                                     [0.5, np.nan], [np.nan, 0.5]])
    def test_non_finite_query_raises(self, tau):
        traj = evolve(perp_model(0.5), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="not finite"):
            traj.interpolate(tau)


class TestAsymptote:
    def test_general_geometry_settles_to_closed_form(self):
        m = QubitModel.from_angle(0.8, 60.0, degrees=True)
        b = evolve_to_asymptote(m, np.zeros(3))
        assert b is not NON_CONVERGENT
        assert np.allclose(b, asymptotic_state(m).b_star, atol=1e-6)

    def test_aligned_geometry(self):
        m = QubitModel.from_angle(0.5, 0.0, degrees=True)
        b = evolve_to_asymptote(m, np.array([0.1, 0.2, 0.0]))
        assert np.allclose(b, m.e, atol=1e-6)

    def test_overdamped_perpendicular(self):
        m = perp_model(1.5)
        b = evolve_to_asymptote(m, np.zeros(3))
        assert np.allclose(b, asymptotic_state(m).b_star, atol=1e-6)

    def test_critically_damped_perpendicular(self):
        # r = 1: algebraic approach to -e x gamma (the exceptional point)
        m = perp_model(1.0)
        b = evolve_to_asymptote(m, np.zeros(3))
        assert np.allclose(b, -m.e_cross_gamma, atol=1e-12)

    @pytest.mark.parametrize("r, theta", [(1.0, 90.0), (0.2, 89.0)])
    def test_matches_closed_form_from_any_start(self, r, theta):
        # the exceptional point and a slowly settling near-perpendicular
        # geometry; the limit does not depend on b0
        m = QubitModel.from_angle(r, theta, degrees=True)
        ref = asymptotic_state(m).b_star
        for b0 in (np.zeros(3), m.gamma, -m.gamma, m.e_cross_gamma):
            assert np.allclose(evolve_to_asymptote(m, b0), ref, atol=1e-12)

    def test_repelling_fixed_point(self):
        # aligned model: -e is a fixed point of the flow, +e attracts
        # every other start, however close to -e
        m = QubitModel.from_angle(0.5, 0.0, degrees=True)
        assert np.array_equal(evolve_to_asymptote(m, -m.e), -m.e)
        for scale in (0.999, 1.0 - 1e-9):
            assert np.allclose(evolve_to_asymptote(m, -scale * m.e), m.e,
                               atol=1e-12)

    def test_cuq_flagged_non_convergent(self):
        m = perp_model(0.85)
        out = evolve_to_asymptote(m, m.e_cross_gamma)
        assert out is NON_CONVERGENT
        assert not out  # falsy sentinel

    def test_cuq_from_mixed_state_non_convergent(self):
        out = evolve_to_asymptote(perp_model(0.4), np.zeros(3))
        assert out is NON_CONVERGENT

    def test_rejects_malformed_b0(self):
        for b0 in ([0.0, 0.0], [np.nan, 0.0, 0.0], [0.0, np.inf, 0.0]):
            with pytest.raises(ValueError):
                evolve_to_asymptote(perp_model(1.5), b0)


def expm_path(m, b0, taus):
    """Bloch vectors from scipy's expm of K = -iE - Gamma/2 (units of |Gamma|)."""
    E, G = _effective_matrices(m)
    K = -1j * E - 0.5 * G
    # a real shift only rescales rho; it keeps e^{K tau} finite
    K = K - np.max(np.linalg.eigvals(K).real) * np.eye(2)
    U = expm(taus[:, None, None] * K)
    rho0 = density_from_bloch(BlochState(b0)).entries
    rho = U @ rho0 @ U.conj().transpose(0, 2, 1)
    trace = np.trace(rho, axis1=1, axis2=2).real
    return np.einsum("mjk,ikj->mi", rho, SIGMA).real / trace[:, None]


class TestPropagate:
    @settings(max_examples=25, deadline=None)
    @given(radii, angles, unit_ball, st.floats(0.1, 5.0))
    def test_agrees_with_dp5(self, r, theta, b0, tau_end):
        m = QubitModel.from_angle(r, theta, degrees=True)
        traj = evolve(m, b0, tau_end)
        assert np.max(np.abs(propagate(m, b0, traj.taus) - traj.bs)) <= 1e-7

    @settings(max_examples=60, deadline=None)
    @given(radii, angles, unit_ball, st.floats(0.0, 5.0))
    def test_agrees_with_matrix_exponential(self, r, theta, b0, tau_end):
        # near a repelling state expm's rounding grows like e^{Re mu tau}
        # (1e-12 at tau = 8 for r = 1, theta = 0, b0 = -e); this module's
        # long-time behaviour is checked against exact forms below
        m = QubitModel.from_angle(r, theta, degrees=True)
        taus = np.linspace(0.0, tau_end, 9)
        assert np.max(np.abs(propagate(m, b0, taus)
                             - expm_path(m, b0, taus))) <= 1e-12

    @settings(max_examples=60, deadline=None)
    @given(radii, angles, unit_ball)
    def test_finite_and_in_the_ball_at_long_times(self, r, theta, b0):
        m = QubitModel.from_angle(r, theta, degrees=True)
        b = propagate(m, b0, np.geomspace(1.0, 1e6, 25))
        assert np.all(np.isfinite(b))
        assert np.max(np.linalg.norm(b, axis=1)) <= 1.0 + 1e-12

    @settings(max_examples=60, deadline=None)
    @given(unit_ball, st.floats(0.0, 1e3))
    def test_exact_at_the_exceptional_point(self, b0, tau):
        # r = 1, e perpendicular to gamma: e^{K tau} = I + (tau/2) n.sigma,
        # and with e = x, gamma = y the state is rational in tau and b0
        m = QubitModel(e=[1.0, 0.0, 0.0], gamma=[0.0, 1.0, 0.0], r=1.0)
        b1, b2, b3 = (Fraction(x) for x in b0)
        t = Fraction(tau)
        d = 1 + t * b2 + t * t * (1 + b3) / 2
        want = [b1 / d, (b2 + t * (1 + b3)) / d,
                (b3 - t * b2 - t * t * (1 + b3) / 2) / d]
        got = propagate(m, b0, [tau])[0]
        # exact to rounding: the terms of d reach (1 + tau)^2 before they
        # cancel down to d
        tol = 8.0 * np.finfo(float).eps * (1.0 + tau) ** 2 / float(d)
        assert np.max(np.abs(got - np.array(want, dtype=float))) <= tol

    def test_starts_at_b0_and_stays_on_the_pure_orbit(self):
        r = 0.85
        m = perp_model(r)
        taus = np.linspace(0.0, 3.0 * cuq_clock(r).P_hat, 200)
        b = propagate(m, m.e_cross_gamma, taus)
        assert np.array_equal(b[0], m.e_cross_gamma)
        bg, bexg = cuq_projections(taus, r)
        assert np.max(np.abs(b @ m.gamma - bg)) < 1e-14
        assert np.max(np.abs(b @ m.e_cross_gamma - bexg)) < 1e-14

    def test_repelling_state_stays_put(self):
        # aligned model: -e is a fixed point; e^{-mu tau} underflows at 1e6
        m = QubitModel.from_angle(0.25, 0.0, degrees=True)
        b = propagate(m, -m.e, [0.0, 1.0, 1e6])
        assert np.allclose(b, -m.e, rtol=0.0, atol=1e-15)

    def test_rejects_bad_times_and_b0(self):
        m = perp_model(0.5)
        for taus in ([-1.0], [np.inf], [np.nan], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                propagate(m, np.zeros(3), taus)
        with pytest.raises(ValueError):
            propagate(m, [0.0, 0.0, 1.1], [1.0])
