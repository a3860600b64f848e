"""Adaptive integrator: accuracy, invariants, and asymptote detection."""

import numpy as np
import pytest

from cuq.analytic import asymptotic_state, cuq_clock, cuq_projections
from cuq.core import QubitModel
from cuq.integrate import (NON_CONVERGENT, StepSizeUnderflow, evolve,
                           evolve_to_asymptote)


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
