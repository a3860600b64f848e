"""Exact propagator, adaptive integrator, and asymptote detection."""

import math
import re
from array import array
from fractions import Fraction
from itertools import chain

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from cuq.analytic import asymptotic_state, cuq_clock, cuq_projections
from cuq.core import (SIGMA, BlochState, QubitModel, _float_field, _pauli,
                      density_from_bloch, purity_rate)
from cuq.integrate import (_A, _D, _E, NON_CONVERGENT, StepSizeUnderflow,
                           evolve, evolve_to_asymptote, propagate)

radii = st.floats(0.05, 20.0)
angles = st.floats(0.0, 180.0)
unit_ball = st.tuples(*[st.floats(-1.0, 1.0)] * 3).map(
    lambda v: np.array(v) / max(1.0, float(np.linalg.norm(v))))


def perp_model(r):
    return QubitModel.from_angle(r, 90.0, degrees=True)


def reference_evolve(model, b0, tau_end, rel_tol, abs_tol):
    """`evolve` as a generic loop over the tableau rows, the reference its
    straight-line sums are held to: (taus, bs, dense, stats).  Each sum
    starts from 0.0 and runs left to right over a row, zero coefficients
    included, so both forms round alike."""
    x, y, z = BlochState(b0).b.tolist()
    f = _float_field(model)
    k0 = f(x, y, z)
    taus, bs = array("d", [0.0]), array("d", (x, y, z))
    hs, ks = array("d"), array("d")
    tau, h = 0.0, 0.1
    n_acc = n_rej = 0
    nfev = 1
    while tau < tau_end:
        if h < 1e-14 * max(1.0, tau):
            raise StepSizeUnderflow(f"step underflow at tau={tau}")
        h = min(h, tau_end - tau)
        k = [k0]
        for row in _A:
            sx = sy = sz = 0.0
            for a, (fx, fy, fz) in zip(row, k):
                sx += a * fx
                sy += a * fy
                sz += a * fz
            u, v, w = x + h * sx, y + h * sy, z + h * sz
            k.append(f(u, v, w))
        nfev += 6
        ex = ey = ez = 0.0
        for c, (fx, fy, fz) in zip(_E, k):
            ex += c * fx
            ey += c * fy
            ez += c * fz
        s = 0.0
        for e, y0, y1 in zip((ex, ey, ez), (x, y, z), (u, v, w)):
            q = h * e / (abs_tol + rel_tol * max(abs(y0), abs(y1)))
            s += q * q
        err = math.sqrt(s / 3.0)
        if err <= 1.0:
            ks.extend(chain.from_iterable(k))
            hs.append(h)
            tau += h
            x, y, z = u, v, w
            taus.append(tau)
            bs.extend((x, y, z))
            k0 = k[6]
            n_acc += 1
        else:
            n_rej += 1
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** (-1 / 5)))
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.array(bs).reshape(-1, 3)
        K = np.array(ks).reshape(-1, 7, 3)
        H = np.array(hs)[:, None]
        dy = B[1:] - B[:-1]
        c1 = H * K[:, 0] - dy
        c2 = dy - H * K[:, 6] - c1
        c3 = H * sum(d * K[:, j] for j, d in enumerate(_D))
    stats = {"n_accepted": n_acc, "n_rejected": n_rej, "n_fev": nfev}
    return np.array(taus), B, np.stack([c1, c2, c3], axis=1), stats


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
        assert np.max(np.abs(np.linalg.norm(traj.bs, axis=1) - 1.0)) < 1e-9

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
        assert np.linalg.norm(traj.bs, axis=1).max() <= 2 * 0.3 / 1.09 + 1e-9

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

    @pytest.mark.parametrize("b0", [[2.0, 0.0, 0.0], [-3.0, 0.0, 0.0],
                                    [0.0, 0.0, 1.0 + 1e-8]])
    def test_rejects_a_start_outside_the_ball(self, b0):
        # as propagate does: (2, 0, 0) ran on with |b| = 2 and (-3, 0, 0)
        # ended in a step underflow at tau = 0.78
        m = perp_model(0.5)
        for run in (lambda: evolve(m, b0, 5.0),
                    lambda: propagate(m, b0, [5.0])):
            with pytest.raises(ValueError, match=r"\|b\| must be at most"):
                run()

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.02, 20.0), angles, unit_ball, st.floats(0.05, 10.0),
           st.floats(-12.0, -3.0), st.floats(-15.0, -3.0))
    @example(1e-20, 90.0, np.array([0.0, 1.0, 0.0]), 1.0, -11.0, -14.0)
    @example(0.85, 90.0, np.zeros(3), 20.0, -11.0, -14.0)
    def test_keeps_the_bits_of_the_generic_tableau_loop(self, r, theta, b0,
                                                        tau_end, lg_rel,
                                                        lg_abs):
        # every output byte, a step underflow's message too, and the stats
        m = QubitModel.from_angle(r, theta, degrees=True)
        tols = (10.0 ** lg_rel, 10.0 ** lg_abs)
        try:
            want = reference_evolve(m, b0, tau_end, *tols)
        except StepSizeUnderflow as exc:
            with pytest.raises(StepSizeUnderflow,
                               match=f"^{re.escape(str(exc))}$"):
                evolve(m, b0, tau_end, *tols)
            return
        got = evolve(m, b0, tau_end, *tols)
        for a, b in zip((got.taus, got.bs, got.dense), want[:3]):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert repr(got.controller_stats) == repr(want[3])

    def test_float32_tolerances_act_as_their_double_values(self):
        # the error test runs on Python floats, where a float32 scale
        # would round every quotient to single precision
        m = perp_model(0.85)
        tol = np.float32(1e-6)
        a = evolve(m, np.zeros(3), 5.0, rel_tol=tol, abs_tol=tol)
        b = evolve(m, np.zeros(3), 5.0, rel_tol=float(tol), abs_tol=float(tol))
        assert np.array_equal(a.taus, b.taus)
        assert a.controller_stats == b.controller_stats

    def test_controller_stats_recorded(self):
        traj = evolve(perp_model(0.5), np.zeros(3), 5.0)
        st = traj.controller_stats
        assert st["n_accepted"] > 0
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

    @pytest.mark.parametrize("start", ["e_cross_gamma", "gamma"])
    def test_small_r_pure_start_does_not_underflow(self, start):
        # |f(b0)| = 1/r: a first step scaled by the tolerance over |f(b0)|
        # fell under the 1e-14 floor at tau = 0
        m = perp_model(5e-4)
        b0 = getattr(m, start)
        traj = evolve(m, b0, 0.05)
        assert np.max(np.abs(traj.bs - propagate(m, b0, traj.taus))) <= 1e-7

    def test_first_step_is_not_scaled_by_the_tolerance(self):
        # r = 0.85 over three periods from the mixed start: a first step of
        # 1e-11 took 580 steps and 3487 field calls at these tolerances
        r = 0.85
        traj = evolve(perp_model(r), np.zeros(3), 3.0 * cuq_clock(r).P_hat,
                      rel_tol=1e-9, abs_tol=1e-12)
        assert traj.taus[1] >= 1e-3
        assert traj.controller_stats["n_fev"] < 3487

    def test_tiny_r_is_a_step_underflow_not_an_overflow_warning(self):
        # every trial step of h >= 1e-14 overflows the field at r = 1e-20:
        # the non-finite error estimate rejects it, and under the suite's
        # error::RuntimeWarning the overflow is not raised in its place
        m = perp_model(1e-20)
        with pytest.raises(StepSizeUnderflow, match="tau=0.0"):
            evolve(m, m.gamma, 1.0)

    @pytest.mark.parametrize("tau_end", [5e-324, 1e-300, 1e-15])
    def test_a_horizon_below_the_step_floor_is_one_step(self, tau_end):
        # the 1e-14 floor was tested on the step clipped to the horizon,
        # so any tau_end < 1e-14 was a step underflow at tau = 0
        traj = evolve(perp_model(0.5), np.zeros(3), tau_end)
        assert traj.taus.tolist() == [0.0, tau_end]
        assert traj.controller_stats["n_accepted"] == 1

    @pytest.mark.parametrize("r", [0.9, 0.95, 0.99])
    def test_repelling_pure_state_at_180_degrees_stays_in_the_ball(self, r):
        # e is an exact fixed point once sin(180 degrees) is exactly 0; a
        # tilt of 1.2e-16 pushed |b| past 1, where the flow blows up
        m = QubitModel.from_angle(r, 180.0, degrees=True)
        traj = evolve(m, m.e, 3.0 * cuq_clock(r).P_hat)
        assert np.max(np.abs(traj.bs - propagate(m, m.e, traj.taus))) <= 1e-12


class TestInterpolation:
    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.02, 3.0).filter(lambda r: not 1.0 - 1e-6 < r < 1.0)
           | st.just(1.0), angles, unit_ball)
    # the CUQ orbit from e x gamma is neutrally stable, so step errors add
    # up: at rel_tol = 1e-9 these drifted 1.8e-6 and 3.8e-6
    @example(0.998, 90.0, np.array([0.0, 0.0, 1.0]))
    @example(0.999, 90.0, np.array([0.0, 0.0, 1.0]))
    def test_dense_output_within_the_benchmark_bound(self, r, theta, b0):
        # the benchmark's trajectory check: 257 points over three periods
        # (r < 1) or 3r, each within BLOCH_ATOL = 1e-6 of the exact path.
        # Three periods grow without bound as r -> 1 (1e9 at r = 1 - 1e-16);
        # the gap keeps them under 1.4e4, and no benchmark draw is closer
        m = QubitModel.from_angle(r, theta, degrees=True)
        tau_end = 3.0 * (cuq_clock(r).P_hat if r < 1.0 else r)
        grid = np.linspace(0.0, tau_end, 257)
        got = evolve(m, b0, tau_end).interpolate(grid)
        assert np.max(np.abs(got - propagate(m, b0, grid))) <= 1e-6

    @pytest.mark.parametrize("r", [0.99, 0.995, 0.998, 0.999, 0.99945,
                                   0.9995])
    def test_default_tolerance_holds_the_cuq_orbit(self, r):
        # the rule the defaults come from: over three periods of the
        # neutrally stable CUQ orbit, within a tenth of the benchmark's
        # bound from each of five starts (worst 5.2e-8, r = 0.99945, e x
        # gamma; 1.9e-7 at r = 0.9995 with rel_tol = 3e-11)
        m = perp_model(r)
        tau_end = 3.0 * cuq_clock(r).P_hat
        grid = np.linspace(0.0, tau_end, 257)
        for b0 in (m.e_cross_gamma, m.gamma, -m.gamma, m.e, np.zeros(3)):
            got = evolve(m, b0, tau_end).interpolate(grid)
            assert np.max(np.abs(got - propagate(m, b0, grid))) <= 1e-7

    @pytest.mark.xfail(strict=True, reason=(
        "step errors add up on the neutrally stable CUQ orbit: three periods "
        "(tau = 4215) at r = 0.99999 drift 3.6e-5 at the default tolerances"))
    def test_cuq_orbit_within_the_benchmark_bound_at_r_0_99999(self):
        # inside the domain of test_dense_output_within_the_benchmark_bound
        r = 0.99999
        m = perp_model(r)
        tau_end = 3.0 * cuq_clock(r).P_hat
        grid = np.linspace(0.0, tau_end, 257)
        b0 = m.e_cross_gamma
        got = evolve(m, b0, tau_end).interpolate(grid)
        assert np.max(np.abs(got - propagate(m, b0, grid))) <= 1e-6

    def test_dense_output_between_nodes(self):
        r = 0.7
        m = perp_model(r)
        traj = evolve(m, m.e_cross_gamma, 10.0, rel_tol=1e-10, abs_tol=1e-13)
        mids = 0.5 * (traj.taus[:-1] + traj.taus[1:])
        bg_ref, _ = cuq_projections(mids, r)
        bg = np.array([traj.interpolate(t) @ m.gamma for t in mids])
        assert np.max(np.abs(bg - bg_ref)) < 1e-7

    def test_knots_return_the_accepted_steps(self):
        traj = evolve(perp_model(0.7), np.zeros(3), 10.0)
        assert np.array_equal(traj.interpolate(traj.taus), traj.bs)
        assert np.array_equal(traj.interpolate(traj.taus[-1]), traj.bs[-1])

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

    def test_empty_query_returns_no_rows(self):
        # as propagate(model, b0, []) does
        m = perp_model(0.5)
        traj = evolve(m, np.zeros(3), 1.0)
        assert traj.interpolate([]).shape == (0, 3)
        assert propagate(m, np.zeros(3), []).shape == (0, 3)

    def test_two_dimensional_query_raises(self):
        traj = evolve(perp_model(0.5), np.zeros(3), 1.0)
        with pytest.raises(ValueError, match="scalar or a 1-D"):
            traj.interpolate([[0.2, 0.5]])

    @pytest.mark.parametrize("r, theta, tau_end", [
        (0.85, 90.0, None), (1.0, 90.0, None), (2.0, 60.0, None),
        (0.02, 70.0, None), (0.5, 40.0, 1e-3)])
    def test_dense_output_has_the_field_as_its_end_slopes(self, r, theta,
                                                          tau_end):
        # (c1, c2) make the interpolant's slopes at s = 0 and s = 1 the field
        # at the step's ends: dy + c1 = h f(b_i), dy - c1 - c2 = h f(b_i+1).
        # Bound: 4 ulps of |h f| for the sums and for FSAL's k0, which can
        # be an ulp off f(b_i+1), plus eps tau/h because h is read back as
        # tau_i+1 - tau_i from the rounded taus.  tau_end = 1e-3 is one step
        m = QubitModel.from_angle(r, theta, degrees=True)
        if tau_end is None:
            tau_end = 3.0 * (cuq_clock(r).P_hat if r < 1.0 else r)
        traj = evolve(m, [0.3, -0.2, 0.5], tau_end)
        if tau_end == 1e-3:
            assert traj.dense.shape == (1, 3, 3)
        f = _float_field(m)
        h = np.diff(traj.taus)[:, None]
        fb = np.array([f(*b) for b in traj.bs.tolist()])
        hf0, hf1 = h * fb[:-1], h * fb[1:]
        c1, c2, _ = traj.dense.transpose(1, 0, 2)
        dy = np.diff(traj.bs, axis=0)
        ulps = 4.0 + traj.taus[1:] / h[:, 0]
        for got, want in ((dy + c1, hf0), (dy - c1 - c2, hf1)):
            bound = ulps * np.finfo(float).eps * np.abs(want).max(axis=1)
            assert np.all(np.abs(got - want).max(axis=1) <= bound)


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

    @pytest.mark.parametrize("r, theta", [
        (1.0, 90.0), (0.2, 89.0), (0.5, 5e-4), (2.0, 179.9995),
        (1e100, 30.0), (1e300, 150.0)])
    def test_matches_closed_form_from_any_start(self, r, theta):
        # the exceptional point, a slowly settling near-perpendicular
        # geometry, two near-aligned ones and r past sqrt of the float
        # range; the limit does not depend on b0.  At r = 1e100 and 1e300
        # -gamma is the repeller to within 1/r, so -e starts there instead
        m = QubitModel.from_angle(r, theta, degrees=True)
        ref = asymptotic_state(m).b_star
        minus = -m.gamma if r < 1e50 else -m.e
        for b0 in (np.zeros(3), m.gamma, minus, m.e_cross_gamma):
            assert np.allclose(evolve_to_asymptote(m, b0), ref, rtol=0.0,
                               atol=1e-15)

    def test_repelling_fixed_point(self):
        # aligned model: -e is a fixed point of the flow, +e attracts
        # every other start, however close to -e
        m = QubitModel.from_angle(0.5, 0.0, degrees=True)
        assert np.array_equal(evolve_to_asymptote(m, -m.e), -m.e)
        for scale in (0.999, 1.0 - 1e-9):
            assert np.allclose(evolve_to_asymptote(m, -scale * m.e), m.e,
                               atol=1e-12)

    @pytest.mark.parametrize("delta", [1e-7, 1e-6])
    def test_pure_start_next_to_the_repeller_reaches_the_attractor(self,
                                                                   delta):
        # only the exact repeller stays; a pure start delta radians from
        # it is carried to the attractor, as by `propagate` and the flow
        m = QubitModel.from_angle(0.5, 0.0, degrees=True)
        b0 = np.array([-np.cos(delta), np.sin(delta), 0.0])
        assert np.allclose(evolve_to_asymptote(m, b0),
                           asymptotic_state(m).b_star, rtol=0.0, atol=1e-15)

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
    # the traceless parts of E and Gamma over the Pauli basis
    K = 1j * _pauli(m.e) / (2.0 * m.r) + 0.5 * _pauli(m.gamma)
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

    @settings(max_examples=60, deadline=None)
    @given(radii, angles, unit_ball, st.floats(0.0, 5.0))
    def test_purity_rate_is_the_slope_of_b_squared(self, r, theta, b0, tau):
        # central difference of |b|^2 along the exact path; the step follows
        # the rotation time r, so the O(h^2) term stays near 1e-9
        m = QubitModel.from_angle(r, theta, degrees=True)
        h = 1e-4 * min(r, 1.0)
        b = propagate(m, b0, [tau + h, tau + 2.0 * h, tau + 3.0 * h])
        slope = (b[2] @ b[2] - b[0] @ b[0]) / (2.0 * h)
        assert abs(purity_rate(BlochState(b[1]), m) - slope) <= 1e-7

    def test_exceptional_point_at_huge_tau(self):
        # W = L + (tau/2) nL, whose Gram sums overflow past tau ~ 1e154;
        # the state tends to -(e x gamma) like 1/tau
        m = QubitModel(e=[1.0, 0.0, 0.0], gamma=[0.0, 1.0, 0.0], r=1.0)
        b = propagate(m, [0.1, 0.2, 0.3], [1e100, 1e200, 1e300])
        assert np.max(np.abs(b - [0.0, 0.0, -1.0])) <= 1e-12

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
        # aligned models: -e at 0 degrees and +e at 180 are fixed points;
        # e^{-mu tau} underflows at 1e6.  A tilt of sin(180 degrees) =
        # 1.2e-16 sent +e to (0, 0, 1) at r = 0.5 and to -e at r = 2
        for r, theta, b0 in ((0.25, 0.0, [-1.0, 0.0, 0.0]),
                             (0.5, 180.0, [1.0, 0.0, 0.0]),
                             (2.0, 180.0, [1.0, 0.0, 0.0])):
            m = QubitModel.from_angle(r, theta, degrees=True)
            b = propagate(m, b0, [0.0, 1.0, 1e2, 1e3, 1e6])
            assert np.allclose(b, b0, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("r, theta, b0", [
        (0.85, 90.0, [0.0, 0.0, 1.0]), (2.5, 37.0, [0.3, -0.2, 0.1]),
        (0.25, 180.0, [-0.6, 0.0, 0.8]), (1.0, 90.0, [0.0, 0.0, 0.0])])
    def test_any_split_of_the_times_is_bit_identical(self, r, theta, b0):
        # each row's bits are its own: blocks of 1, 7 and 4,096 rows give
        # what one call over 2 * 4,096 + 100 unsorted times gives
        m = QubitModel.from_angle(r, theta, degrees=True)
        taus = np.random.default_rng(3).uniform(0.0, 200.0, 8292)
        whole = propagate(m, b0, taus)
        for size, stride in ((1, 37), (7, 7), (4096, 4096)):
            for start in range(0, taus.size, stride):
                part = propagate(m, b0, taus[start:start + size])
                assert np.array_equal(part, whole[start:start + size])

    def test_decay_past_exp_range_is_the_asymptote(self):
        # Re(mu tau) = 5e249 puts x = 0 while the phase overflows; the
        # state is the limit, not b0
        m = QubitModel.from_angle(1e-100, 60.0, degrees=True)
        b0 = [0.6, 0.0, 0.8]
        b = propagate(m, b0, [1e3, 1e250])
        assert np.max(np.abs(b - evolve_to_asymptote(m, b0))) <= 1e-12

    @pytest.mark.parametrize("r, theta", [(1e-100, 90.0), (5e-324, 60.0)])
    def test_overflowing_phase_is_named(self, r, theta):
        # at 90 degrees Re mu = 0, so only the phase tau/r grows; a
        # subnormal r has an infinite rate
        m = QubitModel.from_angle(r, theta, degrees=True)
        with pytest.raises(OverflowError, match=f"r = {r!r}, tau = "):
            propagate(m, [0.6, 0.0, 0.8], [1e3, 1e250])

    def test_rejects_bad_times_and_b0(self):
        m = perp_model(0.5)
        for taus in ([-1.0], [np.inf], [np.nan], [[1.0, 2.0]]):
            with pytest.raises(ValueError):
                propagate(m, np.zeros(3), taus)
        with pytest.raises(ValueError):
            propagate(m, [0.0, 0.0, 1.1], [1.0])
