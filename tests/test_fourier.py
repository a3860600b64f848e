"""Oscillation spectra: closed forms vs quadrature, ratio inversions."""

import math
import sys
from decimal import Decimal, localcontext

import numpy as np
import pytest

from cuq.analytic import cuq_clock, cuq_projections, half_angle_slope
from cuq.fourier import (AnharmonicityEstimate, FourierSpectrum,
                         QuadratureNotConverged, SeriesKind, _ratio,
                         anharmonicity, closed_form_cn, closed_form_d0,
                         closed_form_spectrum, correct_effective_r,
                         quadrature_spectrum, r_from_anharmonicity)

R_GRID = (0.1, 0.3, 0.5, 0.7, 0.85, 0.95, 0.99)


class TestClosedForms:
    def test_frozen_values(self):
        # [DERIVED] c_n = 2 sqrt(1-r^2)/r q^n, q = (1-sqrt(1-r^2))/r, r=0.85
        assert closed_form_cn(1, 0.85) == pytest.approx(0.690055882747784,
                                                        rel=1e-13)
        assert closed_form_cn(2, 0.85) == pytest.approx(0.3841722237768164,
                                                        rel=1e-13)
        assert closed_form_d0(0.85) == pytest.approx(-0.5567262498321918,
                                                     rel=1e-13)

    def test_small_r_finite(self):
        # the sqrt(1-r^2)/r prefactor and q^n must not underflow/overflow
        for n in (1, 2, 5):
            v = closed_form_cn(n, 1e-8)
            assert np.isfinite(v)
        assert closed_form_cn(1, 1e-8) == pytest.approx(1.0, abs=1e-7)
        # r = 0 is the limit of the leading order r^(n-1)
        assert [closed_form_cn(n, 0.0) for n in (1, 2, 5)] == [1.0, 0.0, 0.0]

    @pytest.mark.parametrize("r", [1.1125369292536007e-308, 8e-309, 5.6e-309])
    def test_prefactor_past_the_float_range(self, r):
        # 2 sqrt(1-r^2)/r overflows below r = 2/DBL_MAX while omega_hat is
        # still finite; c_n = 2 (q/r) q^(n-1) sqrt(1-r^2), c_1 = 1
        assert closed_form_cn(1, r) == 1.0
        assert closed_form_cn(2, r) == pytest.approx(r / 2, rel=1e-15)
        assert closed_form_cn(2 ** 15, r) == 0.0

    def test_geometric_decay(self):
        r = 0.7
        q = (1 - np.sqrt(1 - r * r)) / r
        cs = [closed_form_cn(n, r) for n in range(1, 8)]
        ratios = np.diff(np.log(cs))
        assert np.allclose(np.exp(ratios), q, rtol=1e-12)

    def test_spectrum_container(self):
        spec = closed_form_spectrum(0.85, 4)
        assert spec.kind is SeriesKind.EVEN
        assert spec.order == 4
        assert spec.d0 == pytest.approx(-0.5567262498321918)
        assert spec.coefficient(3) == pytest.approx(closed_form_cn(3, 0.85))
        spec = FourierSpectrum(0.0, [0.5, 0.25], SeriesKind.EVEN,
                               coeff_errs=[0.1, 0.1])
        assert spec.coefficient(1) == 0.5 and spec.coefficient_err(2) == 0.1

    def test_spectrum_rejects_negative_order(self):
        # as quadrature_spectrum does, rather than returning no coefficients
        with pytest.raises(ValueError, match="N must be >= 0"):
            closed_form_spectrum(0.85, -1)

    @pytest.mark.parametrize("field", [
        {"d0": np.inf}, {"d0": np.nan}, {"coeffs": [0.5, np.nan]},
        {"d0_err": np.nan}, {"coeff_errs": [0.1, np.inf]}],
        ids=["d0-inf", "d0-nan", "coeff-nan", "d0_err-nan", "coeff_err-inf"])
    def test_spectrum_rejects_values_that_are_not_finite(self, field):
        values = {"d0": 0.1, "coeffs": [0.5, 0.25], "kind": SeriesKind.EVEN}
        with pytest.raises(ValueError, match="must be finite"):
            FourierSpectrum(**(values | field))


class TestQuadrature:
    @pytest.mark.parametrize("r", R_GRID)
    def test_matches_closed_forms(self, r):
        # [DERIVED] oracle: adaptive quadrature of the analytic projections
        P = cuq_clock(r).P_hat
        odd = quadrature_spectrum(lambda t: cuq_projections(t, r)[0], P, 10,
                                  SeriesKind.ODD)
        even = quadrature_spectrum(lambda t: cuq_projections(t, r)[1], P, 10,
                                   SeriesKind.EVEN)
        for n in range(1, 11):
            ref = closed_form_cn(n, r)
            assert odd.coefficient(n) == pytest.approx(ref, abs=1e-8)
            assert even.coefficient(n) == pytest.approx(ref, abs=1e-8)
        assert even.d0 == pytest.approx(closed_form_d0(r), abs=1e-8)

    @pytest.mark.parametrize("r", R_GRID)
    def test_trapezoid_rule_reaches_rounding(self, r):
        # one sample set serves every coefficient; refinement only adds
        # midpoints, so no time is sampled twice
        P = cuq_clock(r).P_hat
        for kind, component in ((SeriesKind.ODD, 0), (SeriesKind.EVEN, 1)):
            times = []

            def signal(t):
                times.append(t)
                return cuq_projections(t, r)[component]

            spec = quadrature_spectrum(signal, P, 64, kind)
            ref = [closed_form_cn(n, r) for n in range(1, 65)]
            assert np.max(np.abs(spec.coeffs - ref)) < 1e-12
            if kind is SeriesKind.EVEN:
                assert spec.d0 == pytest.approx(closed_form_d0(r), abs=1e-12)
            assert len(set(times)) == len(times)

    def test_non_smooth_signal_does_not_converge(self):
        # a kinked signal converges only algebraically: past 2^16 nodes the
        # rule gives up instead of returning an unconverged spectrum
        with pytest.raises(QuadratureNotConverged):
            quadrature_spectrum(abs, 2.0, 3, SeriesKind.EVEN)

    def test_rejects_aperiodic_signal(self):
        with pytest.raises(ValueError):
            quadrature_spectrum(lambda t: t, 2.0, 3, SeriesKind.EVEN)

    def test_rejects_a_signal_that_is_not_finite_at_the_end(self):
        # t = P_hat/2 is sampled only for the periodicity test
        def signal(t):
            return np.nan if t >= np.pi else np.cos(t)

        with pytest.raises(ValueError, match="endpoint mismatch nan"):
            quadrature_spectrum(signal, 2 * np.pi, 3, SeriesKind.EVEN)

    def test_rejects_excessive_order(self):
        with pytest.raises(ValueError):
            quadrature_spectrum(np.cos, 2 * np.pi, 65, SeriesKind.EVEN)

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            quadrature_spectrum(np.cos, 2 * np.pi, -1, SeriesKind.EVEN)

    @pytest.mark.parametrize("P_hat", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_rejects_a_period_that_is_not_finite_and_positive(self, P_hat):
        with pytest.raises(ValueError,
                           match="P_hat must be positive and finite"):
            quadrature_spectrum(np.cos, P_hat, 3, SeriesKind.EVEN)

    @pytest.mark.parametrize("bad, calls", [
        (lambda t: True, 64),            # the first 64 nodes
        (lambda t: 0.01 < t < 0.05, 129),  # only the first midpoints
    ], ids=["first-nodes", "first-midpoints"])
    def test_stops_at_the_first_samples_that_are_not_finite(self, bad, calls):
        times = []

        def signal(t):
            times.append(t)
            return np.nan if bad(t) else np.cos(t)

        with pytest.raises(ValueError, match="signal is not finite"):
            quadrature_spectrum(signal, 2 * np.pi, 3, SeriesKind.EVEN)
        assert len(times) == calls  # not the 2^16 nodes of the whole budget

    @pytest.mark.parametrize("P_hat", [2.0 * np.pi, np.float64(2.0 * np.pi)],
                             ids=["float", "float64"])
    def test_signal_receives_one_python_float_at_a_time(self, P_hat):
        # the nodes, the midpoints and the periodicity endpoint alike
        types = []

        def signal(t):
            types.append(type(t))
            return np.cos(t)

        quadrature_spectrum(signal, P_hat, 3, SeriesKind.EVEN)
        assert len(types) > 64 and set(types) == {float}

    @pytest.mark.parametrize("r", [1e-6, 0.3, 0.85, 0.99])
    def test_projection_samples_are_floats_with_the_array_calls_bits(self, r):
        # a float tau goes through libm's cos and sin, an array through
        # numpy's: both round alike, on whatever CPU runs this, at taus from
        # 1e-12 to far past one period and on either side of zero
        rng = np.random.default_rng(39)
        taus = (rng.choice([-1.0, 1.0], 300)
                * 10.0 ** rng.uniform(-12.0, 12.0, 300)).tolist()
        array = cuq_projections(np.array(taus), r)
        for i, tau in enumerate(taus):
            scalar = cuq_projections(tau, r)
            for s, a in zip(scalar, array):
                assert type(s) is float
                assert np.float64(s).tobytes() == a[i].tobytes()
        samples = []

        def signal(t):
            samples.append(cuq_projections(t, r)[1])
            return samples[-1]

        quadrature_spectrum(signal, cuq_clock(r).P_hat, 3, SeriesKind.EVEN)
        assert len(samples) > 64 and set(map(type, samples)) == {float}

    def test_quadrature_spectrum_owns_its_coefficients(self):
        spec = quadrature_spectrum(lambda t: np.cos(t), 2.0 * np.pi, 3,
                                   SeriesKind.EVEN)
        assert type(spec.d0) is float
        assert spec.coeffs.base is None  # no view that pins the (N+1)-vector
        assert not spec.coeffs.flags.writeable


class TestAnharmonicity:
    def test_frozen_d0_ratio(self):
        # D_0 = d_1/d_0 = -2 sqrt(1-r^2)/r exactly
        spec = closed_form_spectrum(0.85, 3)
        est = anharmonicity(spec, 0)
        assert est.ratio == pytest.approx(-1.2394886768062048, rel=1e-13)

    @pytest.mark.parametrize("r", R_GRID)
    def test_roundtrip_higher_ratios(self, r):
        # C_n = c_{n+1}/c_n = q inverts through r = 2 rho/(rho^2+1)
        spec = closed_form_spectrum(r, 5)
        for n in (1, 2, 3):
            est = anharmonicity(spec, n)
            r_hat, r_err = r_from_anharmonicity(est)
            assert r_hat == pytest.approx(r, abs=1e-12)
            assert r_err == 0.0

    @pytest.mark.parametrize("r", R_GRID)
    def test_roundtrip_d0(self, r):
        est = anharmonicity(closed_form_spectrum(r, 2), 0)
        r_hat, _ = r_from_anharmonicity(est)
        assert r_hat == pytest.approx(r, abs=1e-12)

    def test_error_propagation(self):
        # delta-method: d r / d rho at rho = q through 2 rho/(rho^2+1)
        r = 0.85
        q = (1 - np.sqrt(1 - r * r)) / r
        spec = closed_form_spectrum(r, 3)
        num, den = spec.coefficient(2), spec.coefficient(1)
        err = 0.01
        noisy = type(spec)(d0=spec.d0, coeffs=spec.coeffs, kind=spec.kind,
                           d0_err=0.0,
                           coeff_errs=np.array([err, err, err]))
        est = anharmonicity(noisy, 1)
        expect_ratio_err = np.hypot(err / den, num * err / den ** 2)
        assert est.ratio_err == pytest.approx(expect_ratio_err, rel=1e-12)
        _, r_err = r_from_anharmonicity(est)
        drdq = 2 * (1 - q * q) / (q * q + 1) ** 2
        assert r_err == pytest.approx(abs(drdq) * expect_ratio_err, rel=1e-12)

    def test_error_at_turning_point_is_second_order(self):
        # dr/drho = 0 at rho = 1 on the C_n branch: the error comes from
        # |r''| sigma^2 / 2 with r'' = -1 there, not from the first order
        est = AnharmonicityEstimate(1.0, 0.1, 1, SeriesKind.ODD)
        _, r_err = r_from_anharmonicity(est)
        assert r_err == pytest.approx(0.005, rel=1e-12)

    @pytest.mark.parametrize("ratio, ratio_err, n, kind, r_err", [
        (np.inf, 0.0, 0, SeriesKind.EVEN, 0.0),
        (-np.inf, 0.0, 0, SeriesKind.EVEN, 0.0),
        (np.inf, 0.1, 0, SeriesKind.EVEN, np.nan),
        (np.inf, 0.0, 1, SeriesKind.ODD, np.nan),
    ])
    def test_infinite_ratio_is_r_zero(self, ratio, ratio_err, n, kind, r_err):
        # |ratio| = inf is the r -> 0 limit of both inversions; only an
        # exact D_0 has an exact error there
        est = AnharmonicityEstimate(ratio, ratio_err, n, kind)
        np.testing.assert_equal(r_from_anharmonicity(est), (0.0, r_err))

    def test_unreliable_when_denominator_drowns(self):
        spec = closed_form_spectrum(0.85, 3)
        noisy = type(spec)(d0=spec.d0, coeffs=spec.coeffs, kind=spec.kind,
                           d0_err=0.0,
                           coeff_errs=np.array([10.0, 0.1, 0.1]))
        assert not anharmonicity(noisy, 1).reliable


class TestEffectiveR:
    def test_pure_amplitude_is_identity(self):
        assert correct_effective_r(0.6, 1.0) == pytest.approx(0.6, rel=1e-14)

    @pytest.mark.parametrize("r", [0.85, 0.7])
    def test_mixed_start_square_law(self, r):
        # from the fully mixed state the measured ratio is r^2 and the
        # projection amplitude is r/sqrt(1+r^2)
        R = r / np.sqrt(1 + r * r)
        assert correct_effective_r(r * r, R) == pytest.approx(r, rel=1e-12)

    def test_formula(self):
        r_t, R = 0.3, 0.6
        expect = r_t / np.sqrt(R * R + r_t * r_t * (1 - R * R))
        assert correct_effective_r(r_t, R) == pytest.approx(expect, rel=1e-14)

    @pytest.mark.parametrize("r_t, R, want", [
        (1e-200, 1e-200, 2 ** -0.5), (0.0, 1e-200, 0.0),
        (1e-300, 1e-197, 1e-103)])
    def test_tiny_amplitude_squares_nothing_to_zero(self, r_t, R, want):
        # R^2 and r~^2 underflow past 1.5e-154; the scaled form keeps r
        assert correct_effective_r(r_t, R) == pytest.approx(want, rel=1e-15)

    def test_keeps_the_bits_of_the_plain_form(self):
        rng = np.random.default_rng(5)
        for r_t, R in rng.uniform(1e-3, 1.0, (2000, 2)).tolist():
            plain = r_t / np.sqrt(R ** 2 + r_t ** 2 * (1.0 - R ** 2))
            assert correct_effective_r(r_t, R) == plain

    def test_corrected_error_is_the_chained_slope(self):
        # a C_n ratio's r_err, corrected for R, against the 40-digit
        # r_err R^2 / (R^2 + r~^2 (1 - R^2))^(3/2), for r~ and R log-uniform
        # down to 1e-300, where R^2 and r~^2 underflow too.  Bounded where
        # the error is normal (above 16 times the smallest normal, so its
        # product before the division by D^(3/2) >= (3/16)^(3/2) is too)
        # and neither square of the scaled pair is subnormal
        rng = np.random.default_rng(40)
        draws = 10.0 ** rng.uniform((-300, -300, -10), (0, 0, -1), (4000, 3))
        worst, checked, both_tiny = 0.0, 0, 0
        for r_t, R, rel in draws.tolist():
            rho = half_angle_slope(r_t)  # the C_n ratio that inverts to r~
            plain, est = (_ratio(rho, 1.0, rho * rel, 0.0, SeriesKind.ODD, 1,
                                 amplitude) for amplitude in (None, R))
            r_t, r_err = min(plain.r_hat, 1.0), plain.r_err
            assert est.r_hat == correct_effective_r(r_t, R)
            h = -math.frexp(max(r_t, R))[1]
            if (not 2.0 ** -1018 <= est.r_err < math.inf
                    or min(math.ldexp(r_t, h), math.ldexp(R, h)) ** 2
                    < sys.float_info.min):
                continue
            with localcontext(prec=40):
                R2, t2 = Decimal(R) ** 2, Decimal(r_t) ** 2
                want = Decimal(r_err) * R2 / (R2 + t2 * (1 - R2)) ** (
                    Decimal(3) / 2)
                worst = max(worst, float(abs(Decimal(est.r_err) / want - 1)))
            checked += 1
            both_tiny += max(r_t, R) < 1e-154
        assert checked > 1000 and both_tiny > 100
        assert worst <= 3 * sys.float_info.epsilon, worst / 2 ** -52
