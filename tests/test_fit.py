"""Data layer and Fourier-mode regression."""

import dataclasses
import math
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats
from scipy.special import stdtr

from cuq._base import _BLOCK_ROWS
from cuq.analytic import restore_units
from cuq.fit import (AsymmetryDataset, DatasetFormatError, FitResult,
                     RankDeficientDesign, _csv_blocks, design_matrix,
                     estimate_r, fit_fourier_modes, fit_result_to_json,
                     load_dataset, save_dataset, synthesize_dataset)
from cuq.fourier import (anharmonicity, closed_form_cn, closed_form_d0,
                         correct_effective_r)

EPS = np.finfo(float).eps
R_REF = 0.85
P_REF, OMEGA_REF = restore_units(R_REF, 1.0)


def reference_dataset(noise=0.0, seed=0, n=120, periods=3):
    return synthesize_dataset(r=R_REF, E_mag=1.0, n_points=n,
                              t_max=periods * P_REF, noise_sigma=noise,
                              seed=seed)


class TestDatasetIO:
    def test_roundtrip_bit_identical(self, tmp_path):
        # 50,000 rows span several formatting blocks
        ds = reference_dataset(noise=0.05, seed=3, n=50_000)
        p = tmp_path / "a.csv"
        save_dataset(ds, p)
        back = load_dataset(p, omega=ds.omega)
        assert np.array_equal(back.t, ds.t)
        assert np.array_equal(back.delta, ds.delta)
        assert np.array_equal(back.sigma, ds.sigma)

    def test_csv_text_is_repr_over_blocks(self):
        n = 2 * _BLOCK_ROWS + 3
        ints = np.arange(n) - 7
        x = np.resize([-0.0, 5e-324, 1e300, np.nan, -np.inf, 0.1], n)
        y = np.random.default_rng(0).standard_normal(n)
        chunks = list(_csv_blocks({"n": ints, "x": x, "y": y}))
        assert len(chunks) == 4  # the header and three blocks
        ref = "n,x,y\n" + "".join(f"{int(i)},{float(a)!r},{float(b)!r}\n"
                                  for i, a, b in zip(ints, x, y))
        # lists, not strings: pytest diffs long strings line by line, slowly
        assert "".join(chunks).split("\n") == ref.split("\n")

    def test_rejects_wrong_header(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("time,delta,err\n0,0,1\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(p, omega=1.0)

    def test_rejects_malformed_row_with_line_number(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t_ps,asymmetry,sigma\n0.0,0.1,0.2\n1.0,oops,0.2\n")
        with pytest.raises(DatasetFormatError, match=":3"):
            load_dataset(p, omega=1.0)

    def test_rejects_zero_sigma(self, tmp_path):
        p = tmp_path / "a.csv"
        p.write_text("t_ps,asymmetry,sigma\n0.0,0.1,0.0\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(p, omega=1.0)

    @pytest.mark.parametrize("row", ["1.0,nan,0.2", "inf,0.1,0.2",
                                     "1.0,0.1,inf"])
    def test_rejects_non_finite_value_with_line_number(self, tmp_path, row):
        p = tmp_path / "a.csv"
        p.write_text(f"t_ps,asymmetry,sigma\n0.0,0.1,0.2\n{row}\n")
        with pytest.raises(DatasetFormatError, match=":3"):
            load_dataset(p, omega=1.0)

    def test_rejects_non_monotone_time(self, tmp_path):
        # the first bad line is reported, not the later malformed one
        p = tmp_path / "a.csv"
        p.write_text("t_ps,asymmetry,sigma\n1.0,0.1,0.2\n0.5,0.1,0.2\n"
                     "2.0,oops,0.2\n")
        with pytest.raises(DatasetFormatError,
                           match=":3: time not increasing"):
            load_dataset(p, omega=1.0)

    def test_zero_row_roundtrip(self, tmp_path):
        p = tmp_path / "a.csv"
        save_dataset(AsymmetryDataset(t=[], delta=[], sigma=[], omega=1.0), p)
        assert p.read_text() == "t_ps,asymmetry,sigma\n"
        back = load_dataset(p, omega=1.0)
        assert len(back) == 0 and back.t.shape == (0,)

    def test_comments_and_label(self, tmp_path):
        p = tmp_path / "named.csv"
        p.write_text("# preamble\nt_ps,asymmetry,sigma\n0.0,0.1,0.2\n"
                     "1.0,0.0,0.2\n")
        ds = load_dataset(p, omega=2.0)
        assert ds.label == "named"
        assert len(ds) == 2


class TestRegression:
    def test_pure_cosine_recovery(self):
        t = np.linspace(0.0, 6 * np.pi, 90, endpoint=False)
        delta = 0.2 + 0.5 * np.cos(t) - 0.1 * np.cos(2 * t)
        ds = AsymmetryDataset(t=t, delta=delta, sigma=np.full(90, 1e-3),
                              omega=1.0)
        fit = fit_fourier_modes(ds, 2)
        assert np.allclose(fit.coefficients, [0.2, 0.5, -0.1], atol=1e-12)
        assert fit.dof == 87

    def test_noiseless_cuq_modes(self):
        # [DERIVED] the asymmetry of the pure perpendicular solution carries
        # the closed-form cosine coefficients
        fit = fit_fourier_modes(reference_dataset(), 4)
        assert fit.coefficients[0] == pytest.approx(closed_form_d0(R_REF),
                                                    abs=1e-6)
        for n in (1, 2, 3):
            assert fit.coefficients[n] == pytest.approx(
                closed_form_cn(n, R_REF), abs=1e-6)

    def test_residual_orthogonality(self):
        # weighted residuals are orthogonal to the design columns
        ds = reference_dataset(noise=0.05, seed=9)
        fit = fit_fourier_modes(ds, 3)
        ns = np.arange(4)
        X = np.cos(np.outer(ds.t, ns) * ds.omega) / ds.sigma[:, None]
        resid = (ds.delta - np.cos(np.outer(ds.t, ns) * ds.omega)
                 @ fit.coefficients) / ds.sigma
        assert np.max(np.abs(X.T @ resid)) < 1e-8

    @pytest.mark.parametrize("omega", [math.nan, math.inf, -math.inf])
    def test_design_matrix_rejects_an_omega_that_is_not_finite(self, omega):
        # tests/domains.py matches the start of the message; this holds
        # `_check`'s ", got {value}" to the value given
        with pytest.raises(ValueError, match=f"omega must be finite, "
                                             f"got {omega}"):
            design_matrix(np.arange(4.0), omega, 2)

    def test_rank_deficiency_detected(self):
        t = np.linspace(0.0, 0.001, 10)  # no oscillation resolved
        ds = AsymmetryDataset(t=t, delta=np.zeros(10), sigma=np.ones(10),
                              omega=1.0)
        with pytest.raises(RankDeficientDesign):
            fit_fourier_modes(ds, 4)

    def test_needs_positive_dof(self):
        t = np.linspace(0.0, 5.0, 3)
        ds = AsymmetryDataset(t=t, delta=np.zeros(3), sigma=np.ones(3),
                              omega=1.0)
        with pytest.raises(ValueError):
            fit_fourier_modes(ds, 3)

    def test_pvalues_flag_real_modes(self):
        ds = reference_dataset(noise=0.02, seed=21)
        fit = fit_fourier_modes(ds, 3)
        # d0, d1, d2 are far from zero; each p-value is tiny
        assert np.all(fit.p_values[:3] < 1e-6)

    def test_pvalue_of_absent_mode_is_large(self):
        rng = np.random.default_rng(5)
        t = np.linspace(0.0, 6 * np.pi, 120, endpoint=False)
        delta = 0.4 * np.cos(t) + rng.standard_normal(120) * 0.05
        ds = AsymmetryDataset(t=t, delta=delta, sigma=np.full(120, 0.05),
                              omega=1.0)
        fit = fit_fourier_modes(ds, 2)
        assert fit.p_values[2] > 0.01

    def test_null_pvalues_uniform(self):
        # [DERIVED] with Gaussian noise and a true d_2 = 0 the p-value of
        # d_2 is uniform; KS test over 200 seeds
        t = np.linspace(0.0, 6 * np.pi, 80, endpoint=False)
        pvals = []
        for seed in range(200):
            rng = np.random.default_rng(seed)
            delta = 0.4 * np.cos(t) + rng.standard_normal(80) * 0.05
            ds = AsymmetryDataset(t=t, delta=delta, sigma=np.full(80, 0.05),
                                  omega=1.0)
            pvals.append(fit_fourier_modes(ds, 2).p_values[2])
        assert stats.kstest(pvals, "uniform").pvalue > 0.05

    @pytest.mark.parametrize("dof", [2, 3, 7, 146, 4500, 10 ** 6])
    def test_pvalues_agree_with_scipy(self, dof):
        # scipy.special.stdtr as an independent oracle, where its t^2 stays
        # finite; both are within 4 eps (1 + |ln p|) of the 50-digit
        # reference (tests/test_mp_reference.py)
        t = np.concatenate([[0.0], np.geomspace(1e-3, 40.0, 80),
                            np.geomspace(40.0, 1e150, 80)])
        fit = _stat_fit(np.concatenate([t, -t]), dof)
        want = 2.0 * stdtr(dof, -np.abs(fit.coefficients))
        ok = want > 1e-300
        assert ok.sum() >= 100
        got = fit.p_values
        err = np.abs(got[ok] - want[ok]) / (want[ok] * (1.0 - np.log(want[ok])))
        assert err.max() <= 8.0 * EPS, err.max() / EPS
        assert np.all(got[~ok] < 1e-290)

    def test_pvalues_at_one_dof_are_the_cauchy_closed_form(self):
        # P(|T| >= t) = (2/pi) atan(1/t); scipy is 100 eps off at t = 1e-3
        t = np.geomspace(1e-3, 1e300, 200)
        want = 2.0 / np.pi * np.arctan(1.0 / t)
        err = np.abs(_stat_fit(t, 1).p_values - want) / (
            want * (1.0 - np.log(want)))
        assert err.max() <= 8.0 * EPS, err.max() / EPS

    def test_pvalue_of_zero_error_is_nan_and_infinite_t_is_zero(self):
        fit = _stat_fit(np.array([1.0, np.inf, 0.0]), 5,
                        errors=np.array([0.0, 1.0, 1.0]))
        p = fit.p_values
        assert np.isnan(p[0]) and p[1] == 0.0 and p[2] == 1.0

    def test_pvalues_at_a_million_dof_take_under_10_ms_each(self):
        # t just past 1 needs the deepest continued fraction
        t = np.array([1.0001, 1.05, 1.5, 3.0, 38.0])
        fit = _stat_fit(t, 10 ** 6)
        start = time.perf_counter()
        fit.p_values
        assert (time.perf_counter() - start) / len(t) < 0.01

    def test_unbiased_coefficients(self):
        # mean of d_1 over 200 noisy replicas within 3 standard errors
        vals, errs = [], []
        for seed in range(200):
            fit = fit_fourier_modes(reference_dataset(noise=0.05, seed=seed),
                                    2)
            vals.append(fit.coefficients[1])
            errs.append(fit.errors[1])
        mean_err = np.mean(errs) / np.sqrt(len(vals))
        assert abs(np.mean(vals) - closed_form_cn(1, R_REF)) < 3 * mean_err


def _stat_fit(tstat, dof, errors=None):
    """A FitResult whose coefficients are the given t statistics."""
    errors = np.ones_like(tstat) if errors is None else errors
    return FitResult(coefficients=np.asarray(tstat, dtype=float),
                     errors=errors, covariance=np.diag(errors ** 2),
                     chi2=float(dof), dof=dof, omega=1.0)


class TestREstimation:
    def test_noiseless_recovery(self):
        fit = fit_fourier_modes(reference_dataset(), 3)
        out = estimate_r(fit)
        assert out.has_estimate is True  # a bool, which json.dumps takes
        assert out.weighted_r == pytest.approx(R_REF, abs=1e-5)

    def test_noisy_recovery_within_errors(self):
        hits = 0
        for seed in range(40):
            fit = fit_fourier_modes(reference_dataset(noise=0.03, seed=seed),
                                    3)
            out = estimate_r(fit)
            if abs(out.weighted_r - R_REF) < 3 * out.weighted_r_err:
                hits += 1
        assert hits >= 37

    def test_amplitude_correction_skips_signal_free_ratios(self):
        # zero asymmetry fits d_n = 0 exactly: every ratio is 0/0 and
        # carries no r to correct
        ds = AsymmetryDataset(t=np.arange(60.0), delta=np.zeros(60),
                              sigma=np.full(60, 0.1), omega=1.0)
        out = estimate_r(fit_fourier_modes(ds, 3), 0.9)
        assert not out.has_estimate
        assert all(np.isnan(e.r_hat) for e in out.per_ratio)

    def test_reliable_ratio_with_infinite_r_error_is_not_averaged(self):
        # D_0's denominator is well measured, but its numerator's error
        # makes its ratio error, and so its r error, inf
        fit = FitResult(coefficients=np.array([1e-10, 1e-11, 1e-12]),
                        errors=np.array([1e-12, 1e300, 1e300]),
                        covariance=np.eye(3), chi2=1.0, dof=5, omega=1.0)
        out = estimate_r(fit)
        assert out.per_ratio[0].reliable
        assert out.per_ratio[0].r_err == math.inf
        assert not out.has_estimate
        assert "all ratios unreliable" in out.diagnostics
        # D_1's r error, 2^602 times D_0's, has a scaled square past the
        # float range and weighs below 2^-1024: the average is D_0's alone
        fit = FitResult(coefficients=np.array([1.0, 0.5, 0.25]),
                        errors=np.array([1e-300, 1e-300, 1e-120]),
                        covariance=np.eye(3), chi2=1.0, dof=5, omega=1.0)
        out = estimate_r(fit)
        d0, d1 = out.per_ratio
        assert math.frexp(d1.r_err)[1] - math.frexp(d0.r_err)[1] == 602
        assert (out.weighted_r, out.weighted_r_err) == (d0.r_hat, d0.r_err)

    def test_exact_ratios_give_their_plain_mean(self):
        # error-free closed-form coefficients: every r error is 0, so no
        # ratio can be weighted and the estimate is their plain mean
        r = 0.85
        coeffs = [closed_form_d0(r)] + [closed_form_cn(n, r)
                                        for n in (1, 2, 3)]
        fit = FitResult(coefficients=np.array(coeffs), errors=np.zeros(4),
                        covariance=np.zeros((4, 4)), chi2=0.0, dof=5,
                        omega=1.0)
        out = estimate_r(fit)
        assert all(e.reliable and e.r_err == 0.0 for e in out.per_ratio)
        assert out.weighted_r == np.mean([e.r_hat for e in out.per_ratio])
        assert out.weighted_r == pytest.approx(r, abs=1e-12)
        assert out.weighted_r_err == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.05, 0.9), st.integers(2, 8),
           st.just(0.0) | st.floats(1e-5, 0.05),
           st.integers(0, 2 ** 16), st.none() | st.floats(0.01, 1.0))
    def test_ratios_are_the_spectrums_anharmonicity(self, r, N, noise, seed,
                                                    R):
        # estimate_r reads its ratios off the fit's coefficient lists: field
        # for field they are `anharmonicity` of the fit's spectrum, with the
        # amplitude correction chained onto each finite r
        P, _ = restore_units(r, 1.0)
        fit = fit_fourier_modes(
            synthesize_dataset(r, 1.0, 200, 6 * P, noise, seed), N)
        spec = fit.spectrum()
        out = estimate_r(fit, R)
        assert len(out.per_ratio) == N
        for n, got in enumerate(out.per_ratio):
            want = anharmonicity(spec, n)
            if R is not None and math.isfinite(want.r_hat):
                R2 = R ** 2
                denom = (R2 + want.r_hat ** 2 * (1.0 - R2)) ** 1.5
                want = dataclasses.replace(
                    want, r_hat=correct_effective_r(min(want.r_hat, 1.0), R),
                    r_err=want.r_err * R2 / denom)
            np.testing.assert_equal(dataclasses.astuple(got),
                                    dataclasses.astuple(want))

    @pytest.mark.parametrize("coeffs, errs, match", [
        ([0.5, np.nan, 0.1], [0.1, 0.1, 0.1], "coefficients must be finite"),
        ([0.5, 0.2, 0.1], [np.inf, 0.1, 0.1], "coefficients must be finite"),
        ([0.5, 0.2, 0.1], [0.1, 0.1, np.nan], "errors must be finite"),
    ], ids=["coefficient", "d0-error", "error"])
    def test_rejects_a_fit_that_is_not_finite(self, coeffs, errs, match):
        # FourierSpectrum's check, which estimate_r keeps without building
        # the spectrum on the finite path
        fit = FitResult(coefficients=np.array(coeffs), errors=np.array(errs),
                        covariance=np.eye(3), chi2=1.0, dof=5, omega=1.0)
        with pytest.raises(ValueError, match=match):
            estimate_r(fit)

    def test_diagnostics_when_hopeless(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 6 * np.pi, 40, endpoint=False)
        ds = AsymmetryDataset(t=t, delta=rng.standard_normal(40) * 5.0,
                              sigma=np.full(40, 5.0), omega=1.0)
        out = estimate_r(fit_fourier_modes(ds, 2))
        if not out.has_estimate:
            assert out.diagnostics


class TestSigmaScale:
    @settings(max_examples=40, deadline=None)
    @given(st.floats(1e-3, 1e3), st.integers(0, 2 ** 16))
    def test_common_sigma_factor(self, k, seed):
        # one factor k on every sigma leaves the weighted solution alone,
        # multiplies its errors by k and divides chi2 by k^2
        ds = synthesize_dataset(r=R_REF, E_mag=1.0, n_points=60,
                                t_max=3 * P_REF, seed=seed,
                                noise_sigma=np.linspace(0.01, 0.2, 60))
        scaled = AsymmetryDataset(t=ds.t, delta=ds.delta, sigma=k * ds.sigma,
                                  omega=ds.omega)
        a, b = fit_fourier_modes(ds, 3), fit_fourier_modes(scaled, 3)
        np.testing.assert_allclose(b.coefficients, a.coefficients,
                                   rtol=1e-12, atol=1e-14)
        np.testing.assert_allclose(b.errors, k * a.errors, rtol=1e-12)
        assert b.chi2 == pytest.approx(a.chi2 / k ** 2, rel=1e-12)

    def test_power_of_two_sigma_scales_exactly_until_chi2_overflows(self):
        # sigma 2^-k: the coefficients and weighted r keep their bits, the
        # errors scale by 2^-k and chi2 by 4^k, until chi2 is past the
        # float range, where the fit raises a named OverflowError
        ds = synthesize_dataset(0.3, 1.0, 200, 60.0, 1e-3, 1)
        a = fit_fourier_modes(ds, 2)
        est = estimate_r(a)
        for k in range(0, 1100, 25):
            scaled = AsymmetryDataset(t=ds.t, delta=ds.delta,
                                      sigma=np.ldexp(ds.sigma, -k),
                                      omega=ds.omega)
            if math.frexp(a.chi2)[1] + 2 * k > 1024:  # 4^k chi2 overflows
                with pytest.raises(OverflowError, match="chi2 overflows"):
                    fit_fourier_modes(scaled, 2)
                break
            b = fit_fourier_modes(scaled, 2)
            assert np.array_equal(b.coefficients, a.coefficients)
            assert np.array_equal(b.errors, np.ldexp(a.errors, -k))
            assert b.chi2 == np.ldexp(a.chi2, 2 * k)
            out = estimate_r(b)
            assert out.weighted_r == est.weighted_r, k
            assert out.weighted_r_err == np.ldexp(est.weighted_r_err, -k)
        else:
            pytest.fail("chi2 never overflowed")

    @pytest.mark.parametrize("scale", [1e-170, 2.0 ** -565])
    def test_coefficients_whose_squares_underflow_keep_their_ratios(self,
                                                                    scale):
        # asymmetry and sigma scaled together: each d_n is below 1.5e-162,
        # so d_n^2 is 0, yet the ratios and r are those of the unscaled fit,
        # with the same bits at a power of two
        ds = synthesize_dataset(0.3, 1.0, 200, 60.0, 1e-3, 1)
        tiny = AsymmetryDataset(t=ds.t, delta=scale * ds.delta,
                                sigma=scale * ds.sigma, omega=ds.omega)
        a = estimate_r(fit_fourier_modes(ds, 3))
        b = estimate_r(fit_fourier_modes(tiny, 3))
        exact = math.frexp(scale)[0] == 0.5
        for x, y in zip(b.per_ratio, a.per_ratio):
            for got, want in ((x.ratio, y.ratio), (x.ratio_err, y.ratio_err),
                              (x.r_hat, y.r_hat), (x.r_err, y.r_err)):
                assert got == (want if exact
                               else pytest.approx(want, rel=1e-12))
        assert b.weighted_r == (a.weighted_r if exact
                                else pytest.approx(a.weighted_r, rel=1e-12))

    def test_errors_below_the_normal_range_are_named_overflow(self):
        # zero asymmetry is fit exactly, with chi2 = 0, so only the errors
        # (about 1e-311, subnormal) leave the range
        ds = AsymmetryDataset(t=np.arange(20.0), delta=np.zeros(20),
                              sigma=np.full(20, 1e-310), omega=0.5)
        with pytest.raises(OverflowError, match="standard error"):
            fit_fourier_modes(ds, 2)


class TestSynthesis:
    def test_deterministic(self):
        a = reference_dataset(noise=0.05, seed=11)
        b = reference_dataset(noise=0.05, seed=11)
        assert np.array_equal(a.delta, b.delta)

    def test_noise_schedule(self):
        sched = np.linspace(0.01, 0.2, 30)
        ds = synthesize_dataset(r=0.5, E_mag=1.0, n_points=30, t_max=10.0,
                                noise_sigma=sched, seed=0)
        assert np.array_equal(ds.sigma, sched)

    def test_rejects_overdamped(self):
        with pytest.raises(ValueError):
            synthesize_dataset(r=1.2, E_mag=1.0, n_points=10, t_max=1.0,
                               noise_sigma=0.0, seed=0)

    @pytest.mark.parametrize("t_max", [np.inf, np.nan, 0.0, -1.0])
    def test_rejects_a_t_max_that_is_not_finite_and_positive(self, t_max):
        with pytest.raises(ValueError,
                           match="t_max must be positive and finite"):
            synthesize_dataset(r=0.5, E_mag=1.0, n_points=10, t_max=t_max,
                               noise_sigma=0.0, seed=0)

    @pytest.mark.parametrize("E_mag", [np.inf, -np.inf])
    def test_rejects_an_infinite_E_mag_before_it_computes(self, E_mag):
        with pytest.raises(ValueError,
                           match="E_mag must be positive and finite"):
            synthesize_dataset(r=0.5, E_mag=E_mag, n_points=10, t_max=1.0,
                               noise_sigma=0.0, seed=0)


    @pytest.mark.parametrize("r, E_mag, t_max", [(0.5, 1e200, 1e200),
                                                 (0.999999, 1.5e308, 1.0)])
    def test_overflowing_tau_is_an_overflow_error_naming_it(self, r, E_mag,
                                                            t_max):
        # tau = 2 r |E| t: |Gamma| t_max, then |Gamma| = 2 r |E| itself, is
        # past the float range while restore_units' scale is not
        with pytest.raises(OverflowError, match=re.escape(
                f"r = {r!r}, |E| = {E_mag!r}, t_max = {t_max!r}")):
            synthesize_dataset(r, E_mag, 10, t_max, 0.0, 1)


class TestSerialization:
    def test_json_schema(self):
        import json
        fit = fit_fourier_modes(reference_dataset(noise=0.02, seed=4), 2)
        out = json.loads(fit_result_to_json(fit, estimate_r(fit)))
        assert {"label", "omega", "N", "coefficients", "chi2", "dof",
                "r_estimates", "weighted_r", "weighted_r_err"} <= set(out)
        assert len(out["coefficients"]) == 3
        assert {"n", "value", "error", "p_value"} <= set(
            out["coefficients"][0])
