"""Data layer and Fourier-mode regression."""

import numpy as np
import pytest
from scipy import stats

from cuq.analytic import restore_units
from cuq.fit import (_BLOCK_ROWS, AsymmetryDataset, DatasetFormatError,
                     RankDeficientDesign, _csv_blocks, estimate_r,
                     fit_fourier_modes, fit_result_to_json, load_dataset,
                     save_dataset, synthesize_dataset)
from cuq.fourier import closed_form_cn, closed_form_d0

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
        p = tmp_path / "a.csv"
        p.write_text("t_ps,asymmetry,sigma\n1.0,0.1,0.2\n0.5,0.1,0.2\n")
        with pytest.raises(DatasetFormatError):
            load_dataset(p, omega=1.0)

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


class TestREstimation:
    def test_noiseless_recovery(self):
        fit = fit_fourier_modes(reference_dataset(), 3)
        out = estimate_r(fit)
        assert out.has_estimate
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

    def test_amplitude_correction_consistency(self):
        # raw ratios from a mixed start measure r^2; the amplitude-corrected
        # estimate must return r.  Use the analytic square law directly.
        from cuq.fourier import correct_effective_r
        r = 0.7
        R = r / np.sqrt(1 + r * r)
        assert correct_effective_r(r * r, R) == pytest.approx(r, rel=1e-12)

    def test_diagnostics_when_hopeless(self):
        rng = np.random.default_rng(2)
        t = np.linspace(0.0, 6 * np.pi, 40, endpoint=False)
        ds = AsymmetryDataset(t=t, delta=rng.standard_normal(40) * 5.0,
                              sigma=np.full(40, 5.0), omega=1.0)
        out = estimate_r(fit_fourier_modes(ds, 2))
        if not out.has_estimate:
            assert out.diagnostics


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
