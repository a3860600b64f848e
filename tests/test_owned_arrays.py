"""Frozen value types own the arrays they checked: a later write by the
caller to the array it passed in leaves the value as it was checked, and
the value's own arrays are read-only.  Arrays that functions return to
callers stay writable."""

import numpy as np
import pytest

from cuq.analytic import (AsymptoticBranch, AsymptoticState,
                          asymptotic_state)
from cuq.core import (BlochState, DensityMatrix, QubitModel,
                      bloch_derivative, density_from_bloch)
from cuq.fit import (AsymmetryDataset, FitResult, design_matrix,
                     fit_fourier_modes, synthesize_dataset)
from cuq.fourier import FourierSpectrum, SeriesKind, quadrature_spectrum
from cuq.integrate import evolve_to_asymptote, propagate


def _assert_read_only(a):
    with pytest.raises(ValueError, match="read-only"):
        a[0] = 0.0


def test_bloch_state_keeps_the_checked_vector():
    v = np.array([0.6, 0.0, 0.8])
    s = BlochState(v)
    v[0] = 5.0
    np.testing.assert_array_equal(s.b, [0.6, 0.0, 0.8])
    _assert_read_only(s.b)


def test_qubit_model_keeps_unit_directions():
    e, g = np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    m = QubitModel(e, g, 0.5)
    e[0], g[1] = 3.0, -7.0
    np.testing.assert_array_equal(m.e, [1.0, 0.0, 0.0])
    np.testing.assert_array_equal(m.gamma, [0.0, 1.0, 0.0])
    for a in (m.e, m.gamma, m.e_cross_gamma):
        _assert_read_only(a)


def test_density_matrix_keeps_its_entries():
    rho = np.array([[0.75, 0.0], [0.0, 0.25]], dtype=complex)
    d = DensityMatrix(rho)
    rho[0, 0] = 9.0
    assert d.entries[0, 0] == 0.75 and d.purity == 0.625
    _assert_read_only(d.entries)


def test_dataset_keeps_positive_sigma_and_finite_times():
    t, delta, sigma = np.arange(1.0, 5.0), np.zeros(4), np.ones(4)
    data = AsymmetryDataset(t, delta, sigma, omega=1.0)
    sigma[1], t[2], delta[0] = -1.0, np.nan, 2.0
    np.testing.assert_array_equal(data.sigma, np.ones(4))
    np.testing.assert_array_equal(data.t, np.arange(1.0, 5.0))
    np.testing.assert_array_equal(data.delta, np.zeros(4))
    for a in (data.t, data.delta, data.sigma):
        _assert_read_only(a)


def test_spectrum_keeps_its_coefficients():
    c, err = np.array([0.5, 0.25]), np.array([0.1, 0.1])
    spec = FourierSpectrum(0.0, c, SeriesKind.EVEN, coeff_errs=err)
    c[0], err[1] = 7.0, 7.0
    assert spec.coefficient(1) == 0.5 and spec.coefficient_err(2) == 0.1
    _assert_read_only(spec.coeffs)
    _assert_read_only(spec.coeff_errs)


def test_quadrature_spectrum_owns_its_coefficients():
    spec = quadrature_spectrum(lambda t: np.cos(t), 2.0 * np.pi, 3,
                               SeriesKind.EVEN)
    assert type(spec.d0) is float
    assert spec.coeffs.base is None  # no view that pins the (N+1)-vector
    _assert_read_only(spec.coeffs)


def test_fit_result_keeps_its_coefficients_errors_and_covariance():
    c, err, cov = np.array([0.2, 0.5]), np.array([0.1, 0.2]), np.eye(2)
    fit = FitResult(c, err, cov, chi2=1.0, dof=3, omega=1.0)
    c[0], err[1], cov[0, 0] = 7.0, 1e6, -1.0
    np.testing.assert_array_equal(fit.coefficients, [0.2, 0.5])
    np.testing.assert_array_equal(fit.errors, [0.1, 0.2])
    np.testing.assert_array_equal(fit.covariance, np.eye(2))
    for a in (fit.coefficients, fit.errors, fit.covariance):
        _assert_read_only(a)


def test_fitted_arrays_are_read_only():
    # a write to a fit's errors would move p_values and the spectrum but
    # not chi2 and dof
    fit = fit_fourier_modes(synthesize_dataset(0.3, 1.0, 40, 12.0, 1e-3, 1),
                            2)
    for a in (fit.coefficients, fit.errors, fit.covariance):
        _assert_read_only(a)


def test_asymptotic_state_keeps_its_vector():
    b = np.array([0.6, 0.0, 0.8])
    st = AsymptoticState(b, 0.6, AsymptoticBranch.GENERAL)
    b[0] = 5.0
    np.testing.assert_array_equal(st.b_star, [0.6, 0.0, 0.8])
    _assert_read_only(st.b_star)
    _assert_read_only(asymptotic_state(
        QubitModel.from_angle(2.0, 37.0, degrees=True)).b_star)
    cuq = QubitModel.from_angle(0.5, 90.0, degrees=True)
    assert asymptotic_state(cuq).b_star is None


def test_returned_arrays_stay_writable():
    m = QubitModel.from_angle(2.0, 37.0, degrees=True)
    state = BlochState([0.1, 0.2, 0.3])
    aligned = QubitModel.from_angle(0.95, 180.0, degrees=True)
    data = synthesize_dataset(0.3, 1.0, 40, 12.0, 1e-3, 1)
    for a in (propagate(m, state.b, [0.0, 1.0]), bloch_derivative(state, m),
              density_from_bloch(state).bloch_vector,
              evolve_to_asymptote(m, state.b),
              # the repelling fixed point: the start itself comes back
              evolve_to_asymptote(aligned, aligned.e),
              design_matrix(data.t, data.omega, 2)):
        assert a.flags.writeable
