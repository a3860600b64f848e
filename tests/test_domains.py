"""Every public callable against its row of `tests/domains.py`.

One test puts each parameter in turn at every edge value of the float
range (+-0, the smallest subnormal, 1 +- ulp, 1e16, 1e300, 1.7e308, +-inf,
nan), the others inside their domains; one property draws all of a row's
parameters at once from the edge values and from inside each domain, as
Python floats, `np.float64` and 0-d arrays.  A call with a parameter
outside its domain must raise a ValueError that states that domain.  A
call with every parameter inside must return the declared type with every
float finite, or a declared sentinel; or raise an OverflowError that names
a parameter, or an exception the docs declare.  It must warn nothing and
finish within the deadline.  Imports neither scipy nor mpmath.
"""

import dataclasses
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cuq
from domains import ROWS

EDGES = [0.0, -0.0, 5e-324, -5e-324, 0.5, 1.0, -1.0,
         math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e16, 1e300,
         -1e300, 1.7e308, -1.7e308, math.inf, -math.inf, math.nan]
INT_EDGES = [-1, 0, 1, 2, 3, 64, 65]


def _values(domain):
    if domain.integer:
        return st.sampled_from(INT_EDGES) | st.integers(domain.lo, domain.hi)
    inside = st.floats(domain.lo, domain.hi).filter(domain.holds)
    return st.tuples(st.sampled_from(EDGES) | inside,
                     st.sampled_from([float, np.float64, np.asarray])
                     ).map(lambda v: v[1](v[0]))


_DRAWS = {row.name: st.fixed_dictionaries(
    {name: _values(domain) for name, domain in row.params.items()})
    for row in ROWS}


def _leaves(value, name, fields=()):
    """(field name, value) of every number, array or sentinel in a result."""
    if dataclasses.is_dataclass(value):
        for f in dataclasses.fields(value):
            yield from _leaves(getattr(value, f.name), f.name)
    elif isinstance(value, (tuple, list)):
        for i, item in enumerate(value):
            yield from _leaves(item, fields[i] if fields else name)
    else:
        yield name, value


# The DP5 oracle has no row: its work has no cap, so an edge tau_end of
# 1e300 on a CUQ model would never return.
_NO_ROW = {"evolve", "Trajectory"}


def _public_callables(module):
    """The callables of the module's `__all__`, or, with none, those it
    defines, but for exception classes."""
    names = getattr(module, "__all__", None) or [
        n for n, v in vars(module).items()
        if not n.startswith("_") and getattr(v, "__module__", None)
        == module.__name__]
    values = {n: getattr(module, n) for n in names}
    return [n for n, v in values.items() if callable(v) and not (
        isinstance(v, type) and issubclass(v, Exception))]


def test_every_public_callable_has_one_row():
    public = sorted(n for module in (cuq.analytic, cuq.core, cuq.fit,
                                     cuq.fourier, cuq.integrate, cuq.meson)
                    for n in _public_callables(module) if n not in _NO_ROW)
    assert sorted(row.name for row in ROWS) == public


def _keeps_contract(row, kwargs):
    outside = [d for n, d in row.params.items() if not d.holds(kwargs[n])]
    names = {n for d in row.params.values() for n in d.names}
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            result = row.call(**kwargs)
        except (ValueError, OverflowError, *row.raises) as exc:
            # a draw outside a domain ends in that domain's ValueError alone
            if outside:
                assert isinstance(exc, ValueError) and any(
                    str(exc).startswith(m)
                    for d in outside for m in d.messages), (kwargs, exc)
            elif isinstance(exc, OverflowError):
                assert any(re.search(rf"(?<!\w){re.escape(n)}(?!\w)", str(exc))
                           for n in names), (kwargs, exc)
            else:
                assert isinstance(exc, row.raises), (kwargs, exc)
            return
    assert not outside, f"accepted {kwargs}, outside its domain"
    assert isinstance(result, row.returns), kwargs
    for name, leaf in _leaves(result, "", row.fields):
        if name in row.sentinels:
            continue
        if leaf is cuq.NON_CONVERGENT:
            assert "NON_CONVERGENT" in row.sentinels, kwargs
        elif isinstance(leaf, (float, np.ndarray, np.floating)):
            assert np.isfinite(leaf).all(), (kwargs, name, leaf)


_ROWS = pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])


@_ROWS
def test_each_parameter_keeps_the_contract_at_every_edge(row):
    # the other parameters at the first of 1, 0.5 and 0 inside their domain
    inside = {name: (int if d.integer else float)(
        next(x for x in (1.0, 0.5, 0.0) if d.holds(x)))
        for name, d in row.params.items()}
    _keeps_contract(row, inside)
    for name, domain in row.params.items():
        for value in INT_EDGES if domain.integer else EDGES:
            _keeps_contract(row, inside | {name: value})


@_ROWS
# derandomized, so the same draws run every time
@settings(max_examples=40, deadline=1000, derandomize=True)
@given(data=st.data())
def test_a_call_keeps_its_contract_at_any_input(row, data):
    _keeps_contract(row, data.draw(_DRAWS[row.name]))


_T = np.linspace(0.0, 10.0, 20, endpoint=False)
_SUBNORMAL_PERIODS = [5e-324, 1e-322, 1e-314, 1e-312]


def _cosine_spectrum(P, N):
    """The even spectrum of cos(2 pi t/P): d0 = 0, c_1 = 1, c_n = 0."""
    return cuq.quadrature_spectrum(lambda t: math.cos(2.0 * math.pi * (t / P)),
                                   P, N, cuq.SeriesKind.EVEN)


def _fit(amplitude, sigma):
    return cuq.fit_fourier_modes(cuq.AsymmetryDataset(
        _T, amplitude * np.cos(_T), np.full(20, sigma), 1.0), 2)


@pytest.mark.parametrize("call, exc, match", [
    # numpy's overflow warning in sin(phi)/|b|, and a d phi/dtau of -inf
    (lambda: cuq.polar_rates(5e-324, 0.5, 0.5), OverflowError,
     r"d phi/dtau overflows at r = 0\.5, \|b\| = 5e-324"),
    (lambda: cuq.polar_rates(0.5, 0.5, 5e-324), OverflowError,
     r"d phi/dtau overflows at r = 5e-324, \|b\| = 0\.5"),
    # the noise product warned
    (lambda: cuq.synthesize_dataset(0.5, 1.0, 20, 10.0, 1e308, 0),
     OverflowError, r"noise overflows at noise_sigma up to 1e\+308"),
    # delta/sigma and the residual sum warned before the errors' check
    (lambda: _fit(1e300, 5e-324), OverflowError, "a standard error"),
    (lambda: _fit(1.7e308, 5e-324), OverflowError, "a standard error"),
    # the residual sum warned, and chi2 came back inf
    (lambda: _fit(1e300, 1.0), OverflowError,
     r"chi2 overflows at sigma down to 1, \|delta\| up to 1e\+300"),
    (lambda: _fit(1.7e308, 1.0), OverflowError, "chi2 overflows"),
    # R^2 and r_hat^2 both underflowed: 0/0 in the chained error
    (lambda: cuq.estimate_r(cuq.FitResult([1.0, 0.5, 0.0], [0.01] * 3,
                                          np.eye(3), 1.0, 5, 1.0), 1e-200),
     None, None),
    # numpy arithmetic on a 0-d array r or a numpy |E| or error warned
    (lambda: cuq.asymptotic_state(cuq.QubitModel.from_angle(
        np.asarray(5e-324), 0.0, degrees=True)), None, None),
    (lambda: cuq.observables_from_bloch(cuq.BlochParameters(
        1e16, 0.0, np.float64(1e300))), OverflowError, r"\|E\| = 1e\+300"),
    (lambda: cuq.anharmonicity(cuq.FourierSpectrum(
        1e-37, [1e-38], cuq.SeriesKind.EVEN, np.float64(1e300), [0.0]), 0),
     None, None),
    # e/r warned, and the field came back inf
    (lambda: cuq.bloch_derivative(cuq.BlochState([0.1, 0.2, 0.3]),
                                  cuq.QubitModel.from_angle(
                                      5e-324, 90.0, degrees=True)),
     OverflowError, "db/dtau overflows at r = 5e-324"),
    # a norm past the float range warned
    (lambda: cuq.QubitModel([1e300, 0.0, 0.0], [0.0, 1.0, 0.0], 0.5),
     ValueError, "e must be a unit vector"),
    # inf - inf warned in the Hermitian test, and nan entries were accepted
    (lambda: cuq.DensityMatrix(np.diag([math.inf, 0.0])), ValueError,
     "entries must be finite"),
    (lambda: cuq.DensityMatrix([[0.5, math.nan], [math.nan, 0.5]]),
     ValueError, "entries must be finite"),
    # m - m^dagger overflowed in the Hermitian test
    (lambda: cuq.DensityMatrix([[0.5, 1e308], [-1e308, 0.5]]), ValueError,
     "entries must be Hermitian"),
    # nodes P_hat/M apart rounded together: c_1 was 1.0 to 2.5e-11 off
    *[(lambda P=P: _cosine_spectrum(P, 3), ValueError, "P_hat must be")
      for P in _SUBNORMAL_PERIODS],
    # numpy's own messages named neither parameter
    (lambda: cuq.synthesize_dataset(0.5, 1.0, -1, 10.0, 0.0, 0), ValueError,
     "n_points must be >= 0"),
    (lambda: cuq.synthesize_dataset(0.5, 1.0, 20, 10.0, 0.0, -1), ValueError,
     "seed must be >= 0"),
], ids=["polar_rates-b", "polar_rates-r", "synthesize-noise",
        "fit-1e300-subnormal-sigma", "fit-1.7e308-subnormal-sigma",
        "fit-1e300", "fit-1.7e308", "estimate_r-tiny-R",
        "asymptotic_state-0d-r", "observables-numpy-E",
        "anharmonicity-numpy-error", "bloch_derivative-subnormal-r",
        "model-huge-e", "density-inf", "density-nan", "density-huge",
        *[f"quadrature-P{P!r}" for P in _SUBNORMAL_PERIODS],
        "synthesize-n_points", "synthesize-seed"])
def test_a_mended_hole_warns_nothing(call, exc, match):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if exc is None:
            call()
        else:
            with pytest.raises(exc, match=match):
                call()


def test_polar_rates_keep_the_bits_of_the_numpy_form():
    rng = np.random.default_rng(3)
    for b, phi, r in rng.uniform([0.01, -10.0, 0.01], [1.0, 10.0, 5.0],
                                 (500, 3)).tolist():
        assert cuq.polar_rates(b, phi, r) == (
            float((1.0 - b * b) * np.cos(np.asarray(phi))),
            float(-1.0 / r - np.sin(np.asarray(phi)) / b))


def test_a_subnormal_period_gives_the_signals_spectrum_or_an_error():
    P = 5e-324
    try:
        spec = _cosine_spectrum(P, 3)
    except (ValueError, cuq.fourier.QuadratureNotConverged):
        return
    assert (spec.d0, spec.coefficient(1)) == pytest.approx((0.0, 1.0))


@pytest.mark.parametrize("N", [0, 3, 64])
def test_the_smallest_normal_period_gives_the_signals_spectrum(N):
    spec = _cosine_spectrum(sys.float_info.min, N)
    want = ([0.0, 1.0] + [0.0] * N)[:N + 1]
    got = [spec.coefficient(n) for n in range(N + 1)]
    assert max(abs(g - w) for g, w in zip(got, want, strict=True)) <= (
        cuq.fourier._TOL)
