"""The input domains of the public API, in one table.

`ROWS` has one row per public callable of `analytic`, `core`, `fit`,
`fourier`, `integrate` and `meson`, but for their exception classes and
the DP5 oracle (`tests/test_domains.py` names them).  A row draws the
parameters it names, each from its `Domain`, and builds the call from
them: a composite argument (a model, a state, a spectrum, a dataset) is
drawn as the scalars its constructor checks.  A domain is written in the
words of `cuq._base._check`, the one check that every scalar check in the
package is written with: a value outside the domain raises a ValueError
whose message starts with one of the domain's `messages`,
"{name} must be {domain}".  A row's `sentinels` name the result fields
that the docs let be non-finite or absent (an unreliable ratio's inf, a
`weighted_r` of nan, a CUQ's nan `alpha` and `b_star` of None,
`NON_CONVERGENT`), and its `raises` the further exceptions they document.

A data module, not a test module: pytest does not collect it, and it
imports neither scipy nor mpmath, so the tests that run without them can
read it.
"""

from __future__ import annotations

import math
import os
import sys
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

import cuq
from cuq._base import STATE_EPS
from goldens import FIT_GOLDEN


@dataclass(frozen=True)
class Domain:
    """Where a drawn parameter is valid: `holds` decides a value, and a
    value outside raises a ValueError that starts with one of `messages`.
    In-domain draws come from [lo, hi]; `integer` draws ints.  `aka` holds
    further names that an OverflowError's message may give the parameter.
    """

    messages: tuple[str, ...]
    holds: Callable[[Any], bool]
    lo: float = -1e300
    hi: float = 1e300
    integer: bool = False
    aka: tuple[str, ...] = ()

    @property
    def names(self) -> set[str]:
        return {m.split(" must be ")[0] for m in self.messages} | {*self.aka}


def positive(name: str, **kw) -> Domain:
    return Domain((f"{name} must be positive and finite",),
                  lambda x: 0.0 < x < math.inf, 1e-300, 1e300, **kw)


def finite(name: str, **kw) -> Domain:
    return Domain((f"{name} must be finite",), math.isfinite, **kw)


def interval(name: str, lo: float, hi: float, closed: str = "()") -> Domain:
    """lo < x < hi, with "[" or "]" in `closed` for a closed end."""
    def holds(x):
        return ((lo <= x if closed[0] == "[" else lo < x)
                and (x <= hi if closed[1] == "]" else x < hi))
    return Domain((f"{name} must be in {closed[0]}{lo:g}, {hi:g}{closed[1]}",),
                  holds, lo, hi)


def count(name: str, lo: int, hi: float = math.inf,
          messages: tuple[str, ...] = ()) -> Domain:
    """An integer in [lo, hi]; in-domain draws stop at lo + 100."""
    text = f">= {lo}" if hi == math.inf else f"in [{lo}, {hi}]"
    return Domain(messages or (f"{name} must be {text}",),
                  lambda n: lo <= n <= hi, lo, min(hi, lo + 100), integer=True)


# a value with no check: a value type that holds what it is given
ANY = Domain((), lambda x: True)

R = positive("r")
OSCILLATING = interval("r", 0.0, 1.0)
THETA = finite("theta_eg")
# b = (x, 0, 0): finite, then |b| <= 1 + STATE_EPS
B = Domain(("b must be finite", "|b| must be at most 1 + STATE_EPS"),
           lambda x: abs(x) <= 1.0 + STATE_EPS, -1.0, 1.0)
# rho = diag(p, 1 - p): finite, of unit trace, eigenvalues in [0, 1]
DIAGONAL = Domain(("entries must be finite", "entries must be of unit trace",
                   "entries' eigenvalues must be in [0, 1]"),
                  lambda p: -STATE_EPS <= p <= 1.0 + STATE_EPS, 0.0, 1.0)
E_MAG = positive("E_mag", aka=("|E|",))
TAU = finite("tau")
# the coefficients and errors of a spectrum
COEFFS = finite("d0, d0_err and the coefficients")
ERRS = Domain(("d0, d0_err and the coefficients must be finite",
               "coefficient errors must be finite"), math.isfinite, 0.0, 1e300)
# a dataset's delta scale, sigma and omega on 20 fixed times
DELTA = finite("t, delta, sigma", aka=("|delta|",))
SIGMA = Domain(("t, delta, sigma must be finite",
                "every sigma must be positive"),
               lambda x: 0.0 < x < math.inf, 1e-300, 1e300, aka=("sigma",))
OMEGA = positive("omega")

_T = np.arange(20) / 2.0


def _model(r, theta):
    return cuq.QubitModel.from_angle(r, theta, degrees=True)


def _state(x):
    return cuq.BlochState([x, 0.0, 0.0])


def _spectrum(c, e):
    """An even spectrum through n = 3: d0 = c, c_n = c 2^-n, errors e."""
    return cuq.FourierSpectrum(c, [c / 2, c / 4, c / 8], cuq.SeriesKind.EVEN,
                               d0_err=e, coeff_errs=[e, e, e])


def _dataset(delta, sigma, omega):
    return cuq.AsymmetryDataset(_T, delta * np.cos(_T), np.full(20, sigma),
                                omega)


@dataclass(frozen=True)
class Row:
    """One public callable: `call` takes the drawn `params` by name.
    `fields` names the items of a tuple result, for `sentinels`."""

    name: str
    call: Callable[..., Any]
    params: dict[str, Domain] = field(default_factory=dict)
    returns: type | tuple[type, ...] = object
    sentinels: tuple[str, ...] = ()
    raises: tuple[type[Exception], ...] = ()
    fields: tuple[str, ...] = ()


_RATIO = ("ratio", "ratio_err", "r_hat", "r_err")
_OBSERVABLES = cuq.MesonObservables(0.5, 0.1, 1.0)

ROWS = [
    # analytic
    Row("AsymptoticBranch", lambda: cuq.AsymptoticBranch("general"),
        returns=cuq.AsymptoticBranch),
    Row("AsymptoticState",
        lambda alpha: cuq.AsymptoticState(None, alpha,
                                          cuq.AsymptoticBranch.GENERAL),
        {"alpha": ANY}, cuq.AsymptoticState, ("alpha", "b_star")),
    Row("CuqClock", lambda P, w: cuq.CuqClock(P, w), {"P": ANY, "w": ANY},
        cuq.CuqClock, ("P_hat", "omega_hat")),
    Row("MixedEllipse", lambda r: cuq.analytic.MixedEllipse(r, r, r, r),
        {"r": ANY}, cuq.analytic.MixedEllipse,
        ("r", "semi_major", "semi_minor", "eccentricity")),
    Row("asymptotic_state", lambda r, theta: cuq.asymptotic_state(
        _model(r, theta)), {"r": R, "theta": THETA}, cuq.AsymptoticState,
        ("alpha", "b_star")),
    Row("cuq_clock", lambda r: cuq.cuq_clock(r), {"r": OSCILLATING},
        cuq.CuqClock),
    Row("cuq_projections", lambda tau, r: cuq.cuq_projections(tau, r),
        {"tau": TAU, "r": OSCILLATING}, tuple),
    Row("cuq_theta", lambda tau, r: cuq.cuq_theta(tau, r),
        {"tau": TAU, "r": OSCILLATING}, (float, np.ndarray)),
    Row("half_angle_slope", lambda r: cuq.analytic.half_angle_slope(r),
        {"r": interval("r", 0.0, 1.0, "[)")}, float),
    Row("mixed_ellipse", lambda r: cuq.mixed_ellipse(r), {"r": OSCILLATING},
        cuq.analytic.MixedEllipse),
    Row("mixed_magnitude", lambda tau, r: cuq.mixed_magnitude(tau, r),
        {"tau": TAU, "r": interval("r", 0.0, 1.0, "(]")},
        (float, np.ndarray)),
    Row("mixed_magnitude_vs_angle", lambda phi, r:
        cuq.analytic.mixed_magnitude_vs_angle(phi, r),
        {"phi": Domain(("phi must be finite",
                        "phi must be on the lower half-plane branch"),
                       lambda phi: math.isfinite(phi)
                       and math.sin(phi) <= 1e-12),
         "r": OSCILLATING}, (float, np.ndarray)),
    Row("polar_rates", lambda b, phi, r: cuq.polar_rates(b, phi, r),
        {"b": interval("|b|", 0.0, 1.0, "(]"), "phi": finite("phi"), "r": R},
        tuple),
    Row("restore_units", lambda r, E: cuq.restore_units(r, E),
        {"r": OSCILLATING, "E": E_MAG}, tuple),
    # core
    Row("BlochState", _state, {"x": B}, cuq.BlochState),
    # z is the lower-left entry, the upper-right one 0
    Row("DensityMatrix",
        lambda p, z: cuq.DensityMatrix([[p, 0.0], [z, 1.0 - p]]),
        {"p": DIAGONAL,
         "z": Domain(("entries must be finite", "entries must be Hermitian"),
                     lambda z: abs(z) <= 1e-12, -1e-12, 1e-12)},
        cuq.DensityMatrix),
    Row("QubitModel",
        lambda x, r: cuq.QubitModel([x, 0.0, 0.0], [0.0, 1.0, 0.0], r),
        {"x": Domain(("e must be finite", "e must be a unit vector"),
                     lambda x: abs(abs(x) - 1.0) <= 1e-12, 1.0, 1.0),
         "r": R}, cuq.QubitModel),
    Row("bloch_derivative", lambda x, r, theta: cuq.bloch_derivative(
        _state(x), _model(r, theta)), {"x": B, "r": R, "theta": THETA},
        np.ndarray),
    Row("density_evolution_rhs", lambda p, r, theta:
        cuq.core.density_evolution_rhs(
            cuq.DensityMatrix(np.diag([p, 1.0 - p])), _model(r, theta)),
        {"p": DIAGONAL, "r": R, "theta": THETA}, np.ndarray),
    Row("density_from_bloch", lambda x: cuq.density_from_bloch(_state(x)),
        {"x": B}, cuq.DensityMatrix),
    Row("purity_rate", lambda x, r, theta: cuq.purity_rate(
        _state(x), _model(r, theta)), {"x": B, "r": R, "theta": THETA},
        float),
    # fit
    Row("AsymmetryDataset", _dataset,
        {"delta": DELTA, "sigma": SIGMA, "omega": OMEGA},
        cuq.AsymmetryDataset),
    Row("FitResult", lambda c, chi2: cuq.FitResult(
        [c], [1.0], [[1.0]], chi2, 1, 1.0), {"c": ANY, "chi2": ANY},
        cuq.FitResult, ("coefficients", "chi2")),
    Row("RExtraction", lambda r, err: cuq.RExtraction((), r, err),
        {"r": ANY, "err": ANY}, cuq.RExtraction,
        ("weighted_r", "weighted_r_err")),
    Row("design_matrix", lambda t, omega, N: cuq.fit.design_matrix(
        np.array([0.0, t]), omega, N),
        {"t": finite("t"), "omega": finite("omega"), "N": count("N", 0)},
        np.ndarray),
    Row("estimate_r", lambda c, R: cuq.estimate_r(
        cuq.FitResult([c, c / 2, c / 4], [0.01] * 3, np.eye(3), 1.0, 5, 1.0),
        R), {"c": COEFFS,
             "R": Domain(("amplitude R must be in (0, 1]",),
                         lambda R: 0.0 < R <= 1.0, 0.0, 1.0)},
        cuq.RExtraction, ("weighted_r", "weighted_r_err", *_RATIO)),
    Row("fit_fourier_modes", lambda delta, sigma, omega, N:
        cuq.fit_fourier_modes(_dataset(delta, sigma, omega), N),
        {"delta": DELTA, "sigma": SIGMA, "omega": OMEGA,
         "N": count("N", 0, 18, ("N must be >= 0", "need at least"))},
        cuq.FitResult,
        raises=(cuq.fit.RankDeficientDesign,)),
    Row("fit_result_to_json", lambda c, e, chi2, omega, r_err:
        cuq.fit.fit_result_to_json(cuq.FitResult(
            [c, c / 2, c / 4], [e] * 3, np.eye(3), chi2, 5, omega),
            cuq.RExtraction((), 0.5, r_err)),
        {"c": ANY, "e": ANY, "chi2": ANY, "omega": ANY, "r_err": ANY}, str),
    Row("load_dataset", lambda omega: cuq.load_dataset(FIT_GOLDEN / "data.csv",
                                                  omega),
        {"omega": OMEGA}, cuq.AsymmetryDataset),
    Row("save_dataset", lambda delta, sigma: cuq.save_dataset(
        _dataset(delta, sigma, 1.0), os.devnull),
        {"delta": DELTA, "sigma": SIGMA}, type(None)),
    Row("synthesize_dataset", lambda r, E, n, t_max, noise, seed:
        cuq.synthesize_dataset(r, E, n, t_max, noise, seed),
        {"r": OSCILLATING, "E": E_MAG, "n": count("n_points", 0),
         "t_max": positive("t_max"),
         "noise": Domain(("noise_sigma must be non-negative and finite",),
                         lambda s: 0.0 <= s < math.inf, 0.0, 1e300),
         "seed": count("seed", 0)}, cuq.AsymmetryDataset),
    # fourier
    Row("AnharmonicityEstimate", lambda ratio, err:
        cuq.fourier.AnharmonicityEstimate(ratio, err, 0, cuq.SeriesKind.EVEN),
        {"ratio": ANY, "err": ANY}, cuq.fourier.AnharmonicityEstimate,
        _RATIO),
    Row("FourierSpectrum", _spectrum, {"c": COEFFS, "e": ERRS},
        cuq.FourierSpectrum),
    Row("SeriesKind", lambda: cuq.SeriesKind("odd"), returns=cuq.SeriesKind),
    Row("anharmonicity", lambda c, e, n: cuq.anharmonicity(_spectrum(c, e), n),
        {"c": COEFFS, "e": ERRS, "n": count("n", 0, 2)},
        cuq.fourier.AnharmonicityEstimate, _RATIO),
    Row("closed_form_cn", lambda n, r: cuq.closed_form_cn(n, r),
        {"n": count("n", 1), "r": interval("r", 0.0, 1.0, "[)")},
        float),
    Row("closed_form_d0", lambda r: cuq.closed_form_d0(r),
        {"r": interval("r", 0.0, 1.0, "[)")}, float),
    Row("closed_form_spectrum", lambda r, N: cuq.closed_form_spectrum(r, N),
        {"r": interval("r", 0.0, 1.0, "[)"), "N": count("N", 0)},
        cuq.FourierSpectrum),
    Row("correct_effective_r", lambda t, R: cuq.correct_effective_r(t, R),
        {"t": interval("r_tilde", 0.0, 1.0, "[]"),
         "R": Domain(("amplitude R must be in (0, 1]",),
                     lambda R: 0.0 < R <= 1.0, 0.0, 1.0)}, float),
    Row("quadrature_spectrum", lambda P, N: cuq.quadrature_spectrum(
        lambda t: math.cos(2.0 * math.pi * (t / P)), P, N,
        cuq.SeriesKind.EVEN),
        {"P": Domain(("P_hat must be positive and finite",),
                     lambda P: sys.float_info.min <= P < math.inf, 1e-300),
         "N": count("N", 0, 64)},
        cuq.FourierSpectrum, raises=(cuq.fourier.QuadratureNotConverged,)),
    Row("r_from_anharmonicity", lambda c, e, n: cuq.r_from_anharmonicity(
        cuq.anharmonicity(_spectrum(c, e), n)),
        {"c": COEFFS, "e": ERRS, "n": count("n", 0, 2)}, tuple,
        ("r_hat", "r_err"), fields=("r_hat", "r_err")),
    # integrate
    Row("evolve_to_asymptote", lambda x, r, theta: cuq.evolve_to_asymptote(
        _model(r, theta), [x, 0.0, 0.0]), {"x": B, "r": R, "theta": THETA},
        (np.ndarray, type(cuq.NON_CONVERGENT)), ("NON_CONVERGENT",)),
    Row("propagate", lambda x, r, theta, tau: cuq.propagate(
        _model(r, theta), [x, 0.0, 0.0], [0.0, tau]),
        {"x": B, "r": R, "theta": THETA,
         "tau": Domain(("taus must be a 1-D array of finite times >= 0",),
                       lambda t: 0.0 <= t < math.inf, 0.0, 1e300)},
        np.ndarray),
    # meson
    Row("BlochParameters", lambda r, theta, E: cuq.BlochParameters(
        r, theta, E), {"r": R, "theta": finite("theta_eg_deg"),
                       "E": Domain(("E_mag must be finite and positive",),
                                   lambda E: 0.0 < E < math.inf, 1e-300)},
        cuq.BlochParameters),
    Row("Damping", lambda: cuq.Damping("critical"), returns=cuq.Damping),
    Row("MesonCatalogueEntry", lambda r, err: cuq.meson.MesonCatalogueEntry(
        "K0", _OBSERVABLES, _OBSERVABLES, cuq.BlochParameters(r, 90.0, 1.0),
        (err, err, err)), {"r": R, "err": ANY}, cuq.meson.MesonCatalogueEntry,
        ("bloch_err",)),
    Row("MesonObservables", lambda dE, dG, qop: cuq.MesonObservables(
        dE, dG, qop), {"dE": Domain(("delta_E must be finite",
                                      "delta_E must be >= 0"),
                                     lambda x: 0.0 <= x < math.inf, 0.0),
                       "dG": finite("delta_Gamma"),
                       "qop": Domain(("q_over_p must be finite",
                                      "|q/p| must be positive"),
                                     lambda x: 0.0 < x < math.inf, 1e-300)},
        cuq.MesonObservables),
    Row("bloch_from_observables", lambda dE, dG, qop:
        cuq.bloch_from_observables(cuq.MesonObservables(dE, dG, qop)),
        {"dE": Domain(("delta_E must be finite", "delta_E must be >= 0"),
                      lambda x: 0.0 <= x < math.inf, 0.0, aka=("Delta E",)),
         "dG": finite("delta_Gamma"),
         "qop": Domain(("q_over_p must be finite", "|q/p| must be positive"),
                       lambda x: 0.0 < x < math.inf, 1e-300)},
        cuq.meson.BlochInversion,
        raises=(cuq.meson.UnphysicalObservables,)),
    Row("catalogue", lambda: cuq.catalogue(), returns=list),
    Row("catalogue_rows", lambda: cuq.meson.catalogue_rows(), returns=list),
    Row("catalogue_to_csv", lambda: cuq.meson.catalogue_to_csv(), returns=str),
    Row("catalogue_to_json", lambda: cuq.meson.catalogue_to_json(),
        returns=str),
    Row("classify_damping", lambda r: cuq.classify_damping(r), {"r": R},
        cuq.Damping),
    Row("flavour_asymmetry", lambda x: cuq.flavour_asymmetry(_state(x)),
        {"x": B}, float),
    Row("observables_from_bloch", lambda r, theta, E:
        cuq.observables_from_bloch(cuq.BlochParameters(r, theta, E)),
        {"r": R, "theta": finite("theta_eg_deg"),
         "E": Domain(("E_mag must be finite and positive",),
                     lambda E: 0.0 < E < math.inf, 1e-300, aka=("|E|",))},
        cuq.MesonObservables, raises=(cuq.meson.UnphysicalObservables,)),
]
