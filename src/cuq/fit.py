"""Weighted Fourier-mode regression of flavour-asymmetry time series.

The pipeline mirrors the oscillation-data analysis: the asymmetry
delta(t) is fit against cosine modes cos(n omega t) by chi^2-minimising
linear regression with per-point errors, the coefficient ratios give
anharmonicity factors, and each factor inverts to an estimate of the
damping ratio r.  omega is an input (the measured mass splitting), not a
fitted parameter.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from .analytic import cuq_projections, restore_units
from .core import _BLOCK_ROWS
from .fourier import (AnharmonicityEstimate, FourierSpectrum, SeriesKind,
                      anharmonicity, correct_effective_r)

__all__ = [
    "AsymmetryDataset",
    "FitResult",
    "RExtraction",
    "DatasetFormatError",
    "RankDeficientDesign",
    "load_dataset",
    "save_dataset",
    "design_matrix",
    "fit_fourier_modes",
    "estimate_r",
    "synthesize_dataset",
    "fit_result_to_json",
]

CSV_HEADER = ("t_ps", "asymmetry", "sigma")


class DatasetFormatError(ValueError):
    """Malformed dataset file (carries the offending line number)."""


class RankDeficientDesign(RuntimeError):
    """Design matrix is numerically rank-deficient (aliased sampling)."""


@dataclass(frozen=True)
class AsymmetryDataset:
    """Time series of flavour asymmetry with 1-sigma errors.

    omega is the externally supplied angular frequency in 1/ps (equated
    with the measured mass splitting).
    """

    t: np.ndarray
    delta: np.ndarray
    sigma: np.ndarray
    omega: float
    label: str = ""

    def __post_init__(self):
        t = np.asarray(self.t, dtype=float)
        d = np.asarray(self.delta, dtype=float)
        s = np.asarray(self.sigma, dtype=float)
        if not (t.shape == d.shape == s.shape) or t.ndim != 1:
            raise ValueError("t, delta, sigma must be equal-length 1-D arrays")
        if len(t) and np.any(np.diff(t) <= 0.0):
            raise ValueError("t must be strictly increasing")
        if not np.all(np.isfinite([t, d, s])):
            raise ValueError("t, delta, sigma must be finite")
        if np.any(s <= 0.0):
            raise ValueError("every sigma must be positive")
        if not 0.0 < self.omega < np.inf:
            raise ValueError(f"omega must be positive and finite, "
                             f"got {self.omega}")
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "delta", d)
        object.__setattr__(self, "sigma", s)

    def __len__(self) -> int:
        return len(self.t)


def load_dataset(path, omega: float) -> AsymmetryDataset:
    """Read a `t_ps,asymmetry,sigma` CSV (UTF-8, header required, '#' comments)."""
    path = Path(path)
    rows = []
    with path.open(encoding="utf-8") as fh:
        header = None
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = tuple(col.strip() for col in line.split(","))
                if header != CSV_HEADER:
                    raise DatasetFormatError(
                        f"{path}:{lineno}: header must be "
                        f"'{','.join(CSV_HEADER)}', got '{line}'")
                continue
            parts = line.split(",")
            if len(parts) != 3:
                raise DatasetFormatError(f"{path}:{lineno}: expected 3 fields")
            try:
                t, d, s = (float(p) for p in parts)
            except ValueError as exc:
                raise DatasetFormatError(f"{path}:{lineno}: {exc}") from exc
            if not np.all(np.isfinite((t, d, s))):
                raise DatasetFormatError(f"{path}:{lineno}: non-finite value")
            if s <= 0.0:
                raise DatasetFormatError(f"{path}:{lineno}: sigma must be > 0")
            if rows and t <= rows[-1][0]:
                raise DatasetFormatError(
                    f"{path}:{lineno}: time not increasing")
            rows.append((t, d, s))
    if header is None:
        raise DatasetFormatError(f"{path}: empty file")
    arr = np.array(rows, dtype=float).reshape(-1, 3)
    return AsymmetryDataset(t=arr[:, 0], delta=arr[:, 1], sigma=arr[:, 2],
                            omega=omega, label=path.stem)


def save_dataset(data: AsymmetryDataset, path) -> None:
    """Write the CSV schema with full decimal-text precision (repr roundtrip)."""
    columns = dict(zip(CSV_HEADER, (data.t, data.delta, data.sigma)))
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.writelines(_csv_blocks(columns))


def _csv_blocks(columns: dict):
    """CSV text of named, equal-length columns: the header line, then blocks
    of at most _BLOCK_ROWS rows, so no caller holds the whole text.  Values
    go through `.tolist()` and `str`: a float is its shortest round-trip
    repr and an integer column stays an integer."""
    yield ",".join(columns) + "\n"
    cols = list(columns.values())
    for start in range(0, len(cols[0]), _BLOCK_ROWS):
        rows = zip(*(c[start:start + _BLOCK_ROWS].tolist() for c in cols),
                   strict=True)
        yield "".join([",".join(map(str, row)) + "\n" for row in rows])


@dataclass(frozen=True)
class FitResult:
    """Coefficients d_0..d_N of the cosine-mode regression."""

    coefficients: np.ndarray
    errors: np.ndarray
    covariance: np.ndarray
    chi2: float
    dof: int
    omega: float
    label: str = ""

    @cached_property
    def p_values(self) -> np.ndarray:
        """Two-sided p-value of each d_n against the null d_n = 0.

        Uses the statistic d_n / err(d_n) on a t-distribution with the fit's
        residual degrees of freedom.  A zero standard error yields NaN.
        """
        # imported here: scipy.special is most of a cold start with no fit
        from scipy.special import stdtr

        if self.dof < 1:
            raise ValueError("p-values need at least one degree of freedom")
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = np.where(self.errors > 0.0,
                             self.coefficients / self.errors, np.nan)
        return 2.0 * stdtr(self.dof, -np.abs(tstat))

    @property
    def n_harmonics(self) -> int:
        return len(self.coefficients) - 1

    def spectrum(self) -> FourierSpectrum:
        return FourierSpectrum(d0=float(self.coefficients[0]),
                               coeffs=self.coefficients[1:],
                               kind=SeriesKind.EVEN,
                               d0_err=float(self.errors[0]),
                               coeff_errs=self.errors[1:])


def design_matrix(t, omega: float, N: int) -> np.ndarray:
    """Columns cos(n omega t) for n = 0..N, one row per time."""
    return np.cos(np.outer(t, np.arange(N + 1)) * omega)


def fit_fourier_modes(data: AsymmetryDataset, N: int) -> FitResult:
    """chi^2-minimising fit of delta(t) against cos(n omega t), n = 0..N.

    Solved by QR decomposition of the sigma-weighted design matrix; the
    covariance is the inverse normal matrix, with no error-bar inflation.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0 harmonics, got N = {N}")
    if len(data) < N + 2:
        raise ValueError(f"need at least {N + 2} points for N = {N} harmonics")
    X = design_matrix(data.t, data.omega, N)
    Xw = X / data.sigma[:, None]
    yw = data.delta / data.sigma
    q, r = np.linalg.qr(Xw)
    diag = np.abs(np.diag(r))
    cond = diag.max() / diag.min() if diag.min() > 0.0 else np.inf
    if cond > 1e10:
        raise RankDeficientDesign(
            f"design matrix condition estimate {cond:.2e} (aliased times?)")
    coeff = np.linalg.solve(r, q.T @ yw)
    rinv = np.linalg.inv(r)
    cov = rinv @ rinv.T
    errors = np.sqrt(np.diag(cov))
    resid = yw - Xw @ coeff
    chi2 = float(resid @ resid)
    dof = len(data) - (N + 1)
    return FitResult(coefficients=coeff, errors=errors, covariance=cov,
                     chi2=chi2, dof=dof, omega=data.omega, label=data.label)


@dataclass(frozen=True)
class RExtraction:
    """Per-ratio damping estimates and their inverse-variance average."""

    per_ratio: list[AnharmonicityEstimate]
    weighted_r: float
    weighted_r_err: float
    diagnostics: str = ""

    @property
    def has_estimate(self) -> bool:
        return np.isfinite(self.weighted_r)


def estimate_r(fit: FitResult, amplitude_correction: float | None = None
               ) -> RExtraction:
    """Anharmonicity factors D_0..D_{N-1} mapped to damping-ratio estimates.

    Unreliable ratios (denominator consistent with zero) are excluded from
    the weighted average; the optional amplitude correction maps each
    finite effective estimate to the full-amplitude value before averaging.
    The correction R is checked to lie in (0, 1] even when no estimate is.
    """
    if fit.n_harmonics < 2:
        raise ValueError("estimate_r needs a fit with at least 2 harmonics")
    R = amplitude_correction
    if R is not None and not 0.0 < R <= 1.0:
        raise ValueError(f"amplitude R must be in (0, 1], got {R}")
    spec = fit.spectrum()
    estimates = []
    for n in range(fit.n_harmonics):
        est = anharmonicity(spec, n)
        if R is not None and np.isfinite(est.r_hat):
            r_corr = correct_effective_r(min(est.r_hat, 1.0), R)
            # dr/dr_tilde of the correction, chained onto the ratio error
            R2 = R ** 2
            denom = (R2 + est.r_hat ** 2 * (1.0 - R2)) ** 1.5
            est = est.with_r(r_corr, est.r_err * R2 / denom)
        estimates.append(est)
    usable = [e for e in estimates
              if e.reliable and np.isfinite(e.r_hat) and e.r_err > 0.0]
    if not usable:
        exact = [e for e in estimates
                 if e.reliable and np.isfinite(e.r_hat) and e.r_err == 0.0]
        if exact:  # error-free input (e.g. closed-form spectra): plain mean
            vals = np.array([e.r_hat for e in exact])
            return RExtraction(per_ratio=estimates,
                               weighted_r=float(vals.mean()),
                               weighted_r_err=0.0)
        return RExtraction(per_ratio=estimates, weighted_r=float("nan"),
                           weighted_r_err=float("nan"),
                           diagnostics="all ratios unreliable "
                                       "(denominators consistent with zero)")
    w = np.array([1.0 / e.r_err ** 2 for e in usable])
    vals = np.array([e.r_hat for e in usable])
    weighted = float(np.sum(w * vals) / np.sum(w))
    err = float(1.0 / np.sqrt(np.sum(w)))
    return RExtraction(per_ratio=estimates, weighted_r=weighted,
                       weighted_r_err=err)


def synthesize_dataset(r: float, E_mag: float, n_points: int, t_max: float,
                       noise_sigma, seed: int) -> AsymmetryDataset:
    """Deterministic synthetic asymmetry data on the analytic oscillation.

    delta(t_i) is the e x gamma projection of the pure reference solution
    at tau = |Gamma| t_i plus Gaussian noise.  noise_sigma may be a scalar
    or a length-n_points schedule (e.g. widening late-time errors); the
    sigma column reflects it.  r must be in (0, 1), as `cuq_clock` checks.
    """
    t = np.linspace(0.0, t_max, n_points, endpoint=False)
    gamma_mag = 2.0 * r * E_mag
    _, delta = cuq_projections(gamma_mag * t, r)
    sig = np.broadcast_to(np.asarray(noise_sigma, dtype=float),
                          (n_points,)).copy()
    if np.any(sig < 0.0):
        raise ValueError("noise_sigma must be non-negative")
    rng = np.random.default_rng(seed)
    noisy = delta + rng.standard_normal(n_points) * sig
    _, omega = restore_units(r, E_mag)
    return AsymmetryDataset(t=t, delta=noisy,
                            sigma=np.where(sig > 0.0, sig, 1e-12),
                            omega=omega, label="synthetic")


def fit_result_to_json(fit: FitResult, extraction: RExtraction) -> str:
    """Machine-readable fit output (schema used by the CLI)."""
    out = {
        "label": fit.label,
        "omega": fit.omega,
        "N": fit.n_harmonics,
        "coefficients": [
            {"n": int(n), "value": float(v), "error": float(e),
             "p_value": None if not np.isfinite(p) else float(p)}
            for n, v, e, p in zip(range(fit.n_harmonics + 1),
                                  fit.coefficients, fit.errors, fit.p_values)
        ],
        "chi2": fit.chi2,
        "dof": fit.dof,
        "r_estimates": [
            {"kind": e.kind.value, "order": e.order_n, "ratio": e.ratio,
             "ratio_err": e.ratio_err,
             "r": None if not np.isfinite(e.r_hat) else e.r_hat,
             "r_err": None if not np.isfinite(e.r_err) else e.r_err,
             "reliable": e.reliable}
            for e in extraction.per_ratio
        ],
        "weighted_r": (None if not extraction.has_estimate
                       else extraction.weighted_r),
        "weighted_r_err": (None if not extraction.has_estimate
                           else extraction.weighted_r_err),
    }
    if extraction.diagnostics:
        out["diagnostics"] = extraction.diagnostics
    return json.dumps(out, indent=2)
