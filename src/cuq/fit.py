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
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np

from ._base import (_BLOCK_ROWS, DatasetFormatError, RankDeficientDesign,
                    _csv_blocks)
from .analytic import cuq_projections, restore_units
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
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise DatasetFormatError(f"{path}: not UTF-8 text ({exc})") from exc
    rows = []
    header = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
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
        if self.dof < 1:
            raise ValueError("p-values need at least one degree of freedom")
        with np.errstate(divide="ignore", invalid="ignore"):
            tstat = np.where(self.errors > 0.0,
                             self.coefficients / self.errors, np.nan)
        return np.array([_student_t_pvalue(t, self.dof)
                         for t in tstat.tolist()])

    @property
    def n_harmonics(self) -> int:
        return len(self.coefficients) - 1

    def spectrum(self) -> FourierSpectrum:
        return FourierSpectrum(d0=float(self.coefficients[0]),
                               coeffs=self.coefficients[1:],
                               kind=SeriesKind.EVEN,
                               d0_err=float(self.errors[0]),
                               coeff_errs=self.errors[1:])


def _student_t_pvalue(t: float, dof: int) -> float:
    """P(|T| >= |t|) for Student's t with dof degrees of freedom, to a few
    eps times 1 + |ln p| down to underflow: I_x(a, 1/2) with a = dof/2 and
    x = dof/(dof + t^2).

    x, 1 - x = t^2/(dof + t^2) and ln x = -log1p(t^2/dof) are each formed
    from t^2 with relative precision, and ln B(a, 1/2) is read off
    `_log_gamma_ratio`.  For t^2 > 1 (p < 1/2) the continued fraction
    gives I_x(a, 1/2) itself; for t^2 <= 1 (p > 0.3) it gives
    I_{1-x}(1/2, a) = 1 - p.
    """
    s = t * t
    if s != s:
        return math.nan
    a = 0.5 * dof
    if s == math.inf:
        x, y, ln_x = 0.0, 1.0, -2.0 * math.log(abs(t) / math.sqrt(dof))
    else:
        x, y, ln_x = dof / (dof + s), s / (dof + s), -math.log1p(s / dof)
    # exp(front) sqrt(y/(pi a)) = x^a y^(1/2)/(a B(a, 1/2)), the prefactor
    # of I_x(a, 1/2); 2a times it is that of I_y(1/2, a)
    front = a * ln_x + _log_gamma_ratio(a)
    if s > 1.0:
        return math.exp(front + math.log(math.sqrt(y / (math.pi * a))
                                         * _beta_fraction(a, 0.5, x, y)))
    return 1.0 - (math.exp(front) * math.sqrt(2.0 * dof * y / math.pi)
                  * _beta_fraction(0.5, a, y, x))


def _log_gamma_ratio(a: float) -> float:
    """ln(Gamma(a + 1/2) / (Gamma(a) sqrt(a))) to an ulp for a > 0.

    The ratio is the product over j >= 0 of sqrt(1 - (2a + 2j + 1)^-2).
    The logs of its factors below a + j = 50 go to `math.fsum`, and the
    asymptotic series in 1/(a + j), to the seventh power, gives the rest
    to 1e-19.
    """
    terms = []
    while a < 50.0:
        terms.append(0.5 * math.log1p(-1.0 / (2.0 * a + 1.0) ** 2))
        a += 1.0
    u = 1.0 / (a * a)
    terms.append((-1.0 / 8.0 + u * (1.0 / 192.0 + u * (-1.0 / 640.0
                                                       + u * 17.0 / 14336.0)))
                 / a)
    return math.fsum(terms)


def _beta_fraction(a: float, b: float, v: float, w: float) -> float:
    """h in I_v(a, b) = v^a w^b h / (a B(a, b)), with w = 1 - v.

    h = 1/(1 + d_1/(1 + d_2/(1 + ...))) is DLMF 8.17.22's continued
    fraction, summed in its even contraction
    1/(beta_0 + alpha_1/(beta_1 + alpha_2/(beta_2 + ...))) with
    beta_m = 1 + d_2m + d_2m+1 and alpha_m = -d_2m-1 d_2m.  Formed from
    v, beta_m cancels near v = 1, where v carries the rounding and w does
    not; so it is (w P + Q)/D when P and Q are both non-negative, with no
    cancellation, and 1 - v P/D otherwise: no cancellation for P < 0, and
    beta_0 at b > 1, the one case left, only comes with a small v.
    The fraction is summed backward, from depths 4, 8, 16, ... until two
    depths agree to an ulp.
    """
    def beta(m):
        if m == 0:
            P, Q, D = a + b, 1.0 - b, a + 1.0
        else:
            P = a * a + a * b + 2 * a * m - a - b + 2 * m * m
            Q = -a * b + 2 * a * m + a + b + 2 * m * m - 1.0
            D = (a + 2 * m - 1.0) * (a + 2 * m + 1.0)
        return (w * P + Q) / D if min(P, Q) >= 0.0 else 1.0 - v * P / D

    def alpha(m):
        A = a + 2 * m
        return ((a + m - 1) * (a + b + m - 1) * m * (b - m) * v * v
                / ((A - 2) * (A - 1) ** 2 * A))

    h, depth = math.nan, 4
    while depth < 1 << 16:
        g = beta(depth)
        for m in range(depth, 0, -1):
            g = beta(m - 1) + alpha(m) / g
        if abs(1.0 / g - h) <= sys.float_info.epsilon / g:
            break
        h, depth = 1.0 / g, 2 * depth
    return 1.0 / g


def design_matrix(t, omega: float, N: int) -> np.ndarray:
    """Columns cos(n omega t) for n = 0..N, one row per time."""
    return np.cos(np.outer(t, np.arange(N + 1)) * omega)


def fit_fourier_modes(data: AsymmetryDataset, N: int) -> FitResult:
    """chi^2-minimising fit of delta(t) against cos(n omega t), n = 0..N.

    Solved by QR decomposition of the sigma-weighted design matrix; the
    covariance is the inverse normal matrix, with no error-bar inflation.
    R's condition estimate is checked first (RankDeficientDesign past 1e10,
    or where a diagonal entry is 0 or NaN), so the solve and the inverse
    only ever see a triangular R with a nonzero diagonal: no LinAlgError.
    sigma is weighted as sigma 2^-k, the smallest in [1/2, 1): every step
    is exact under a power-of-two scaling, so the coefficients have the
    same bits at any scale of sigma, and chi2, the errors and the
    covariance are scaled back exactly.  A chi2 past the largest float, or
    a standard error below the smallest normal or whose square is past the
    largest float, is an OverflowError; the covariance may underflow.
    """
    if N < 0:
        raise ValueError(f"N must be >= 0 harmonics, got N = {N}")
    if len(data) < N + 2:
        raise ValueError(f"need at least {N + 2} points for N = {N} harmonics")
    X = design_matrix(data.t, data.omega, N)
    k = math.frexp(data.sigma.min())[1]
    sigma = np.ldexp(data.sigma, -k)
    Xw = X / sigma[:, None]
    yw = data.delta / sigma
    q, r = np.linalg.qr(Xw)
    diag = np.abs(np.diag(r))
    with np.errstate(over="ignore"):  # inf past the float range
        cond = diag.max() / diag.min() if diag.min() > 0.0 else np.inf
    if cond > 1e10:
        raise RankDeficientDesign(
            f"design matrix condition estimate {cond:.2e} (aliased times?)")
    coeff = np.linalg.solve(r, q.T @ yw)
    rinv = np.linalg.inv(r)
    cov = rinv @ rinv.T
    errors = np.sqrt(np.diag(cov))
    resid = yw - Xw @ coeff
    # back to the scale of sigma: chi2 times 4^-k, errors times 2^k
    try:
        chi2 = math.ldexp(float(resid @ resid), -2 * k)
    except OverflowError:
        raise OverflowError(f"chi2 overflows at sigma down to "
                            f"{data.sigma.min():.3g}") from None
    e = errors.tolist()  # cov is at most max(e)^2, so it stays finite
    if (math.frexp(max(e))[1] + k > 512
            or math.ldexp(min(e), k) < sys.float_info.min):
        raise OverflowError(f"a standard error or its square is outside the "
                            f"float range at sigma from "
                            f"{data.sigma.min():.3g} to "
                            f"{data.sigma.max():.3g}")
    dof = len(data) - (N + 1)
    return FitResult(coefficients=coeff, errors=np.ldexp(errors, k),
                     covariance=np.ldexp(cov, 2 * k), chi2=chi2, dof=dof,
                     omega=data.omega, label=data.label)


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

    Unreliable ratios (denominator consistent with zero) and ratios whose r
    error is not finite are excluded from the weighted average; the
    optional amplitude correction maps each finite effective estimate to
    the full-amplitude value before averaging.
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
              if e.reliable and np.isfinite(e.r_hat)
              and 0.0 < e.r_err < math.inf]
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
                                       "(denominators consistent with zero "
                                       "or errors not finite)")
    # the errors scaled by 2^-k, the smallest in [1/2, 1): the weights are
    # at most 4 and their sum at least 1, and the average keeps its bits
    k = math.frexp(min(e.r_err for e in usable))[1]
    w = np.array([1.0 / math.ldexp(e.r_err, -k) ** 2 for e in usable])
    vals = np.array([e.r_hat for e in usable])
    weighted = float(np.sum(w * vals) / np.sum(w))
    err = math.ldexp(float(1.0 / np.sqrt(np.sum(w))), k)
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


def _json_float(x) -> float | None:
    """x as a JSON number, or None (null) where it is not finite."""
    return float(x) if np.isfinite(x) else None


def fit_result_to_json(fit: FitResult, extraction: RExtraction) -> str:
    """Machine-readable fit output (schema used by the CLI); a value that is
    not finite is null, so the text is strict JSON."""
    out = {
        "label": fit.label,
        "omega": fit.omega,
        "N": fit.n_harmonics,
        "coefficients": [
            {"n": int(n), "value": float(v), "error": float(e),
             "p_value": _json_float(p)}
            for n, v, e, p in zip(range(fit.n_harmonics + 1),
                                  fit.coefficients, fit.errors, fit.p_values)
        ],
        "chi2": fit.chi2,
        "dof": fit.dof,
        "r_estimates": [
            {"kind": e.kind.value, "order": e.order_n,
             "ratio": _json_float(e.ratio),
             "ratio_err": _json_float(e.ratio_err),
             "r": _json_float(e.r_hat), "r_err": _json_float(e.r_err),
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
    return json.dumps(out, indent=2, allow_nan=False)
