"""Fourier spectrum of the oscillation signal and its inversion to r.

The pure reference oscillation has closed-form coefficients

    c_n = 2 sqrt(1-r^2)/r * q^n,   q = (1 - sqrt(1-r^2)) / r,

identical for the odd (b.gamma, sine) and even (b.(e x gamma), cosine)
series except for the even constant term d_0 = -q.  The geometric
progression makes consecutive-coefficient ratios observables that invert
to the damping ratio r.  `quadrature_spectrum` computes the coefficients of
any periodic signal by the trapezoid rule, independently of these forms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._base import QuadratureNotConverged
from .analytic import half_angle_slope
from .core import _one_minus_r2

__all__ = [
    "SeriesKind",
    "FourierSpectrum",
    "QuadratureNotConverged",
    "AnharmonicityEstimate",
    "closed_form_cn",
    "closed_form_d0",
    "closed_form_spectrum",
    "quadrature_spectrum",
    "anharmonicity",
    "r_from_anharmonicity",
    "correct_effective_r",
]


class SeriesKind(Enum):
    ODD = "odd"    # sin(n w tau) series of b.gamma
    EVEN = "even"  # d0 + cos(n w tau) series of b.(e x gamma)


@dataclass(frozen=True)
class FourierSpectrum:
    """d0 plus coefficients for n = 1..N, optionally with 1-sigma errors."""

    d0: float
    coeffs: np.ndarray
    kind: SeriesKind
    d0_err: float = 0.0
    coeff_errs: np.ndarray | None = None

    def __post_init__(self):
        object.__setattr__(self, "coeffs", np.asarray(self.coeffs, dtype=float))
        if self.coeff_errs is not None:
            errs = np.asarray(self.coeff_errs, dtype=float)
            if errs.shape != self.coeffs.shape:
                raise ValueError("coefficient errors must match coefficients")
            object.__setattr__(self, "coeff_errs", errs)

    def coefficient(self, n: int) -> float:
        """Coefficient of order n (n = 0 returns d0)."""
        if n == 0:
            return self.d0
        return float(self.coeffs[n - 1])

    def coefficient_err(self, n: int) -> float:
        if n == 0:
            return self.d0_err
        if self.coeff_errs is None:
            return 0.0
        return float(self.coeff_errs[n - 1])

    @property
    def order(self) -> int:
        return len(self.coeffs)


def closed_form_cn(n: int, r: float) -> float:
    """c_n = 2 (sqrt(1-r^2)/r) q^n, finite as r -> 0 (leading order r^{n-1})."""
    if n < 1:
        raise ValueError("n must be >= 1")
    q = half_angle_slope(r)
    if r == 0.0:
        return 1.0 if n == 1 else 0.0
    return 2.0 * np.sqrt(_one_minus_r2(r)) / r * q ** n


def closed_form_d0(r: float) -> float:
    """Constant term of the even series: d0 = -(1 - sqrt(1-r^2))/r."""
    return -half_angle_slope(r)


def closed_form_spectrum(r: float, N: int) -> FourierSpectrum:
    """Exact even spectrum of the pure oscillation through order N."""
    coeffs = np.array([closed_form_cn(n, r) for n in range(1, N + 1)])
    return FourierSpectrum(d0=closed_form_d0(r), coeffs=coeffs,
                           kind=SeriesKind.EVEN)


def quadrature_spectrum(signal: Callable[[float], float], P_hat: float,
                        N: int, kind: SeriesKind) -> FourierSpectrum:
    """Fourier coefficients of a P_hat-periodic signal by the trapezoid rule.

    For a periodic analytic signal the M-node trapezoid rule converges
    geometrically in M (Trefethen & Weideman, SIAM Rev. 56, 2014), so all
    N + 1 coefficients come from one set of samples on the nodes
    t_j = -P_hat/2 + j P_hat/M.  M starts at max(64, 4N) and doubles,
    sampling only the new midpoints, until two successive coefficient
    vectors agree to 1e-12.  d0 carries prefactor 1/P_hat, every n >= 1
    carries 2/P_hat.  The signal is called with one scalar at a time.
    """
    if not 0 <= N <= 64:
        raise ValueError(f"N must be in [0, 64], got {N}")
    half = P_hat / 2.0
    M = max(64, 4 * N)
    f = np.array([signal(t) for t in -half + P_hat / M * np.arange(M)])
    mismatch = abs(f[0] - signal(half))
    if mismatch > 1e-6:
        raise ValueError(f"signal is not P_hat-periodic "
                         f"(endpoint mismatch {mismatch:.3e})")
    prev = None
    while True:
        # n w t_j = 2 pi n j/M - n pi: the sums of f_j cos/sin(n w t_j) are
        # (-1)^n times the real/negated imaginary parts of the DFT
        F = (-1.0) ** np.arange(N + 1) * np.fft.rfft(f)[:N + 1] / M
        coeffs = 2.0 * (F.real if kind is SeriesKind.EVEN else -F.imag)
        coeffs[0] = F[0].real
        if prev is not None and np.max(np.abs(coeffs - prev)) <= 1e-12:
            return FourierSpectrum(d0=coeffs[0], coeffs=coeffs[1:], kind=kind)
        if 2 * M > 2 ** 16:
            raise QuadratureNotConverged(
                f"trapezoid spectrum not converged with {M} nodes")
        mids = [signal(t) for t in -half + P_hat / M * (np.arange(M) + 0.5)]
        f = np.column_stack([f, mids]).ravel()
        M, prev = 2 * M, coeffs


@dataclass(frozen=True)
class AnharmonicityEstimate:
    """Ratio of consecutive coefficients with its propagated uncertainty."""

    ratio: float
    ratio_err: float
    order_n: int
    kind: SeriesKind
    reliable: bool = True
    r_hat: float = float("nan")
    r_err: float = float("nan")

    def with_r(self, r: float, r_err: float) -> "AnharmonicityEstimate":
        return AnharmonicityEstimate(self.ratio, self.ratio_err, self.order_n,
                                     self.kind, self.reliable, r, r_err)


def anharmonicity(spectrum: FourierSpectrum, n: int) -> AnharmonicityEstimate:
    """Anharmonicity factor of order n.

    Odd series: C_n = c_{n+1}/c_n for n >= 1.  Even series: D_n =
    d_{n+1}/d_n for n >= 0 (the constant d0 is a legal denominator).
    A denominator consistent with zero flags the ratio unreliable.  The
    ratio and its error are formed from the coefficients and errors scaled
    by 2^-k, which puts |den| in [1/2, 1): both are homogeneous of degree
    0, so they keep their bits, and den^2 cannot underflow.
    """
    if spectrum.kind is SeriesKind.ODD and n < 1:
        raise ValueError("odd-series anharmonicity needs n >= 1")
    if n < 0:
        raise ValueError("n must be >= 0")
    if n + 1 > spectrum.order:
        raise ValueError(f"spectrum only holds coefficients through "
                         f"n = {spectrum.order}")
    num, den = spectrum.coefficient(n + 1), spectrum.coefficient(n)
    num_err, den_err = spectrum.coefficient_err(n + 1), spectrum.coefficient_err(n)
    reliable = abs(den) > den_err
    if den == 0.0:
        return AnharmonicityEstimate(float("inf"), float("inf"), n,
                                     spectrum.kind, reliable=False)
    # 2^-k as two floats, finite even for a subnormal den; a product past
    # the float range is inf, where math.ldexp would raise OverflowError
    h = -math.frexp(den)[1]
    f, g = 2.0 ** (h // 2), 2.0 ** (h - h // 2)
    num, den = num * f * g, den * f * g
    num_err, den_err = num_err * f * g, den_err * f * g
    ratio = num / den
    # first-order (delta-method) propagation; coefficients treated independent
    err = np.hypot(num_err / den, num * den_err / den ** 2)
    est = AnharmonicityEstimate(float(ratio), float(err), n, spectrum.kind,
                                reliable=reliable)
    r, r_err = r_from_anharmonicity(est)
    return est.with_r(r, r_err)


def r_from_anharmonicity(est: AnharmonicityEstimate) -> tuple[float, float]:
    """Invert an anharmonicity ratio to the damping ratio r.

    C_n or D_n (n >= 1):  r = 2 rho / (rho^2 + 1)
    D_0:                  r = 1 / sqrt(1 + rho^2 / 4)
    with rho = |ratio|; signs are reported separately on the estimate.
    The error is max(|r'| sigma, |r''| sigma^2 / 2): r(rho) turns at
    rho = 1 (C_n) and rho = 0 (D_0), where the first-order term vanishes.
    """
    rho = abs(est.ratio)
    if est.kind is SeriesKind.EVEN and est.order_n == 0:
        if np.isinf(rho):
            return 0.0, 0.0 if est.ratio_err == 0 else float("nan")
        r = 1.0 / np.sqrt(1.0 + rho * rho / 4.0)
        drdrho = -(rho / 4.0) * r ** 3
        d2rdrho2 = (rho * rho - 2.0) / 8.0 * r ** 5
    else:
        if np.isinf(rho):
            return 0.0, float("nan")
        r = 2.0 * rho / (rho * rho + 1.0)
        drdrho = 2.0 * (1.0 - rho * rho) / (rho * rho + 1.0) ** 2
        d2rdrho2 = -4.0 * rho * (3.0 - rho * rho) / (rho * rho + 1.0) ** 3
    return float(r), float(max(abs(drdrho) * est.ratio_err,
                               0.5 * abs(d2rdrho2)
                               * (est.ratio_err * est.ratio_err)))


def correct_effective_r(r_tilde: float, amplitude: float) -> float:
    """Map the effective ratio of a reduced-amplitude oscillation to true r.

    r = r_tilde / sqrt(R^2 + r_tilde^2 (1 - R^2)), where R = `amplitude` is
    the amplitude of the signal's projection along the decay direction.
    """
    if not (0.0 <= r_tilde <= 1.0):
        raise ValueError(f"r_tilde must be in [0, 1], got {r_tilde}")
    if not (0.0 < amplitude <= 1.0):
        raise ValueError(f"amplitude R must be in (0, 1], got {amplitude}")
    return r_tilde / np.sqrt(amplitude ** 2
                             + r_tilde ** 2 * (1.0 - amplitude ** 2))
