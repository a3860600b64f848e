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
import sys
from dataclasses import dataclass
from enum import Enum
from typing import Callable

import numpy as np

from ._base import QuadratureNotConverged, _check, _one_minus_r2, _Value
from .analytic import half_angle_slope
from .core import _finite, _read_only

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

_MAX_NODES, _TOL, _MAX_ORDER = 2 ** 16, 1e-12, 64  # the trapezoid budget
_ROUNDING_MARGIN = 1.02  # see _check_resolvable


class SeriesKind(Enum):
    ODD = "odd"    # sin(n w tau) series of b.gamma
    EVEN = "even"  # d0 + cos(n w tau) series of b.(e x gamma)


@dataclass(frozen=True, slots=True)
class FourierSpectrum(_Value):
    """d0 plus coefficients for n = 1..N, optionally with 1-sigma errors,
    all checked finite; the arrays are read-only copies of the caller's."""

    d0: float
    coeffs: np.ndarray
    kind: SeriesKind
    d0_err: float = 0.0
    coeff_errs: np.ndarray | None = None

    def __post_init__(self):
        coeffs = np.array(self.coeffs, dtype=float)
        _check(math.isfinite(self.d0) and math.isfinite(self.d0_err)
               and np.isfinite(coeffs).all(),
               "d0, d0_err and the coefficients", "finite",
               (self.d0, self.d0_err, coeffs))
        if self.coeff_errs is not None:
            errs = np.array(self.coeff_errs, dtype=float)
            if errs.shape != coeffs.shape:
                raise ValueError("coefficient errors must match coefficients")
            _finite("coefficient errors", errs)
            object.__setattr__(self, "coeff_errs", _read_only(errs))
        object.__setattr__(self, "coeffs", _read_only(coeffs))

    def coefficient(self, n: int) -> float:
        """Coefficient of order n (n = 0 returns d0), a Python float."""
        if n == 0:
            return float(self.d0)
        return float(self.coeffs[n - 1])

    def coefficient_err(self, n: int) -> float:
        if n == 0:
            return float(self.d0_err)
        if self.coeff_errs is None:
            return 0.0
        return float(self.coeff_errs[n - 1])

    @property
    def order(self) -> int:
        return len(self.coeffs)


def closed_form_cn(n: int, r: float) -> float:
    """c_n = 2 (sqrt(1-r^2)/r) q^n, finite as r -> 0 (leading order r^{n-1})."""
    _check(n >= 1, "n", ">= 1", n)
    q = half_angle_slope(r)
    if r == 0.0:
        return 1.0 if n == 1 else 0.0
    r = float(r)  # Python floats: an overflowing quotient is inf, unwarned
    root = math.sqrt(_one_minus_r2(r))
    scale = 2.0 * root / r
    if scale == math.inf:  # r below 2/DBL_MAX: scale q = 2 root/(1 + root)
        return 2.0 * root / (1.0 + root) * q ** (n - 1)
    return scale * q ** n


def closed_form_d0(r: float) -> float:
    """Constant term of the even series: d0 = -(1 - sqrt(1-r^2))/r."""
    return -half_angle_slope(r)


def closed_form_spectrum(r: float, N: int) -> FourierSpectrum:
    """Exact even spectrum of the pure oscillation through order N."""
    _check(N >= 0, "N", ">= 0", N)
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
    vectors agree to _TOL.  d0 carries prefactor 1/P_hat, every n >= 1
    carries 2/P_hat.  The signal is called with one Python float at a
    time, and a set of samples that holds a value that is not finite is a
    ValueError, as is a subnormal P_hat, whose nodes would round together.
    """
    _check(0 <= N <= _MAX_ORDER, "N", f"in [0, {_MAX_ORDER}]", N)
    _check(sys.float_info.min <= P_hat < math.inf, "P_hat",
           "positive and finite, not subnormal", P_hat)
    half = float(P_hat) / 2.0
    M = max(64, 4 * N)
    f = _samples(signal, -half + P_hat / M * np.arange(M))
    mismatch = abs(f[0] - signal(half))
    if not mismatch <= 1e-6:  # nan too
        raise ValueError(f"signal is not P_hat-periodic "
                         f"(endpoint mismatch {mismatch:.3e})")
    prev = None
    while True:
        # n w t_j = 2 pi n j/M - n pi: the sums of f_j cos/sin(n w t_j) are
        # (-1)^n times the real/negated imaginary parts of the DFT
        F = (-1.0) ** np.arange(N + 1) * np.fft.rfft(f)[:N + 1] / M
        coeffs = 2.0 * (F.real if kind is SeriesKind.EVEN else -F.imag)
        coeffs[0] = F[0].real
        if prev is not None and np.max(np.abs(coeffs - prev)) <= _TOL:
            return FourierSpectrum(d0=float(coeffs[0]), coeffs=coeffs[1:],
                                   kind=kind)
        if 2 * M > _MAX_NODES:
            raise QuadratureNotConverged(
                f"trapezoid spectrum not converged with {M} nodes")
        mids = _samples(signal, -half + P_hat / M * (np.arange(M) + 0.5))
        f = np.column_stack([f, mids]).ravel()
        M, prev = 2 * M, coeffs


def _samples(signal: Callable[[float], float], nodes) -> np.ndarray:
    """The signal on the nodes, checked finite: a sum past a nan or an inf
    never settles, so it would sample up to _MAX_NODES for nothing."""
    f = np.array([signal(t) for t in nodes.tolist()])
    if not np.isfinite(f).all():
        raise ValueError(f"signal is not finite at one of {len(nodes)} "
                         f"trapezoid nodes in [{nodes[0]:.6g}, "
                         f"{nodes[-1]:.6g}]")
    return f


def _check_resolvable(r: float, N: int) -> None:
    """Raise `QuadratureNotConverged` where `quadrature_spectrum`'s last test
    cannot pass.  That test compares _MAX_NODES/2 = h nodes with _MAX_NODES,
    and in exact arithmetic its difference at order N is at least what h
    nodes alias into it: c_{h - N} + c_{h + N} for N >= 1, from both sides,
    and c_h at N = 0, whose prefactor is half.  Rounding moves the test by
    up to 2% either way, so the check fires past _TOL by _ROUNDING_MARGIN.
    An N outside [0, _MAX_ORDER] is left to `quadrature_spectrum`."""
    if not 0 <= N <= _MAX_ORDER:
        return
    h = _MAX_NODES // 2
    orders = (h - N, h + N) if N else (h,)
    alias = sum(float(closed_form_cn(n, r)) for n in orders)
    if alias > _ROUNDING_MARGIN * _TOL:
        raise QuadratureNotConverged(
            f"{_MAX_NODES} nodes cannot resolve r = {r!r}: "
            f"{' + '.join(f'c_{n}' for n in orders)} = {alias!r} > "
            f"{_ROUNDING_MARGIN * _TOL:.3g}")


@dataclass(frozen=True, slots=True)
class AnharmonicityEstimate(_Value):
    """Ratio of consecutive coefficients with its propagated uncertainty."""

    ratio: float
    ratio_err: float
    order_n: int
    kind: SeriesKind
    reliable: bool = True
    r_hat: float = float("nan")
    r_err: float = float("nan")


def anharmonicity(spectrum: FourierSpectrum, n: int) -> AnharmonicityEstimate:
    """Anharmonicity factor of order n.

    Odd series: C_n = c_{n+1}/c_n for n >= 1.  Even series: D_n =
    d_{n+1}/d_n for n >= 0 (the constant d0 is a legal denominator).
    A denominator consistent with zero flags the ratio unreliable.  The
    ratio and its error are formed from the coefficients and errors scaled
    by 2^-k, which puts |den| in [1/2, 1): both are homogeneous of degree
    0, so they keep their bits, and den^2 cannot underflow.
    """
    lo = 1 if spectrum.kind is SeriesKind.ODD else 0
    _check(lo <= n < spectrum.order, "n",
           f"in [{lo}, {spectrum.order - 1}] for this spectrum", n)
    return _ratio(spectrum.coefficient(n + 1), spectrum.coefficient(n),
                  spectrum.coefficient_err(n + 1),
                  spectrum.coefficient_err(n), spectrum.kind, n)


def _ratio(num: float, den: float, num_err: float, den_err: float,
           kind: SeriesKind, n: int,
           amplitude: float | None = None) -> AnharmonicityEstimate:
    """`anharmonicity` of order n from the coefficients of orders n + 1
    and n and their errors, on floats; `fit.estimate_r` reads its ratios
    here too, off the fit's coefficient lists.  With an amplitude R, a
    finite r is the corrected one, with its error (`_corrected`)."""
    reliable = abs(den) > den_err
    if den == 0.0:
        return AnharmonicityEstimate(float("inf"), float("inf"), n, kind,
                                     reliable=False)
    # 2^-k as two floats, finite even for a subnormal den; a product past
    # the float range is inf, where math.ldexp would raise OverflowError
    h = -math.frexp(den)[1]
    f, g = 2.0 ** (h // 2), 2.0 ** (h - h // 2)
    num, den = num * f * g, den * f * g
    num_err, den_err = num_err * f * g, den_err * f * g
    ratio = float(num / den)
    # first-order (delta-method) propagation; coefficients treated independent
    err = float(np.hypot(num_err / den, num * den_err / den ** 2))
    r, r_err = _invert_ratio(ratio, err, kind, n)
    if amplitude is not None and math.isfinite(r):
        r, r_err = _corrected(min(r, 1.0), r_err, amplitude)
    return AnharmonicityEstimate(ratio, err, n, kind, reliable, r, r_err)


def r_from_anharmonicity(est: AnharmonicityEstimate) -> tuple[float, float]:
    """Invert an anharmonicity ratio to the damping ratio r.

    C_n or D_n (n >= 1):  r = 2 rho / (rho^2 + 1)
    D_0:                  r = 1 / sqrt(1 + rho^2 / 4)
    with rho = |ratio|; signs are reported separately on the estimate.
    The error is max(|r'| sigma, |r''| sigma^2 / 2): r(rho) turns at
    rho = 1 (C_n) and rho = 0 (D_0), where the first-order term vanishes.
    """
    return _invert_ratio(est.ratio, est.ratio_err, est.kind, est.order_n)


def _invert_ratio(ratio: float, ratio_err: float, kind: SeriesKind,
                  n: int) -> tuple[float, float]:
    """`r_from_anharmonicity` of the ratio of order n, on floats."""
    rho = abs(ratio)
    if kind is SeriesKind.EVEN and n == 0:
        if math.isinf(rho):
            return 0.0, 0.0 if ratio_err == 0 else float("nan")
        r = 1.0 / math.sqrt(1.0 + rho * rho / 4.0)
        drdrho = -(rho / 4.0) * r ** 3
        d2rdrho2 = (rho * rho - 2.0) / 8.0 * r ** 5
    else:
        if math.isinf(rho):
            return 0.0, float("nan")
        r = 2.0 * rho / (rho * rho + 1.0)
        drdrho = 2.0 * (1.0 - rho * rho) / (rho * rho + 1.0) ** 2
        d2rdrho2 = -4.0 * rho * (3.0 - rho * rho) / (rho * rho + 1.0) ** 3
    return float(r), float(max(abs(drdrho) * ratio_err,
                               0.5 * abs(d2rdrho2) * (ratio_err * ratio_err)))


def correct_effective_r(r_tilde: float, amplitude: float) -> float:
    """Map the effective ratio of a reduced-amplitude oscillation to true r.

    r = r_tilde / sqrt(R^2 + r_tilde^2 (1 - R^2)), where R = `amplitude` is
    the amplitude of the signal's projection along the decay direction,
    formed by `_corrected` on r_tilde and R scaled by one power of two, so
    that R = 1e-200 is no 0/0.
    """
    _check(0.0 <= r_tilde <= 1.0, "r_tilde", "in [0, 1]", r_tilde)
    _check(0.0 < amplitude <= 1.0, "amplitude R", "in (0, 1]", amplitude)
    return _corrected(r_tilde, 0.0, amplitude)[0]


def _corrected(r_tilde: float, r_err: float, R: float) -> tuple[float, float]:
    """`correct_effective_r`'s r, and r_err chained through it to
    r_err R^2 / (R^2 + r_tilde^2 (1 - R^2))^(3/2), on (t, a) = 2^h
    (r_tilde, R), the larger in [1/2, 1): no square underflows, and r keeps
    its bits wherever none did.  D = a^2 + t^2 (1 - R^2) >= 3/16 (a >= 1/2,
    or t >= 1/2 with R <= 1/2, or r_tilde = 1).  2^h, two factors, scales
    a^2 before r_err does: a slope past the float range is inf, and r_err
    a^2 2^h underflows only where the error is below 13 DBL_MIN."""
    h = -math.frexp(max(r_tilde, R))[1]
    t, a = math.ldexp(r_tilde, h), math.ldexp(R, h)
    D = a ** 2 + t ** 2 * (1.0 - R ** 2)
    num = a ** 2 * 2.0 ** (h // 2) * 2.0 ** (h - h // 2)  # R^2 8^h
    return t / math.sqrt(D), r_err * num / D ** 1.5
