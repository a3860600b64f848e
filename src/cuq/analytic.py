"""Closed-form results for critical unstable qubits.

Covers the exact pure-state solution on the plane spanned by the decay
direction and its normal (angle, period, projections), the asymptotic
states of the general geometry, the magnitude of an initially fully
mixed state, and the elliptical trajectory it traces out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._base import _check, _check_r, _one_minus_r2, _scaled_split, _Value
from .core import (QubitModel, _e_dot_gamma, _finite, _generator, _is_cuq,
                   _read_only)

__all__ = [
    "CuqClock",
    "AsymptoticState",
    "AsymptoticBranch",
    "MixedEllipse",
    "cuq_clock",
    "restore_units",
    "cuq_theta",
    "cuq_projections",
    "asymptotic_state",
    "mixed_magnitude",
    "mixed_magnitude_vs_angle",
    "mixed_ellipse",
    "polar_rates",
    "half_angle_slope",
]


@dataclass(frozen=True, slots=True)
class CuqClock(_Value):
    """Dimensionless oscillation period and angular frequency."""

    P_hat: float
    omega_hat: float


def _clock_root(r: float) -> tuple[float, float]:
    """(sqrt(1 - r^2), omega_hat = sqrt(1 - r^2)/r) for 0 < r < 1, which
    the clock, the projections and the mixed magnitude read; a subnormal
    r, whose omega_hat overflows, is an OverflowError."""
    _check(0.0 < r < 1.0, "r", "in (0, 1)", r)
    r = float(r)  # Python floats: an overflowing quotient is inf, unwarned
    root = math.sqrt(_one_minus_r2(r))
    w = root / r
    if w == math.inf:  # a subnormal r
        raise OverflowError(f"omega_hat overflows at r = {r!r}")
    return root, w


def _phase(tau, r: float):
    """(sqrt(1 - r^2), w, w tau), w = sqrt(1 - r^2)/r = omega_hat, the
    phase of the pure orbit that `cuq_theta`, `cuq_projections` and
    `mixed_magnitude` read.  A tau that is not finite is a ValueError, and
    a finite tau whose phase is past the float range an OverflowError, as
    in `propagate`.  A float tau (np.float64 too) is read as it is, with
    no 0-d array: `quadrature_spectrum` samples one float at a time."""
    root, w = _clock_root(r)
    if isinstance(tau, float) or np.ndim(tau) == 0:
        # Python floats: an overflowing product is inf, unwarned
        phase = w * float(tau)
        finite = math.isfinite(phase)
    else:
        tau = np.asarray(tau, dtype=float)
        with np.errstate(over="ignore"):
            phase = w * tau
        finite = np.isfinite(phase).all()
    if not finite:
        _finite("tau", tau)
        raise OverflowError(f"the phase w tau overflows at r = {r!r}, "
                            f"tau = {float(np.abs(tau).max())!r}")
    return root, w, phase


def cuq_clock(r: float) -> CuqClock:
    """P_hat = 2 pi r / sqrt(1 - r^2) and omega_hat = 2 pi / P_hat.

    omega_hat = sqrt(1 - r^2)/r is Im mu, the generator's root at
    e.gamma = 0 (`core._generator`), bit for bit: both form 1 - r^2
    with `_base._one_minus_r2`, so the clock and `propagate` keep time.
    The root and omega_hat are `_clock_root`'s, which the projections
    read too."""
    root, w = _clock_root(r)
    return CuqClock(P_hat=2.0 * math.pi * float(r) / root, omega_hat=w)


def restore_units(r: float, E_mag: float) -> tuple[float, float]:
    """Physical period [ps] and angular frequency [1/ps].

    P = pi / (|E| sqrt(1 - r^2)), omega = 2 |E| sqrt(1 - r^2), in plain
    floats; either one past the float range is an OverflowError.
    """
    _check(0.0 < r < 1.0, "r", "in (0, 1)", r)
    _check(0.0 < E_mag < math.inf, "E_mag", "positive and finite", E_mag)
    r, E_mag = float(r), float(E_mag)
    scale = E_mag * math.sqrt(_one_minus_r2(r))
    P = math.pi / scale if scale > 0.0 else math.inf
    if max(P, 2.0 * scale) == math.inf:
        raise OverflowError(f"the period or frequency overflows at r = {r!r}, "
                            f"|E| = {E_mag!r}")
    return P, 2.0 * scale


def half_angle_slope(r: float) -> float:
    """(1 - sqrt(1 - r^2)) / r, evaluated cancellation-free as r/(1 + sqrt(1-r^2)).

    The geometric ratio of consecutive Fourier coefficients; finite as r -> 0.
    """
    _check(0.0 <= r < 1.0, "r", "in [0, 1)", r)
    r = float(r)
    return r / (1.0 + math.sqrt(_one_minus_r2(r)))


def cuq_theta(tau, r: float):
    """Continuous, unwrapped angle theta(tau) with theta(0) = 0.

    Solves d(theta)/dtau = -1/r - cos(theta) via the tangent half-angle
    inversion, tan(theta/2) = -sqrt((1 + r)/(1 - r)) tan(w tau/2), with
    both sides of the atan2 scaled by sqrt(1 - r^2); theta decreases by
    2 pi every period.  A tau that is not finite, or whose phase w tau is
    past the float range, raises as in `cuq_projections`.
    """
    root, _, phase = _phase(tau, r)
    m = np.floor(phase / (2.0 * np.pi) + 0.5)
    half = (phase - 2.0 * np.pi * m) / 2.0  # in [-pi/2, pi/2], up to rounding
    # atan2, not arctan: continuous where half rounds to +-pi/2
    return (-2.0 * np.arctan2((1.0 + r) * np.sin(half), root * np.cos(half))
            - 2.0 * np.pi * m)


def cuq_projections(tau, r: float):
    """(b.gamma, b.(e x gamma)) of the pure reference solution.

    b.gamma       = sqrt(1-r^2) sin(w tau) / (1 - r cos(w tau))
    b.(e x gamma) = (cos(w tau) - r) / (1 - r cos(w tau))

    The prefactor sqrt(1 - r^2) and w = sqrt(1 - r^2)/r are formed once,
    by `_clock_root`, so w is `cuq_clock(r).omega_hat` bit for bit.
    A tau that is not finite is a ValueError, and a finite tau whose phase
    w tau is past the float range an OverflowError (`_phase`).  A scalar
    tau gives two Python floats through libm's cos and sin, which round as
    numpy's float64 cos and sin do, so a sample keeps the array call's bits.
    """
    root, _, phase = _phase(tau, r)
    if type(phase) is float:
        r = float(r)
        cos = math.cos(phase)
        denom = 1.0 - r * cos
        return root * math.sin(phase) / denom, (cos - r) / denom
    cos = np.cos(phase)
    denom = 1.0 - r * cos
    b_gamma = root * np.sin(phase) / denom
    b_exg = (cos - r) / denom
    return b_gamma, b_exg


class AsymptoticBranch(Enum):
    GENERAL = "general"
    ALIGNED = "aligned"
    PERPENDICULAR_OVERDAMPED = "perpendicular-overdamped"
    CRITICAL_NO_STATIONARY = "critical-no-stationary"


@dataclass(frozen=True, slots=True)
class AsymptoticState(_Value):
    """b_star is a read-only copy of the vector passed in, or None."""

    b_star: np.ndarray | None
    alpha: float
    branch: AsymptoticBranch

    def __post_init__(self):
        if self.b_star is not None:
            b = np.array(self.b_star, dtype=float)
            object.__setattr__(self, "b_star", _read_only(b))


def asymptotic_state(model: QubitModel) -> AsymptoticState:
    """Stationary Bloch vector of the master evolution equation.

    b* = alpha e - k e x gamma - (c/alpha) k r e x (e x gamma) with
    c = cos(theta_eg), root = sqrt((1 - r^2)^2 + 4 c^2 r^2), alpha =
    sign(c) sqrt((1 - r^2 + root)/2) and k = 2 r/(1 + r^2 + root), which
    is (1 - alpha^2)/(r sin^2) and holds at sin(theta_eg) = 0 too.  All
    three read the generator's root mu = sqrt(1 - 1/r^2 + 2 i c/r),
    Re mu >= 0 (`core._generator`): alpha = r Im mu, c/alpha = Re mu
    and k r = 1/(1 + (Im mu)^2).  In the scaled terms s mu, s = min(r, 1)
    and q = s/r these are Im(s mu)/q, Re(s mu)/s and s^2/(s^2 + Im(s mu)^2),
    so nothing cancels and no r^2 is formed.  e.gamma = 0 with r < 1, the
    CUQ (Re mu = 0 != mu), has no stationary state (the Hopf bifurcation
    at r = 1); it is decided on the geometry exactly, as are ALIGNED and
    PERPENDICULAR_OVERDAMPED (r >= 1), which mean e x gamma = 0 and c = 0.
    At a subnormal r the scaled 2 c s q underflows to a zero that keeps
    the sign of c, so alpha still does."""
    if _is_cuq(model):
        return AsymptoticState(b_star=None, alpha=float("nan"),
                               branch=AsymptoticBranch.CRITICAL_NO_STATIONARY)
    _, smu, _ = _generator(model)
    e, exg = model.e, model.e_cross_gamma
    s, q, _ = _scaled_split(model.r)
    alpha = float(smu.imag) / q
    D = s * s + smu.imag ** 2  # s^2 / (k r)
    b = alpha * e - (s * q / D) * exg - (s * smu.real / D) * np.cross(e, exg)
    branch = (AsymptoticBranch.ALIGNED if not exg.any()
              else AsymptoticBranch.PERPENDICULAR_OVERDAMPED
              if _e_dot_gamma(model) == 0.0
              else AsymptoticBranch.GENERAL)
    return AsymptoticState(b_star=b, alpha=alpha, branch=branch)


def mixed_magnitude(tau, r: float):
    """|b(tau)| for a fully mixed start b(0) = 0, with e perpendicular to gamma.

    The paper's |b|^2 = 1 - (1 - r^2)^2 / (1 - r^2 cos(omega_hat tau))^2,
    1 - 4/(2 + tau^2)^2 at r = 1, is u^2 (4 + u^2)/(2 + u^2)^2 with
    u = 2 sin(omega_hat tau/2)/omega_hat (u = tau at r = 1, where
    omega_hat = 0).  So |b| = 2 s/(1 + s^2) with s = |u|/hypot(2, u) in
    [0, 1): one formula for 0 < r <= 1 that cancels nowhere, at r -> 1,
    at small r or at small tau.  At omega_hat tau = pi, s = r.  A tau
    that is not finite, or whose phase omega_hat tau is past the float
    range, raises as in `cuq_projections`.
    """
    _check(0.0 < r <= 1.0, "r", "in (0, 1]", r)
    if r < 1.0:
        _, w, phase = _phase(tau, r)
        u = 2.0 * np.sin(phase / 2.0) / w
    else:
        u = _finite("tau", tau)
    s = np.abs(u) / np.hypot(2.0, u)
    return 2.0 * s / (1.0 + s * s)


def mixed_magnitude_vs_angle(phi, r: float):
    """|b| = -2 r sin(phi) / (1 + r^2 sin^2 phi) on the lower half-plane branch.

    Defined for phi with sin(phi) <= 0 (the fully mixed trajectory sweeps
    only the lower half-plane); raises for queries off that branch.
    """
    _check(0.0 < r < 1.0, "r", "in (0, 1)", r)
    s = np.sin(_finite("phi", phi))
    _check(not np.any(s > 1e-12), "phi",
           "on the lower half-plane branch, sin(phi) <= 0", phi)
    return -2.0 * r * s / (1.0 + r * r * s * s)


@dataclass(frozen=True, slots=True)
class MixedEllipse(_Value):
    """Ellipse traced by the fully mixed trajectory, centred on the
    e x gamma axis at -r/(1+r^2)."""

    r: float
    semi_major: float   # along gamma
    semi_minor: float   # along e x gamma
    eccentricity: float

    @property
    def center_offset(self) -> float:
        return -self.r / (1.0 + self.r * self.r)


def mixed_ellipse(r: float) -> MixedEllipse:
    """Semi-axes r/sqrt(1+r^2), r/(1+r^2) and eccentricity r/sqrt(1+r^2)."""
    _check(0.0 < r < 1.0, "r", "in (0, 1)", r)
    r = float(r)
    one_p = 1.0 + r * r
    return MixedEllipse(
        r=r,
        semi_major=r / math.sqrt(one_p),
        semi_minor=r / one_p,
        eccentricity=r / math.sqrt(one_p),
    )


def polar_rates(b_mag: float, phi: float, r: float) -> tuple[float, float]:
    """(d|b|/dtau, d phi/dtau) of the planar polar representation.

    d|b|/dtau = (1 - |b|^2) cos(phi);  d phi/dtau = -1/r - sin(phi)/|b|,
    on Python floats.  The angular rate is singular at |b| = 0 (use the
    Cartesian form there); a d phi/dtau past the float range, at a
    subnormal r or |b|, is an OverflowError.
    """
    _check(0.0 < b_mag <= 1.0, "|b|", "in (0, 1]", b_mag)
    _check_r(r)
    b_mag, r, phi = float(b_mag), float(r), float(_finite("phi", phi))
    dphi = -1.0 / r - math.sin(phi) / b_mag
    if not math.isfinite(dphi):
        raise OverflowError(f"d phi/dtau overflows at r = {r!r}, "
                            f"|b| = {b_mag!r}")
    return (1.0 - b_mag * b_mag) * math.cos(phi), dphi
