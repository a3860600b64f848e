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

from .core import QubitModel, _one_minus_r2, _scaled_split
from .integrate import _generator

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


def _check_r_oscillatory(r: float):
    if not (0.0 < r < 1.0):
        raise ValueError(f"r must be in (0, 1) for an oscillating qubit, got {r}")


@dataclass(frozen=True)
class CuqClock:
    """Dimensionless oscillation period and angular frequency."""

    P_hat: float
    omega_hat: float


def cuq_clock(r: float) -> CuqClock:
    """P_hat = 2 pi r / sqrt(1 - r^2) and omega_hat = 2 pi / P_hat.

    omega_hat = sqrt(1 - r^2)/r is Im mu, the generator's root at
    e.gamma = 0 (`integrate._generator`), bit for bit: both form 1 - r^2
    with `_base._one_minus_r2`, so the clock and `propagate` keep time."""
    _check_r_oscillatory(r)
    r = float(r)  # Python floats: an overflowing quotient is inf, unwarned
    root = math.sqrt(_one_minus_r2(r))
    if root / r == math.inf:  # a subnormal r
        raise OverflowError(f"omega_hat overflows at r = {r!r}")
    return CuqClock(P_hat=2.0 * math.pi * r / root, omega_hat=root / r)


def restore_units(r: float, E_mag: float) -> tuple[float, float]:
    """Physical period [ps] and angular frequency [1/ps].

    P = pi / (|E| sqrt(1 - r^2)), omega = 2 |E| sqrt(1 - r^2).
    """
    _check_r_oscillatory(r)
    if not E_mag > 0.0:
        raise ValueError("E_mag must be positive")
    root = np.sqrt(_one_minus_r2(r))
    return np.pi / (E_mag * root), 2.0 * E_mag * root


def half_angle_slope(r: float) -> float:
    """(1 - sqrt(1 - r^2)) / r, evaluated cancellation-free as r/(1 + sqrt(1-r^2)).

    The geometric ratio of consecutive Fourier coefficients; finite as r -> 0.
    """
    if not (0.0 <= r < 1.0):
        raise ValueError(f"r must be in [0, 1), got {r}")
    return r / (1.0 + np.sqrt(_one_minus_r2(r)))


def cuq_theta(tau, r: float):
    """Continuous, unwrapped angle theta(tau) with theta(0) = 0.

    Solves d(theta)/dtau = -1/r - cos(theta) via the tangent half-angle
    inversion; theta decreases by 2 pi every period.
    """
    clock = cuq_clock(r)
    tau = np.asarray(tau, dtype=float)
    scalar = tau.ndim == 0
    t = np.atleast_1d(tau)
    m = np.floor(t / clock.P_hat + 0.5)
    frac = t - m * clock.P_hat  # in [-P/2, P/2), up to rounding
    amp = np.sqrt((1.0 + r) / (1.0 - r))
    half = clock.omega_hat * frac / 2.0
    # atan2, not arctan(amp tan(half)): continuous where frac rounds to +-P/2
    theta = (-2.0 * np.arctan2(amp * np.sin(half), np.cos(half))
             - 2.0 * np.pi * m)
    return float(theta[0]) if scalar else theta


def cuq_projections(tau, r: float):
    """(b.gamma, b.(e x gamma)) of the pure reference solution.

    b.gamma       = sqrt(1-r^2) sin(w tau) / (1 - r cos(w tau))
    b.(e x gamma) = (cos(w tau) - r) / (1 - r cos(w tau))
    """
    w = cuq_clock(r).omega_hat
    tau = np.asarray(tau, dtype=float)
    denom = 1.0 - r * np.cos(w * tau)
    b_gamma = np.sqrt(_one_minus_r2(r)) * np.sin(w * tau) / denom
    b_exg = (np.cos(w * tau) - r) / denom
    return b_gamma, b_exg


class AsymptoticBranch(Enum):
    GENERAL = "general"
    ALIGNED = "aligned"
    PERPENDICULAR_OVERDAMPED = "perpendicular-overdamped"
    CRITICAL_NO_STATIONARY = "critical-no-stationary"


@dataclass(frozen=True)
class AsymptoticState:
    b_star: np.ndarray | None
    alpha: float
    branch: AsymptoticBranch


def asymptotic_state(model: QubitModel) -> AsymptoticState:
    """Stationary Bloch vector of the master evolution equation.

    b* = alpha e - k e x gamma - (c/alpha) k r e x (e x gamma) with
    c = cos(theta_eg), root = sqrt((1 - r^2)^2 + 4 c^2 r^2), alpha =
    sign(c) sqrt((1 - r^2 + root)/2) and k = 2 r/(1 + r^2 + root), which
    is (1 - alpha^2)/(r sin^2) and holds at sin(theta_eg) = 0 too.  All
    three read the generator's root mu = sqrt(1 - 1/r^2 + 2 i c/r),
    Re mu >= 0 (`integrate._generator`): alpha = r Im mu, c/alpha = Re mu
    and k r = 1/(1 + (Im mu)^2).  In the scaled terms s mu, s = min(r, 1)
    and q = s/r these are Im(s mu)/q, Re(s mu)/s and s^2/(s^2 + Im(s mu)^2),
    so nothing cancels and no r^2 is formed.  e.gamma = 0 with r < 1, the
    CUQ (Re mu = 0 != mu), has no stationary state (the Hopf bifurcation
    at r = 1); it is decided on the geometry exactly, as are ALIGNED and
    PERPENDICULAR_OVERDAMPED (r >= 1), which mean e x gamma = 0 and c = 0.
    At a subnormal r the scaled 2 c s q underflows to a zero that keeps
    the sign of c, so alpha still does."""
    if model.r < 1.0 and model.e @ model.gamma == 0.0:
        return AsymptoticState(b_star=None, alpha=float("nan"),
                               branch=AsymptoticBranch.CRITICAL_NO_STATIONARY)
    _, smu, _ = _generator(model)
    e, exg = model.e, model.e_cross_gamma
    s, q, _ = _scaled_split(model.r)
    alpha = smu.imag / q
    D = s * s + smu.imag ** 2  # s^2 / (k r)
    b = alpha * e - (s * q / D) * exg - (s * smu.real / D) * np.cross(e, exg)
    branch = (AsymptoticBranch.ALIGNED if not exg.any()
              else AsymptoticBranch.PERPENDICULAR_OVERDAMPED
              if e @ model.gamma == 0.0 else AsymptoticBranch.GENERAL)
    return AsymptoticState(b_star=b, alpha=alpha, branch=branch)


def mixed_magnitude(tau, r: float):
    """|b(tau)| for a fully mixed start b(0) = 0, with e perpendicular to gamma.

    The paper's |b|^2 = 1 - (1 - r^2)^2 / (1 - r^2 cos(omega_hat tau))^2,
    1 - 4/(2 + tau^2)^2 at r = 1, is u^2 (4 + u^2)/(2 + u^2)^2 with
    u = 2 sin(omega_hat tau/2)/omega_hat (u = tau at r = 1, where
    omega_hat = 0).  So |b| = 2 s/(1 + s^2) with s = |u|/hypot(2, u) in
    [0, 1): one formula for 0 < r <= 1 that cancels nowhere, at r -> 1,
    at small r or at small tau.  At omega_hat tau = pi, s = r.
    """
    if not (0.0 < r <= 1.0):
        raise ValueError(f"r must be in (0, 1], got {r}")
    u = np.asarray(tau, dtype=float)
    if r < 1.0:
        w = cuq_clock(r).omega_hat
        u = 2.0 * np.sin(w * u / 2.0) / w
    s = np.abs(u) / np.hypot(2.0, u)
    return 2.0 * s / (1.0 + s * s)


def mixed_magnitude_vs_angle(phi, r: float):
    """|b| = -2 r sin(phi) / (1 + r^2 sin^2 phi) on the lower half-plane branch.

    Defined for phi with sin(phi) <= 0 (the fully mixed trajectory sweeps
    only the lower half-plane); raises for queries off that branch.
    """
    _check_r_oscillatory(r)
    phi = np.asarray(phi, dtype=float)
    s = np.sin(phi)
    if np.any(s > 1e-12):
        raise ValueError("phi is outside the lower half-plane branch "
                         "(the formula would be negative)")
    return -2.0 * r * s / (1.0 + r * r * s * s)


@dataclass(frozen=True)
class MixedEllipse:
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
    _check_r_oscillatory(r)
    one_p = 1.0 + r * r
    return MixedEllipse(
        r=r,
        semi_major=r / np.sqrt(one_p),
        semi_minor=r / one_p,
        eccentricity=r / np.sqrt(one_p),
    )


def polar_rates(b_mag: float, phi: float, r: float) -> tuple[float, float]:
    """(d|b|/dtau, d phi/dtau) of the planar polar representation.

    d|b|/dtau = (1 - |b|^2) cos(phi);  d phi/dtau = -1/r - sin(phi)/|b|.
    The angular rate is singular at |b| = 0 (use the Cartesian form there).
    """
    if not (0.0 < b_mag <= 1.0):
        raise ValueError(f"|b| must be in (0, 1], got {b_mag}")
    db = (1.0 - b_mag * b_mag) * np.cos(phi)
    dphi = -1.0 / r - np.sin(phi) / b_mag
    return float(db), float(dphi)
