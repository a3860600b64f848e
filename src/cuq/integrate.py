"""Exact propagator, stationary state and DP5 oracle of the master equation.

The normalised state is the image of a linear evolution,
rho(tau) ~ e^{K tau} rho0 e^{K^dagger tau} with K = n.sigma/2 and
n = gamma + i e/r.  `propagate` evaluates that closed form at any set of
times and `evolve_to_asymptote` reads the limit off the same generator;
neither integrates, and neither uses the analytic module.  `evolve`, a
Dormand-Prince 5(4) pair with a PI step-size controller and cubic Hermite
dense output, integrates the nonlinear Bloch equation itself, with the
vector field from `core._vector_field` (the one definition of the field):
it is the independent oracle that the exact forms are tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (IDENTITY2, SIGMA, BlochState, DensityMatrix, QubitModel,
                   _as_vec3, _vector_field, density_from_bloch)

__all__ = [
    "Trajectory",
    "StepSizeUnderflow",
    "NON_CONVERGENT",
    "evolve",
    "evolve_to_asymptote",
    "propagate",
]


class StepSizeUnderflow(RuntimeError):
    """Step size collapsed below machine resolution (stiff/singular model)."""


class _NonConvergent:
    """Sentinel: the state keeps oscillating and never settles."""

    def __repr__(self):
        return "NON_CONVERGENT"

    def __bool__(self):
        return False


NON_CONVERGENT = _NonConvergent()

# Dormand-Prince 5(4) tableau.  b5 propagates; b5 - b4 is the error weight.
_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [
    np.array([]),
    np.array([1 / 5]),
    np.array([3 / 40, 9 / 40]),
    np.array([44 / 45, -56 / 15, 32 / 9]),
    np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
    np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656]),
    np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84]),
]
_B5 = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0])
_B4 = np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                -92097 / 339200, 187 / 2100, 1 / 40])
_E = _B5 - _B4


@dataclass
class Trajectory:
    """Accepted integration steps plus dense-output interpolation."""

    model: QubitModel
    taus: np.ndarray
    bs: np.ndarray       # shape (n, 3)
    derivs: np.ndarray   # db/dtau at the sample points, for Hermite interpolation
    controller_stats: dict = field(default_factory=dict)

    @property
    def final(self) -> np.ndarray:
        return self.bs[-1]

    def interpolate(self, tau) -> np.ndarray:
        """Cubic Hermite interpolation between accepted steps."""
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        t = np.atleast_1d(tau)
        if not np.all(np.isfinite(t)):
            raise ValueError("interpolation query is not finite")
        if t.min() < self.taus[0] - 1e-12 or t.max() > self.taus[-1] + 1e-12:
            raise ValueError("interpolation query outside the integrated range")
        idx = np.clip(np.searchsorted(self.taus, t, side="right") - 1,
                      0, len(self.taus) - 2)
        t0 = self.taus[idx]
        h = self.taus[idx + 1] - t0
        s = np.clip((t - t0) / h, 0.0, 1.0)[:, None]
        y0, y1 = self.bs[idx], self.bs[idx + 1]
        f0, f1 = self.derivs[idx], self.derivs[idx + 1]
        h = h[:, None]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = h00 * y0 + h10 * h * f0 + h01 * y1 + h11 * h * f1
        return out[0] if scalar else out

    def magnitudes(self) -> np.ndarray:
        return np.linalg.norm(self.bs, axis=1)


def _max_step(model: QubitModel) -> float:
    """>= 64 steps per dimensionless period when r < 1; none otherwise.

    The period 2 pi r / sqrt(1 - r^2) exceeds the rotation scale 2 pi r, so
    this cap also resolves the 1/r rotation that dominates at small r.
    """
    if model.r >= 1.0:
        return np.inf
    return 2.0 * np.pi * model.r / np.sqrt(1.0 - model.r ** 2) / 64.0


def evolve(model: QubitModel, b0, tau_end: float,
           rel_tol: float = 1e-9, abs_tol: float = 1e-12) -> Trajectory:
    """Integrate db/dtau from b0 over [0, tau_end]."""
    if not 0.0 < tau_end < np.inf:
        raise ValueError(f"tau_end must be positive and finite, got {tau_end}")
    for tol in (rel_tol, abs_tol):
        if not (0.0 < tol <= 1e-2):
            raise ValueError(f"tolerance {tol} outside (0, 1e-2]")
    b = _as_vec3(b0).copy()

    f = _vector_field(model)
    h_max = min(_max_step(model), tau_end)
    k = np.empty((7, 3))
    k[0] = f(b)

    # conservative initial step from the rhs scale
    scale = abs_tol + rel_tol * max(np.linalg.norm(b), 1.0)
    d1 = np.linalg.norm(k[0])
    h = min(h_max, 0.01 * scale / d1 if d1 > 0 else h_max, 0.1)

    taus = [0.0]
    bs = [b.copy()]
    ders = [k[0].copy()]
    tau = 0.0
    n_acc = n_rej = 0
    nfev = 1
    max_err = 0.0
    err_prev = 1.0
    # PI controller exponents for a 5th-order propagating pair
    k_i, k_p = 0.7 / 5.0, 0.4 / 5.0

    while tau < tau_end:
        h = min(h, tau_end - tau, h_max)
        if h < 1e-14 * max(1.0, tau):
            raise StepSizeUnderflow(f"step underflow at tau={tau}")
        for i in range(1, 7):
            k[i] = f(b + h * (_A[i] @ k[:i]))
        nfev += 6
        y5 = b + h * (_B5 @ k)
        err_vec = h * (_E @ k)
        sc = abs_tol + rel_tol * np.maximum(np.abs(b), np.abs(y5))
        err = math.sqrt(float(((err_vec / sc) ** 2).sum()) / 3.0)
        if err <= 1.0:
            tau += h
            b = y5
            k[0] = k[6]  # FSAL
            taus.append(tau)
            bs.append(b.copy())
            ders.append(k[6].copy())
            n_acc += 1
            max_err = max(max_err, err)
            fac = 0.9 * (err + 1e-16) ** (-k_i) * (err_prev + 1e-16) ** k_p
            err_prev = max(err, 1e-16)
            h *= min(5.0, max(0.2, fac))
        else:
            n_rej += 1
            h *= max(0.2, 0.9 * err ** (-0.2))

    stats = {
        "n_accepted": n_acc,
        "n_rejected": n_rej,
        "n_fev": nfev,
        "max_local_error": max_err,
        "rel_tol": rel_tol,
        "abs_tol": abs_tol,
    }
    return Trajectory(model=model, taus=np.array(taus), bs=np.array(bs),
                      derivs=np.array(ders), controller_stats=stats)


def _generator(model: QubitModel) -> tuple[np.ndarray, complex]:
    """n = gamma + i e/r and mu = sqrt(n.n) with Re mu >= 0, for K = n.sigma/2.

    n.n = 1 - 1/r^2 + 2 i cos(theta_eg)/r; |cos| < 1e-10 is taken as the
    rounding of a perpendicular geometry (the threshold `asymptotic_state`
    uses), so r = 1 at 90 degrees gives mu = 0 exactly.
    """
    c = float(np.dot(model.e, model.gamma))
    if abs(c) < 1e-10:
        c = 0.0
    mu = np.sqrt(complex(1.0 - model.r ** -2, 2.0 * c / model.r))
    return model.gamma + 1j * model.e / model.r, mu


def propagate(model: QubitModel, b0, taus) -> np.ndarray:
    """Bloch vectors at each of taus >= 0 from b0, exactly; shape (n, 3).

    As (n.sigma)^2 = (n.n) I, e^{K tau} = e^{mu tau/2} U with
    U = (1 + x)/2 I + (1 - x)/(2 mu) n.sigma and x = e^{-mu tau}.  The
    factor e^{mu tau/2} drops out of the normalisation, |x| <= 1 keeps U
    finite for every tau, and at mu = 0 (r = 1, e perpendicular to gamma)
    the sigma coefficient is its limit tau/2.  The state is formed as the
    Gram matrix W W^dagger, W = U L with L L^dagger proportional to rho0,
    so it stays positive, |b| <= 1, under rounding.
    """
    state = BlochState(b0)
    t = np.atleast_1d(np.asarray(taus, dtype=float))
    if t.ndim != 1 or not np.all((t >= 0.0) & (t < np.inf)):
        raise ValueError("taus must be a 1-D array of finite times >= 0")
    n, mu = _generator(model)
    rho0 = density_from_bloch(state).entries
    # rho0^2 = rho0 - s^2 I with s = sqrt(det rho0): L L^dagger = (1 + 2s) rho0
    L = rho0 + 0.5 * np.sqrt(max(1.0 - state.b @ state.b, 0.0)) * IDENTITY2
    nL = np.einsum("i,ijk->jk", n, SIGMA) @ L
    x = np.exp(-mu * t)
    beta = 0.5 * t if mu == 0.0 else -np.expm1(-mu * t) / (2.0 * mu)
    W = np.multiply.outer(0.5 * (1.0 + x), L) + np.multiply.outer(beta, nL)
    top, bottom = W[:, 0], W[:, 1]
    r00 = np.sum(np.abs(top) ** 2, axis=1)
    r11 = np.sum(np.abs(bottom) ** 2, axis=1)
    r01 = np.sum(top * bottom.conj(), axis=1)
    tr = (r00 + r11)[:, None]
    with np.errstate(invalid="ignore"):
        b = np.column_stack([2.0 * r01.real, -2.0 * r01.imag, r00 - r11]) / tr
    # W rounds to 0 only when b0 is the repelling state, where it stays
    return np.where(tr > 0.0, b, state.b)


def evolve_to_asymptote(model: QubitModel, b0):
    """Limit of the Bloch vector started at b0, or NON_CONVERGENT.

    With mu and n from the generator K = n.sigma/2 (see `propagate`),
    e^{K tau} grows like M = mu I + n.sigma, also at the exceptional point
    mu = 0 (r = 1, e perpendicular to gamma) where K is nilpotent.
    Re mu = 0 != mu (e perpendicular to gamma, r < 1) keeps both modes
    alive forever.  M has rank one: M rho0 M^dagger is a multiple of
    M M^dagger unless it vanishes, when b0 is the repelling fixed point.
    """
    state = BlochState(b0)
    n, mu = _generator(model)
    if mu.real == 0.0 and mu != 0.0:
        return NON_CONVERGENT
    M = mu * IDENTITY2 + np.einsum("i,ijk->jk", n, SIGMA)
    rho = M @ M.conj().T
    weight = np.trace(M @ density_from_bloch(state).entries @ M.conj().T).real
    if weight <= 1e-12 * np.trace(rho).real:
        return state.b
    return DensityMatrix(rho / np.trace(rho).real).bloch_vector
