"""Exact propagator, stationary state and DP5 oracle of the master equation.

The normalised state is the image of a linear evolution,
rho(tau) ~ e^{K tau} rho0 e^{K^dagger tau} with K = n.sigma/2 and
n = gamma + i e/r.  `propagate` evaluates that closed form at any set of
times, block by block, and `evolve_to_asymptote` reads the limit off the
same generator, scaled by min(r, 1) so that any finite r > 0 works; both
read b off a Gram matrix W W^dagger in real arithmetic.  `evolve`
integrates the Bloch equation with `core._vector_field` (the one definition
of the field): it is the independent oracle that the exact forms are
tested against, the textbook Dormand-Prince 5(4) pair (Hairer, Norsett &
Wanner, Solving ODEs I, II.4-II.6) with a first step of 0.1, one elementary
step-size rule and order-4 dense output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .core import (_BLOCK_ROWS, IDENTITY2, SIGMA, BlochState, QubitModel,
                   _as_vec3, _scaled_split, _vector_field)

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
# DOPRI5's order-4 dense output at s in [0, 1] of a step h from y0 to y1:
# (1 - s) y0 + s y1 + s (1 - s) (c1 + s (c2 + (1 - s) c3)), c3 = h (d . k).
# c3 = 0 is cubic Hermite: c1 = h f0 - dy, c2 = dy - h f1 - c1, dy = y1 - y0.
_D = np.array([-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
               -10690763975 / 1880347072, 701980252875 / 199316789632,
               -1453857185 / 822651844, 69997945 / 29380423])


@dataclass
class Trajectory:
    """Accepted integration steps plus dense-output interpolation."""

    taus: np.ndarray
    bs: np.ndarray       # shape (n, 3)
    dense: np.ndarray    # (c1, c2, c3) of each step, shape (n - 1, 3, 3)
    controller_stats: dict = field(default_factory=dict)

    def interpolate(self, tau) -> np.ndarray:
        """DP5's order-4 dense output between accepted steps."""
        tau = np.asarray(tau, dtype=float)
        scalar = tau.ndim == 0
        t = np.atleast_1d(tau)
        if not np.all(np.isfinite(t)):
            raise ValueError("interpolation query is not finite")
        if t.min() < self.taus[0] - 1e-12 or t.max() > self.taus[-1] + 1e-12:
            raise ValueError("interpolation query outside the integrated range")
        idx = np.searchsorted(self.taus[1:-1], t, side="right")
        t0 = self.taus[idx]
        s = ((t - t0) / (self.taus[idx + 1] - t0))[:, None]
        c1, c2, c3 = self.dense[idx].transpose(1, 0, 2)
        out = ((1 - s) * self.bs[idx] + s * self.bs[idx + 1]
               + s * (1 - s) * (c1 + s * (c2 + (1 - s) * c3)))
        return out[0] if scalar else out


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
    k = np.empty((7, 3))
    k[0] = f(b)

    taus = [0.0]
    bs = [b.copy()]
    dense = []
    tau, h = 0.0, 0.1
    n_acc = n_rej = 0
    nfev = 1
    max_err = 0.0

    while tau < tau_end:
        h = min(h, tau_end - tau)
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
            dy = y5 - b
            c1 = h * k[0] - dy
            dense.append((c1, dy - h * k[6] - c1, h * (_D @ k)))
            tau += h
            b = y5
            k[0] = k[6]  # FSAL
            taus.append(tau)
            bs.append(b.copy())
            n_acc += 1
            max_err = max(max_err, err)
        else:
            n_rej += 1
        # elementary controller for the order-4 estimate; err = 0 grows h 5x
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** (-1 / 5)))

    stats = {
        "n_accepted": n_acc,
        "n_rejected": n_rej,
        "n_fev": nfev,
        "max_local_error": max_err,
    }
    return Trajectory(taus=np.array(taus), bs=np.array(bs),
                      dense=np.array(dense), controller_stats=stats)


def _generator(model: QubitModel) -> tuple[np.ndarray, complex, complex]:
    """s n, s mu and mu for K = n.sigma/2, n = gamma + i e/r and
    mu = sqrt(n.n), Re mu >= 0, the root every exact form reads.  With s, q
    and s - q from `_base._scaled_split` and c = cos(theta_eg), s n =
    s gamma + i q e and (s mu)^2 = (s - q)(s + q) + 2 i c s q.  mu and n
    read the same e and gamma, so r = 1 gives mu = 0 exactly where e.gamma
    = 0 exactly, as for `QubitModel.from_angle` at 90 degrees; mu is inf
    where s is too small to divide by."""
    s, q, s_q = _scaled_split(model.r)
    c = float(np.dot(model.e, model.gamma))
    smu = np.sqrt(complex(s_q * (s + q), 2.0 * c * s * q))
    return s * model.gamma + 1j * q * model.e, smu, complex(smu) / s


def _gram_bloch(W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Bloch vectors and traces of the states W W^dagger, W of shape (n, 2, 2);
    b is nan (numpy warns) where the trace is 0.  With rows p = a + ic and
    q = b + id of W the entries are real sums, so no row's bits depend on
    the other rows."""
    a, c, b, d = W[:, 0].real, W[:, 0].imag, W[:, 1].real, W[:, 1].imag
    r00 = np.sum(a * a + c * c, axis=1)
    r11 = np.sum(b * b + d * d, axis=1)
    tr = r00 + r11
    bloch = np.column_stack([2.0 * np.sum(a * b + c * d, axis=1),
                             -2.0 * np.sum(c * b - a * d, axis=1), r00 - r11])
    return bloch / tr[:, None], tr


def _state_root(b0: np.ndarray) -> np.ndarray:
    """L with L L^dagger proportional to rho0 = (1 + b0.sigma)/2: as
    rho0^2 = rho0 - d I with d = det rho0, L = rho0 + sqrt(d) I gives
    L L^dagger = (1 + 2 sqrt(d)) rho0.  A |b0| that rounds past 1 is pure."""
    return (0.5 * (IDENTITY2 + np.einsum("i,ijk->jk", b0, SIGMA))
            + 0.5 * np.sqrt(max(1.0 - b0 @ b0, 0.0)) * IDENTITY2)


def propagate(model: QubitModel, b0, taus) -> np.ndarray:
    """Bloch vectors at each of taus >= 0 from b0, exactly; shape (n, 3).

    As (n.sigma)^2 = (n.n) I, e^{K tau} = e^{mu tau/2} U with
    U = (1 + x)/2 I + (1 - x)/(2 mu) n.sigma and x = e^{-mu tau}: the first
    factor drops out of the normalisation, |x| <= 1 keeps U finite, and at
    mu = 0 (r = 1, e perpendicular to gamma) the sigma coefficient is tau/2.
    The state is the Gram matrix W W^dagger, W = U L with L L^dagger
    proportional to rho0 (`_state_root`), so |b| <= 1 up to the rounding
    of its sums: a pure |b| may be a few ulps past 1.  Any split of the
    times gives the same bits; they are taken _BLOCK_ROWS at a time.  A
    phase Im(mu tau) past the float range, with x not 0, is an OverflowError.
    """
    b0 = BlochState(b0).b
    t = np.atleast_1d(np.asarray(taus, dtype=float))
    if t.ndim != 1 or not np.all((t >= 0.0) & (t < np.inf)):
        raise ValueError("taus must be a 1-D array of finite times >= 0")
    n, mu, rate = _generator(model)  # U takes s n/(s mu) = n/mu
    L = _state_root(b0)
    nL = np.einsum("i,ijk->jk", n, SIGMA) @ L
    out = np.empty((t.size, 3))
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(0, t.size, _BLOCK_ROWS):
            tb = t[i:i + _BLOCK_ROWS]
            mt = rate * tb
            mt[mt.real > 800.0] = 800.0  # x = 0 whatever the phase: the limit
            if not np.all(np.isfinite(mt)):
                raise OverflowError(f"the phase mu tau overflows at r = "
                                    f"{model.r!r}, tau = {float(tb.max())!r}")
            beta = 0.5 * tb if mu == 0.0 else -np.expm1(-mt) / (2.0 * mu)
            W = (np.multiply.outer(0.5 * (1.0 + np.exp(-mt)), L)
                 + np.multiply.outer(beta, nL))
            if mu == 0.0:  # W grows like tau; past 1e150 its squares overflow
                W[tb > 1e150] /= tb[tb > 1e150, None, None]
            b, tr = _gram_bloch(W)
            # a finite W rounds to 0 only at the repelling state, which stays
            out[i:i + _BLOCK_ROWS] = np.where(tr[:, None] > 0.0, b, b0)
    return out


def evolve_to_asymptote(model: QubitModel, b0):
    """Limit of the Bloch vector started at b0, or NON_CONVERGENT.

    With mu and n from the generator K = n.sigma/2 (see `propagate`),
    e^{K tau} grows like M = mu I + n.sigma, also at the exceptional point
    mu = 0 (r = 1, e perpendicular to gamma) where K is nilpotent.
    e.gamma = 0 with r < 1 (the CUQ, Re mu = 0 != mu), decided on the
    geometry exactly as `_generator` reads it, keeps both modes alive
    forever.  M has rank one: the state M L L^dagger M^dagger, with
    `propagate`'s L, is a multiple of M M^dagger unless W = M L is exactly
    0, which is `propagate`'s own test for the repelling fixed point.
    """
    b0 = BlochState(b0).b
    if model.r < 1.0 and model.e @ model.gamma == 0.0:
        return NON_CONVERGENT
    n, mu, _ = _generator(model)  # s M has M's direction
    M = mu * IDENTITY2 + np.einsum("i,ijk->jk", n, SIGMA)
    if not (M @ _state_root(b0)).any():
        return b0
    b, _ = _gram_bloch(M[None])
    return b[0]
