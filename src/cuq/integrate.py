"""Exact propagator, stationary state and DP5 oracle of the master equation.

The normalised state is the image of a linear evolution,
rho(tau) ~ e^{K tau} rho0 e^{K^dagger tau} with K = n.sigma/2 and
n = gamma + i e/r.  `propagate` evaluates that closed form at any set of
times, block by block, and `evolve_to_asymptote` reads the limit off the
same generator, scaled by min(r, 1) so that any finite r > 0 works; both
read b off a Gram matrix W W^dagger in real arithmetic.  `evolve`
integrates the Bloch equation on `core._float_field`, the one definition of
the field.  It is the independent oracle that the exact forms are tested
against, the textbook Dormand-Prince 5(4) pair (Hairer, Norsett & Wanner,
Solving ODEs I, II.4-II.6) with a first step of 0.1 and one elementary
step-size rule.  Each step runs on Python floats: every stage input, y5,
the error estimate and its norm is one straight-line, left-to-right sum over
the tableau's coefficients by name, so no BLAS call or SIMD loop sets the
oracle's bits.  Its defaults, rel_tol = 1e-11 and abs_tol = 1e-14, keep
three periods of the CUQ orbit within a tenth of the benchmark's 1e-6
trajectory bound for every r <= 0.9995 (worst 5.2e-8, at r = 0.99945).  The
order-4 dense output is formed once, after the last step, from the stages
each accepted step kept.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field

import numpy as np

from ._base import _BLOCK_ROWS, _check
from .core import (IDENTITY2, BlochState, QubitModel, _float_field,
                   _generator, _is_cuq, _pauli)

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

# Dormand-Prince 5(4) tableau as Python floats.  Row i forms the input of
# stage i + 1 from k_0 .. k_i; the last row is b5, so stage 6's input is the
# step's result y5 and its stage is f(y5) (FSAL).  E = b5 - b4 weighs the
# error.
_A = (
    (1 / 5,),
    (3 / 40, 9 / 40),
    (44 / 45, -56 / 15, 32 / 9),
    (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
    (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
    (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
)
_B4 = (5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
       -92097 / 339200, 187 / 2100, 1 / 40)
_E = tuple(b5 - b4 for b5, b4 in zip(_A[-1] + (0.0,), _B4))
# the same coefficients by name, numbered from 1 as in Hairer, Norsett &
# Wanner: a_ij weighs stage j in the input of stage i, a7j = b5_j
((_a21,),
 (_a31, _a32),
 (_a41, _a42, _a43),
 (_a51, _a52, _a53, _a54),
 (_a61, _a62, _a63, _a64, _a65),
 (_a71, _a72, _a73, _a74, _a75, _a76)) = _A
_e1, _e2, _e3, _e4, _e5, _e6, _e7 = _E
# DOPRI5's order-4 dense output at s in [0, 1] of a step h from y0 to y1:
# (1 - s) y0 + s y1 + s (1 - s) (c1 + s (c2 + (1 - s) c3)), c3 = h (d . k).
# c3 = 0 is cubic Hermite: c1 = h f0 - dy, c2 = dy - h f1 - c1, dy = y1 - y0.
_D = (-12715105075 / 11282082432, 0.0, 87487479700 / 32700410799,
      -10690763975 / 1880347072, 701980252875 / 199316789632,
      -1453857185 / 822651844, 69997945 / 29380423)


@dataclass
class Trajectory:
    """Accepted integration steps plus dense-output interpolation."""

    taus: np.ndarray
    bs: np.ndarray       # shape (n, 3)
    dense: np.ndarray    # (c1, c2, c3) of each step, shape (n - 1, 3, 3),
    #                      formed for all steps at once from their stages
    controller_stats: dict = field(default_factory=dict)

    def interpolate(self, tau) -> np.ndarray:
        """DP5's order-4 dense output between accepted steps."""
        tau = np.asarray(tau, dtype=float)
        _check(tau.ndim <= 1, "interpolation query",
               "a scalar or a 1-D array of times", tau.shape)
        scalar = tau.ndim == 0
        t = np.atleast_1d(tau)
        if not np.all(np.isfinite(t)):
            raise ValueError("interpolation query is not finite")
        _check(not t.size or (t.min() >= self.taus[0] - 1e-12
                              and t.max() <= self.taus[-1] + 1e-12),
               "interpolation query", "within the integrated range", t)
        idx = np.searchsorted(self.taus[1:-1], t, side="right")
        t0 = self.taus[idx]
        s = ((t - t0) / (self.taus[idx + 1] - t0))[:, None]
        c1, c2, c3 = self.dense[idx].transpose(1, 0, 2)
        out = ((1 - s) * self.bs[idx] + s * self.bs[idx + 1]
               + s * (1 - s) * (c1 + s * (c2 + (1 - s) * c3)))
        return out[0] if scalar else out


def evolve(model: QubitModel, b0, tau_end: float,
           rel_tol: float = 1e-11, abs_tol: float = 1e-14) -> Trajectory:
    """Integrate db/dtau from b0 over [0, tau_end]; b0 is checked as a
    `BlochState`, as by `propagate`.

    The defaults come from one rule: at theta = 90 degrees, three periods
    from e x gamma, gamma, -gamma, e or the mixed start stay within 1e-7 of
    `propagate` for every r <= 0.9995, a tenth of the benchmark's bound.
    The orbit is neutrally stable, so step errors add up: the worst case,
    r = 0.99945 from e x gamma, is 5.2e-8, and r = 0.9995 reads 1.9e-7 at
    rel_tol = 3e-11.  Closer to r = 1 the drift passes the bound (3.6e-5 at
    r = 0.99999).  Every step runs on Python floats, so its bits depend on
    no BLAS kernel and no SIMD level.
    """
    _check(0.0 < tau_end < math.inf, "tau_end", "positive and finite",
           tau_end)
    _check(0.0 < rel_tol <= 1e-2, "rel_tol", "in (0, 1e-2]", rel_tol)
    _check(0.0 < abs_tol <= 1e-2, "abs_tol", "in (0, 1e-2]", abs_tol)
    rel_tol, abs_tol = float(rel_tol), float(abs_tol)  # a float32 stays double
    x, y, z = BlochState(b0).b.tolist()

    f = _float_field(model)
    k1x, k1y, k1z = f(x, y, z)

    # the accepted steps, flat: each keeps its seven stages (fx, fy, fz)
    taus, bs = array("d", [0.0]), array("d", (x, y, z))
    hs, ks = array("d"), array("d")
    tau, h = 0.0, 0.1
    n_acc = n_rej = 0
    nfev = 1

    # a trial step that overflows has a non-finite error and is rejected;
    # Python float arithmetic gives inf or nan there and does not raise.
    # Every sum runs left to right from 0.0, zero coefficients included, so
    # any CPU rounds it alike, and as a loop over the tableau rows would
    while tau < tau_end:
        # the floor tests the controller's step, before the horizon clips it
        if h < 1e-14 * max(1.0, tau):
            raise StepSizeUnderflow(f"step underflow at tau={tau}")
        h = min(h, tau_end - tau)
        k2x, k2y, k2z = f(x + h * (0.0 + _a21 * k1x),
                          y + h * (0.0 + _a21 * k1y),
                          z + h * (0.0 + _a21 * k1z))
        k3x, k3y, k3z = f(x + h * (0.0 + _a31 * k1x + _a32 * k2x),
                          y + h * (0.0 + _a31 * k1y + _a32 * k2y),
                          z + h * (0.0 + _a31 * k1z + _a32 * k2z))
        k4x, k4y, k4z = f(
            x + h * (0.0 + _a41 * k1x + _a42 * k2x + _a43 * k3x),
            y + h * (0.0 + _a41 * k1y + _a42 * k2y + _a43 * k3y),
            z + h * (0.0 + _a41 * k1z + _a42 * k2z + _a43 * k3z))
        k5x, k5y, k5z = f(
            x + h * (0.0 + _a51 * k1x + _a52 * k2x + _a53 * k3x
                     + _a54 * k4x),
            y + h * (0.0 + _a51 * k1y + _a52 * k2y + _a53 * k3y
                     + _a54 * k4y),
            z + h * (0.0 + _a51 * k1z + _a52 * k2z + _a53 * k3z
                     + _a54 * k4z))
        k6x, k6y, k6z = f(
            x + h * (0.0 + _a61 * k1x + _a62 * k2x + _a63 * k3x
                     + _a64 * k4x + _a65 * k5x),
            y + h * (0.0 + _a61 * k1y + _a62 * k2y + _a63 * k3y
                     + _a64 * k4y + _a65 * k5y),
            z + h * (0.0 + _a61 * k1z + _a62 * k2z + _a63 * k3z
                     + _a64 * k4z + _a65 * k5z))
        # the last row is b5, so (u, v, w) is y5 and k7 = f(y5) (FSAL)
        u = x + h * (0.0 + _a71 * k1x + _a72 * k2x + _a73 * k3x
                     + _a74 * k4x + _a75 * k5x + _a76 * k6x)
        v = y + h * (0.0 + _a71 * k1y + _a72 * k2y + _a73 * k3y
                     + _a74 * k4y + _a75 * k5y + _a76 * k6y)
        w = z + h * (0.0 + _a71 * k1z + _a72 * k2z + _a73 * k3z
                     + _a74 * k4z + _a75 * k5z + _a76 * k6z)
        k7x, k7y, k7z = f(u, v, w)
        nfev += 6
        # err is the RMS over x, y, z of the error estimate h (E . k) over
        # abs_tol + rel_tol max(|y|, |y5|)
        qx = h * (0.0 + _e1 * k1x + _e2 * k2x + _e3 * k3x + _e4 * k4x
                  + _e5 * k5x + _e6 * k6x + _e7 * k7x) / (
            abs_tol + rel_tol * max(abs(x), abs(u)))
        qy = h * (0.0 + _e1 * k1y + _e2 * k2y + _e3 * k3y + _e4 * k4y
                  + _e5 * k5y + _e6 * k6y + _e7 * k7y) / (
            abs_tol + rel_tol * max(abs(y), abs(v)))
        qz = h * (0.0 + _e1 * k1z + _e2 * k2z + _e3 * k3z + _e4 * k4z
                  + _e5 * k5z + _e6 * k6z + _e7 * k7z) / (
            abs_tol + rel_tol * max(abs(z), abs(w)))
        err = math.sqrt((0.0 + qx * qx + qy * qy + qz * qz) / 3.0)
        if err <= 1.0:
            ks.extend((k1x, k1y, k1z, k2x, k2y, k2z, k3x, k3y, k3z,
                       k4x, k4y, k4z, k5x, k5y, k5z, k6x, k6y, k6z,
                       k7x, k7y, k7z))
            hs.append(h)
            tau += h
            x, y, z = u, v, w
            taus.append(tau)
            bs.extend((x, y, z))
            k1x, k1y, k1z = k7x, k7y, k7z  # FSAL
            n_acc += 1
        else:
            n_rej += 1
        # elementary controller, order-4 estimate; err = 0 grows h 5x
        h *= min(5.0, max(0.2, 0.9 * max(err, 1e-16) ** (-1 / 5)))

    # dense output of every accepted step at once
    with np.errstate(over="ignore", invalid="ignore"):
        B = np.array(bs).reshape(-1, 3)
        K = np.array(ks).reshape(-1, 7, 3)
        H = np.array(hs)[:, None]
        dy = B[1:] - B[:-1]
        c1 = H * K[:, 0] - dy
        c2 = dy - H * K[:, 6] - c1
        c3 = H * sum(d * K[:, j] for j, d in enumerate(_D))

    stats = {"n_accepted": n_acc, "n_rejected": n_rej, "n_fev": nfev}
    return Trajectory(taus=np.array(taus), bs=B,
                      dense=np.stack([c1, c2, c3], axis=1),
                      controller_stats=stats)


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
    return (0.5 * (IDENTITY2 + _pauli(b0))
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
    _check(t.ndim == 1 and np.all((t >= 0.0) & (t < np.inf)), "taus",
           "a 1-D array of finite times >= 0", t)
    n, mu, rate = _generator(model)  # U takes s n/(s mu) = n/mu
    L = _state_root(b0)
    nL = _pauli(n) @ L
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
    mu = 0 (r = 1, e perpendicular to gamma) where K is nilpotent.  The
    CUQ (`core._is_cuq`) keeps both modes alive forever.  M has rank one:
    the state M L L^dagger M^dagger, with `propagate`'s L, is a multiple
    of M M^dagger unless W = M L is exactly 0, which is `propagate`'s own
    test for the repelling fixed point.
    """
    b0 = BlochState(b0).b
    if _is_cuq(model):
        return NON_CONVERGENT
    n, mu, _ = _generator(model)  # s M has M's direction
    M = mu * IDENTITY2 + _pauli(n)
    if not (M @ _state_root(b0)).any():
        return b0.copy()  # the caller's to write, as b[0] is
    b, _ = _gram_bloch(M[None])
    return b[0]
