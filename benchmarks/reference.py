"""Independent references that the benchmark checks cuq's outputs against.

Nothing here calls cuq's numerics.  The dynamics reference is the linear
propagator rho(tau) ~ e^{K tau} rho0 e^{K^dagger tau}, K = -iE - Gamma/2 in
units of |Gamma| (Moler & Van Loan, "Nineteen dubious ways to compute the
exponential of a matrix", SIAM Rev. 45, 2003), evaluated with
scipy.linalg.expm and trace-normalised.  The meson and spectrum references
are the paper's closed forms, written out again here.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)

# Tolerances of the output checks.
BLOCH_ATOL = 1e-6        # trajectory points and asymptotes, per component
MESON_RTOL = 1e-9        # forward/inverse meson round trips
SPECTRUM_ATOL = 1e-9     # quadrature coefficients against the closed forms
SPECTRUM_R_RTOL = 1e-7   # r recovered from one anharmonicity ratio
FIT_EXACT_RTOL = 1e-6    # r recovered by a noiseless fit
FIT_NSIGMA = 5.0         # a noisy fit's r lies within this many sigma
# bmax.csv holds the maximum over the integrator's accepted steps, so it may
# undershoot the continuous maximum (by at most 3e-7 on a test grid).
BMAX_ATOL = 1e-5


def cpt_basis(theta_deg: float) -> tuple[np.ndarray, np.ndarray]:
    """(e, gamma) with e along x and gamma in the x-y plane at theta_deg."""
    th = np.radians(theta_deg)
    return np.array([1.0, 0.0, 0.0]), np.array([np.cos(th), np.sin(th), 0.0])


def bloch_path(e, gamma, r: float, b0, taus) -> np.ndarray:
    """Bloch vectors of the exact solution at each tau, shape (len(taus), 3)."""
    E = -np.einsum("i,ijk->jk", e, SIGMA) / (2.0 * r)
    G = -np.einsum("i,ijk->jk", gamma, SIGMA)
    K = -1j * E - 0.5 * G
    # A real shift of K only rescales rho, which the normalisation removes;
    # shifting by the dominant eigenvalue keeps e^{K tau} finite at large tau.
    K = K - np.max(np.linalg.eigvals(K).real) * np.eye(2)
    U = expm(np.asarray(taus, dtype=float)[:, None, None] * K)
    rho0 = 0.5 * (np.eye(2) + np.einsum("i,ijk->jk", b0, SIGMA))
    rho = U @ rho0 @ U.conj().transpose(0, 2, 1)
    rho /= np.trace(rho, axis1=1, axis2=2)[:, None, None]
    return np.einsum("mjk,ikj->mi", rho, SIGMA).real


def period(r: float) -> float:
    """Dimensionless oscillation period 2 pi r / sqrt(1 - r^2), r < 1."""
    return 2.0 * np.pi * r / np.sqrt(1.0 - r * r)


def meson_observables(r: float, theta_deg: float, E_mag: float
                      ) -> tuple[float, float, float]:
    """(Delta E, Delta Gamma, |q/p|) with z = sqrt(1 - r^2 - 2 i r cos theta)."""
    th = np.radians(theta_deg)
    z = np.sqrt(complex(1.0 - r * r, -2.0 * r * np.cos(th)))
    s = np.sin(th)
    qop = ((1.0 + r * r - 2.0 * r * s) / (1.0 + r * r + 2.0 * r * s)) ** 0.25
    return (float(2.0 * E_mag * z.real), float(-4.0 * E_mag * z.imag),
            float(qop))


def cuq_branch_r(q_over_p: float) -> float:
    """r on the Delta Gamma = 0 branch (theta = +-90): |q/p|^2 = |1-r|/(1+r)."""
    root = q_over_p ** 2
    return abs(1.0 - root) / (1.0 + root)


def close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * abs(b)


def observables_close(got, want, rtol: float = MESON_RTOL) -> bool:
    """Delta E and Delta Gamma to rtol of the larger of the two, |q/p| to rtol."""
    scale = max(abs(want[0]), abs(want[1]))
    return (abs(got[0] - want[0]) <= rtol * scale
            and abs(got[1] - want[1]) <= rtol * scale
            and close(got[2], want[2], rtol))


def cuq_signal(tau, r: float) -> np.ndarray:
    """b.(e x gamma) of the pure reference oscillation, for synthetic data."""
    w = np.sqrt(1.0 - r * r) / r
    c = np.cos(w * np.asarray(tau, dtype=float))
    return (c - r) / (1.0 - r * c)
