"""Domain types for the co-decaying Bloch-vector description of an unstable qubit.

An unstable two-level system evolves under an effective Hamiltonian
H_eff = E - (i/2) Gamma with Hermitian dispersive part E and dissipative
part Gamma.  After trace normalisation the state is a 2x2 density matrix
rho = (1 + b.sigma)/2 parameterised by a real 3-vector b with |b| <= 1
(the co-decaying Bloch vector).  In dimensionless time tau = |Gamma| t
the vector obeys the nonlinear master evolution equation

    db/dtau = -(1/r) e x b + gamma - (b . gamma) b

with unit vectors e = E/|E|, gamma = Gamma/|Gamma| and damping ratio
r = |Gamma| / (2 |E|).  This module holds the immutable value types and
the right-hand sides; everything here is a pure function.  `DensityMatrix`
is the validated type of the matrix-equation cross-check; the exact path
in `integrate` checks its input with `BlochState` alone.  Angles in
degrees go through `_sincosd`, which is exact at multiples of 90 degrees,
so "aligned" and "perpendicular" are exact tests of e x gamma and e.gamma.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

# Tolerance for state invariants (|b| <= 1 + STATE_EPS); algebraic
# identities in the tests are held to the tighter 1e-12.
STATE_EPS = 1e-9
_UNIT_TOL = 1e-12
# rows per block wherever a table of times is evaluated or written
_BLOCK_ROWS = 4096

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
IDENTITY2 = np.eye(2, dtype=complex)


def _sincosd(deg: float) -> tuple[float, float]:
    """(cos, sin) of deg degrees, reduced exactly to [-45, 45] first (Karney,
    J. Geodesy 87, 2013): exact at multiples of 90, with no -0.0."""
    t = math.remainder(deg, 360.0)
    q = round(t / 90.0)
    x = math.radians(t - 90.0 * q)
    c, s = math.cos(x), math.sin(x)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[q % 4]
    return c + 0.0, s + 0.0


def _as_vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a real 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"expected a finite 3-vector, got {v}")
    return v


@dataclass(frozen=True)
class BlochState:
    """Co-decaying Bloch vector b, checked finite with |b| <= 1 + STATE_EPS."""

    b: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "b", _as_vec3(self.b))
        if np.linalg.norm(self.b) > 1.0 + STATE_EPS:
            raise ValueError(
                f"|b| = {np.linalg.norm(self.b)} exceeds 1 + {STATE_EPS}")


@dataclass(frozen=True)
class QubitModel:
    """Effective-Hamiltonian decomposition over the Pauli basis.

    e and gamma are the unit energy and decay directions, r = |Gamma|/(2|E|).
    In dimensionless time nothing else enters: |E| comes in with units
    (`meson.BlochParameters`), and the trace parts of H_eff drop out.
    """

    e: np.ndarray
    gamma: np.ndarray
    r: float

    def __post_init__(self):
        e = _as_vec3(self.e)
        g = _as_vec3(self.gamma)
        if abs(np.linalg.norm(e) - 1.0) > _UNIT_TOL:
            raise ValueError("e must be a unit vector")
        if abs(np.linalg.norm(g) - 1.0) > _UNIT_TOL:
            raise ValueError("gamma must be a unit vector")
        object.__setattr__(self, "e", e)
        object.__setattr__(self, "gamma", g)
        if not 0.0 < self.r < np.inf:
            raise ValueError(f"r must be positive and finite, got {self.r}")

    @cached_property
    def e_cross_gamma(self) -> np.ndarray:
        """e x gamma, computed on first access."""
        return np.cross(self.e, self.gamma)

    @classmethod
    def from_angle(cls, r: float, theta_eg: float, *,
                   degrees: bool = False) -> "QubitModel":
        """Build a model in the CPT basis: e along x, gamma in the x-y plane.

        For theta_eg = 90 deg this puts e x gamma on the +z axis, so the
        third Bloch component is the flavour asymmetry.  In degrees gamma
        is exact at multiples of 90: on an axis, with no rounding tilt.
        """
        if not math.isfinite(theta_eg):
            raise ValueError(f"theta_eg must be finite, got {theta_eg}")
        g = (_sincosd(theta_eg) if degrees
             else (math.cos(theta_eg), math.sin(theta_eg)))
        return cls(e=np.array([1.0, 0.0, 0.0]), gamma=np.array([*g, 0.0]), r=r)


@dataclass(frozen=True)
class DensityMatrix:
    """Trace-normalised 2x2 density matrix, checked to be Hermitian with
    eigenvalues in [0, 1]; the type of the matrix-equation cross-check."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.entries, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("density matrix must be 2x2")
        if np.max(np.abs(m - m.conj().T)) > 1e-12:
            raise ValueError("density matrix must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("normalised density matrix must have unit trace")
        ev = np.linalg.eigvalsh(m)
        if ev.min() < -STATE_EPS or ev.max() > 1.0 + STATE_EPS:
            raise ValueError(f"eigenvalues {ev} outside [0, 1]")
        object.__setattr__(self, "entries", m)

    @property
    def bloch_vector(self) -> np.ndarray:
        return np.array([np.trace(self.entries @ SIGMA[i]).real for i in range(3)])

    @property
    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def _vector_field(model: QubitModel):
    """f(b) = C b + gamma - (b.gamma) b, the Bloch equation's right-hand side.

    The rotation -(1/r) e x b is the fixed linear map C = -[e]_x / r, built
    once per model, so one evaluation is a 3x3 product and a dot product.
    """
    e1, e2, e3 = model.e / model.r
    C = np.array([[0.0, e3, -e2], [-e3, 0.0, e1], [e2, -e1, 0.0]])
    g = model.gamma

    def f(b: np.ndarray) -> np.ndarray:
        return C @ b + g - (b @ g) * b

    return f


def bloch_derivative(state: BlochState, model: QubitModel) -> np.ndarray:
    """db/dtau = -(1/r) e x b + gamma - (b.gamma) b."""
    return _vector_field(model)(state.b)


def purity_rate(state: BlochState, model: QubitModel) -> float:
    """d|b|^2/dtau = 2 (gamma.b) (1 - |b|^2)."""
    b = state.b
    return 2.0 * float(np.dot(model.gamma, b)) * (1.0 - float(np.dot(b, b)))


def density_from_bloch(state: BlochState) -> DensityMatrix:
    """rho = (1 + b.sigma)/2; `BlochState` has already bounded |b|."""
    m = 0.5 * (IDENTITY2 + np.einsum("i,ijk->jk", state.b, SIGMA))
    return DensityMatrix(m)


def _effective_matrices(model: QubitModel) -> tuple[np.ndarray, np.ndarray]:
    """The traceless parts of E and Gamma over the Pauli basis, in units
    of |Gamma|."""
    E = -np.einsum("i,ijk->jk", model.e, SIGMA) / (2.0 * model.r)
    G = -np.einsum("i,ijk->jk", model.gamma, SIGMA)
    return E, G


def density_evolution_rhs(rho: DensityMatrix, model: QubitModel) -> np.ndarray:
    """d(rho)/dtau = -i[E, rho] - (1/2){Gamma, rho} + rho Tr(rho Gamma).

    Evaluated in units of |Gamma| (dimensionless time), so its Pauli
    decomposition coincides with `bloch_derivative`.  Trace parts of E and
    Gamma would cancel identically, so they are left out; the result is
    traceless.
    """
    m = rho.entries
    E, G = _effective_matrices(model)
    return (-1j * (E @ m - m @ E)
            - 0.5 * (G @ m + m @ G)
            + m * np.trace(m @ G))
