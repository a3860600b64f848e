"""Domain types for the co-decaying Bloch-vector description of an unstable qubit.

An unstable two-level system evolves under an effective Hamiltonian
H_eff = E - (i/2) Gamma with Hermitian dispersive part E and dissipative
part Gamma.  After trace normalisation the state is a 2x2 density matrix
rho = (1 + b.sigma)/2 parameterised by a real 3-vector b with |b| <= 1
(the co-decaying Bloch vector).  In dimensionless time tau = |Gamma| t
the vector obeys the nonlinear master evolution equation

    db/dtau = -(1/r) e x b + gamma - (b . gamma) b

with unit vectors e = E/|E|, gamma = Gamma/|Gamma| and damping ratio
r = |Gamma| / (2 |E|).  This module holds the immutable value types, the
right-hand sides, the Pauli map and the generator's root; all are pure.
`DensityMatrix` is the validated type of the matrix-equation cross-check;
the exact path in `integrate` checks its input with `BlochState` alone.
Angles in degrees go through `_base._sincosd`, exact at multiples of 90,
so "aligned" and "perpendicular" are exact tests of e x gamma and e.gamma;
`_e_dot_gamma` rounds e.gamma once from its exact sum, on any CPU.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import _base
from ._base import (STATE_EPS, _check, _check_r, _check_size, _sincosd,
                    _Value)

_UNIT_TOL = 1e-12

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=complex,
)
IDENTITY2 = np.eye(2, dtype=complex)


def _pauli(v) -> np.ndarray:
    """v.sigma, the 2x2 matrix of a real or complex 3-vector."""
    return np.einsum("i,ijk->jk", v, SIGMA)


def _as_vec3(name: str, x) -> np.ndarray:
    """A checked copy of x, so no later write by the caller reaches it."""
    v = np.array(x, dtype=float)
    _check(v.shape == (3,), name, "a real 3-vector", v.shape)
    return _finite(name, v)


def _read_only(a: np.ndarray) -> np.ndarray:
    """a, a copy that a frozen value type checked and now owns, marked
    read-only so the invariant it checked holds for the value's life."""
    a.flags.writeable = False
    return a


def _finite(name: str, x) -> np.ndarray:
    """x as a float array, checked to hold no inf or nan."""
    x = np.asarray(x, dtype=float)
    _check(np.isfinite(x).all(), name, "finite", x)
    return x


@dataclass(frozen=True, slots=True)
class BlochState(_Value):
    """Co-decaying Bloch vector b, checked finite with |b| <= 1 + STATE_EPS;
    b is a read-only copy of the caller's vector."""

    b: np.ndarray

    def __post_init__(self):
        b = _as_vec3("b", self.b)
        _check_size(math.hypot(*b))  # no overflow where |b| is finite
        object.__setattr__(self, "b", _read_only(b))


@dataclass(frozen=True, slots=True)
class QubitModel(_Value):
    """Effective-Hamiltonian decomposition over the Pauli basis.

    e and gamma are the unit energy and decay directions, r = |Gamma|/(2|E|),
    held as read-only copies.  In dimensionless time nothing else enters:
    |E| comes in with units (`meson.BlochParameters`), and the trace parts
    of H_eff drop out.
    """

    e: np.ndarray
    gamma: np.ndarray
    r: float

    def __post_init__(self):
        e = _as_vec3("e", self.e)
        g = _as_vec3("gamma", self.gamma)
        with np.errstate(over="ignore"):  # a norm past the float range: inf
            _check(abs(np.linalg.norm(e) - 1.0) <= _UNIT_TOL, "e",
                   "a unit vector", e)
            _check(abs(np.linalg.norm(g) - 1.0) <= _UNIT_TOL, "gamma",
                   "a unit vector", g)
        _check_r(self.r)
        object.__setattr__(self, "r", float(self.r))  # no numpy scalar math
        object.__setattr__(self, "e", _read_only(e))
        object.__setattr__(self, "gamma", _read_only(g))

    @property
    def e_cross_gamma(self) -> np.ndarray:
        """e x gamma, formed on each access, read-only as e and gamma are."""
        return _read_only(np.cross(self.e, self.gamma))

    @classmethod
    def from_angle(cls, r: float, theta_eg: float, *,
                   degrees: bool = False) -> "QubitModel":
        """Build a model in the CPT basis: e along x, gamma in the x-y plane.

        For theta_eg = 90 deg this puts e x gamma on the +z axis.  At any
        angle the third Bloch component is the flavour asymmetry
        P(M0bar) - P(M0): M0bar is the north pole, M0 the south pole, and
        `meson`'s |q/p| weights the flip M0 -> M0bar (the textbook |q/p|).
        In degrees gamma is exact at multiples of 90: on an axis, with no
        rounding tilt.
        """
        _check(math.isfinite(theta_eg), "theta_eg", "finite", theta_eg)
        g = (_sincosd(theta_eg) if degrees
             else (math.cos(theta_eg), math.sin(theta_eg)))
        return cls(e=np.array([1.0, 0.0, 0.0]), gamma=np.array([*g, 0.0]), r=r)


def _generator(model: QubitModel) -> tuple[np.ndarray, complex, complex]:
    """s n, s mu and mu for K = n.sigma/2, n = gamma + i e/r and
    mu = sqrt(n.n), Re mu >= 0, the root every exact form reads.  With s, q
    and s - q from `_base._scaled_split` and c = cos(theta_eg), s n =
    s gamma + i q e and (s mu)^2 = (s - q)(s + q) + 2 i c s q.  mu and n
    read the same e and gamma, so r = 1 gives mu = 0 exactly where e.gamma
    = 0 exactly, as for `QubitModel.from_angle` at 90 degrees; mu is inf
    where s is too small to divide by."""
    s, q, s_q = _base._scaled_split(model.r)
    c = _e_dot_gamma(model)
    smu = np.sqrt(complex(s_q * (s + q), 2.0 * c * s * q))
    return s * model.gamma + 1j * q * model.e, smu, complex(smu) / s


def _e_dot_gamma(model: QubitModel) -> float:
    """e.gamma rounded once from the exact sum of its three products, in
    integer arithmetic, so the value, and whether it is 0 (then +0.0), is
    the same whatever BLAS kernel the CPU runs."""
    num, den = 0, 1
    for x, y in zip(model.e.tolist(), model.gamma.tolist()):
        p, q = x.as_integer_ratio()
        s, t = y.as_integer_ratio()
        num, den = num * q * t + p * s * den, den * q * t
    return num / den  # int / int rounds correctly


def _is_cuq(model: QubitModel) -> bool:
    """The CUQ, e.gamma = 0 with r < 1 (Re mu = 0 != mu): no stationary
    state.  Decided on the model's floats exactly, as `_generator` reads."""
    return model.r < 1.0 and _e_dot_gamma(model) == 0.0


@dataclass(frozen=True, slots=True)
class DensityMatrix(_Value):
    """Trace-normalised 2x2 density matrix, checked to be finite and
    Hermitian with eigenvalues in [0, 1] and held as a read-only copy; the
    type of the matrix-equation cross-check."""

    entries: np.ndarray

    def __post_init__(self):
        m = np.array(self.entries, dtype=complex)
        _check(m.shape == (2, 2), "entries", "2x2", m.shape)
        _check(np.isfinite(m).all(), "entries", "finite", m)
        with np.errstate(over="ignore"):  # a difference past the range: inf
            _check(np.max(np.abs(m - m.conj().T)) <= 1e-12, "entries",
                   "Hermitian", m)
        tr = np.trace(m).real
        _check(abs(tr - 1.0) <= 1e-12, "entries", "of unit trace", tr)
        ev = np.linalg.eigvalsh(m)
        _check(-STATE_EPS <= ev.min() and ev.max() <= 1.0 + STATE_EPS,
               "entries' eigenvalues", "in [0, 1]", ev)
        object.__setattr__(self, "entries", _read_only(m))

    @property
    def bloch_vector(self) -> np.ndarray:
        return np.array([np.trace(self.entries @ SIGMA[i]).real for i in range(3)])

    @property
    def purity(self) -> float:
        return float(np.trace(self.entries @ self.entries).real)


def _float_field(model: QubitModel):
    """f(x, y, z) = -(1/r) e x b + gamma - (b.gamma) b, the Bloch equation's
    right-hand side on Python floats, the one definition of the field.

    e/r and gamma are read as floats once per model; one evaluation forms
    d = b.gamma and each component left to right, as e3 y - e2 z + g1 - d x,
    and returns the tuple (fx, fy, fz), so no BLAS call or SIMD loop sets
    its bits; an e/r past the float range is inf, unwarned.  `evolve`
    steps on this form.
    """
    e1, e2, e3 = (x / model.r for x in model.e.tolist())
    g1, g2, g3 = model.gamma.tolist()

    def f(x: float, y: float, z: float) -> tuple[float, float, float]:
        d = x * g1 + y * g2 + z * g3
        return (e3 * y - e2 * z + g1 - d * x,
                e1 * z - e3 * x + g2 - d * y,
                e2 * x - e1 * y + g3 - d * z)

    return f


def bloch_derivative(state: BlochState, model: QubitModel) -> np.ndarray:
    """db/dtau = -(1/r) e x b + gamma - (b.gamma) b; past the float range,
    at a subnormal r, it is an OverflowError."""
    db = np.array(_float_field(model)(*state.b.tolist()))
    if not np.isfinite(db).all():
        raise OverflowError(f"db/dtau overflows at r = {model.r!r}")
    return db


def purity_rate(state: BlochState, model: QubitModel) -> float:
    """d|b|^2/dtau = 2 (gamma.b) (1 - |b|^2), in float arithmetic."""
    x, y, z = state.b.tolist()
    g1, g2, g3 = model.gamma.tolist()
    return 2.0 * (x * g1 + y * g2 + z * g3) * (1.0 - (x * x + y * y + z * z))


def density_from_bloch(state: BlochState) -> DensityMatrix:
    """rho = (1 + b.sigma)/2; `BlochState` has already bounded |b|."""
    return DensityMatrix(0.5 * (IDENTITY2 + _pauli(state.b)))


def density_evolution_rhs(rho: DensityMatrix, model: QubitModel) -> np.ndarray:
    """d(rho)/dtau = -i[E, rho] - (1/2){Gamma, rho} + rho Tr(rho Gamma).

    Evaluated in units of |Gamma| (dimensionless time), so its Pauli
    decomposition coincides with `bloch_derivative`.  E and Gamma are their
    traceless parts over the Pauli basis, in units of |Gamma|: trace parts
    would cancel identically, so they are left out; the result is
    traceless.  As for `bloch_derivative`, past the float range, at a
    subnormal r, it is an OverflowError.
    """
    m = rho.entries
    with np.errstate(over="ignore", invalid="ignore"):  # named below
        E = -_pauli(model.e) / (2.0 * model.r)
        G = -_pauli(model.gamma)
        rhs = (-1j * (E @ m - m @ E)
               - 0.5 * (G @ m + m @ G)
               + m * np.trace(m @ G))
    if not np.isfinite(rhs).all():
        raise OverflowError(f"d(rho)/dtau overflows at r = {model.r!r}")
    return rhs
