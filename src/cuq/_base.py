"""The numpy-free base of the package: the base class of the value types,
exact scalar forms, `_check`, the one domain check that every input check
is written with, the one CSV writer and the
exceptions that `cli.main` maps to exit codes, plus the float level of
`meson`: the checks of its two value types, the forward and inverse maps,
`Damping` and the PDG table.

Every module imports these names from here alone; `fit`, `fourier` and
`meson` list the exceptions in their `__all__`, and `meson` re-exports
`Damping`, `classify_damping` and the catalogue writers, so each keeps its
identity wherever it is imported from.  `cli` reads only this module at
import, so `cuq convert`, `cuq catalogue` and `cuq sweep-bmax` run on the
standard library alone, with neither numpy nor `dataclasses`.
"""

from __future__ import annotations

import cmath
import json
import math
from enum import Enum

# rows per block wherever a table of times is evaluated or written
_BLOCK_ROWS = 4096

# Tolerance for state invariants (|b| <= 1 + STATE_EPS); algebraic
# identities in the tests are held to the tighter 1e-12.
STATE_EPS = 1e-9


class DatasetFormatError(ValueError):
    """Malformed dataset file (carries the offending line number)."""


class RankDeficientDesign(RuntimeError):
    """Design matrix is numerically rank-deficient (aliased sampling)."""


class QuadratureNotConverged(RuntimeError):
    """The trapezoid coefficients did not settle within the node cap."""


class UnphysicalObservables(ValueError):
    """No Bloch parameterisation exists for the requested observables."""


class _Value:
    """Base of the frozen value types: a copy or a pickle is rebuilt through
    the constructor, so `__post_init__` checks, copies and marks its arrays
    read-only again.  `__match_args__` names a dataclass's positional
    fields; the empty `__slots__` keeps a slotted subclass free of
    `__dict__`."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, name)
                                 for name in self.__match_args__)


def _check(ok, name: str, domain: str, value) -> None:
    """The one domain check: unless ok, a ValueError that reads
    "{name} must be {domain}, got {value}".  Each caller writes its own
    comparison, such as 0.0 < r < 1.0, so that nan fails it."""
    if not ok:
        raise ValueError(f"{name} must be {domain}, got {value}")


def _check_r(r: float) -> None:
    """The damping ratio's domain: 0 < r < inf."""
    _check(0.0 < r < math.inf, "r", "positive and finite", r)


def _check_size(size: float) -> None:
    """A Bloch vector's length: |b| <= 1 + STATE_EPS."""
    _check(size <= 1.0 + STATE_EPS, "|b|", "at most 1 + STATE_EPS", size)


def _sincosd(deg: float) -> tuple[float, float]:
    """(cos, sin) of deg degrees, reduced exactly to [-45, 45] first (Karney,
    J. Geodesy 87, 2013): exact at multiples of 90, with no -0.0."""
    t = math.remainder(deg, 360.0)
    q = round(t / 90.0)
    x = math.radians(t - 90.0 * q)
    c, s = math.cos(x), math.sin(x)
    c, s = ((c, s), (-s, c), (-c, -s), (s, -c))[q % 4]
    return c + 0.0, s + 0.0


def _scaled_split(r: float) -> tuple[float, float, float]:
    """s = min(r, 1), q = s/r and s - q = (r - 1)/max(r, 1), for r > 0:
    the split that forms the generator's root mu = sqrt(1 - 1/r^2 + 2 i c/r)
    as (s mu)^2 = (s - q)(s + q) + 2 i c s q.  One of s and q is 1 and the
    other at most 1, so no r^2 or 1/r^2 is formed, and s - q is rounded
    once, so it does not cancel next to r = 1.  For r <= 1: r, 1, r - 1."""
    s = min(r, 1.0)
    return s, s / r, (r - 1.0) / max(r, 1.0)


def _one_minus_r2(r: float) -> float:
    """1 - r^2 as (1 - r)(1 + r), which does not cancel next to r = 1
    (Goldberg, ACM Comput. Surv. 23, 1991, sec. 1.4).  For r <= 1 it is bit
    for bit -(s - q)(s + q) of `_scaled_split`, the (s mu)^2 that
    `core._generator` takes the root of at e.gamma = 0: every r <= 1
    closed form reads the generator's own Im mu = sqrt(1 - r^2)/r."""
    return (1.0 - r) * (1.0 + r)


def _csv_blocks(columns: dict):
    """CSV text of named, equal-length columns (numpy arrays, lists or
    tuples): the header line, then blocks of at most _BLOCK_ROWS rows, so
    no caller holds the whole text.  An array goes through `.tolist()`, and
    every value through `str`: a float is its shortest round-trip repr and
    an integer column stays an integer."""
    yield ",".join(columns) + "\n"
    cols = list(columns.values())
    for start in range(0, len(cols[0]), _BLOCK_ROWS):
        blocks = (c[start:start + _BLOCK_ROWS] for c in cols)
        rows = zip(*(b.tolist() if hasattr(b, "tolist") else b
                     for b in blocks), strict=True)
        yield "".join([",".join(map(str, row)) + "\n" for row in rows])


def _check_observables(delta_E: float, delta_Gamma: float,
                       q_over_p: float) -> None:
    """The checks of `meson.MesonObservables`, in its order."""
    _check(math.isfinite(delta_E), "delta_E", "finite", delta_E)
    _check(math.isfinite(delta_Gamma), "delta_Gamma", "finite", delta_Gamma)
    _check(math.isfinite(q_over_p), "q_over_p", "finite", q_over_p)
    if delta_E < 0.0:
        raise UnphysicalObservables("delta_E must be >= 0 by convention")
    if not q_over_p > 0.0:
        raise UnphysicalObservables("|q/p| must be positive")


def _check_bloch_parameters(r: float, theta_eg_deg: float,
                            E_mag: float) -> None:
    """The checks of `meson.BlochParameters`, in its order."""
    _check_r(r)
    _check(math.isfinite(theta_eg_deg), "theta_eg_deg", "finite", theta_eg_deg)
    _check(0.0 < E_mag < math.inf, "E_mag", "finite and positive", E_mag)


def _forward(r: float, theta_deg: float,
             E_mag: float) -> tuple[float, float, float]:
    """(Delta E, Delta Gamma, |q/p|) of `meson.observables_from_bloch`,
    whose docstring gives the forms, from checked parameters."""
    r, theta_deg, E_mag = float(r), float(theta_deg), float(E_mag)
    s, q, s_q = _scaled_split(r)
    cos = _sincosd(theta_deg)[0]
    z = cmath.sqrt(complex(-s_q * (s + q), -2.0 * cos * s * q))  # z/m
    # Python floats: an overflowing product is inf, with no RuntimeWarning
    scale = E_mag * max(r, 1.0)
    delta_E, delta_Gamma = scale * (2.0 * z.real), scale * (-4.0 * z.imag)
    if not (math.isfinite(delta_E) and math.isfinite(delta_Gamma)):
        raise OverflowError(f"Delta E or Delta Gamma overflows at "
                            f"r = {r!r}, |E| = {E_mag!r}")
    num = s_q ** 2 + 4.0 * s * q * _sincosd((90.0 - theta_deg) / 2)[1] ** 2
    den = s_q ** 2 + 4.0 * s * q * _sincosd((90.0 + theta_deg) / 2)[1] ** 2
    if den == 0.0:  # r = 1, theta = -90 degrees: the mirror of |q/p| = 0
        raise UnphysicalObservables("|q/p| is infinite at r = 1, theta = -90")
    return delta_E, delta_Gamma, (num / den) ** 0.25


def _inverse(delta_E: float, delta_Gamma: float, q_over_p: float
             ) -> tuple[float, float, float, float, bool]:
    """(r, theta, theta_mirror, |E|, forced CUQ branch) of
    `meson.bloch_from_observables`, whose docstring gives the forms, from
    checked observables."""
    k = math.frexp(max(delta_E, abs(delta_Gamma)))[1] - 1
    scale = 2.0 ** k
    w_re, w_im = delta_E / scale / 2.0, -delta_Gamma / scale / 4.0
    t = math.tanh(math.log(q_over_p))
    num, den = complex(-w_im, t * w_re), complex(w_re, t * w_im)
    if num == 0.0 or den == 0.0:  # r = 0 or r = inf
        raise UnphysicalObservables("observables admit no r in (0, inf)")
    zeta = num / den  # r e^{-i theta}
    m, e = math.frexp(q_over_p)  # cosh(ln Q) = 2^|e| (Q 2^-|e| + 2^-|e|/Q)/2
    cosh = (math.ldexp(m, e - abs(e)) + math.ldexp(1.0 / m, -e - abs(e))) / 2.0
    pm, pe = math.frexp(cosh * abs(den))
    pe += abs(e) + k  # |E| = pm 2^pe with pm < 1, finite for pe <= 1024
    E_mag = math.ldexp(pm, pe) if pe <= 1024 else math.inf
    if E_mag in (0.0, math.inf):
        raise OverflowError(f"|E| {'over' if E_mag else 'under'}flows at "
                            f"Delta E = {delta_E!r}, |q/p| = {q_over_p!r}")
    r, s = abs(zeta), 0.0 - zeta.imag  # never -0.0: |q/p| = 1 gives theta 0
    theta = math.degrees(math.atan2(s, zeta.real))
    theta_mirror = math.degrees(math.atan2(s, -zeta.real))
    if abs(theta) == 90.0 and delta_Gamma < 0.0:
        theta = math.copysign(math.nextafter(90.0, 180.0), theta)
        theta_mirror = math.copysign(180.0, theta) - theta
    return r, theta, theta_mirror, E_mag, delta_Gamma == 0.0


class Damping(Enum):
    OSCILLATORY = "oscillatory"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


def classify_damping(r: float) -> Damping:
    """r < 1 oscillates, r = 1 is the non-diagonalisable boundary, r > 1
    approaches its long-lived state without oscillation; decided on the
    float r exactly, as the exact forms decide it."""
    _check_r(r)
    if r == 1.0:
        return Damping.CRITICAL
    return Damping.OSCILLATORY if r < 1.0 else Damping.OVERDAMPED


# PDG 2024 mixing data and the equivalent Bloch-sphere parameterisation,
# one printed row per system.  Delta Gamma is quoted as a magnitude;
# theta_eg = -90 +- 90 for Bd0 is stored as printed even though the error
# is degenerate.
_COLUMNS = ("system", "delta_E", "delta_E_err", "delta_Gamma",
            "delta_Gamma_err", "q_over_p_minus_1", "q_over_p_minus_1_err",
            "r", "r_err", "theta_eg_deg", "theta_eg_deg_err", "E_mag",
            "E_mag_err")
_TABLE = (
    ("K0", 0.005293, 9e-6, 0.01, 5e-6, -0.003239, 1e-6,
     0.945, 2e-3, 179.6322, 1e-4, 2.64652e-3, 7e-8),
    ("D0", 0.01, 0.001, 0.03, 0.003, -5.00e-3, 0.04e-3,
     1.5, 0.2, 179.0, 2.0, 5.00e-3, 0.04e-3),
    ("Bd0", 0.5069, 0.0019, 0.7e-3, 7e-3, 1.0e-3, 0.8e-3,
     1e-3, 4e-3, -90.0, 90.0, 0.253, 0.001),
    ("Bs0", 17.765, 0.006, 0.084, 0.005, 0.1e-3, 1.4e-3,
     2.4e-3, 0.2e-3, 182.7, 33.8, 8.9, 0.1),
)


def catalogue_rows() -> list[dict]:
    """The printed table, one dict per system keyed by column name."""
    return [dict(zip(_COLUMNS, row)) for row in _TABLE]


def catalogue_to_csv() -> str:
    return "".join(_csv_blocks(dict(zip(_COLUMNS, zip(*_TABLE)))))


def catalogue_to_json() -> str:
    return json.dumps(catalogue_rows(), indent=2)
