"""Translation between meson-mixing observables and Bloch-sphere parameters.

A neutral meson-antimeson system is characterised experimentally by the
mass difference Delta E = Delta m, the width difference Delta Gamma and
the CP-violation measure |q/p|.  With z = sqrt(1 - r^2 - 2 i r cos(theta))
(principal branch, Re z >= 0):

    Delta E     =  2 |E| Re z
    Delta Gamma = -4 |E| Im z
    |q/p|^4     = (1 + r^2 - 2 r sin(theta)) / (1 + r^2 + 2 r sin(theta))

where theta is the angle between the energy and decay directions.  z^2 is
-(r mu)^2 for the generator's root mu (`core._generator`), and the
forward map forms z/max(r, 1) from the same `_base._scaled_split`, so it
forms no r^2.  With w = Delta E/2 - i Delta Gamma/4 = |E| z and
t = tanh(ln|q/p|), the inverse is

    r e^{-i theta} = (i t Re w - Im w) / (Re w + i t Im w)
    |E|            = cosh(ln|q/p|) |Re w + i t Im w|

The flavour states are the poles of the third Bloch axis in the basis of
`QubitModel.from_angle`: M0bar is the north pole b_3 = +1 and M0 the south
pole, so b_3 = P(M0bar) - P(M0), and |q/p| is the textbook one.  In the
Lee-Oehme-Yang rates |g+-(t)|^2 ~ cosh(Delta Gamma t/2) +- cos(Delta E t),
at t = tau/(2 r |E|), a tagged M0 stays with weight |g+|^2 and turns into
M0bar with |q/p|^2 |g-|^2; a tagged M0bar turns into M0 with |p/q|^2 |g-|^2.

The module also carries the catalogue of the four well-measured systems
(PDG 2024 central values with 1-sigma errors) in both parameterisations.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from ._base import (UnphysicalObservables, _check_r, _csv_blocks,
                    _scaled_split, _sincosd)

if TYPE_CHECKING:  # an annotation only: meson itself needs no numpy
    from .core import BlochState

__all__ = [
    "MesonObservables",
    "BlochParameters",
    "MesonCatalogueEntry",
    "Damping",
    "UnphysicalObservables",
    "observables_from_bloch",
    "bloch_from_observables",
    "flavour_asymmetry",
    "classify_damping",
    "catalogue",
    "catalogue_rows",
    "catalogue_to_csv",
    "catalogue_to_json",
]


@dataclass(frozen=True, slots=True)
class MesonObservables:
    """(Delta E, Delta Gamma, |q/p|) in 1/ps.  Delta E >= 0 by convention;
    Delta Gamma is signed (the principal square-root branch makes it
    negative for theta near 180 degrees; PDG tables quote magnitudes)."""

    delta_E: float
    delta_Gamma: float
    q_over_p: float

    def __post_init__(self):
        if not (math.isfinite(self.delta_E) and math.isfinite(self.delta_Gamma)
                and math.isfinite(self.q_over_p)):
            raise ValueError(f"observables must be finite, got {self}")
        if self.delta_E < 0.0:
            raise UnphysicalObservables("delta_E must be >= 0 by convention")
        if not self.q_over_p > 0.0:
            raise UnphysicalObservables("|q/p| must be positive")


@dataclass(frozen=True, slots=True)
class BlochParameters:
    """(r, theta_eg in degrees, |E| in 1/ps)."""

    r: float
    theta_eg_deg: float
    E_mag: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta_eg_deg)
                and math.isfinite(self.E_mag)):
            raise ValueError(f"Bloch parameters must be finite, got {self}")
        _check_r(self.r)
        if not self.E_mag > 0.0:
            raise ValueError("E_mag must be positive")


def observables_from_bloch(p: BlochParameters) -> MesonObservables:
    """Forward map; Re z >= 0 fixes Delta E >= 0 and the Delta Gamma sign.

    With s, q and s - q = (r - 1)/m, m = max(r, 1), from
    `_base._scaled_split`, z/m = sqrt((q - s)(s + q) - 2 i c s q), and the
    |q/p| ratio is taken over m^2: (1 + r^2 -+ 2 r sin(theta))/m^2 =
    (s - q)^2 + 4 s q sin^2((90 -+ theta)/2), where 90 -+ theta is exact,
    so nothing cancels as r -> 1 and theta -> +-90.  |E| m multiplies
    z/m, so any finite r with finite Delta E and Delta Gamma works."""
    th = p.theta_eg_deg
    s, q, s_q = _scaled_split(p.r)
    cos = _sincosd(th)[0]
    z = cmath.sqrt(complex(-s_q * (s + q), -2.0 * cos * s * q))  # z/m
    # Python floats: an overflowing product is inf, with no RuntimeWarning
    scale = p.E_mag * max(p.r, 1.0)
    delta_E, delta_Gamma = scale * (2.0 * z.real), scale * (-4.0 * z.imag)
    if not (math.isfinite(delta_E) and math.isfinite(delta_Gamma)):
        raise OverflowError(f"Delta E or Delta Gamma overflows at "
                            f"r = {p.r!r}, |E| = {p.E_mag!r}")
    num = s_q ** 2 + 4.0 * s * q * _sincosd((90.0 - th) / 2)[1] ** 2
    den = s_q ** 2 + 4.0 * s * q * _sincosd((90.0 + th) / 2)[1] ** 2
    if den == 0.0:  # r = 1, theta = -90 degrees: the mirror of |q/p| = 0
        raise UnphysicalObservables("|q/p| is infinite at r = 1, theta = -90")
    return MesonObservables(delta_E=delta_E, delta_Gamma=delta_Gamma,
                            q_over_p=(num / den) ** 0.25)


@dataclass(frozen=True, slots=True)
class BlochInversion:
    """Preferred solution plus the mirror branch (theta -> 180 - theta,
    equivalently a flipped Delta Gamma sign)."""

    params: BlochParameters
    mirror: BlochParameters
    forced_cuq_branch: bool = False  # Delta Gamma = 0 forces theta = +-90


def bloch_from_observables(o: MesonObservables) -> BlochInversion:
    """Invert the forward map in closed form (module docstring): the mixing
    elements H12 = |E|(1 - i r e^{i theta}) and H21 = |E|(1 - i r e^{-i theta})
    satisfy H12 H21 = w^2, |H21/H12| = Q^2 with Q = |q/p|, H12* + H21 = 2|E|
    and H21 - H12* = -2i r|E| e^{-i theta}.  Solved for the phase of H12
    they give r e^{-i theta} = i(Q w - w*/Q)/(Q w + w*/Q) and |E| =
    |Q w + w*/Q|/2; dividing by Q + 1/Q gives the tanh form, with no Q^n.

    Delta Gamma enters only through its sign times cos(theta), so its
    magnitude alone leaves the mirror branch theta -> 180 - theta.  Delta E
    and Delta Gamma are scaled by the power of two 2^k that puts the larger
    in [1, 2), and cosh(ln|q/p|) by 2^-|e|, |q/p| = m 2^e, so no 1/|q/p| is
    formed; |E| takes 2^(|e| + k) back last, so a subnormal |E| does not
    underflow.  Delta E = 0 is on z's branch cut, where theta = +-90 maps
    to Delta Gamma > 0: Delta Gamma < 0 gives the float just past +-90.
    """
    k = math.frexp(max(o.delta_E, abs(o.delta_Gamma)))[1] - 1
    scale = 2.0 ** k
    w_re, w_im = o.delta_E / scale / 2.0, -o.delta_Gamma / scale / 4.0
    t = math.tanh(math.log(o.q_over_p))
    num, den = complex(-w_im, t * w_re), complex(w_re, t * w_im)
    if num == 0.0 or den == 0.0:  # r = 0 or r = inf
        raise UnphysicalObservables("observables admit no r in (0, inf)")
    zeta = num / den  # r e^{-i theta}
    m, e = math.frexp(o.q_over_p)  # cosh(ln Q) = 2^|e| (Q 2^-|e| + 2^-|e|/Q)/2
    cosh = (math.ldexp(m, e - abs(e)) + math.ldexp(1.0 / m, -e - abs(e))) / 2.0
    pm, pe = math.frexp(cosh * abs(den))
    pe += abs(e) + k  # |E| = pm 2^pe with pm < 1, finite for pe <= 1024
    E_mag = math.ldexp(pm, pe) if pe <= 1024 else math.inf
    if E_mag in (0.0, math.inf):
        raise OverflowError(f"|E| {'over' if E_mag else 'under'}flows at "
                            f"Delta E = {o.delta_E!r}, |q/p| = {o.q_over_p!r}")
    r, s = abs(zeta), 0.0 - zeta.imag  # never -0.0: |q/p| = 1 gives theta 0
    theta = math.degrees(math.atan2(s, zeta.real))
    theta_mirror = math.degrees(math.atan2(s, -zeta.real))
    if abs(theta) == 90.0 and o.delta_Gamma < 0.0:
        theta = math.copysign(math.nextafter(90.0, 180.0), theta)
        theta_mirror = math.copysign(180.0, theta) - theta
    return BlochInversion(params=BlochParameters(r, theta, E_mag),
                          mirror=BlochParameters(r, theta_mirror, E_mag),
                          forced_cuq_branch=o.delta_Gamma == 0.0)


def flavour_asymmetry(state: BlochState) -> float:
    """delta(t) = b_3 = P(M0bar) - P(M0), the e x gamma projection in the
    CPT basis at theta_eg = 90 degrees."""
    return float(state.b[2])


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


@dataclass(frozen=True, slots=True)
class MesonCatalogueEntry:
    """One meson system with printed central values and symmetric errors."""

    name: str
    observables: MesonObservables
    observables_err: MesonObservables
    bloch: BlochParameters
    bloch_err: tuple[float, float, float]  # (r, theta_deg, E_mag)


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


def catalogue() -> list[MesonCatalogueEntry]:
    """The four well-measured meson-antimeson systems."""
    return [MesonCatalogueEntry(
                name=name,
                observables=MesonObservables(dE, dG, 1.0 + qop_m1),
                observables_err=MesonObservables(dE_err, dG_err, qop_m1_err),
                bloch=BlochParameters(r, th, E),
                bloch_err=(r_err, th_err, E_err))
            for (name, dE, dE_err, dG, dG_err, qop_m1, qop_m1_err,
                 r, r_err, th, th_err, E, E_err) in _TABLE]


def catalogue_rows() -> list[dict]:
    """The printed table, one dict per system keyed by column name."""
    return [dict(zip(_COLUMNS, row)) for row in _TABLE]


def catalogue_to_csv() -> str:
    return "".join(_csv_blocks(dict(zip(_COLUMNS, zip(*_TABLE)))))


def catalogue_to_json() -> str:
    return json.dumps(catalogue_rows(), indent=2)
