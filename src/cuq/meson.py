"""Translation between meson-mixing observables and Bloch-sphere parameters.

A neutral meson-antimeson system is characterised experimentally by the
mass difference Delta E = Delta m, the width difference Delta Gamma and
the CP-violation measure |q/p|.  With z = sqrt(1 - r^2 - 2 i r cos(theta))
(principal branch, Re z >= 0):

    Delta E     =  2 |E| Re z
    Delta Gamma = -4 |E| Im z
    |q/p|^4     = (1 + r^2 - 2 r sin(theta)) / (1 + r^2 + 2 r sin(theta))

where theta is the angle between the energy and decay directions.  The
module also carries the catalogue of the four well-measured systems
(PDG 2024 central values with 1-sigma errors) in both parameterisations.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

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


class UnphysicalObservables(ValueError):
    """No Bloch parameterisation exists for the requested observables."""


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class BlochParameters:
    """(r, theta_eg in degrees, |E| in 1/ps)."""

    r: float
    theta_eg_deg: float
    E_mag: float

    def __post_init__(self):
        if not (math.isfinite(self.r) and math.isfinite(self.theta_eg_deg)
                and math.isfinite(self.E_mag)):
            raise ValueError(f"Bloch parameters must be finite, got {self}")
        if not self.r > 0.0:
            raise ValueError("r must be positive")
        if not self.E_mag > 0.0:
            raise ValueError("E_mag must be positive")


def observables_from_bloch(p: BlochParameters) -> MesonObservables:
    """Forward map; Re z >= 0 fixes Delta E >= 0 and the Delta Gamma sign."""
    th = np.radians(p.theta_eg_deg)
    # Python floats: an overflowing product is inf, with no RuntimeWarning
    z = complex(np.sqrt(complex(1.0 - p.r ** 2, -2.0 * p.r * np.cos(th))))
    delta_E, delta_Gamma = 2.0 * p.E_mag * z.real, -4.0 * p.E_mag * z.imag
    if not (math.isfinite(delta_E) and math.isfinite(delta_Gamma)):
        raise OverflowError(f"Delta E or Delta Gamma overflows at "
                            f"|E| = {p.E_mag!r}")
    # 1 + r^2 -+ 2 r sin = (1 - r)^2 + 4 r sin^2(pi/4 -+ theta/2), which does
    # not cancel as r -> 1 and theta -> +-90 degrees
    num = (1.0 - p.r) ** 2 + 4.0 * p.r * np.sin(np.pi / 4 - th / 2) ** 2
    den = (1.0 - p.r) ** 2 + 4.0 * p.r * np.sin(np.pi / 4 + th / 2) ** 2
    if den == 0.0:  # r = 1, theta = -90 degrees: the mirror of |q/p| = 0
        raise UnphysicalObservables("|q/p| is infinite at r = 1, theta = -90")
    return MesonObservables(delta_E=delta_E, delta_Gamma=delta_Gamma,
                            q_over_p=(num / den) ** 0.25)


@dataclass(frozen=True)
class BlochInversion:
    """Preferred solution plus the mirror branch (theta -> 180 - theta,
    equivalently a flipped Delta Gamma sign)."""

    params: BlochParameters
    mirror: BlochParameters
    forced_cuq_branch: bool = False  # Delta Gamma = 0 forces theta = +-90


def _solve_v(A: float, B: float, Q: float) -> tuple[float, float]:
    """(v, 1 - v) for v = r^2, from the reduced constraint in closed form.

    With A = dE^2 - dG^2/4 = 4|E|^2(1-v), B = dE*dG = 8|E|^2 r cos(theta),
    a = B/(2A) and k = (1-Q)/(2(1+Q)): r cos = a(1-v), r sin = k(1+v), and
    (r cos)^2 + (r sin)^2 = v is the palindromic quadratic p v^2 - 2h v + p
    = 0, p = a^2 + k^2, h = p + d, d = 1/2 - 2k^2 = 2Q/(1+Q)^2 > 0.  Its
    roots v, 1/v are real; |E|^2 > 0 takes v < 1 for A > 0, v > 1 for A < 0.
    1 - v is formed apart from v because it sets |E|^2 and cancels at r ~ 1.
    """
    if A == 0.0:
        return 1.0, 0.0
    a = B / (2.0 * A)
    p = a * a + ((1.0 - Q) / (2.0 * (1.0 + Q))) ** 2
    d = 2.0 * Q / (1.0 + Q) ** 2  # h - p without the cancellation in k
    gap = d + np.sqrt(d * (2.0 * a * a + 0.5))  # small root: p / (p + gap)
    if not (0.0 < p < np.inf and 0.0 < gap < np.inf):
        raise UnphysicalObservables("observables admit no r in (0, inf)")
    if A > 0.0:
        return p / (p + gap), gap / (p + gap)
    return (p + gap) / p, -gap / p


def bloch_from_observables(o: MesonObservables) -> BlochInversion:
    """Invert the forward map.

    Delta Gamma enters only through its sign times cos(theta); feeding the
    magnitude therefore leaves a two-fold theta-branch ambiguity, which is
    reported via the mirror solution.
    """
    Q = o.q_over_p ** 4
    A = o.delta_E ** 2 - o.delta_Gamma ** 2 / 4.0
    B = o.delta_E * o.delta_Gamma
    v, one_minus_v = _solve_v(A, B, Q)
    r = float(np.sqrt(v))
    rs = (1.0 + v) * (1.0 - Q) / (2.0 * (1.0 + Q))
    if A != 0.0:
        E2 = A / (4.0 * one_minus_v)
        rc = B / (8.0 * E2)
    else:
        rc2 = max(v - rs * rs, 0.0)
        rc = float(np.sign(B)) * np.sqrt(rc2)
        E2 = B / (8.0 * rc) if rc != 0.0 else (o.delta_E / 2.0) ** 2
    if E2 <= 0.0:
        raise UnphysicalObservables("inverted |E|^2 is not positive")
    E_mag = float(np.sqrt(E2))
    s, c = float(np.clip(rs / r, -1.0, 1.0)), rc / r
    forced = o.delta_Gamma == 0.0
    theta = float(np.degrees(np.arctan2(s, c)))
    theta_mirror = float(np.degrees(np.arctan2(s, -c)))
    params = BlochParameters(r=r, theta_eg_deg=theta, E_mag=E_mag)
    mirror = BlochParameters(r=r, theta_eg_deg=theta_mirror, E_mag=E_mag)
    return BlochInversion(params=params, mirror=mirror, forced_cuq_branch=forced)


def flavour_asymmetry(state: BlochState) -> float:
    """delta(t) = b_3, the e x gamma projection in the CPT basis."""
    return float(state.b[2])


class Damping(Enum):
    OSCILLATORY = "oscillatory"
    CRITICAL = "critical"
    OVERDAMPED = "overdamped"


def classify_damping(r: float) -> Damping:
    """r < 1 oscillates, r = 1 is the non-diagonalisable boundary, r > 1
    approaches its long-lived state without oscillation."""
    if not r > 0.0:
        raise ValueError("r must be positive")
    if abs(r - 1.0) <= 1e-12:
        return Damping.CRITICAL
    return Damping.OSCILLATORY if r < 1.0 else Damping.OVERDAMPED


@dataclass(frozen=True)
class MesonCatalogueEntry:
    """One meson system with printed central values and symmetric errors."""

    name: str
    observables: MesonObservables
    observables_err: MesonObservables
    bloch: BlochParameters
    bloch_err: tuple[float, float, float]  # (r, theta_deg, E_mag)

    @property
    def damping(self) -> Damping:
        return classify_damping(self.bloch.r)


def _entry(name, dE, dE_err, dG, dG_err, qop_m1, qop_m1_err,
           r, r_err, th, th_err, E, E_err) -> MesonCatalogueEntry:
    return MesonCatalogueEntry(
        name=name,
        observables=MesonObservables(dE, dG, 1.0 + qop_m1),
        observables_err=MesonObservables(dE_err, dG_err, qop_m1_err),
        bloch=BlochParameters(r, th, E),
        bloch_err=(r_err, th_err, E_err),
    )


# PDG 2024 mixing data and the equivalent Bloch-sphere parameterisation.
# Delta Gamma is quoted as a magnitude; theta_eg = -90 +- 90 for Bd0 is
# stored as printed even though the error is degenerate.
_CATALOGUE = (
    _entry("K0", 0.005293, 9e-6, 0.01, 5e-6, -0.003239, 1e-6,
           0.945, 2e-3, 179.6322, 1e-4, 2.64652e-3, 7e-8),
    _entry("D0", 0.01, 0.001, 0.03, 0.003, -5.00e-3, 0.04e-3,
           1.5, 0.2, 179.0, 2.0, 5.00e-3, 0.04e-3),
    _entry("Bd0", 0.5069, 0.0019, 0.7e-3, 7e-3, 1.0e-3, 0.8e-3,
           1e-3, 4e-3, -90.0, 90.0, 0.253, 0.001),
    _entry("Bs0", 17.765, 0.006, 0.084, 0.005, 0.1e-3, 1.4e-3,
           2.4e-3, 0.2e-3, 182.7, 33.8, 8.9, 0.1),
)


def catalogue() -> list[MesonCatalogueEntry]:
    """The four well-measured meson-antimeson systems."""
    return list(_CATALOGUE)


def catalogue_rows() -> list[dict]:
    rows = []
    for e in _CATALOGUE:
        rows.append({
            "system": e.name,
            "delta_E": e.observables.delta_E,
            "delta_E_err": e.observables_err.delta_E,
            "delta_Gamma": e.observables.delta_Gamma,
            "delta_Gamma_err": e.observables_err.delta_Gamma,
            "q_over_p_minus_1": e.observables.q_over_p - 1.0,
            "q_over_p_minus_1_err": e.observables_err.q_over_p,
            "r": e.bloch.r,
            "r_err": e.bloch_err[0],
            "theta_eg_deg": e.bloch.theta_eg_deg,
            "theta_eg_deg_err": e.bloch_err[1],
            "E_mag": e.bloch.E_mag,
            "E_mag_err": e.bloch_err[2],
        })
    return rows


def catalogue_to_csv() -> str:
    rows = catalogue_rows()
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\n")
    writer.writeheader()
    writer.writerows(rows)
    return buf.getvalue()


def catalogue_to_json() -> str:
    return json.dumps(catalogue_rows(), indent=2)
