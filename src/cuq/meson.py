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

The float level lives in the numpy-free `_base`: the two maps
(`_base._forward`, `_base._inverse`), the checks of both value types, the
PDG table, `Damping`, `classify_damping` and the catalogue writers, which
this module re-exports.  Here the maps are typed wrappers, so `cuq
convert` and `cuq catalogue` run the same checks and forms without
loading this module or `dataclasses`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ._base import (_TABLE, Damping, UnphysicalObservables,
                    _check_bloch_parameters, _check_observables, _forward,
                    _inverse, catalogue_rows, catalogue_to_csv,
                    _Value, catalogue_to_json, classify_damping)

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
class MesonObservables(_Value):
    """(Delta E, Delta Gamma, |q/p|) in 1/ps.  Delta E >= 0 by convention;
    Delta Gamma is signed (the principal square-root branch makes it
    negative for theta near 180 degrees; PDG tables quote magnitudes)."""

    delta_E: float
    delta_Gamma: float
    q_over_p: float

    def __post_init__(self):
        _check_observables(self.delta_E, self.delta_Gamma, self.q_over_p)


@dataclass(frozen=True, slots=True)
class BlochParameters(_Value):
    """(r, theta_eg in degrees, |E| in 1/ps)."""

    r: float
    theta_eg_deg: float
    E_mag: float

    def __post_init__(self):
        _check_bloch_parameters(self.r, self.theta_eg_deg, self.E_mag)


def observables_from_bloch(p: BlochParameters) -> MesonObservables:
    """Forward map; Re z >= 0 fixes Delta E >= 0 and the Delta Gamma sign.

    With s, q and s - q = (r - 1)/m, m = max(r, 1), from
    `_base._scaled_split`, z/m = sqrt((q - s)(s + q) - 2 i c s q), and the
    |q/p| ratio is taken over m^2: (1 + r^2 -+ 2 r sin(theta))/m^2 =
    (s - q)^2 + 4 s q sin^2((90 -+ theta)/2), where 90 -+ theta is exact,
    so nothing cancels as r -> 1 and theta -> +-90.  |E| m multiplies
    z/m, so any finite r with finite Delta E and Delta Gamma works."""
    return MesonObservables(*_forward(p.r, p.theta_eg_deg, p.E_mag))


@dataclass(frozen=True, slots=True)
class BlochInversion(_Value):
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
    r, theta, theta_mirror, E_mag, forced = _inverse(
        o.delta_E, o.delta_Gamma, o.q_over_p)
    return BlochInversion(params=BlochParameters(r, theta, E_mag),
                          mirror=BlochParameters(r, theta_mirror, E_mag),
                          forced_cuq_branch=forced)


def flavour_asymmetry(state: BlochState) -> float:
    """delta(t) = b_3 = P(M0bar) - P(M0), the e x gamma projection in the
    CPT basis at theta_eg = 90 degrees."""
    return float(state.b[2])


@dataclass(frozen=True, slots=True)
class MesonCatalogueEntry(_Value):
    """One meson system with printed central values and symmetric errors."""

    name: str
    observables: MesonObservables
    observables_err: MesonObservables
    bloch: BlochParameters
    bloch_err: tuple[float, float, float]  # (r, theta_deg, E_mag)


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
