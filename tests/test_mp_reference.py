"""The meson maps against 50-digit mpmath evaluations of the closed forms.

Errors are in units of eps = 2^-52: relative to max(|Delta E|,
|Delta Gamma|) for the splittings, relative for |q/p|, r and |E|, and
|e^{i theta} - e^{i theta_ref}| for the angle.  The bound is 4 eps.  Over
45,000 seeded random draws from the ranges below, the worst cases were
1.0 (Delta E), 1.5 (Delta Gamma) and 1.7 (|q/p|) for the forward map, and
2.0 (r), 2.9 (theta) and 2.4 (|E|) for the inverse, so the bound has a
headroom of at least 1.37.
"""

import sys

import mpmath as mp
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cuq.meson import (BlochParameters, bloch_from_observables,
                       observables_from_bloch)

EPS = sys.float_info.epsilon
BOUND = 4.0


def _near(points, width):
    return st.tuples(st.sampled_from(points),
                     st.floats(-width, width)).map(sum)


# r log-uniform in [1e-4, 1e4] and theta uniform, with extra draws near
# r = 1 and near the angles where the forms cancel
R = st.one_of(st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x),
              _near([1.0], 1e-2))
THETA = st.one_of(st.floats(-180.0, 180.0, exclude_min=True),
                  _near([0.0, 90.0, -90.0, 180.0], 1e-3))
E_MAG = st.floats(-3.0, 3.0).map(lambda x: 10.0 ** x)


def _mp_observables(r, theta_deg, E):
    """The paper's forms: z = sqrt(1 - r^2 - 2 i r cos(theta)),
    Delta E = 2|E| Re z, Delta Gamma = -4|E| Im z and
    |q/p|^4 = (1 + r^2 - 2 r sin(theta))/(1 + r^2 + 2 r sin(theta))."""
    r, E, th = mp.mpf(r), mp.mpf(E), mp.radians(theta_deg)
    z = mp.sqrt(1 - r * r - 2j * r * mp.cos(th))
    s = mp.sin(th)
    qop4 = (1 + r * r - 2 * r * s) / (1 + r * r + 2 * r * s)
    return 2 * E * z.real, -4 * E * z.imag, mp.root(qop4, 4)


def _mp_inverse(o):
    """(r, theta in radians, |E|) from the closed form, with
    w = Delta E/2 - i Delta Gamma/4 and t = tanh(ln|q/p|)."""
    w = mp.mpc(mp.mpf(o.delta_E) / 2, -mp.mpf(o.delta_Gamma) / 4)
    t = mp.tanh(mp.log(o.q_over_p))
    den = mp.mpc(w.real, t * w.imag)
    zeta = mp.mpc(-w.imag, t * w.real) / den  # r e^{-i theta}
    return abs(zeta), -mp.arg(zeta), mp.cosh(mp.log(o.q_over_p)) * abs(den)


def _observables(r, theta, E):
    assume(not (r == 1.0 and abs(theta) == 90.0))  # |q/p| is 0 or inf
    return observables_from_bloch(BlochParameters(r, theta, E))


def _splitting_errors(got, want):
    size = max(abs(want[0]), abs(want[1]))
    return [abs(got[0] - want[0]) / size, abs(got[1] - want[1]) / size,
            abs(got[2] / want[2] - 1)]


@settings(max_examples=150, deadline=None)
@given(R, THETA, E_MAG)
def test_forward_map_within_4_eps(r, theta, E):
    o = _observables(r, theta, E)
    with mp.workdps(50):
        want = _mp_observables(r, theta, E)
        errors = _splitting_errors(
            (o.delta_E, o.delta_Gamma, o.q_over_p), want)
    assert max(errors) <= BOUND * EPS, [float(e / EPS) for e in errors]


@settings(max_examples=150, deadline=None)
@given(R, THETA, E_MAG)
def test_inverse_map_within_4_eps(r, theta, E):
    o = _observables(r, theta, E)
    got = bloch_from_observables(o).params
    # the closed form is the forward map's inverse; 100 digits, because
    # the |q/p| form cancels up to 32 digits as r -> 1, theta -> -90
    with mp.workdps(100):
        r_mp, th_mp, E_mp = _mp_inverse(o)
        back = _mp_observables(r_mp, mp.degrees(th_mp), E_mp)
        assert max(_splitting_errors(
            back, (o.delta_E, o.delta_Gamma, o.q_over_p))) <= 1e-40
    with mp.workdps(50):
        r_mp, th_mp, E_mp = _mp_inverse(o)
        errors = [abs(got.r / r_mp - 1), abs(got.E_mag / E_mp - 1),
                  abs(mp.expj(mp.radians(got.theta_eg_deg))
                      - mp.expj(th_mp))]
    assert max(errors) <= BOUND * EPS, [float(e / EPS) for e in errors]
