"""The exact forms against 40- and 50-digit mpmath references.

Errors are in units of eps = 2^-52.

The meson maps are held to 50-digit evaluations of their closed forms:
relative to max(|Delta E|, |Delta Gamma|) for the splittings, relative for
|q/p|, r and |E|, and |e^{i theta} - e^{i theta_ref}| for the angle.  The
bound is 4 eps.  Over 45,000 seeded random draws from the ranges below,
the worst cases were 1.0 (Delta E), 1.5 (Delta Gamma) and 1.7 (|q/p|) for
the forward map, and 2.0 (r), 2.9 (theta) and 2.4 (|E|) for the inverse,
so the bound has a headroom of at least 1.37.

`propagate` is held to mp.expm(K tau) applied to rho0, which does not use
the propagator's U = P + x Q split, as the largest absolute error of a
Bloch component.  The bound is 4 eps times the condition factor
(1 + |n| tau)(1 + |n| min(tau, 1/|mu|)) kappa of `_mp_state`.  Over 6,000
draws from the strategies below the worst case was 1.64 eps times the
factor, so the headroom is 2.4.  `from_angle` is exact at multiples of 90
degrees, so no draw carries a rounding tilt and the bound has no tilt
term; 6,000 further draws gave at most 1.06.

`asymptotic_state` and `evolve_to_asymptote` from the mixed state are held
to the Bloch vector of M M^dagger, M = mu I + n.sigma, at 40 digits, as
the largest absolute error of a component.  The bound is 2 eps times
1 + |n|/|mu|: near the exceptional point (r = 1, e perpendicular to
gamma) both read 1 - 1/r^2 off the rounded q = 1/r, an error that the
closeness of M's eigenvalues amplifies (1,500 eps at r = 1 + 8e-9,
89.9999999999998 degrees).  Over 21,000 draws from r log-uniform in
[1e-4, 1e4] and within 1e-16 to 1e-1 of 1, and theta uniform, within
1e-15 to 1e-3 of 0, +-90 and 180 or exactly there, the worst case was
0.91 eps times the factor, so the headroom is 2.2.  The overdamped
`sweep-bmax` end value is held to 1 eps with no condition factor: the form
has no cancellation.  Over 4,000 draws the worst case was 0.37 eps, a
headroom of 2.7.  The frozen `simulate` and overdamped `sweep-bmax`
outputs in tests/data/cli_golden are held to the same bounds on 25 rows
each.
"""

import math
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuq.analytic import asymptotic_state
from cuq.cli import _peak_magnitude
from cuq.core import QubitModel
from cuq.integrate import NON_CONVERGENT, evolve_to_asymptote, propagate
from cuq.meson import (BlochParameters, bloch_from_observables,
                       observables_from_bloch)

EPS = sys.float_info.epsilon
BOUND = 4.0
GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden"


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


# -- the exact propagator and the overdamped sweep end ----------------------

_PAULI = [mp.matrix([[0, 1], [1, 0]]), mp.matrix([[0, -1j], [1j, 0]]),
          mp.matrix([[1, 0], [0, -1]])]


def _mp_state(model, b0, tau):
    """The Bloch vector of e^{K tau} rho0 e^{K^dagger tau} over its trace,
    with K = n.sigma/2 and n = gamma + i e/r from the model's own floats;
    kappa = |e^{K tau}|_F^2 / (2 tr), how much the normalisation
    amplifies an error, large only near the repelling state; and
    |mu| = |n.n|^(1/2).  K is shifted by its spectral abscissa Re(mu)/2,
    which keeps e^{K tau} of order 1.  The repelling part then decays like
    e^{-Re(mu) tau}: where the trace is below 1e-20 of |e^{K tau}|_F^2, the
    state is formed again with 20 + Re(mu) tau more digits, which keep its
    share.
    """
    e = [mp.mpf(x) for x in model.e]
    g = [mp.mpf(x) for x in model.gamma]
    n = [y + 1j * x / mp.mpf(model.r) for x, y in zip(e, g)]
    mu = mp.sqrt(mp.fsum(n_i * n_i for n_i in n))  # K's eigenvalues are +-mu/2
    K = sum((n_i * s for n_i, s in zip(n, _PAULI)), -mu.real * mp.eye(2)) / 2
    b = [mp.mpf(x) for x in b0]
    size = mp.sqrt(mp.fsum(x * x for x in b))
    if size > 1:  # a float b0 of norm 1 may round just past it
        b = [x / size for x in b]
    rho0 = mp.eye(2) + sum((x * s for x, s in zip(b, _PAULI)), mp.zeros(2))
    for digits in (0, 20 + int(mu.real * tau)):
        with mp.workdps(mp.mp.dps + digits):
            U = mp.expm(K * mp.mpf(tau))
            rho = U * rho0 * U.H
            tr, size = (rho[0, 0] + rho[1, 1]).real, mp.mnorm(U, "f") ** 2
            if tr > 1e-20 * size or digits:
                bloch = [(rho * s)[0, 0].real + (rho * s)[1, 1].real
                         for s in _PAULI]
                return [x / tr for x in bloch], size / tr, abs(mu)


@st.composite
def _ball(draw):
    """A point of the Bloch ball, on the sphere about half the time."""
    v = [draw(st.floats(-1.0, 1.0)) for _ in range(3)]
    size = math.sqrt(sum(x * x for x in v))
    assume(size > 1e-3)
    scale = draw(st.one_of(st.just(1.0), st.floats(0.0, 1.0)))
    return [x * scale / size for x in v]


# r log-uniform over eight decades, near the exceptional point r = 1, and
# down to 1e-300, where 1/r^2 is past the float range
R_ANY = st.one_of(st.floats(-4.0, 4.0).map(lambda x: 10.0 ** x),
                  _near([1.0], 1e-2),
                  st.floats(-300.0, -4.0).map(lambda x: 10.0 ** x))
THETA_ANY = st.one_of(st.floats(0.0, 180.0),
                      _near([0.0, 90.0, 180.0], 1.0),
                      st.sampled_from([0.0, 90.0, 180.0]))
PROPAGATE_BOUND = 4.0


def _propagate_error(m, b0, tau, got):
    """The error of the Bloch vector `got` at tau and its condition factor."""
    with mp.workdps(40):
        want, kappa, mu = _mp_state(m, b0, tau)
        err = max(abs(mp.mpf(x) - y) for x, y in zip(got, want))
        # |n| tau sizes K tau; |n| min(tau, 1/|mu|) sizes U's sigma part,
        # which near r = 1 turns a rounding of n.n into a phase error
        n_mag = mp.sqrt(1 + 1 / mp.mpf(m.r) ** 2)
        turn = min(tau, 1 / mu) if mu else tau
        cond = (1 + n_mag * tau) * (1 + n_mag * turn) * kappa
    return float(err), float(cond)


@settings(max_examples=80, deadline=None)
@given(R_ANY, THETA_ANY, _ball(), st.floats(0.0, 100.0))
@example(r=1.0, theta=90.0000000001, b0=[0.0, 0.0, 1.0], t=2.29)
def test_propagate_within_4_eps_times_its_condition(r, theta, b0, t):
    # tau is t in units of min(r, 1), the time the state turns in; the
    # example tilts gamma 1.7e-12 off perpendicular at the exceptional point
    m = QubitModel.from_angle(r, theta, degrees=True)
    tau = t * min(r, 1.0)
    err, cond = _propagate_error(m, b0, tau, propagate(m, b0, [tau])[0])
    assert err <= PROPAGATE_BOUND * EPS * cond, err / (EPS * cond)


@pytest.mark.parametrize("name, r, theta, b0", [
    ("sim_r085.csv", 0.85, 90.0, None),
    ("sim_r1_mixed.csv", 1.0, 90.0, [0.0, 0.0, 0.0]),
    ("sim_r25_37.csv", 2.5, 37.0, [0.3, -0.2, 0.1]),
    ("sim_r025_180.csv", 0.25, 180.0, [-0.6, 0.0, 0.8])])
def test_golden_trajectories_within_the_propagate_bound(name, r, theta, b0):
    # 25 rows, first and last included, of the frozen `simulate` outputs;
    # None is e x gamma
    m = QubitModel.from_angle(r, theta, degrees=True)
    b0 = m.e_cross_gamma if b0 is None else b0
    table = np.loadtxt(GOLDEN / name, delimiter=",", skiprows=1)
    for row in table[np.linspace(0, len(table) - 1, 25).astype(int)]:
        err, cond = _propagate_error(m, b0, row[0], row[1:4])
        assert err <= PROPAGATE_BOUND * EPS * cond, row[0]


STATIONARY_BOUND = 2.0


def _mp_limit(m):
    """The Bloch vector of M M^dagger, M = mu I + n.sigma with Re mu >= 0,
    from the model's own floats, and the condition factor 1 + |n|/|mu| of
    M's direction; M = n.sigma is formed without rounding at mu = 0."""
    e = [mp.mpf(x) for x in m.e]
    n = [mp.mpf(y) + 1j * x / mp.mpf(m.r) for x, y in zip(e, m.gamma)]
    mu = mp.sqrt(mp.fsum(n_i * n_i for n_i in n))
    M = sum((n_i * s for n_i, s in zip(n, _PAULI)), mu * mp.eye(2))
    G = M * M.H
    tr = (G[0, 0] + G[1, 1]).real
    bloch = [((G * s)[0, 0] + (G * s)[1, 1]).real / tr for s in _PAULI]
    n_mag = mp.sqrt(mp.fsum(abs(n_i) ** 2 for n_i in n))
    return bloch, 1 + n_mag / abs(mu) if mu else 1


@settings(max_examples=150, deadline=None)
@given(R, st.one_of(THETA, st.sampled_from([0.0, 90.0, -90.0, 180.0])))
def test_stationary_state_within_2_eps_times_its_condition(r, theta):
    m = QubitModel.from_angle(r, theta, degrees=True)
    state = asymptotic_state(m)
    limit = evolve_to_asymptote(m, np.zeros(3))  # never the repeller
    if m.e @ m.gamma == 0.0 and r < 1.0:  # Re mu = 0 != mu
        assert state.b_star is None and limit is NON_CONVERGENT
        return
    with mp.workdps(40):
        want, cond = _mp_limit(m)
        for got in (state.b_star, limit):
            err = max(abs(mp.mpf(x) - y) for x, y in zip(got, want))
            assert err <= STATIONARY_BOUND * EPS * cond, float(err / EPS)


SWEEP_BOUND = 1.0


def _mp_peak(m, beta):
    """max(|beta|, |b(50 r)|) from b0 = beta gamma = (0, beta, 0)."""
    with mp.workdps(40):
        end = _mp_state(m, [0.0, beta, 0.0], 50.0 * m.r)[0]
        return max(abs(beta), mp.sqrt(mp.fsum(x * x for x in end)))


@settings(max_examples=60, deadline=None)
@given(st.one_of(st.floats(0.0, 3.0).map(lambda x: 10.0 ** x),
                 st.floats(-12.0, -1.0).map(lambda x: 1.0 + 10.0 ** x)),
       st.floats(-1.0, 1.0))
def test_overdamped_sweep_end_within_1_eps(r, beta):
    m = QubitModel.from_angle(r, 90.0, degrees=True)
    err = abs(_peak_magnitude(m, beta) - _mp_peak(m, beta))
    assert err <= SWEEP_BOUND * EPS, float(err / EPS)


def test_golden_sweep_within_1_eps():
    # 25 rows, first and last included, of the frozen overdamped sweep
    table = np.loadtxt(GOLDEN / "sweep_grid.csv", delimiter=",", skiprows=1)
    for r, beta, b_max in table[np.linspace(0, len(table) - 1, 25).astype(int)]:
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        assert abs(b_max - _mp_peak(m, beta)) <= SWEEP_BOUND * EPS, (r, beta)
