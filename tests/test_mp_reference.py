"""The exact forms against 40- and 50-digit mpmath references.

Errors are in units of eps = 2^-52.

The meson maps are held to 50-digit evaluations of their closed forms:
relative to max(|Delta E|, |Delta Gamma|) for the splittings, relative for
|q/p|, r and |E|, and |e^{i theta} - e^{i theta_ref}| for the angle.  The
bound is 4 eps.  Over 45,000 seeded random draws from the ranges below,
the worst cases were 1.0 (Delta E), 1.5 (Delta Gamma) and 1.7 (|q/p|) for
the forward map, and 2.0 (r), 2.9 (theta) and 2.4 (|E|) for the inverse,
so the bound has a headroom of at least 1.37.  The forward map also draws
r up to 1e300, where r^2 is past the float range and r |E| is not: over
20,000 draws, half of them there, the worst cases were 1.1, 1.6 and 1.4.

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
1 + |n|/|mu|.  Both read mu off `_base._scaled_split`, whose s - q =
(r - 1)/r is rounded once, so 1 - 1/r^2 no longer cancels.  The factor
is there because the reference takes the model's floats literally, and a
float gamma is of unit length only to about an ulp: that moves n.n by
|gamma|^2 - 1, and the closeness of M's eigenvalues near the exceptional
point (r = 1, e perpendicular to gamma) amplifies it.  At r = 1 + 1.1e-13,
theta = 89.9999993877748, |gamma|^2 - 1 = -1.1e-16 and the error is 1,175
eps; against gamma scaled to unit length it is 0.24 eps.  Over 21,000
draws from r log-uniform in [1e-4, 1e4] and within 1e-16 to 1e-1 of 1,
and theta uniform, within 1e-15 to 1e-3 of 0, +-90 and 180 or exactly
there, the worst case was 0.91 eps times the factor, so the headroom is
2.2; the worst raw error was 1,213 eps.  Where gamma is unit to 1e-29,
at r = 1 + 8e-9, theta = 89.9999999999998 (a factor of 11,181), both are
held to 2 eps with no factor.  The overdamped `sweep-bmax` end value is
held to 1 eps with no condition factor: the form has no cancellation.
Over 4,000 draws the worst case was 0.37 eps, a headroom of 2.7.  The
frozen `simulate` and overdamped `sweep-bmax` outputs in
tests/data/cli_golden are held to the same bounds on 25 rows each.  Four
subnormal-r models off the perpendicular are held to 2 eps with no
factor: 2 c s q underflows there, and the CUQ is decided on e.gamma.

The r <= 1 closed forms are held to 50-digit evaluations at the float
inputs (100 digits for `mixed_magnitude`), with r log-uniform down to
1e-8 and 1 - r log-uniform down to 1e-15.  The bound is 3 eps times a
condition factor: 1 for the relative errors of `cuq_clock`,
`restore_units`, `half_angle_slope` and `closed_form_d0` and the absolute
error of the oscillating `sweep-bmax` peak; n + 1 for the relative error
of `closed_form_cn`, whose q^n carries n roundings of q, plus one
subnormal unit of q^n times the prefactor; 1 + |w tau| |d/d(w tau)| for
the absolute error of `cuq_projections`, as the phase w tau is rounded;
and 1 + |phi cot phi|, phi = w tau/2, for the relative error of
`mixed_magnitude`.  Over 6,000 draws per form (12,000 for the spectrum)
the worst cases were 1.48 (`restore_units`), 1.35 (the clock), 0.98
(the slope), 0.94 (c_n), 1.26 (projections), 1.36 (`mixed_magnitude`,
0.83 at r = 1) and 1.10 (the peak), so the headroom is at least 2.0.
The bounds catch a 1 - r^2 formed as 1 - r * r, which cancels: over 600
draws that puts the clock and c_1 off by up to 7.9e6 eps and
`mixed_magnitude`'s former two-branch form off by 2.3e15 eps, at small r
as at r = 1.  The projections are drawn with their phase at least pi/2 from
0 mod 2 pi: next to it and to r = 1, 1 - r cos(w tau) cancels (a strict
xfail pins it).

`cuq_theta` is held to a 40-digit tangent half-angle inversion, unwrapped
by whole periods, at the float inputs, with r drawn as above and tau up
to 50 periods.  The bound is 3 eps times 1 + |theta| + |tau d(theta)/dtau|
on the absolute error: |theta| for the 2 pi m added back, and the second
term, read off d(theta)/dtau = -1/r - cos(theta), for the rounded phase,
which dominates where the orbit sweeps through theta = 0 next to r = 1.
Over 9,000 draws (two seeds) the worst case was 1.13 eps times the
factor, so the headroom is 2.7; the earlier form, which reduced tau by
the clock's P_hat, gave the same worst case.  Against 1 + |theta| alone
the two forms were up to 75 and 101 eps off.  A root formed as
sqrt(1 - r * r) fails the bound.

`fit._student_t_pvalue(t, dof)` is held to a 50-digit
mp.betainc(dof/2, 1/2, 0, x), x = dof/(dof + t^2) at the float t, in
relative error.  The bound is 4 eps times 1 + |ln p|: the factor is the
condition of p on t^2 and on the rounded exponent a ln x, which is
about -ln p where p is small.  Over 20,000 draws from T_DRAWS below
(five seeds; 653 past underflow, where p must read below 2 * 2^-1022),
the worst case was 2.14 eps times the factor, at dof = 618, t = 1, so
the headroom is 1.9.  scipy.special.stdtr (scipy 1.17) on the same draws:
3.6 for dof >= 2; 179 at dof = 1 next to p = 1 (t = 1.1e-3); and 0 for
dof = 1 once t^2 is past the float range, where p is about 1e-155.
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from cuq.analytic import (AsymptoticBranch, asymptotic_state, cuq_clock,
                          cuq_projections, cuq_theta, half_angle_slope,
                          mixed_magnitude, restore_units)
from cuq.cli import _parse_b0, _peak_magnitude, build_parser
from cuq.core import QubitModel
from cuq.fit import _student_t_pvalue
from cuq.fourier import closed_form_cn, closed_form_d0
from cuq.integrate import NON_CONVERGENT, evolve_to_asymptote, propagate
from cuq.meson import (BlochParameters, bloch_from_observables,
                       observables_from_bloch)
from goldens import CLI_GOLDEN, GOLDEN_RUNS, command

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


# r up to 1e300, where r^2 is past the float range and r |E| <= 1e303 is not
R_HUGE = st.floats(4.0, 300.0).map(lambda x: 10.0 ** x)


@settings(max_examples=150, deadline=None)
@given(st.one_of(R, R_HUGE), THETA, E_MAG)
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


def _simulate_goldens():
    """(golden file, r, theta_eg, --b0 spec) of each golden `simulate` run,
    as the CLI parses its argv."""
    for argv, goldens in GOLDEN_RUNS:
        if command(argv) == "simulate":
            args = build_parser().parse_args(argv)
            yield (goldens["trajectory.csv"].name, args.r, args.theta_eg,
                   args.b0)


@pytest.mark.parametrize("name, r, theta, b0", list(_simulate_goldens()))
def test_golden_trajectories_within_the_propagate_bound(name, r, theta, b0):
    # 25 rows, first and last included, of the frozen `simulate` outputs,
    # against the models their argvs give
    m = QubitModel.from_angle(r, theta, degrees=True)
    b0 = _parse_b0(b0, m)
    table = np.loadtxt(CLI_GOLDEN / name, delimiter=",", skiprows=1)
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


def test_stationary_state_next_to_the_exceptional_point_within_2_eps():
    # the condition factor is 11,181 here, but gamma is unit to 1e-29,
    # so the rounding of the model's floats is not amplified
    m = QubitModel.from_angle(1.0 + 8e-9, 89.9999999999998, degrees=True)
    with mp.workdps(40):
        want = _mp_limit(m)[0]
        for got in (asymptotic_state(m).b_star,
                    evolve_to_asymptote(m, np.zeros(3))):
            err = max(abs(mp.mpf(x) - y) for x, y in zip(got, want))
            assert err <= STATIONARY_BOUND * EPS, float(err / EPS)


@pytest.mark.parametrize("r, theta", [
    (1e-320, 89.99), (5e-324, 80.0), (1e-320, 90.01), (5e-324, 100.0)])
def test_subnormal_r_has_a_stationary_state_within_2_eps(r, theta):
    # 2 c s q underflows to a zero with the sign of c: a general state,
    # not a CUQ, and alpha keeps the sign of c
    m = QubitModel.from_angle(r, theta, degrees=True)
    state = asymptotic_state(m)
    assert state.branch is AsymptoticBranch.GENERAL
    assert math.copysign(1.0, state.alpha) == math.copysign(1.0, m.gamma[0])
    with mp.workdps(40):
        want = _mp_limit(m)[0]
        for got in (state.b_star, evolve_to_asymptote(m, np.zeros(3))):
            err = max(abs(mp.mpf(x) - y) for x, y in zip(got, want))
            assert err <= STATIONARY_BOUND * EPS, float(err / EPS)


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
    err = abs(_peak_magnitude(m.r, beta) - _mp_peak(m, beta))
    assert err <= SWEEP_BOUND * EPS, float(err / EPS)


def test_golden_sweep_within_1_eps():
    # 25 rows, first and last included, of the frozen overdamped sweep
    table = np.loadtxt(CLI_GOLDEN / "sweep_grid.csv", delimiter=",",
                       skiprows=1)
    for r, beta, b_max in table[np.linspace(0, len(table) - 1, 25).astype(int)]:
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        assert abs(b_max - _mp_peak(m, beta)) <= SWEEP_BOUND * EPS, (r, beta)


def _mp_pvalue(t, dof):
    """I_x(dof/2, 1/2), x = dof/(dof + t^2), at the float t."""
    with mp.workdps(50):
        x = mp.mpf(dof) / (dof + mp.mpf(t) ** 2)
        return mp.betainc(mp.mpf(dof) / 2, mp.mpf(1) / 2, 0, x,
                          regularized=True)


# dof in [1, 10^6], the small ones drawn often; log10|t| uniform from -3 to
# past the point where p underflows: about 320/dof decades out for small
# dof, and |t| = 38 at dof = 10^6
T_DRAWS = st.one_of(st.integers(1, 30),
                    st.floats(0.0, 6.0).map(lambda x: round(10.0 ** x))
                    ).flatmap(lambda dof: st.tuples(
                        st.just(dof),
                        st.floats(-3.0, min(308.0, 320.0 / dof + 1.6)).map(
                            lambda x: 10.0 ** x),
                        st.sampled_from([1.0, -1.0])))


@settings(max_examples=300, deadline=None)
@given(T_DRAWS)
@example((1, 4.25e156, 1.0))      # t^2 is past the float range
@example((4500, 1.88, 1.0))       # p = 0.06 at large dof
@example((10 ** 6, 1.0001, -1.0))  # the deepest fraction, just past t^2 = 1
@example((2, 1e-3, 1.0))          # p next to 1
def test_pvalue_within_4_eps_times_1_plus_its_log(draw):
    dof, t, sign = draw
    p = _student_t_pvalue(sign * t, dof)
    want = _mp_pvalue(t, dof)
    if want < sys.float_info.min:  # past underflow
        assert 0.0 <= p < 2 * sys.float_info.min, (p, float(want))
        return
    err = float(abs(p - want) / want) / (1 + abs(float(mp.log(want))))
    assert err <= BOUND * EPS, err / EPS


# -- the r <= 1 closed forms ------------------------------------------------

# r log-uniform down to 1e-8, and 1 - r log-uniform down to 1e-15
R_OSC = st.one_of(st.floats(-8.0, -0.01).map(lambda x: 10.0 ** x),
                  st.floats(-15.0, -1.0).map(lambda x: 1.0 - 10.0 ** x))
CLOSED_BOUND = 3.0


def _mp_root(r):
    """sqrt(1 - r^2) at the float r, in the working precision."""
    r = mp.mpf(r)
    return mp.sqrt(1 - r * r)


@settings(max_examples=100, deadline=None)
@given(R_OSC, E_MAG)
def test_clock_and_units_within_3_eps(r, E):
    clock, (P, omega) = cuq_clock(r), restore_units(r, E)
    with mp.workdps(50):
        root, R_, E_ = _mp_root(r), mp.mpf(r), mp.mpf(E)
        errors = [abs(clock.P_hat / (2 * mp.pi * R_ / root) - 1),
                  abs(clock.omega_hat / (root / R_) - 1),
                  abs(P / (mp.pi / (E_ * root)) - 1),
                  abs(omega / (2 * E_ * root) - 1)]
    assert max(errors) <= CLOSED_BOUND * EPS, [float(e / EPS) for e in errors]


@settings(max_examples=100, deadline=None)
@given(R_OSC, st.integers(1, 64))
def test_spectrum_within_3_eps_times_n_plus_1(r, n):
    # q^n past underflow rounds to a subnormal: one unit of it, times the
    # prefactor, is added to the bound
    with mp.workdps(50):
        root, R_ = _mp_root(r), mp.mpf(r)
        q = R_ / (1 + root)
        assert abs(half_angle_slope(r) / q - 1) <= CLOSED_BOUND * EPS
        assert abs(-closed_form_d0(r) / q - 1) <= CLOSED_BOUND * EPS
        want = 2 * root / R_ * q ** n
        err = abs(closed_form_cn(n, r) - want)
        tol = (CLOSED_BOUND * EPS * (n + 1) * want
               + 2 * root / R_ * mp.mpf(2) ** -1074)
    assert err <= tol, float(err / (EPS * (n + 1) * want))


def _projections_error(r, tau):
    """The absolute error of `cuq_projections` at tau over eps times
    1 + |w tau| |d/d(w tau)| of the projections: the phase w tau is
    rounded, with an error of about eps |w tau|."""
    got = cuq_projections(tau, r)
    with mp.workdps(50):
        root, R_ = _mp_root(r), mp.mpf(r)
        ph = root / R_ * mp.mpf(tau)
        c, s = mp.cos(ph), mp.sin(ph)
        den = 1 - R_ * c
        want = (root * s / den, (c - R_) / den)
        slope = (root * (c - R_) / den ** 2, -root * root * s / den ** 2)
        err = max(abs(g - w) for g, w in zip(got, want))
        return float(err / (EPS * (1 + abs(ph) * max(map(abs, slope)))))


@settings(max_examples=100, deadline=None)
@given(R_OSC, st.one_of(st.floats(0.25, 0.75), st.floats(1.25, 1.75)))
def test_projections_within_3_eps_times_the_phase_condition(r, f):
    # tau = f P_hat, with the phase at least pi/2 from 0 mod 2 pi: there
    # the rounding of cos(w tau) in 1 - r cos(w tau) cancels next to r = 1
    # (test_projections_cancel_next_to_phase_zero)
    error = _projections_error(r, f * cuq_clock(r).P_hat)
    assert error <= CLOSED_BOUND, error


@pytest.mark.xfail(strict=True, reason="1 - r cos(w tau) cancels next to "
                   "r = 1 and w tau = 0 mod 2 pi")
def test_projections_cancel_next_to_phase_zero():
    # r = 1 - 1.7e-9 at tau = 1.8e-4 P_hat is 2.5e5 eps times the phase
    # condition off: cos(w tau) rounds by up to eps/2, and 1 - r cos(w tau)
    # is only 6e-7 there; the half-angle forms 1 - r + 2 r sin^2(w tau/2)
    # and 1 - r - 2 sin^2(w tau/2) avoid it
    r = 0.9999999982829951
    error = _projections_error(r, 0.00017776790755585914 * cuq_clock(r).P_hat)
    assert error <= CLOSED_BOUND, error


@settings(max_examples=100, deadline=None)
@given(R_OSC, st.floats(0.0, 50.0))
def test_theta_within_3_eps_times_its_condition(r, f):
    # tau = f P_hat, against the textbook inversion tan(theta/2) =
    # -sqrt((1 + r)/(1 - r)) tan(w tau/2), unwrapped by whole periods, at
    # 40 digits.  The absolute error is held to 3 eps times 1 + |theta| +
    # |tau d(theta)/dtau|: |theta| for the 2 pi m added back, and the
    # condition of theta on a rounded tau, read off the equation itself
    tau = f * cuq_clock(r).P_hat
    got = cuq_theta(tau, r)
    with mp.workdps(40):
        R_, T = mp.mpf(r), mp.mpf(tau)
        phase = _mp_root(r) / R_ * T
        m = mp.floor(phase / (2 * mp.pi) + mp.mpf(1) / 2)
        half = phase / 2 - mp.pi * m
        want = (-2 * mp.atan(mp.sqrt((1 + R_) / (1 - R_)) * mp.tan(half))
                - 2 * mp.pi * m)
        cond = 1 + abs(want) + T * abs(1 / R_ + mp.cos(want))
        err = abs(got - want)
    assert err <= CLOSED_BOUND * EPS * cond, float(err / (EPS * cond))


@settings(max_examples=100, deadline=None)
@given(st.one_of(R_OSC, st.just(1.0)),
       st.one_of(st.floats(-10.0, 0.5).map(lambda x: 10.0 ** x),
                 st.floats(0.01, 3.0)))
def test_mixed_magnitude_within_3_eps_times_the_phase_condition(r, t):
    # tau = t P_hat (t at r = 1), against the paper's form at 100 digits,
    # which cancels up to 35 of them at the smallest |b|.  The relative
    # error is held to 3 eps times 1 + |phi cot phi|, phi = w tau/2, the
    # condition of sin(phi) on a rounded phase (2 at r = 1)
    tau = t * (cuq_clock(r).P_hat if r < 1.0 else 1.0)
    got = mixed_magnitude(tau, r)
    with mp.workdps(100):
        R_, T = mp.mpf(r), mp.mpf(tau)
        w = 1 - R_ * R_
        if r < 1.0:
            omega = mp.sqrt(w) / R_
            want = mp.sqrt(1 - w * w / (1 - R_ * R_ * mp.cos(omega * T)) ** 2)
            phi = omega * T / 2
            cond = 1 + abs(phi * mp.cot(phi))
        else:
            want = mp.sqrt(1 - 4 / (2 + T * T) ** 2)
            cond = 2
        err = abs(got / want - 1)
    assert err <= CLOSED_BOUND * EPS * cond, float(err / (EPS * cond))


@settings(max_examples=100, deadline=None)
@given(R_OSC, st.floats(-1.0, 1.0))
def test_oscillating_sweep_peak_within_3_eps(r, beta):
    # |b|_max^2 = 1 - (1 - beta^2)(1 - r^2)^2/(1 + r s)^2,
    # s = sqrt(r^2 + beta^2 (1 - r^2)), in absolute error
    got = _peak_magnitude(r, beta)
    with mp.workdps(50):
        R_, B = mp.mpf(r), mp.mpf(beta)
        w = 1 - R_ * R_
        s = mp.sqrt(R_ * R_ + B * B * w)
        err = abs(got - mp.sqrt(1 - (1 - B * B) * w * w / (1 + R_ * s) ** 2))
    assert err <= CLOSED_BOUND * EPS, float(err / EPS)
