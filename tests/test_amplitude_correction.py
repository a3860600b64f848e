"""The paper's amplitude correction, exact for every orbit of the CUQ.

At theta = 90 degrees and r < 1 the generator's root is i omega_hat, so
`propagate`'s U is affine in x = e^{-i omega_hat tau} and the trace of
U rho0 U^dagger is T = A + K cos(omega_hat tau - phi).  T' = T b.gamma,
so b.gamma = (ln T)' and its Fourier coefficients are geometric from the
first on: |c_n| = omega_hat rho^n with rho = half_angle_slope(K/A).  With
b2 = b0.gamma, b3 = b0.(e x gamma) and D = 1 - r^2,

    K/A = r sqrt((r + b3)^2 + b2^2 D) / (1 + r b3),
    phi = atan2(b2 sqrt(D), -(r + b3)),

so the reference orbit (b0 = e x gamma) has K/A = r and the mixed start
K/A = r^2.  |b.gamma| peaks at R = omega_hat (K/A)/sqrt(1 - (K/A)^2),
where cos(omega_hat tau - phi) = -K/A, and there
correct_effective_r(K/A, R) = r.

The property reads both off `propagate`: rho from the FFT of b.gamma on
M nodes of one period, M the power of two from 64 up to 2^16 that puts
rho^M below 2^-60, and R from the two times where the peak sits.  The
bounds follow test_mp_reference's rules, in units of eps = 2^-52 times a
condition factor.  The FFT check, ||c_2| - rho |c_1||, is absolute
(|b.gamma| <= 1), with 4 omega_hat rho^(M - 2)/(1 - rho^M) added for the
coefficients that M nodes alias, and the correction is held in relative
error.  Both carry the orbit's factor 1 + 1/(1 + r b3), which is large
where r -> 1 and b0 -> -(e x gamma); the correction also carries
1 + S/R, S = (R^2 (1 - r~^2))/(R^2 + r~^2 (1 - R^2)) = |d ln r/d ln R|,
as R is read off an absolutely accurate component.  The reference K/A
and phi are taken at 40 digits from the float inputs.  Over 24,000
seeded draws (a quarter each with r log-uniform down to 1e-300 and
1 - r log-uniform down to 1e-16, the rest uniform; a tenth with b0's
direction within 1e-8 to 0.3 of -(e x gamma), a quarter pure, a
twentieth mixed) the worst cases were 0.91 (FFT) and 1.10
(correction) times their factors, so the bounds of 2 and 2.5 have a
headroom of at least 2.2.  Without the orbit's factor the worst cases
were 68 and 21 eps.  A subnormal period puts the nodes off their phases,
so r starts at 1e-300; a measured R of 0, where b.gamma is below
`propagate`'s absolute accuracy, has an infinite factor.
"""

import json
import math
import sys

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuq.analytic import cuq_clock, half_angle_slope, restore_units
from cuq.cli import main
from cuq.core import QubitModel
from cuq.fit import AsymmetryDataset, save_dataset
from cuq.fourier import correct_effective_r
from cuq.integrate import propagate

EPS = sys.float_info.epsilon
FFT_BOUND, CORRECTION_BOUND = 2.0, 2.5  # in eps; see the module docstring


def _effective_r_and_phase(r, b0, model):
    """K/A and phi of the orbit from b0 (module docstring), at 40 digits
    from the float inputs, so the reference adds one rounding."""
    b2, b3 = float(b0 @ model.gamma), float(b0 @ model.e_cross_gamma)
    with mp.workdps(40):
        r, b2, b3 = mp.mpf(r), mp.mpf(b2), mp.mpf(b3)
        root = mp.sqrt(1 - r * r)
        return (float(r * mp.hypot(r + b3, b2 * root) / (1 + r * b3)),
                float(mp.atan2(b2 * root, -(r + b3))))


def _orbit(r, b0):
    """The FFT check's error past its aliasing term, and the correction's
    relative error, both in eps, for the orbit from b0."""
    model = QubitModel.from_angle(r, 90.0, degrees=True)
    r_tilde, phi = _effective_r_and_phase(r, b0, model)
    if not b0.any():
        r_tilde = r * r  # the mixed start's K/A, the claim under test
    r_tilde = min(r_tilde, math.nextafter(1.0, 0.0))  # K/A < 1 for r < 1
    rho = half_angle_slope(r_tilde)
    clock = cuq_clock(r)
    M = 64
    while M < 2 ** 16 and rho ** M > 2.0 ** -60:
        M *= 2
    signal = propagate(model, b0, clock.P_hat / M * np.arange(M)) @ model.gamma
    c = np.fft.rfft(signal) / M
    alias = 4.0 * clock.omega_hat * rho ** (M - 2) / (1.0 - rho ** M)
    fft_err = abs(abs(c[2]) - rho * abs(c[1])) - alias
    turn = math.acos(-r_tilde)
    peak_taus = (np.array([phi + turn, phi - turn]) / clock.omega_hat
                 % clock.P_hat)
    # a pure |b| may round a few ulps past 1, as `propagate` says
    R = min(float(np.max(np.abs(propagate(model, b0, peak_taus)
                                @ model.gamma))), 1.0)
    orbit_factor = 1.0 + 1.0 / (1.0 + r * float(b0 @ model.e_cross_gamma))
    if R == 0.0:  # below propagate's absolute accuracy: 1/R is infinite
        return fft_err / EPS / orbit_factor, 0.0
    # S <= 1, formed from the ratio r~/R so that neither square underflows
    t2, ratio = r_tilde * r_tilde, r_tilde / R
    S = (1.0 - t2) / ((1.0 - t2) + ratio * ratio * (1.0 - R * R))
    peak_factor = 1.0 + S / R
    correction_err = abs(correct_effective_r(r_tilde, R) - r) / r
    return (fft_err / EPS / orbit_factor,
            correction_err / EPS / (orbit_factor * peak_factor))


def _ball():
    """b0 anywhere in the closed unit ball, the mixed start included."""
    direction = st.lists(st.floats(-1.0, 1.0), min_size=3, max_size=3)
    return st.tuples(direction, st.floats(0.0, 1.0)).map(
        lambda a: (a[1] / max(math.hypot(*a[0]), 1e-300)) * np.array(a[0]))


@settings(max_examples=60, deadline=None)
@given(r=st.floats(1e-300, 1.0, exclude_max=True), b0=_ball())
@example(r=0.85, b0=np.zeros(3))
@example(r=0.85, b0=np.array([0.0, 0.0, 1.0]))
@example(r=0.999999, b0=np.array([0.6, 0.0, -0.8]))
@example(r=1e-300, b0=np.array([1.0, 1.1e-197, 0.0]))  # R^2 underflows
def test_amplitude_correction_is_exact_on_every_orbit(r, b0):
    fft_err, correction_err = _orbit(r, b0)
    assert fft_err <= FFT_BOUND, (r, b0, fft_err)
    assert correction_err <= CORRECTION_BOUND, (r, b0, correction_err)


def _fit_mixed_orbit(tmp_path, r=0.5):
    """`cuq fit --amplitude R` on the noiseless asymmetry of the mixed
    orbit, four periods at |E| = 1: R = r/sqrt(1 + r^2) for r~ = r^2."""
    model = QubitModel.from_angle(r, 90.0, degrees=True)
    _, omega = restore_units(r, 1.0)
    t = np.linspace(0.0, 8.0 * math.pi / omega, 400, endpoint=False)
    delta = propagate(model, np.zeros(3), 2.0 * r * t) @ model.e_cross_gamma
    data = tmp_path / "mixed.csv"
    save_dataset(AsymmetryDataset(t, delta, np.full(t.size, 1e-3), omega),
                 data)
    R = r / math.sqrt(1.0 + r * r)
    assert main(["--output-dir", str(tmp_path), "fit", "--data", str(data),
                 "--omega", repr(omega), "--n-harmonics", "8",
                 "--amplitude", repr(R)]) == 0
    return json.loads((tmp_path / "fit.json").read_text())


def test_fit_with_amplitude_from_a_mixed_start(tmp_path, capsys):
    # the C_n ratios, n >= 1, give r~ = r^2 and the correction gives r
    # (4e-16 and 1.8e-15 off at n = 1, 2)
    by_order = {e["order"]: e for e in _fit_mixed_orbit(tmp_path)
                ["r_estimates"]}
    for n in (1, 2):
        assert by_order[n]["r"] == pytest.approx(0.5, abs=1e-12)


@pytest.mark.xfail(strict=True, reason=(
    "D_0's inversion assumes the reference orbit's d_0 = -q; from the "
    "mixed start it reads r~ = 0.916, corrected to 0.981, and its small "
    "error lets it carry the weighted r"))
def test_weighted_r_with_amplitude_from_a_mixed_start(tmp_path, capsys):
    assert _fit_mixed_orbit(tmp_path)["weighted_r"] == pytest.approx(
        0.5, abs=1e-6)
