"""Acceptance gate: one check per shipped guarantee, one printed line each.

Each test prints "criterion N: PASS ..." on success so a bare
`pytest -s tests/test_acceptance.py` doubles as a checklist.  Criterion 6
has one deliberately strict sub-check that reproduces a known internal
inconsistency of the published K0 row; it is marked xfail(strict=True)
and documented where it lives.
"""

import time
from pathlib import Path

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq, minimize_scalar

from cuq.analytic import (cuq_clock, cuq_projections, mixed_ellipse,
                          mixed_magnitude, restore_units)
from cuq.core import QubitModel
from cuq.fit import estimate_r, fit_fourier_modes, synthesize_dataset
from cuq.fourier import (SeriesKind, anharmonicity, closed_form_cn,
                         closed_form_d0, closed_form_spectrum,
                         correct_effective_r, quadrature_spectrum,
                         r_from_anharmonicity)
from cuq.integrate import evolve
from cuq.meson import (BlochParameters, Damping, MesonObservables,
                       bloch_from_observables, catalogue, classify_damping,
                       observables_from_bloch)

LHCB_FIXTURE = Path(__file__).parent / "data" / "lhcb_fig3.csv"


def perp_model(r):
    return QubitModel.from_angle(r, 90.0, degrees=True)


def test_criterion_1_dynamics_oracle():
    """ODE trajectory vs closed-form projections over one period."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.5, 0.85, 0.99):
        m = perp_model(r)
        P = cuq_clock(r).P_hat
        traj = evolve(m, m.e_cross_gamma, P, rel_tol=1e-9, abs_tol=1e-12)
        bg, bexg = cuq_projections(traj.taus, r)
        ref = (bg[:, None] * m.gamma + bexg[:, None] * m.e_cross_gamma)
        worst = max(worst, float(np.max(np.abs(traj.bs - ref))))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-6
    assert elapsed < 5.0
    print(f"\ncriterion 1: PASS (max componentwise error {worst:.2e}, "
          f"{elapsed:.2f} s)")


def test_criterion_2_period_quadrature():
    """Loop-integral period against the closed form for 20 damping ratios."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in np.linspace(0.02, 0.995, 20):
        oracle, _ = quad(lambda x: r / (1.0 + r * np.cos(x)), -np.pi, np.pi,
                         epsabs=1e-13, epsrel=1e-13)
        worst = max(worst, abs(oracle - cuq_clock(r).P_hat))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-10
    assert elapsed < 1.0
    print(f"criterion 2: PASS (max period deviation {worst:.2e}, "
          f"{elapsed:.2f} s)")


def test_criterion_3_fourier_closed_forms():
    """Quadrature spectra match the geometric closed forms."""
    t0 = time.perf_counter()
    worst = 0.0
    for r in (0.1, 0.3, 0.5, 0.7, 0.85, 0.95):
        P = cuq_clock(r).P_hat
        odd = quadrature_spectrum(lambda t: cuq_projections(t, r)[0], P, 10,
                                  SeriesKind.ODD)
        even = quadrature_spectrum(lambda t: cuq_projections(t, r)[1], P, 10,
                                   SeriesKind.EVEN)
        for n in range(1, 11):
            ref = closed_form_cn(n, r)
            worst = max(worst, abs(odd.coefficient(n) - ref),
                        abs(even.coefficient(n) - ref))
        worst = max(worst, abs(even.d0 - closed_form_d0(r)))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-8
    assert elapsed < 5.0
    print(f"criterion 3: PASS (max coefficient deviation {worst:.2e}, "
          f"{elapsed:.2f} s)")


def _orbit_r_and_amplitude(model, kappa, P):
    """Measured anharmonicity r and peak gamma-projection of an in-plane
    orbit started at kappa * (e x gamma), sampled over its second period."""
    traj = evolve(model, kappa * model.e_cross_gamma, 2.02 * P,
                  rel_tol=1e-11, abs_tol=1e-13)
    taus = np.linspace(P, 2.0 * P, 4001)
    R = np.max(np.abs(traj.interpolate(taus) @ model.gamma))
    spec = quadrature_spectrum(
        lambda t: float(traj.interpolate(P + t) @ model.e_cross_gamma),
        P, 2, SeriesKind.EVEN)
    r_tilde, _ = r_from_anharmonicity(anharmonicity(spec, 1))
    return r_tilde, R


def test_criterion_4_r_inversion_roundtrips():
    """Closed-form ratio inversions and the amplitude correction."""
    worst_rt = 0.0
    for r in (0.1, 0.5, 0.85, 0.99):
        spec = closed_form_spectrum(r, 4)
        for n in (0, 1, 2):  # n = 0 is the D_0 branch, n >= 1 the C_n one
            r_hat, _ = r_from_anharmonicity(anharmonicity(spec, n))
            worst_rt = max(worst_rt, abs(r_hat - r))
    assert worst_rt < 1e-12

    # R = 1 and R = 0.7 from in-plane orbits of the r = 0.85 system;
    # R = 0.3 from the fully mixed orbit of the system whose oscillation
    # amplitude is exactly 0.3 (max b.gamma = r/sqrt(1+r^2))
    worst_corr = 0.0
    r = 0.85
    m = perp_model(r)
    P = cuq_clock(r).P_hat
    for target_R in (0.7, 1.0):
        kappa = 1.0 if target_R == 1.0 else brentq(
            lambda k: _orbit_r_and_amplitude(m, k, P)[1] - target_R,
            0.0, 0.999, xtol=1e-10)
        r_tilde, R = _orbit_r_and_amplitude(m, kappa, P)
        worst_corr = max(worst_corr, abs(correct_effective_r(r_tilde, R) - r))

    r_small = 0.3 / np.sqrt(1.0 - 0.3 ** 2)
    m_small = perp_model(r_small)
    r_tilde, R = _orbit_r_and_amplitude(m_small, 0.0,
                                        cuq_clock(r_small).P_hat)
    assert R == pytest.approx(0.3, abs=1e-8)
    worst_corr = max(worst_corr,
                     abs(correct_effective_r(r_tilde, R) - r_small))
    assert worst_corr < 1e-6
    print(f"criterion 4: PASS (roundtrip {worst_rt:.2e}, "
          f"amplitude-corrected {worst_corr:.2e})")


def test_criterion_5_mixed_state_physics():
    """Coherence-decoherence oscillation from the fully mixed state."""
    r = 0.85
    m = perp_model(r)
    traj = evolve(m, np.zeros(3), 3.0 * cuq_clock(r).P_hat,
                  rel_tol=1e-11, abs_tol=1e-13)

    taus = np.linspace(0.0, traj.taus[-1], 2000)
    got = np.array([np.linalg.norm(traj.interpolate(t)) for t in taus])
    dev_mag = float(np.max(np.abs(got - mixed_magnitude(taus, r))))
    assert dev_mag < 1e-6

    peak = -minimize_scalar(
        lambda t: -np.linalg.norm(traj.interpolate(t)),
        bounds=(0.0, cuq_clock(r).P_hat), method="bounded",
        options={"xatol": 1e-12}).fun
    dev_peak = abs(peak - 2 * r / (1 + r * r))
    assert dev_peak < 1e-6

    ell = mixed_ellipse(r)
    x = traj.bs @ m.gamma
    y = traj.bs @ m.e_cross_gamma - ell.center_offset
    dev_ell = float(np.max(np.abs((x / ell.semi_major) ** 2
                                  + (y / ell.semi_minor) ** 2 - 1.0)))
    assert dev_ell < 1e-8

    m1 = perp_model(1.0)
    traj1 = evolve(m1, np.zeros(3), 60.0, rel_tol=1e-10, abs_tol=1e-13)
    final_mag = float(np.linalg.norm(traj1.bs[-1]))
    assert final_mag > 0.999
    assert final_mag == pytest.approx(
        np.sqrt(1.0 - 4.0 / (2.0 + 60.0 ** 2) ** 2), abs=1e-6)
    print(f"criterion 5: PASS (|b| dev {dev_mag:.2e}, peak dev "
          f"{dev_peak:.2e}, ellipse dev {dev_ell:.2e}, "
          f"|b|(60)={final_mag:.6f} at r=1)")


def _propagated_forward_errors(bloch, bloch_err):
    """1-sigma errors on (dE, dG, qop) from the printed (r, theta, E)
    errors, by central finite differences."""
    base = np.array([bloch.r, bloch.theta_eg_deg, bloch.E_mag])
    out = np.zeros(3)
    for i, err in enumerate(bloch_err):
        if err == 0.0:
            continue
        step = np.zeros(3)
        step[i] = err
        hi = observables_from_bloch(BlochParameters(*(base + step)))
        if base[0] - step[0] > 0.0:
            lo = observables_from_bloch(BlochParameters(*(base - step)))
            scale = 0.5
        else:  # printed r error exceeds r itself (Bd0): one-sided
            lo = observables_from_bloch(BlochParameters(*base))
            scale = 1.0
        out += (scale * np.array([hi.delta_E - lo.delta_E,
                                  hi.delta_Gamma - lo.delta_Gamma,
                                  hi.q_over_p - lo.q_over_p])) ** 2
    return np.sqrt(out)


def test_criterion_6_meson_tables():
    """Observable <-> Bloch conversions across the four systems."""
    strict_failures = []
    for entry in catalogue():
        b, berr = entry.bloch, entry.bloch_err
        o, oerr = entry.observables, entry.observables_err
        fwd = observables_from_bloch(b)
        prop = _propagated_forward_errors(b, berr)
        checks = {
            "delta_E": (fwd.delta_E, o.delta_E,
                        np.hypot(oerr.delta_E, prop[0])),
            "delta_Gamma": (abs(fwd.delta_Gamma), o.delta_Gamma,
                            np.hypot(oerr.delta_Gamma, prop[1])),
            "q_over_p": (fwd.q_over_p, o.q_over_p,
                         np.hypot(oerr.q_over_p, prop[2])),
        }
        for name, (got, want, sigma) in checks.items():
            if abs(got - want) > max(sigma, 1e-15):
                strict_failures.append(
                    f"{entry.name} {name}: {got:.6g} vs {want:.6g} "
                    f"+- {sigma:.2g}")

        # inverse direction: observables back to the Bloch row
        signed = MesonObservables(
            delta_E=o.delta_E,
            delta_Gamma=np.sign(fwd.delta_Gamma or 1.0) * o.delta_Gamma,
            q_over_p=o.q_over_p)
        inv = bloch_from_observables(signed)
        cands = (inv.params, inv.mirror)
        best = min(cands, key=lambda p: abs(np.cos(np.radians(p.theta_eg_deg))
                                            - np.cos(np.radians(b.theta_eg_deg))))
        if abs(best.r - b.r) > max(berr[0], 1e-15):
            strict_failures.append(f"{entry.name} r: {best.r:.6g}")
        dtheta = (best.theta_eg_deg - b.theta_eg_deg + 180.0) % 360.0 - 180.0
        if abs(dtheta) > max(berr[1], 1e-15):
            strict_failures.append(
                f"{entry.name} theta: {best.theta_eg_deg:.6g}")
        if abs(best.E_mag - b.E_mag) > max(berr[2], 1e-15):
            strict_failures.append(f"{entry.name} E_mag: {best.E_mag:.6g}")

    # D0 sits in the overdamped regime
    d0 = next(e for e in catalogue() if e.name == "D0")
    assert classify_damping(d0.bloch.r) is Damping.OVERDAMPED

    # Bd CUQ branch: Delta Gamma = 0 forces theta = -90 (|q/p| > 1),
    # where |q/p| - 1 = sqrt((1+r)/(1-r)) - 1 ~ r = 1e-3
    r_bd = 1e-3
    inv = bloch_from_observables(
        MesonObservables(delta_E=0.5069, delta_Gamma=0.0,
                         q_over_p=np.sqrt(np.sqrt((1 + r_bd ** 2 + 2 * r_bd)
                                                  / (1 + r_bd ** 2 - 2 * r_bd)))))
    assert inv.forced_cuq_branch
    qop_m1 = np.sqrt((1 + r_bd) / (1 - r_bd)) - 1.0
    assert abs(qop_m1 - 1.0e-3) < 0.8e-3

    # the published K0 row is internally inconsistent at its tiny printed
    # errors; that defect is pinned by the strict xfail test below
    allowed = {"K0 q_over_p", "K0 theta"}
    unexpected = [f for f in strict_failures
                  if not any(f.startswith(a) for a in allowed)]
    assert not unexpected, unexpected
    print(f"criterion 6: PASS (all rows within errors; known K0 "
          f"defects: {sorted(strict_failures) or 'none'})")


@pytest.mark.xfail(strict=True,
                   reason="published K0 row is internally inconsistent: the "
                          "quoted (r, theta, E) map to |q/p|-1 = -3.20e-3, "
                          "not -3.239e-3 +- 1e-6, and inverting the quoted "
                          "observables returns theta = 179.6276 deg, outside "
                          "179.6322 +- 1e-4")
def test_criterion_6_k0_strict():
    k0 = catalogue()[0]
    fwd = observables_from_bloch(k0.bloch)
    assert abs(fwd.q_over_p - k0.observables.q_over_p) <= \
        k0.observables_err.q_over_p
    inv = bloch_from_observables(MesonObservables(
        delta_E=k0.observables.delta_E,
        delta_Gamma=-k0.observables.delta_Gamma,
        q_over_p=k0.observables.q_over_p))
    assert abs(inv.params.theta_eg_deg - k0.bloch.theta_eg_deg) <= \
        k0.bloch_err[1]


def test_criterion_7_fit_pipeline():
    """Monte Carlo recovery of r from synthetic asymmetry data."""
    r = 0.85
    P, _ = restore_units(r, 1.0)

    # noiseless limit first: exact recovery
    fit0 = fit_fourier_modes(
        synthesize_dataset(r=r, E_mag=1.0, n_points=50, t_max=3 * P,
                           noise_sigma=0.0, seed=0), 2)
    out0 = estimate_r(fit0)
    dev0 = abs(out0.weighted_r - r)
    assert dev0 < 1e-6

    hits = 0
    for seed in range(100):
        ds = synthesize_dataset(r=r, E_mag=1.0, n_points=50, t_max=3 * P,
                                noise_sigma=0.05, seed=seed)
        out = estimate_r(fit_fourier_modes(ds, 2))
        if out.has_estimate and \
                abs(out.weighted_r - r) < 3 * out.weighted_r_err:
            hits += 1
    assert hits >= 95

    if LHCB_FIXTURE.exists():
        from cuq.fit import load_dataset
        ds = load_dataset(LHCB_FIXTURE, omega=0.5065)
        fit = fit_fourier_modes(ds, 2)
        assert abs(fit.coefficients[1] - 0.630) < \
            2 * np.hypot(fit.errors[1], 0.007)
        fixture_note = "fixture d_1 within 2 sigma"
    else:
        fixture_note = "no digitized fixture bundled, sub-check skipped"
    print(f"criterion 7: PASS (noiseless dev {dev0:.2e}, "
          f"{hits}/100 seeds within 3 SE; {fixture_note})")


def test_criterion_8_small_r_realism():
    """At r = 0.07 with realistic noise the extraction loses significance."""
    r = 0.07
    P, _ = restore_units(r, 1.0)
    sched = np.linspace(0.08, 0.35, 50)  # widening late-time errors
    null = 0
    for seed in range(100):
        ds = synthesize_dataset(r=r, E_mag=1.0, n_points=50, t_max=3 * P,
                                noise_sigma=sched, seed=seed)
        out = estimate_r(fit_fourier_modes(ds, 2))
        if (not out.has_estimate) or \
                out.weighted_r < 2 * out.weighted_r_err:
            null += 1
    assert null > 50
    print(f"criterion 8: PASS ({null}/100 seeds consistent with zero)")
