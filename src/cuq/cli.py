"""Command-line surface: simulation, sweeps, spectra, conversions, fits.

Every subcommand emits plot-ready CSV and/or machine-readable JSON into
--output-dir and is deterministic given its flags.  Exit
codes: 0 success, 2 flag error, 3 data error, 4 numerical failure.
Each subcommand imports the modules it uses when it runs, so `convert`
and `catalogue` load no numpy.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys
from pathlib import Path
from typing import TYPE_CHECKING

from . import meson
from ._base import (DatasetFormatError, QuadratureNotConverged,
                    RankDeficientDesign, _csv_blocks, _one_minus_r2)

if TYPE_CHECKING:  # annotations only
    import numpy as np

    from .core import QubitModel

EXIT_OK = 0
EXIT_FLAG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

# MAX_ROWS caps the rows of trajectory.csv and of bmax.csv
ROWS_PER_PERIOD = 64
MIN_ROWS = 257
MAX_ROWS = 1_000_001


def _write(path: Path, chunks) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(chunks)
    print(path)


def _parse_b0(spec: str, model: QubitModel) -> np.ndarray:
    import numpy as np
    named = {
        "exg": model.e_cross_gamma,
        "gamma": model.gamma,
        "e": model.e,
        "mixed": np.zeros(3),
    }
    if spec in named:
        return named[spec]
    try:
        vec = np.array([float(x) for x in spec.split(",")], dtype=float)
    except ValueError:
        raise ValueError(
            f"--b0 must be one of {sorted(named)} or 'x,y,z', got '{spec}'")
    if vec.shape != (3,):
        raise ValueError("--b0 vector needs three components")
    return vec


def _parse_grid(spec: str) -> np.ndarray:
    """'lo:hi:n' linear grid or comma-separated values."""
    import numpy as np
    if ":" in spec:
        lo, hi, n = spec.split(":")
        if not 1 <= int(n) <= MAX_ROWS:
            raise ValueError(f"grid '{spec}' needs 1 to {MAX_ROWS} points")
        return np.linspace(float(lo), float(hi), int(n))
    return np.array([float(x) for x in spec.split(",")])


def _time_grid(spec: str, r: float) -> np.ndarray:
    """Uniform taus over [0, tau_end]: 64 per period when r < 1, >= 257.
    --t-max is an absolute tau_end, or period-relative like '3P' (r < 1)."""
    import numpy as np

    from .analytic import cuq_clock
    period = cuq_clock(r).P_hat if r < 1.0 else math.inf
    if spec.lower().endswith("p"):
        if period == math.inf:
            raise ValueError("period-relative --t-max needs r < 1")
        tau_end = float(spec[:-1] or 1.0) * period
    else:
        tau_end = float(spec)
    if not 0.0 < tau_end < np.inf:
        raise ValueError(f"--t-max must be positive and finite, got {tau_end}")
    rows = max(float(MIN_ROWS), ROWS_PER_PERIOD * tau_end / period + 1.0)
    if rows > MAX_ROWS:
        raise ValueError(f"tau range needs {rows:.3g} rows, more than "
                         f"{MAX_ROWS}")
    return np.linspace(0.0, tau_end, math.ceil(rows))


def _peak_magnitude(model: QubitModel, beta: float) -> float:
    """max |b| from b0 = beta gamma, e perpendicular to gamma, over five
    periods (r < 1) or tau <= 50 r, exactly.

    rho ~ U rho0 U^dagger with det U = x = e^{-mu tau} (see `propagate`), so
    1 - |b|^2 = |x|^2 (1 - beta^2) / T^2 with T = tr(U rho0 U^dagger).  For
    r < 1, |x| = 1 and T is a sinusoid of period P_hat, whose top gives
    1 - |b|^2 = (c (1 - r^2) / D)^2, c = sqrt(1 - beta^2), D = 1 + r s and
    s = sqrt(r^2 + beta^2 (1 - r^2)), formed as (D - c (1 - r^2))
    (D + c (1 - r^2)) / D^2 with 1 - c = beta^2/(1 + c), which does not
    cancel at small r.  For r >= 1, T/x is convex in x in (0, 1], so |b|
    peaks at an end; at tau = 50 r, mu is real and U = a I + k n.sigma with
    a = (1 + x)/2, k = (1 - x)/(2 mu) (25 r at mu = 0), so T = a^2 +
    k^2 (1 + 1/r^2) + 2 beta a k = (a - k)^2 + (k/r)^2 + 2 (1 + beta) a k,
    the last form a sum of terms >= 0.  Where x = 0 the end state is pure.
    The caller checks |beta| <= 1 + STATE_EPS (`cmd_sweep_bmax`, once per
    beta).
    """
    r = model.r
    beta = min(max(beta, -1.0), 1.0)  # a |beta| rounded past 1 is pure
    if r >= 1.0:
        from .integrate import _generator
        mu = _generator(model)[2].real  # real at e.gamma = 0
        x = math.exp(-50.0 * r * mu)
        a = (1.0 + x) / 2.0
        k = -math.expm1(-50.0 * r * mu) / (2.0 * mu) if mu > 0.0 else 25.0 * r
        T = (a - k) ** 2 + (k / r) ** 2 + 2.0 * (1.0 + beta) * a * k
        return max(abs(beta), 1.0 if x == 0.0 else
                   math.sqrt(1.0 - x * x * (1.0 - beta * beta) / (T * T)))
    c, w = math.sqrt(1.0 - beta * beta), _one_minus_r2(r)
    s = math.sqrt(r * r + beta * beta * w)
    D = 1.0 + r * s
    return math.sqrt((beta * beta / (1.0 + c) + r * r * c + r * s)
                     * (D + c * w)) / D


def cmd_simulate(args) -> int:
    import numpy as np

    from . import integrate
    from .core import QubitModel
    model = QubitModel.from_angle(args.r, args.theta_eg, degrees=True)
    b0 = _parse_b0(args.b0, model)
    taus = _time_grid(args.t_max, args.r)
    bs = integrate.propagate(model, b0, taus)
    columns = {"tau": taus, "b1": bs[:, 0], "b2": bs[:, 1], "b3": bs[:, 2],
               "b_mag": np.linalg.norm(bs, axis=1),
               "b_dot_gamma": bs @ model.gamma,
               "b_dot_exg": bs @ model.e_cross_gamma}
    _write(Path(args.output_dir) / "trajectory.csv", _csv_blocks(columns))
    return EXIT_OK


def cmd_sweep_bmax(args) -> int:
    import numpy as np

    from .core import BlochState, QubitModel
    r_grid, b0_grid = _parse_grid(args.r_grid), _parse_grid(args.b0_grid)
    if r_grid.size * b0_grid.size > MAX_ROWS:
        raise ValueError(f"the grids make {r_grid.size * b0_grid.size} rows, "
                         f"more than {MAX_ROWS}")
    models = [QubitModel.from_angle(r, 90.0, degrees=True) for r in r_grid]
    for b0_mag in b0_grid:  # rejects |b0| > 1 + STATE_EPS
        BlochState([b0_mag, 0.0, 0.0])
    columns = {"r": np.repeat(r_grid, b0_grid.size),
               "b0_mag": np.tile(b0_grid, r_grid.size),
               "b_max": np.array([_peak_magnitude(model, b0_mag)
                                  for model in models for b0_mag in b0_grid])}
    _write(Path(args.output_dir) / "bmax.csv", _csv_blocks(columns))
    return EXIT_OK


def cmd_fourier(args) -> int:
    import numpy as np

    from . import analytic, fourier
    r, N = args.r, args.n_max
    clock = analytic.cuq_clock(r)
    quad_odd = fourier.quadrature_spectrum(
        lambda t: analytic.cuq_projections(t, r)[0], clock.P_hat, N,
        fourier.SeriesKind.ODD)
    quad_even = fourier.quadrature_spectrum(
        lambda t: analytic.cuq_projections(t, r)[1], clock.P_hat, N,
        fourier.SeriesKind.EVEN)
    closed = fourier.closed_form_spectrum(r, N)
    d0_dev = abs(closed.d0 - quad_even.d0)
    devs = np.abs(closed.coeffs - [quad_odd.coeffs, quad_even.coeffs])
    report = {
        "r": r,
        "P_hat": clock.P_hat,
        "omega_hat": clock.omega_hat,
        "d0": {"closed_form": closed.d0, "quadrature": quad_even.d0,
               "deviation": d0_dev},
        "coefficients": [
            {"n": n, "closed_form": cf, "quadrature_odd": odd,
             "quadrature_even": even}
            for n, cf, odd, even in zip(range(1, N + 1),
                                        closed.coeffs.tolist(),
                                        quad_odd.coeffs.tolist(),
                                        quad_even.coeffs.tolist())
        ],
        "max_deviation": float(devs.max(initial=d0_dev)),
    }
    if args.format == "json":
        _write(Path(args.output_dir) / "spectrum.json",
               [json.dumps(report, indent=2)])
    else:
        columns = {"n": np.arange(N + 1),
                   "closed_form": np.append(closed.d0, closed.coeffs),
                   "quadrature_odd": np.append(np.nan, quad_odd.coeffs),
                   "quadrature_even": np.append(quad_even.d0,
                                                quad_even.coeffs)}
        _write(Path(args.output_dir) / "spectrum.csv", _csv_blocks(columns))
    return EXIT_OK


def cmd_convert(args) -> int:
    if args.from_bloch:
        r, theta, E = args.from_bloch
        params = meson.BlochParameters(r=r, theta_eg_deg=theta, E_mag=E)
        obs = meson.observables_from_bloch(params)
        branch_note = ""
    else:
        de, dg, qop = args.from_observables
        obs = meson.MesonObservables(delta_E=de, delta_Gamma=dg, q_over_p=qop)
        inv = meson.bloch_from_observables(obs)
        params = inv.params
        branch_note = (f"mirror branch: theta = {inv.mirror.theta_eg_deg:.6g} deg"
                       + (" (CUQ branch forced)" if inv.forced_cuq_branch else ""))
    out = {
        "observables": {"delta_E": obs.delta_E, "delta_Gamma": obs.delta_Gamma,
                        "q_over_p": obs.q_over_p},
        "bloch": {"r": params.r, "theta_eg_deg": params.theta_eg_deg,
                  "E_mag": params.E_mag},
        "damping": meson.classify_damping(params.r).value,
    }
    if branch_note:
        out["branch"] = branch_note
    print(json.dumps(out, indent=2))
    return EXIT_OK


def cmd_fit(args) -> int:
    from .fit import (design_matrix, estimate_r, fit_fourier_modes,
                      fit_result_to_json, load_dataset)
    # checked before the file is read; fit_fourier_modes rejects N < 0 itself
    if 0 <= args.n_harmonics < 2:
        raise ValueError("--n-harmonics must be at least 2 for an r estimate, "
                         f"got {args.n_harmonics}")
    data = load_dataset(args.data, omega=args.omega)
    fit = fit_fourier_modes(data, args.n_harmonics)
    extraction = estimate_r(fit, amplitude_correction=args.amplitude)
    _write(Path(args.output_dir) / "fit.json",
           [fit_result_to_json(fit, extraction)])
    pred = design_matrix(data.t, data.omega, fit.n_harmonics) @ fit.coefficients
    columns = {"t_ps": data.t, "asymmetry": data.delta, "fit": pred,
               "residual": data.delta - pred, "sigma": data.sigma}
    _write(Path(args.output_dir) / "residuals.csv", _csv_blocks(columns))
    # human-readable summary
    print(f"{'n':>3} {'d_n':>12} {'err':>12} {'p-value':>10}")
    for n, (v, e, p) in enumerate(zip(fit.coefficients, fit.errors,
                                      fit.p_values)):
        print(f"{n:>3} {v:>12.6g} {e:>12.3g} {p:>10.3g}")
    print(f"chi2/dof = {fit.chi2:.4g}/{fit.dof}")
    if extraction.has_estimate:
        print(f"weighted r = {extraction.weighted_r:.4g} "
              f"+- {extraction.weighted_r_err:.4g}")
    else:
        print(f"no r estimate: {extraction.diagnostics}")
    return EXIT_OK


def cmd_catalogue(args) -> int:
    if args.format == "json":
        _write(Path(args.output_dir) / "catalogue.json",
               [meson.catalogue_to_json()])
    else:
        _write(Path(args.output_dir) / "catalogue.csv",
               [meson.catalogue_to_csv()])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reads an argument that starts with '-' and a digit, such as -9.4e-05
    or the vector -0.1,0.2,0.3, as a value: no cuq flag looks like that.
    Subparsers are built from this class too."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cuq",
        description="Dynamics, spectra and fits for critical unstable qubits")
    parser.add_argument("--output-dir", default=".", help="output directory")
    parser.add_argument("--format", choices=("csv", "json"), default="csv")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate",
                       help="exact trajectory of the master evolution equation")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--theta-eg", type=float, default=90.0,
                   help="angle between e and gamma in degrees")
    p.add_argument("--b0", default="exg",
                   help="exg | gamma | e | mixed | 'x,y,z'")
    p.add_argument("--t-max", default="3P",
                   help="tau range; '3P' means three periods")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("sweep-bmax",
                       help="max |b| over initial conditions parallel to gamma")
    p.add_argument("--r-grid", default="0.1:0.95:18",
                   help="'lo:hi:n' or comma list")
    p.add_argument("--b0-grid", default="0,0.25,0.5,0.75,1")
    p.set_defaults(func=cmd_sweep_bmax)

    p = sub.add_parser("fourier",
                       help="closed-form vs quadrature oscillation spectrum")
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n-max", type=int, default=10)
    p.set_defaults(func=cmd_fourier)

    p = sub.add_parser("convert",
                       help="translate between parameterizations")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--from-bloch", nargs=3, type=float,
                       metavar=("R", "THETA_DEG", "E_MAG"))
    group.add_argument("--from-observables", nargs=3, type=float,
                       metavar=("DELTA_E", "DELTA_GAMMA", "Q_OVER_P"))
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("fit", help="Fourier-mode regression of asymmetry data")
    p.add_argument("--data", required=True, help="CSV file: t_ps,asymmetry,sigma")
    p.add_argument("--omega", type=float, required=True,
                   help="angular frequency in 1/ps (the mass splitting)")
    p.add_argument("--n-harmonics", type=int, default=2)
    p.add_argument("--amplitude", type=float, default=None,
                   help="projection amplitude R for the effective-r correction")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("catalogue", help="meson systems in both parameterizations")
    p.set_defaults(func=cmd_catalogue)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (DatasetFormatError, OSError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (RankDeficientDesign, meson.UnphysicalObservables,
            QuadratureNotConverged, OverflowError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FLAG


if __name__ == "__main__":
    sys.exit(main())
