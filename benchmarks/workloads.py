"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Each workload function turns (seed, blocks) into one pass: a fixed list of
operations.  Each operation is a call sequence into cuq (`call`, timed) and a
check of its output against `reference` (`check`, not timed).  Parameters
are drawn stratified, one draw from each equal slice of the range in random
order, so the mix of cheap and costly operations, and the share of inputs
beyond a documented limit, hardly moves from seed to seed.

cuq is called through module attributes (`integrate.evolve`, ...) so that
the tracer's wrappers see every call.  The names imported below by value are
the originals, which the checks use.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import reference as ref
from cuq import analytic, cli, fit, fourier, integrate, meson
from cuq.analytic import asymptotic_state
from cuq.core import QubitModel
from cuq.fourier import SeriesKind, closed_form_cn, closed_form_d0

# bloch_from_observables searches r in (0, 10] only and rejects larger r with
# UnphysicalObservables.  Such draws count as rejected, neither ok nor failed,
# so the limit shows in ok_frac and its removal raises ok_frac.
INVERSION_R_CAP = 10.0


class CheckFailed(Exception):
    """An operation's output missed its reference."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], None]
    rejects: Callable[[BaseException], bool] = lambda exc: False
    limit_s: float = 30.0
    cold: bool = False  # runs in a fresh process
    # work counted by the benchmark's own callables (quadrature signals)
    tally: dict = field(default_factory=dict)


def stratified(rng, n: int, lo: float, hi: float, log: bool = False) -> np.ndarray:
    """n draws, one from each of n equal slices of [lo, hi), in random order."""
    u = (rng.permutation(n) + rng.random(n)) / n
    return lo * (hi / lo) ** u if log else lo + (hi - lo) * u


def _unit(rng) -> np.ndarray:
    v = rng.standard_normal(3)
    return v / np.linalg.norm(v)


def _initial_states(rng, n: int) -> list[np.ndarray]:
    """Fixed shares of the fully mixed start and pure states; the rest
    uniform in the unit ball."""
    n_mixed, n_pure = max(1, n // 6), max(1, n // 4)
    states = [np.zeros(3) for _ in range(n_mixed)]
    states += [_unit(rng) for _ in range(n_pure)]
    states += [_unit(rng) * rng.random() ** (1 / 3)
               for _ in range(n - n_mixed - n_pure)]
    rng.shuffle(states)
    return states[:n]


# ---------------------------------------------------------------- trajectories

def trajectories(seed: int, blocks: int) -> list[Op]:
    """Dense trajectories (four per block) and stationary-state searches
    (three per block).  integrate and core do nearly all the work."""
    rng = np.random.default_rng([seed, 1])
    ops = _dense_ops(rng, 4 * blocks) + _asymptote_ops(rng, 3 * blocks)
    rng.shuffle(ops)
    return ops


def _dense_ops(rng, n: int) -> list[Op]:
    # r = 1 exactly is the exceptional point; small r hits the 1/r step cap.
    n_r1 = max(1, n // 10)
    r = np.concatenate([np.ones(n_r1),
                        stratified(rng, n - n_r1, 0.02, 3.0, log=True)])
    theta = stratified(rng, n, 0.0, 180.0)
    theta[rng.permutation(n)[:max(1, n // 4)]] = 90.0  # the CUQ geometry
    b0s = _initial_states(rng, n)
    # three periods (r < 1) or three multiples of r (the slow decay scale)
    return [_dense_op(ri, th, b0, 3.0 * (ref.period(ri) if ri < 1.0 else ri))
            for ri, th, b0 in zip(r, theta, b0s)]


def _dense_op(r: float, theta: float, b0: np.ndarray, tau_end: float,
              n_grid: int = 257) -> Op:
    model = QubitModel.from_angle(r, theta, degrees=True)
    grid = np.linspace(0.0, tau_end, n_grid)

    def call():
        return integrate.evolve(model, b0, tau_end).interpolate(grid)

    def check(points):
        e, g = ref.cpt_basis(theta)
        err = float(np.max(np.abs(points - ref.bloch_path(e, g, r, b0, grid))))
        expect(err <= ref.BLOCH_ATOL,
               f"trajectory r={r!r} theta={theta!r} off by {err:.3g}")

    return Op("evolve", call, check)


def _asymptote_ops(rng, n: int) -> list[Op]:
    # An eighth overdamped; of the rest, two thirds CUQ models (oscillating
    # at exactly 90 degrees: they must come back NON_CONVERGENT) and a third
    # oscillating at other angles.  Each group draws its own stratified r, because
    # the cost of a search depends mostly on r.  The CUQ searches are the
    # slowest operations; with about twenty of them per pass, op_tail_ms
    # (the eleventh slowest) sits inside that group rather than at its edge.
    # Geometries within 30 degrees of perpendicular settle too slowly at
    # small r, and r = 1 at 90 degrees never classifies, so neither is drawn.
    n_over = n // 8
    n_cuq = -(-2 * (n - n_over) // 3)
    n_general = n - n_over - n_cuq
    general = stratified(rng, n_general, 10.0, 60.0)
    general = np.where(rng.random(n_general) < 0.5, 180.0 - general, general)
    over = np.where(rng.random(n_over) < 0.5, 90.0,
                    stratified(rng, n_over, 10.0, 170.0))
    r = np.concatenate([stratified(rng, n_cuq, 0.2, 0.95, log=True),
                        stratified(rng, n_general, 0.2, 0.95, log=True),
                        stratified(rng, n_over, 1.1, 3.0, log=True)])
    theta = np.concatenate([np.full(n_cuq, 90.0), general, over])
    b0s = _initial_states(rng, n)
    return [_asymptote_op(ri, th, b0) for ri, th, b0 in zip(r, theta, b0s)]


def _asymptote_op(r: float, theta: float, b0: np.ndarray) -> Op:
    model = QubitModel.from_angle(r, theta, degrees=True)

    def call():
        return integrate.evolve_to_asymptote(model, b0)

    def check(b):
        want = asymptotic_state(model)
        if b is integrate.NON_CONVERGENT:
            expect(want.b_star is None,
                   f"asymptote r={r!r} theta={theta!r}: NON_CONVERGENT but "
                   f"branch {want.branch.value}")
            return
        expect(want.b_star is not None,
               f"asymptote r={r!r} theta={theta!r}: settled, but no "
               f"stationary state exists")
        err = float(np.max(np.abs(np.asarray(b) - want.b_star)))
        expect(err <= ref.BLOCH_ATOL,
               f"asymptote r={r!r} theta={theta!r} off by {err:.3g}")

    return Op("asymptote", call, check)


# ---------------------------------------------------------------------- mixing

def mixing(seed: int, blocks: int) -> list[Op]:
    """Per block: one meson draw run three ways, one spectrum in both series,
    one noiseless and one noisy fit.  The catalogue systems ride along."""
    rng = np.random.default_rng([seed, 2])
    ops = (_meson_ops(rng, blocks) + _spectrum_ops(rng, blocks)
           + _fit_ops(rng, 2 * blocks))
    rng.shuffle(ops)
    return ops


def _meson_ops(rng, n: int) -> list[Op]:
    draws = [(e.bloch.r, e.bloch.theta_eg_deg, e.bloch.E_mag)
             for e in meson.catalogue()]
    draws += zip(stratified(rng, n, 1e-3, 30.0, log=True),
                 stratified(rng, n, -180.0, 180.0),
                 stratified(rng, n, 1e-3, 20.0, log=True))
    ops = []
    for r, theta, E in draws:
        dE, dG, qop = ref.meson_observables(r, theta, E)
        ops += [_forward_inverse(r, theta, E),
                _inverse_forward("mirror", (dE, -dG, qop), r),
                _inverse_forward("cuq-branch", (dE, 0.0, qop),
                                 ref.cuq_branch_r(qop))]
    return ops


def _beyond_cap(r: float) -> Callable[[BaseException], bool]:
    return lambda exc: (isinstance(exc, meson.UnphysicalObservables)
                        and r > INVERSION_R_CAP)


def _forward_inverse(r: float, theta: float, E: float) -> Op:
    params = meson.BlochParameters(r=r, theta_eg_deg=theta, E_mag=E)
    want = ref.meson_observables(r, theta, E)

    def call():
        obs = meson.observables_from_bloch(params)
        return obs, meson.bloch_from_observables(obs)

    def check(out):
        obs, inv = out
        got = (obs.delta_E, obs.delta_Gamma, obs.q_over_p)
        expect(ref.observables_close(got, want),
               f"forward map of r={r!r} theta={theta!r}: {got} != {want}")
        p = inv.params
        expect(ref.close(p.r, r, ref.MESON_RTOL),
               f"inverse of r={r!r} theta={theta!r} gave r={p.r!r}")
        back = ref.meson_observables(p.r, p.theta_eg_deg, p.E_mag)
        expect(ref.observables_close(back, want),
               f"inverse of r={r!r} theta={theta!r} does not reproduce "
               f"the observables")

    return Op("roundtrip", call, check, rejects=_beyond_cap(r))


def _inverse_forward(kind: str, observables: tuple, r: float) -> Op:
    obs = meson.MesonObservables(*observables)

    def call():
        inv = meson.bloch_from_observables(obs)
        return inv, meson.observables_from_bloch(inv.params)

    def check(out):
        inv, back = out
        got = (back.delta_E, back.delta_Gamma, back.q_over_p)
        expect(ref.observables_close(got, observables),
               f"{kind} inverse of {observables} does not reproduce them: "
               f"{got}")
        expect(ref.close(inv.params.r, r, ref.MESON_RTOL),
               f"{kind} inverse of {observables}: r={inv.params.r!r}, "
               f"want {r!r}")
        expect(inv.forced_cuq_branch == (observables[1] == 0.0),
               f"{kind} inverse of {observables}: forced_cuq_branch is "
               f"{inv.forced_cuq_branch}")

    return Op("roundtrip", call, check, rejects=_beyond_cap(r))


def _spectrum_ops(rng, n: int) -> list[Op]:
    r = stratified(rng, n, 0.05, 0.99)
    N = np.floor(stratified(rng, n, 2, 21)).astype(int)
    ops = []
    for ri, Ni in zip(r, N):
        ops += [_spectrum_op(ri, int(Ni), SeriesKind.ODD),
                _spectrum_op(ri, int(Ni), SeriesKind.EVEN)]
    return ops


def _spectrum_op(r: float, N: int, kind: SeriesKind) -> Op:
    P = ref.period(r)
    component = 0 if kind is SeriesKind.ODD else 1
    order = 1 if kind is SeriesKind.ODD else 0
    tally = {"signal_evals": 0, "coefficients": 0}

    def signal(t):
        tally["signal_evals"] += 1
        return analytic.cuq_projections(t, r)[component]

    def call():
        tally["coefficients"] += N + 1
        spec = fourier.quadrature_spectrum(signal, P, N, kind)
        return spec, fourier.anharmonicity(spec, order)

    def check(out):
        spec, est = out
        want = np.array([closed_form_cn(n, r) for n in range(1, N + 1)])
        want_d0 = closed_form_d0(r) if kind is SeriesKind.EVEN else 0.0
        err = max(float(np.max(np.abs(spec.coeffs - want))),
                  abs(spec.d0 - want_d0))
        expect(err <= ref.SPECTRUM_ATOL,
               f"{kind.value} spectrum r={r!r} N={N} off by {err:.3g}")
        expect(ref.close(est.r_hat, r, ref.SPECTRUM_R_RTOL),
               f"{kind.value} anharmonicity of r={r!r} gave r={est.r_hat!r}")

    return Op("spectrum", call, check, tally=tally)


def fit_harmonics(r: float, sigma_max: float, n_points: int) -> int:
    """Harmonics for a fit: 3 without noise (sampling whole periods keeps the
    omitted modes orthogonal).  With noise, the most (2 to 8) whose last
    coefficient still stands 30 standard errors clear of the noise, so every
    anharmonicity ratio is well measured and the 5-sigma check is fair."""
    if sigma_max == 0.0:
        return 3
    err = sigma_max * np.sqrt(2.0 / n_points)
    N = 2
    while N < 8 and closed_form_cn(N + 1, r) >= 30.0 * err:
        N += 1
    return N


def _fit_ops(rng, n: int) -> list[Op]:
    # Noisy fits take 400 or more points (ten or more periods): over fewer
    # periods a widening noise schedule lets the omitted harmonics bias the
    # weighted fit.
    n_exact = n // 2
    kinds = ["none"] * n_exact + ["flat"] * ((n - n_exact) // 2)
    kinds += ["widening"] * (n - len(kinds))
    points = np.concatenate([
        stratified(rng, n_exact, 50, 2000, log=True),
        stratified(rng, n - n_exact, 400, 2000, log=True)]).round().astype(int)
    r = stratified(rng, n, 0.05, 0.6)
    E = stratified(rng, n, 0.01, 10.0, log=True)
    sigma = stratified(rng, n, 1e-4, 1e-3, log=True)
    seeds = rng.integers(0, 2**31, n)
    return [_fit_op(*args) for args in zip(r, E, points, sigma, kinds, seeds)]


def _fit_op(r, E, n_points, sigma, noise, seed) -> Op:
    r, E, sigma = float(r), float(E), float(sigma)
    n_points, seed = int(n_points), int(seed)
    periods = min(20, max(1, n_points // 40))  # >= 40 samples per period
    t_max = periods * np.pi / (E * np.sqrt(1.0 - r * r))
    t = np.linspace(0.0, t_max, n_points, endpoint=False)
    schedule = {"none": 0.0, "flat": sigma,
                "widening": sigma * (1.0 + 4.0 * t / t_max)}[noise]
    N = fit_harmonics(r, float(np.max(schedule)), n_points)

    def call():
        data = fit.synthesize_dataset(r, E, n_points, t_max, schedule, seed)
        return fit.estimate_r(fit.fit_fourier_modes(data, N))

    def check(ex):
        _check_r_estimate(ex.weighted_r if ex.has_estimate else None,
                          ex.weighted_r_err, r, noise == "none",
                          f"{noise}-noise fit of r={r!r}, {n_points} points")

    return Op("fit", call, check)


def _check_r_estimate(r_hat, r_err, r, exact: bool, what: str) -> None:
    if exact:
        expect(r_hat is not None and ref.close(r_hat, r, ref.FIT_EXACT_RTOL),
               f"{what}: r={r_hat!r}")
    else:
        expect(r_hat is None or abs(r_hat - r) <= ref.FIT_NSIGMA * r_err,
               f"{what}: r={r_hat!r} +- {r_err!r}")


# ------------------------------------------------------------------------- cli

SUBCOMMANDS = ("catalogue", "convert", "fourier", "fit", "simulate",
               "sweep-bmax")


@dataclass
class CliResult:
    returncode: int
    stdout: str
    outdir: Path
    peak_rss_kb: int | None = None


def cli_session(seed: int, blocks: int, workdir: Path, cold: bool,
                env: dict | None = None) -> list[Op]:
    """One session of every subcommand per block (twelve invocations, so two
    blocks give op_tail_ms 24 samples).  Cold operations start a fresh
    interpreter each (cold_cli.py); the others call `cuq.cli.main` in this
    process (the form the tracer can see into)."""
    rng = np.random.default_rng([seed, 3])
    ops = []
    for b in range(blocks):
        specs = [_catalogue_spec("csv"), _catalogue_spec("json"),
                 _convert_bloch_spec(rng), _convert_bloch_spec(rng),
                 _convert_observables_spec(rng), _convert_observables_spec(rng),
                 _fourier_spec(rng, "csv"), _fourier_spec(rng, "json"),
                 _fit_spec(rng, workdir / f"data{b}-exact.csv", exact=True),
                 _fit_spec(rng, workdir / f"data{b}-noisy.csv", exact=False),
                 _simulate_spec(rng), _sweep_spec(rng)]
        for argv, check in specs:
            outdir = workdir / f"op{len(ops):03d}"
            ops.append(_cli_op(["--output-dir", str(outdir)] + argv, check,
                               outdir, cold, env))
    return ops


def _cli_op(argv, check, outdir: Path, cold: bool, env) -> Op:
    def call():
        outdir.mkdir(parents=True, exist_ok=True)
        return _run_cold(argv, outdir, env) if cold else _run_inproc(argv, outdir)

    def check_result(res: CliResult):
        expect(res.returncode == 0, f"cuq {' '.join(argv)} exited "
                                    f"{res.returncode}")
        check(res)

    sub = next(a for a in argv if a in SUBCOMMANDS)
    return Op(f"cli.{sub}", call, check_result, limit_s=60.0 if cold else 30.0,
              cold=cold)


def _run_cold(argv, outdir: Path, env) -> CliResult:
    out_path, peak_path = outdir / "stdout.txt", outdir / "peak_kb.txt"
    launcher = Path(__file__).resolve().with_name("cold_cli.py")
    with open(out_path, "wb") as so, open(outdir / "stderr.txt", "wb") as se:
        proc = subprocess.Popen([sys.executable, str(launcher), str(peak_path),
                                 *argv], stdout=so, stderr=se, env=env)
        try:
            proc.wait()
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    peak = int(peak_path.read_text()) if peak_path.exists() else None
    return CliResult(proc.returncode, out_path.read_text(encoding="utf-8"),
                     outdir, peak)


def _run_inproc(argv, outdir: Path) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return CliResult(rc, out.getvalue(), outdir)


def _num(x: float) -> str:
    """A float as a CLI argument, exact, in positional notation: argparse
    takes a negative number in exponent notation ('-1e-05') for a flag."""
    return np.format_float_positional(float(x), trim="-")


def _catalogue_spec(fmt: str):
    def check(res: CliResult):
        path = res.outdir / f"catalogue.{fmt}"
        text = path.read_text(encoding="utf-8")
        rows = (json.loads(text) if fmt == "json"
                else list(csv.DictReader(io.StringIO(text))))
        want = meson.catalogue()
        expect([row["system"] for row in rows] == [e.name for e in want],
               f"catalogue.{fmt} systems: {[row['system'] for row in rows]}")
        for row, e in zip(rows, want):
            got = [float(row[k]) for k in ("delta_E", "delta_Gamma", "r",
                                           "theta_eg_deg", "E_mag")]
            expect(got == [e.observables.delta_E, e.observables.delta_Gamma,
                           e.bloch.r, e.bloch.theta_eg_deg, e.bloch.E_mag],
                   f"catalogue.{fmt} row {e.name}: {got}")
    return ["--format", fmt, "catalogue"], check


def _meson_draw(rng):
    # The CLI session keeps to r <= 10; the inversion's r > 10 limit is
    # measured on the mixing workload.
    return (float(np.exp(rng.uniform(np.log(1e-3), np.log(10.0)))),
            float(rng.uniform(-180.0, 180.0)),
            float(np.exp(rng.uniform(np.log(1e-3), np.log(20.0)))))


def _convert_bloch_spec(rng):
    r, theta, E = _meson_draw(rng)
    want = ref.meson_observables(r, theta, E)

    def check(res: CliResult):
        o = json.loads(res.stdout)["observables"]
        got = (o["delta_E"], o["delta_Gamma"], o["q_over_p"])
        expect(ref.observables_close(got, want),
               f"convert --from-bloch {r!r} {theta!r} {E!r}: {got}")
    return ["convert", "--from-bloch", _num(r), _num(theta), _num(E)], check


def _convert_observables_spec(rng):
    r, theta, E = _meson_draw(rng)
    want = ref.meson_observables(r, theta, E)

    def check(res: CliResult):
        p = json.loads(res.stdout)["bloch"]
        expect(ref.close(p["r"], r, ref.MESON_RTOL),
               f"convert --from-observables {want}: r={p['r']!r}, want {r!r}")
        back = ref.meson_observables(p["r"], p["theta_eg_deg"], p["E_mag"])
        expect(ref.observables_close(back, want),
               f"convert --from-observables {want} does not reproduce them")
    return ["convert", "--from-observables", *map(_num, want)], check


def _fourier_spec(rng, fmt: str):
    r = float(rng.uniform(0.1, 0.95))
    N = int(rng.integers(2, 7))

    def check(res: CliResult):
        path = res.outdir / f"spectrum.{fmt}"
        text = path.read_text(encoding="utf-8")
        if fmt == "json":
            report = json.loads(text)
            d0 = report["d0"]["quadrature"]
            rows = [(c["quadrature_odd"], c["quadrature_even"])
                    for c in report["coefficients"]]
        else:
            table = list(csv.DictReader(io.StringIO(text)))
            d0 = float(table[0]["quadrature_even"])
            rows = [(float(t["quadrature_odd"]), float(t["quadrature_even"]))
                    for t in table[1:]]
        expect(len(rows) == N, f"fourier --n-max {N}: {len(rows)} rows")
        err = abs(d0 - closed_form_d0(r))
        for n, (odd, even) in enumerate(rows, start=1):
            err = max(err, abs(odd - closed_form_cn(n, r)),
                      abs(even - closed_form_cn(n, r)))
        expect(err <= ref.SPECTRUM_ATOL,
               f"fourier --r {r!r} --n-max {N} off by {err:.3g}")
    return ["--format", fmt, "fourier", "--r", _num(r), "--n-max", str(N)], check


def _fit_spec(rng, data_path: Path, exact: bool):
    """Writes the dataset now, as input generation, with the reference
    signal; the CLI reads it back."""
    r = float(rng.uniform(0.05, 0.5))
    E = float(np.exp(rng.uniform(np.log(0.01), np.log(10.0))))
    n_points = int(rng.integers(100, 401))
    sigma = 0.0 if exact else float(np.exp(rng.uniform(np.log(1e-4),
                                                       np.log(1e-3))))
    omega = float(2.0 * E * np.sqrt(1.0 - r * r))
    periods = n_points // 40
    t = np.linspace(0.0, periods * 2.0 * np.pi / omega, n_points,
                    endpoint=False)
    delta = ref.cuq_signal(2.0 * r * E * t, r) + sigma * rng.standard_normal(
        n_points)
    data_path.parent.mkdir(parents=True, exist_ok=True)
    lines = ["t_ps,asymmetry,sigma"]
    lines += [f"{ti!r},{di!r},{sigma if sigma else 1e-12!r}"
              for ti, di in zip(t.tolist(), delta.tolist())]
    data_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    N = fit_harmonics(r, sigma, n_points)

    def check(res: CliResult):
        report = json.loads((res.outdir / "fit.json").read_text(encoding="utf-8"))
        _check_r_estimate(report["weighted_r"], report["weighted_r_err"], r,
                          exact, f"fit of r={r!r}, {n_points} points")
        with open(res.outdir / "residuals.csv", encoding="utf-8") as fh:
            expect(sum(1 for _ in fh) == n_points + 1,
                   "residuals.csv row count")
    return ["fit", "--data", str(data_path), "--omega", _num(omega),
            "--n-harmonics", str(N)], check


def _simulate_spec(rng):
    r = float(np.exp(rng.uniform(np.log(0.05), np.log(3.0))))
    theta = 90.0 if rng.random() < 0.5 else float(rng.uniform(0.0, 180.0))
    e, g = ref.cpt_basis(theta)
    named = {"exg": np.cross(e, g), "gamma": g, "mixed": np.zeros(3)}
    spec = ["exg", "gamma", "mixed", "vector"][int(rng.integers(4))]
    b0 = named.get(spec)
    if b0 is None:
        b0 = _unit(rng) * rng.random() ** (1 / 3)
        spec = ",".join(map(_num, b0))  # "--b0=" below: it may start with "-"
    t_max = f"{_num(rng.choice([2.0, 2.5, 3.0]))}P" if r < 1.0 else _num(3.0 * r)

    def check(res: CliResult):
        table = np.loadtxt(res.outdir / "trajectory.csv", delimiter=",",
                           skiprows=1)
        want = ref.bloch_path(e, g, r, b0, table[:, 0])
        err = float(np.max(np.abs(table[:, 1:4] - want)))
        expect(err <= ref.BLOCH_ATOL,
               f"simulate --r {r!r} --theta-eg {theta!r} off by {err:.3g}")
    return ["simulate", "--r", _num(r), "--theta-eg", _num(theta),
            f"--b0={spec}", "--t-max", t_max], check


def _sweep_spec(rng):
    rs = np.sort(rng.uniform(0.2, 0.95, 2))
    b0s = [0.0, float(rng.uniform(0.3, 1.0))]

    def check(res: CliResult):
        table = np.loadtxt(res.outdir / "bmax.csv", delimiter=",", skiprows=1)
        expect(table.shape == (len(rs) * len(b0s), 3), "bmax.csv shape")
        e, g = ref.cpt_basis(90.0)
        for r, b0_mag, b_max in table:
            taus = np.linspace(0.0, 5.0 * ref.period(r), 20001)
            want = np.linalg.norm(ref.bloch_path(e, g, r, b0_mag * g, taus),
                                  axis=1).max()
            expect(want - ref.BMAX_ATOL <= b_max <= want + ref.BLOCH_ATOL,
                   f"sweep-bmax r={r!r} b0={b0_mag!r}: {b_max!r} vs {want!r}")
    return ["sweep-bmax", "--r-grid", ",".join(map(_num, rs)),
            "--b0-grid", ",".join(map(_num, b0s))], check
