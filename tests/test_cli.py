"""Command-line surface: outputs, exit codes, determinism."""

import json
import math
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cuq.cli import MAX_ROWS, _peak_magnitude, main
from cuq.core import QubitModel
from cuq.fit import _BLOCK_ROWS, save_dataset, synthesize_dataset
from cuq.integrate import propagate

DATA = Path(__file__).resolve().parent / "data"


def run(argv):
    try:
        return main(argv)
    except SystemExit as exc:  # argparse flag errors
        return exc.code


class TestSimulate:
    def test_writes_trajectory_csv(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate",
                    "--r", "0.85", "--t-max", "2P"]) == 0
        lines = (tmp_path / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "tau,b1,b2,b3,b_mag,b_dot_gamma,b_dot_exg"
        last = [float(x) for x in lines[-1].split(",")]
        P = 2 * np.pi * 0.85 / np.sqrt(1 - 0.85 ** 2)
        assert last[0] == pytest.approx(2 * P, rel=1e-12)
        assert last[4] == pytest.approx(1.0, abs=1e-7)  # pure orbit

    def test_named_and_vector_b0(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "0.5",
                    "--b0", "0.1,0.2,0.3", "--t-max", "1.0"]) == 0
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "0.5",
                    "--b0", "mixed", "--t-max", "1.0"]) == 0

    def test_period_syntax_needs_oscillation(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate",
                    "--r", "1.5", "--t-max", "2P"]) == 2

    def test_infinite_horizon_is_flag_error(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate",
                    "--r", "0.5", "--t-max", "inf"]) == 2

    @pytest.mark.parametrize("theta", ["inf", "nan"])
    def test_non_finite_angle_is_flag_error_naming_it(self, tmp_path, capsys,
                                                      theta):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "simulate", "--r",
                        "0.5", "--theta-eg", theta]) == 2
        assert "theta_eg" in capsys.readouterr().err

    def test_uniform_grid_resolves_the_period(self, tmp_path):
        # 64 rows per period, and never fewer than 257
        P = 2 * np.pi * 0.85 / np.sqrt(1 - 0.85 ** 2)
        for t_max, rows in (("2P", 257), ("10P", 641)):
            assert run(["--output-dir", str(tmp_path), "simulate",
                        "--r", "0.85", "--t-max", t_max]) == 0
            table = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                               skiprows=1)
            assert table.shape == (rows, 7)
            assert np.allclose(np.diff(table[:, 0]), table[-1, 0] / (rows - 1),
                               rtol=1e-12, atol=0.0)
            assert table[-1, 0] == pytest.approx(float(t_max[:-1]) * P,
                                                 rel=1e-12)

    def test_overdamped_rows_are_the_exact_solution(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "2.5",
                    "--theta-eg", "40", "--b0", "mixed", "--t-max", "7.5"]) == 0
        table = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                           skiprows=1)
        assert table.shape == (257, 7)
        m = QubitModel.from_angle(2.5, 40.0, degrees=True)
        assert np.array_equal(table[:, 1:4],
                              propagate(m, np.zeros(3), table[:, 0]))

    def test_tiny_r_rows_are_finite(self, tmp_path):
        # the generator forms no 1/r^2, so r = 1e-200 runs like any r < 1
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "1e-200",
                    "--theta-eg", "180", "--t-max", "3P",
                    "--b0=0.6,0,0.8"]) == 0
        table = np.loadtxt(tmp_path / "trajectory.csv", delimiter=",",
                           skiprows=1)
        assert table.shape == (257, 7)
        assert np.all(np.isfinite(table))
        assert np.max(np.linalg.norm(table[:, 1:4], axis=1)) <= 1.0 + 1e-12

    def test_negative_b0_vector(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "0.5",
                    "--b0", "-0.1,0.2,-0.3", "--t-max", "1.0"]) == 0
        first = (tmp_path / "trajectory.csv").read_text().splitlines()[1]
        assert [float(x) for x in first.split(",")[1:4]] == pytest.approx(
            [-0.1, 0.2, -0.3], rel=0.0, abs=1e-15)

    def test_b0_outside_the_ball_is_flag_error(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "0.5",
                    "--b0", "1,1,0", "--t-max", "1.0"]) == 2

    def test_row_cap_is_flag_error(self, tmp_path):
        # r = 0.01 puts ~1e8 rows on [0, 1e5]
        assert run(["--output-dir", str(tmp_path), "simulate",
                    "--r", "0.01", "--t-max", "1e5"]) == 2
        assert not (tmp_path / "trajectory.csv").exists()

    def test_tolerance_flags_are_gone(self, tmp_path):
        # the rows are exact, and no output depends on |E|
        for flag in ("--rel-tol", "--abs-tol", "--e-mag"):
            assert run(["--output-dir", str(tmp_path), "simulate", "--r",
                        "0.5", "--t-max", "1.0", flag, "1e-9"]) == 2

    def test_rows_past_one_block_are_repr_of_propagate(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "simulate", "--r", "0.5",
                    "--theta-eg", "60", "--b0", "mixed", "--t-max", "300"]) == 0
        text = (tmp_path / "trajectory.csv").read_text()
        rows = text.count("\n") - 1
        assert rows > _BLOCK_ROWS
        taus = np.linspace(0.0, 300.0, rows)
        m = QubitModel.from_angle(0.5, 60.0, degrees=True)
        bs = propagate(m, np.zeros(3), taus)
        table = np.column_stack([taus, bs, np.linalg.norm(bs, axis=1),
                                 bs @ m.gamma, bs @ m.e_cross_gamma])
        ref = ["tau,b1,b2,b3,b_mag,b_dot_gamma,b_dot_exg"] + [
            ",".join(map(repr, row)) for row in table.tolist()] + [""]
        assert text.split("\n") == ref

    def test_deterministic_bytes(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for d in (a, b):
            assert run(["--output-dir", str(d), "simulate", "--r", "0.7",
                        "--t-max", "1P"]) == 0
        assert (a / "trajectory.csv").read_bytes() == \
            (b / "trajectory.csv").read_bytes()


class TestSweep:
    def test_bmax_from_mixed_state(self, tmp_path):
        # the peak is located exactly, not sampled
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", "1e-6,0.05,0.3,0.85,0.99",
                    "--b0-grid", "0"]) == 0
        rows = (tmp_path / "bmax.csv").read_text().splitlines()[1:]
        assert len(rows) == 5
        for row in rows:
            r, b0, bmax = (float(x) for x in row.split(","))
            assert bmax == pytest.approx(2 * r / (1 + r * r), abs=1e-12)

    def test_infinite_r_is_flag_error(self, tmp_path, capsys):
        # the model rejects r, before any horizon is derived from it
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", "0.5,inf"]) == 2
        err = capsys.readouterr().err
        assert "r must be positive and finite" in err and "--t-max" not in err
        assert not (tmp_path / "bmax.csv").exists()

    def test_bmax_is_the_maximum_of_the_trajectory(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", "0.4,1,3", "--b0-grid", "0.3,1"]) == 0
        table = np.loadtxt(tmp_path / "bmax.csv", delimiter=",", skiprows=1)
        assert table.shape == (6, 3)
        for r, b0, bmax in table:
            m = QubitModel.from_angle(r, 90.0, degrees=True)
            tau_end = (5 * 2 * np.pi * r / np.sqrt(1 - r * r) if r < 1
                       else 50 * r)
            taus = np.linspace(0.0, tau_end, 100001)
            dense = np.linalg.norm(propagate(m, b0 * m.gamma, taus),
                                   axis=1).max()
            assert dense - 1e-15 <= bmax <= dense + 1e-8

    @settings(max_examples=60, deadline=None)
    @given(st.floats(0.01, 0.99), st.floats(-1.0, 1.0))
    def test_closed_form_peak_is_the_orbit_maximum(self, r, beta):
        # the orbit repeats every period, so one period holds the peak
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        taus = np.linspace(0.0, 2 * np.pi * r / np.sqrt(1 - r * r), 20001)
        dense = np.linalg.norm(propagate(m, beta * m.gamma, taus),
                               axis=1).max()
        assert dense - 1e-15 <= _peak_magnitude(m, beta) <= dense + 1e-8

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.0, 30.0), st.floats(-1.0, 1.0))
    def test_overdamped_peak_is_at_an_end(self, r, beta):
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        bs = propagate(m, beta * m.gamma, np.linspace(0.0, 50 * r, 20001))
        mags = np.linalg.norm(bs, axis=1)
        peak = _peak_magnitude(m, beta)
        assert peak == pytest.approx(max(abs(beta), mags[-1]), abs=1e-15)
        assert peak >= mags.max() - 1e-15

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5, 1e8, 1e200])
    def test_pure_start_peaks_at_one(self, r):
        # a pure state stays pure; at large r the T of b0 = -gamma is tiny,
        # and a form of T that cancels rounds it to 0
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        assert _peak_magnitude(m, -1.0) == _peak_magnitude(m, 1.0) == 1.0

    @pytest.mark.parametrize("grid", ["0.1:0.9:0", "0.1:0.9:-3",
                                      f"0.1:0.9:{MAX_ROWS + 1}",
                                      "0.1:0.9:100000000000"])
    def test_grid_size_is_capped(self, tmp_path, grid, capsys):
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", grid]) == 2
        assert "points" in capsys.readouterr().err
        assert not (tmp_path / "bmax.csv").exists()

    def test_row_cap_is_flag_error(self, tmp_path, capsys):
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", "0.1:0.9:1001", "--b0-grid", "0:1:1000"]) == 2
        assert "more than" in capsys.readouterr().err
        assert not (tmp_path / "bmax.csv").exists()

    def test_b0_outside_the_ball_is_flag_error(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", "0.5,2", "--b0-grid", "1.5"]) == 2
        assert not (tmp_path / "bmax.csv").exists()


GOLDEN = DATA / "cli_golden"

FROZEN = [
    ("sim_r085.csv", "trajectory.csv", ["simulate", "--r", "0.85"]),
    ("sim_r1_mixed.csv", "trajectory.csv",
     ["simulate", "--r", "1", "--b0", "mixed", "--t-max", "60"]),
    ("sim_r25_37.csv", "trajectory.csv",
     ["simulate", "--r", "2.5", "--theta-eg", "37", "--b0", "0.3,-0.2,0.1",
      "--t-max", "40"]),
    ("sim_r025_180.csv", "trajectory.csv",
     ["simulate", "--r", "0.25", "--theta-eg", "180", "--b0=-0.6,0,0.8",
      "--t-max", "100"]),
    ("sweep_default.csv", "bmax.csv", ["sweep-bmax"]),
    ("sweep_grid.csv", "bmax.csv",
     ["sweep-bmax", "--r-grid", "1:30:60", "--b0-grid", "0:1:11"]),
    ("spectrum.csv", "spectrum.csv",
     ["fourier", "--r", "0.85", "--n-max", "6"]),
    ("spectrum.json", "spectrum.json",
     ["--format", "json", "fourier", "--r", "0.3"]),
    ("catalogue.csv", "catalogue.csv", ["catalogue"]),
    ("catalogue.json", "catalogue.json", ["--format", "json", "catalogue"]),
]


# the ids keep the names that the first six cases had
@pytest.mark.parametrize("golden, out, argv", FROZEN, ids=[
    f"{golden}-argv{i}" for i, (golden, _, _) in enumerate(FROZEN)])
def test_outputs_are_frozen(tmp_path, golden, out, argv):
    # output files of an earlier release, byte for byte
    assert run(["--output-dir", str(tmp_path)] + argv) == 0
    assert (tmp_path / out).read_bytes() == (GOLDEN / golden).read_bytes()


class TestFourier:
    def test_json_report(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "--format", "json",
                    "fourier", "--r", "0.85", "--n-max", "6"]) == 0
        rep = json.loads((tmp_path / "spectrum.json").read_text())
        assert rep["max_deviation"] < 1e-8
        assert len(rep["coefficients"]) == 6

    def test_rejects_overdamped(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "fourier",
                    "--r", "1.5"]) == 2

    def test_unconverged_quadrature_is_numerical_error(self, tmp_path):
        # q -> 1 as r -> 1: the trapezoid rule would need ~1e6 nodes
        assert run(["--output-dir", str(tmp_path), "fourier",
                    "--r", "0.999999999", "--n-max", "2"]) == 4


class TestConvert:
    def test_forward(self, capsys):
        assert run(["convert", "--from-bloch", "0.945", "179.6322",
                    "0.00264652"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["observables"]["delta_E"] == pytest.approx(0.005293,
                                                              abs=2e-6)
        assert out["damping"] == "oscillatory"

    def test_negative_numbers_in_exponent_form(self, capsys):
        assert run(["convert", "--from-observables", "0.5", "-9.4e-05",
                    "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["observables"]["delta_Gamma"] == -9.4e-05
        assert run(["convert", "--from-bloch", "0.5", "-1.2e+02", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bloch"]["theta_eg_deg"] == -120.0

    def test_inverse_roundtrip(self, capsys):
        assert run(["convert", "--from-observables", "0.005293",
                    "-0.0100037", "0.9968006"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bloch"]["r"] == pytest.approx(0.945, abs=1e-4)

    @pytest.mark.parametrize("argv", [
        ["--from-bloch", "0.5", "90", "inf"],
        ["--from-bloch", "0.5", "nan", "1"],
        ["--from-observables", "inf", "0.1", "1"],
    ])
    def test_non_finite_input_is_flag_error(self, argv, capsys):
        assert run(["convert"] + argv) == 2
        out = capsys.readouterr()
        assert out.out == "" and "must be finite" in out.err


class TestFit:
    def test_end_to_end(self, tmp_path, capsys):
        ds = synthesize_dataset(r=0.85, E_mag=1.0, n_points=120,
                                t_max=3 * np.pi / np.sqrt(1 - 0.85 ** 2),
                                noise_sigma=0.02, seed=1)
        data = tmp_path / "data.csv"
        save_dataset(ds, data)
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(data), "--omega", repr(float(ds.omega)),
                    "--n-harmonics", "3"]) == 0
        rep = json.loads((tmp_path / "fit.json").read_text())
        assert rep["weighted_r"] == pytest.approx(0.85, abs=0.05)
        assert (tmp_path / "residuals.csv").exists()

    def test_outputs_are_frozen(self, tmp_path):
        # fit.json and residuals.csv from an earlier release on a fixed dataset
        golden = DATA / "fit_golden"
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(golden / "data.csv"), "--omega", "0.8",
                    "--n-harmonics", "3", "--amplitude", "0.9"]) == 0
        for name in ("fit.json", "residuals.csv"):
            assert (tmp_path / name).read_bytes() == \
                (golden / name).read_bytes()

    def test_signal_free_fit_with_amplitude_has_no_estimate(self, tmp_path,
                                                            capsys):
        data = tmp_path / "zero.csv"
        data.write_text("t_ps,asymmetry,sigma\n"
                        + "".join(f"{t}.0,0.0,0.1\n" for t in range(60)))
        assert run(["--output-dir", str(tmp_path), "fit", "--data",
                    str(data), "--omega", "1", "--n-harmonics", "3",
                    "--amplitude", "0.9"]) == 0
        assert json.loads((tmp_path / "fit.json").read_text())[
            "weighted_r"] is None
        assert "no r estimate" in capsys.readouterr().out

    @pytest.mark.parametrize("amplitude", ["5", "nan", "0"])
    def test_signal_free_fit_checks_amplitude(self, tmp_path, capsys,
                                              amplitude):
        # R is checked although no ratio gives an estimate to correct
        data = tmp_path / "zero.csv"
        data.write_text("t_ps,asymmetry,sigma\n"
                        + "".join(f"{t}.0,0.0,0.1\n" for t in range(60)))
        assert run(["--output-dir", str(tmp_path), "fit", "--data",
                    str(data), "--omega", "1", "--n-harmonics", "3",
                    "--amplitude", amplitude]) == 2
        assert "amplitude R must be in (0, 1]" in capsys.readouterr().err

    def test_negative_harmonics_is_flag_error_naming_n(self, tmp_path,
                                                       capsys):
        assert run(["--output-dir", str(tmp_path), "fit", "--data",
                    str(DATA / "fit_golden" / "data.csv"), "--omega", "0.8",
                    "--n-harmonics", "-1"]) == 2
        assert "N must be >= 0 harmonics, got N = -1" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("n", ["0", "1"])
    def test_too_few_harmonics_is_flag_error_before_reading(self, tmp_path,
                                                            capsys, n):
        # estimate_r needs two harmonics; the missing file is never read
        assert run(["--output-dir", str(tmp_path), "fit", "--data",
                    str(tmp_path / "missing.csv"), "--omega", "1",
                    "--n-harmonics", n]) == 2
        assert "--n-harmonics" in capsys.readouterr().err

    def test_header_only_file_is_flag_error(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("t_ps,asymmetry,sigma\n")
        assert run(["--output-dir", str(tmp_path), "fit", "--data",
                    str(data), "--omega", "1.0"]) == 2
        assert "need at least 4 points" in capsys.readouterr().err

    def test_missing_file_is_data_error(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(tmp_path / "nope.csv"),
                    "--omega", "1.0"]) == 3

    def test_malformed_file_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_ps,asymmetry,sigma\n0.0,x,0.1\n")
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(bad), "--omega", "1.0"]) == 3

    def test_non_finite_field_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("t_ps,asymmetry,sigma\n0.0,0.1,0.1\n1.0,nan,0.1\n"
                       "2.0,0.3,0.1\n3.0,0.2,0.1\n4.0,0.1,0.1\n")
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(bad), "--omega", "1.0"]) == 3

    def test_infinite_omega_is_flag_error(self, tmp_path):
        # --omega is a flag: a non-finite value is a flag error
        data = tmp_path / "data.csv"
        save_dataset(synthesize_dataset(r=0.5, E_mag=1.0, n_points=12,
                                        t_max=10.0, noise_sigma=0.01,
                                        seed=0), data)
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(data), "--omega", "inf"]) == 2

    def test_rank_deficiency_is_numerical_error(self, tmp_path):
        ds = synthesize_dataset(r=0.5, E_mag=1.0, n_points=12, t_max=1e-4,
                                noise_sigma=0.0, seed=0)
        data = tmp_path / "flat.csv"
        save_dataset(ds, data)
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(data), "--omega", repr(float(ds.omega)),
                    "--n-harmonics", "4"]) == 4


class TestCatalogue:
    def test_csv_and_json(self, tmp_path):
        assert run(["--output-dir", str(tmp_path), "catalogue"]) == 0
        assert run(["--output-dir", str(tmp_path), "--format", "json",
                    "catalogue"]) == 0
        rows = json.loads((tmp_path / "catalogue.json").read_text())
        assert [r["system"] for r in rows] == ["K0", "D0", "Bd0", "Bs0"]
        header = (tmp_path / "catalogue.csv").read_text().splitlines()[0]
        assert header.startswith("system,delta_E")


@pytest.mark.parametrize("argv", [
    ["convert", "--from-observables", "1e300", "0.5", "1e-10"],
    ["convert", "--from-observables", "1e300", "0.5", "1e-300"],
    ["convert", "--from-observables", "1", "0.5", "5e-324"],
    ["convert", "--from-observables", "1e300", "1e300", "1e300"],
    ["convert", "--from-bloch", "1e300", "180", "1e200"],
    ["convert", "--from-bloch", "0.5", "45", "1e308"],
    ["simulate", "--r", "5e-324", "--t-max", "3P"],
    ["fourier", "--r", "5e-324"],
])
def test_overflow_is_numerical_failure(tmp_path, argv, capsys):
    # finite flags whose results pass the largest float
    assert run(["--output-dir", str(tmp_path)] + argv) == 4
    out = capsys.readouterr()
    assert out.out == "" and out.err.startswith("numerical failure: ")
    assert not (tmp_path / "trajectory.csv").exists()
    if argv[1] == "--from-observables":
        assert "Delta E" in out.err and "|q/p|" in out.err
    if argv[0] != "convert":  # a subnormal r: omega_hat = sqrt(1 - r^2)/r
        assert "r = 5e-324" in out.err


@pytest.mark.parametrize("argv, want", [
    # theta = 90: |E| = Delta E (1 + q^2)/(4q)
    (["1e200", "0.5", "1e-8"], {"theta_eg_deg": 90.0, "E_mag": 2.5e207}),
    (["1e-200", "1e-200", "1"], {"r": 0.5, "theta_eg_deg": 0.0,
                                 "E_mag": 5e-201}),
    # |q/p| -> inf and 0 are the r -> 1, theta -> -+90 limits; the true
    # r = 1 - O(1/q^2) rounds to 1
    (["1", "0.5", "1e100"], {"r": 1.0, "theta_eg_deg": -90.0}),
    (["1", "0.5", "1e-100"], {"r": 1.0, "theta_eg_deg": 90.0}),
    # |E| = 5e-324 * 0.625 is subnormal, not 0
    (["5e-324", "0", "0.5"], {"r": 0.6, "E_mag": 5e-324}),
    (["0", "-10.110632897246857", "0.6797919955839504"],
     {"r": math.e, "theta_eg_deg": 90.0, "E_mag": 1.0}),
])
def test_observables_of_any_finite_scale_invert(argv, want, capsys):
    assert run(["convert", "--from-observables"] + argv) == 0
    out = json.loads(capsys.readouterr().out)
    got = out["bloch"]
    for key, value in want.items():
        assert got[key] == pytest.approx(value, rel=1e-12)
    if argv == ["1e-200", "1e-200", "1"]:
        # +0.0, not -0.0, so the mirror is 180, not -180
        assert math.copysign(1.0, got["theta_eg_deg"]) == 1.0
        assert out["branch"] == "mirror branch: theta = 180 deg"


class TestFlagErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert run(["simulate"]) == 2

    def test_seed_flag_is_gone(self, tmp_path):
        # no subcommand draws random numbers
        assert run(["--output-dir", str(tmp_path), "--seed", "1",
                    "catalogue"]) == 2


class TestImport:
    def test_runtime_path_loads_no_scipy(self):
        # scipy.special alone costs more than numpy on a cold start; only
        # the fit's p-values need it, and they import it themselves
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); "
                "import cuq, cuq.cli; "
                "print(','.join(m for m in sys.modules if m == 'scipy' "
                "or m.startswith('scipy.')))")
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == ""
