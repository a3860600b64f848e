"""Command-line surface: outputs, exit codes, determinism."""

import contextlib
import io
import json
import math
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cuq._base import _BLOCK_ROWS
from cuq.cli import MAX_ROWS, _parse_grid, _peak_magnitude, main
from cuq.core import QubitModel
from cuq.fit import (AsymmetryDataset, design_matrix, save_dataset,
                     synthesize_dataset)
from cuq.integrate import propagate
from goldens import CLI_GOLDEN, FIT_GOLDEN, GOLDEN_RUNS, argvs


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


# finite floats, with subnormals and the ends of the range
FINITE = st.one_of(st.sampled_from([5e-324, -5e-324, 1e-310, 1e308, -1e308]),
                   st.floats(allow_nan=False, allow_infinity=False))


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
        assert dense - 1e-15 <= _peak_magnitude(m.r, beta) <= dense + 1e-8

    @settings(max_examples=40, deadline=None)
    @given(st.floats(1.0, 30.0), st.floats(-1.0, 1.0))
    def test_overdamped_peak_is_at_an_end(self, r, beta):
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        bs = propagate(m, beta * m.gamma, np.linspace(0.0, 50 * r, 20001))
        mags = np.linalg.norm(bs, axis=1)
        peak = _peak_magnitude(m.r, beta)
        assert peak == pytest.approx(max(abs(beta), mags[-1]), abs=1e-15)
        assert peak >= mags.max() - 1e-15

    @pytest.mark.parametrize("r", [0.3, 1.0, 2.5, 1e8, 1e200])
    def test_pure_start_peaks_at_one(self, r):
        # a pure state stays pure; at large r the T of b0 = -gamma is tiny,
        # and a form of T that cancels rounds it to 0
        m = QubitModel.from_angle(r, 90.0, degrees=True)
        assert _peak_magnitude(m.r, -1.0) == _peak_magnitude(m.r, 1.0) == 1.0

    @settings(max_examples=200, deadline=None)
    @given(FINITE, FINITE, st.integers(1, 2000))
    def test_linear_grid_has_the_bits_of_linspace(self, lo, hi, n):
        # bits, so -0.0 and the nan that an overflowing hi - lo gives count
        with np.errstate(all="ignore"):
            want = np.linspace(lo, hi, n)
        got = np.array(_parse_grid(f"{lo!r}:{hi!r}:{n}"))
        assert np.array_equal(got.view(np.int64), want.view(np.int64))

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

    def test_b0_rounded_past_one_is_pure(self, tmp_path):
        # |b0| <= 1 + 1e-9 is the pure state it rounds from, as in propagate
        assert run(["--output-dir", str(tmp_path), "sweep-bmax",
                    "--r-grid", "0.5,2", "--b0-grid", "1.0000000001"]) == 0
        table = np.loadtxt(tmp_path / "bmax.csv", delimiter=",", skiprows=1)
        assert list(table[:, 2]) == [1.0, 1.0]


# the ids keep the names the first eleven cases had: the first golden, then
# the run's place in the table
@pytest.mark.parametrize("argv, goldens", GOLDEN_RUNS, ids=[
    f"{next(iter(goldens.values())).name}-argv{i}"
    for i, (_, goldens) in enumerate(GOLDEN_RUNS)])
def test_outputs_are_frozen(tmp_path, argv, goldens):
    # output files of an earlier release, byte for byte
    assert run(["--output-dir", str(tmp_path)] + argv) == 0
    for out, golden in goldens.items():
        assert (tmp_path / out).read_bytes() == golden.read_bytes(), out


def test_every_golden_belongs_to_exactly_one_run():
    # an orphaned golden would go unchecked, a missing one unnoticed
    named = [golden for _, goldens in GOLDEN_RUNS
             for golden in goldens.values()]
    on_disk = [*CLI_GOLDEN.iterdir(),
               *(p for p in FIT_GOLDEN.iterdir() if p.name != "data.csv")]
    assert sorted(named) == sorted(on_disk)


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

    # no node is sampled where what the rule's last test (2^15 against 2^16
    # nodes) still aliases into order N passes 1.02e-12: c_{2^15} near
    # 1 - r = 2.05e-7 for N = 0, so 2.3e-7 converges and 1e-7 exits at once.
    # For N >= 1 order N aliases from both sides, c_{2^15 - N} + c_{2^15 + N}:
    # at 1 - r = 2.14e-7 that is 1.28e-12 and the rule exits at once, and at
    # 2.19e-7, 9.98e-13, it samples and converges.  The exit codes are those
    # the rule gives at every r, and an out-of-range --n-max stays a flag
    # error
    @pytest.mark.parametrize("r, n_max, code, sampled", [
        ("0.9999", "0", 0, True),
        ("0.99999977", "0", 0, True),
        ("0.9999997807470927", "2", 0, True),
        ("0.999999786", "2", 4, False),
        ("0.9999999", "0", 4, False),
        ("0.9999999111200134", "0", 4, False),
        ("0.9999999111200135", "0", 4, False),
        ("0.9999999999999999", "0", 4, False),
        ("0.9999999999999999", "65", 2, True)])
    def test_exits_before_sampling_where_the_rule_cannot_converge(
            self, tmp_path, monkeypatch, r, n_max, code, sampled):
        import cuq.fourier
        calls = []
        quadrature = cuq.fourier.quadrature_spectrum
        monkeypatch.setattr(cuq.fourier, "quadrature_spectrum",
                            lambda *a: calls.append(a) or quadrature(*a))
        assert run(["--output-dir", str(tmp_path), "fourier",
                    "--r", r, "--n-max", n_max]) == code
        assert bool(calls) == sampled


class TestConvert:
    def test_forward(self, capsys):
        assert run(["convert", "--from-bloch", "0.945", "179.6322",
                    "0.00264652"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["observables"]["delta_E"] == pytest.approx(0.005293,
                                                              abs=2e-6)
        assert out["damping"] == "oscillatory"

    @pytest.mark.parametrize("r, theta, damping", [
        ("1.0000000000001", "90", "overdamped"),
        ("0.9999999999995", "90", "oscillatory"),
        ("1", "45", "critical")])
    def test_damping_is_decided_on_r_exactly(self, capsys, r, theta,
                                             damping):
        assert run(["convert", "--from-bloch", r, theta, "1"]) == 0
        assert json.loads(capsys.readouterr().out)["damping"] == damping

    def test_negative_numbers_in_exponent_form(self, capsys):
        assert run(["convert", "--from-observables", "0.5", "-9.4e-05",
                    "1.0"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["observables"]["delta_Gamma"] == -9.4e-05
        assert run(["convert", "--from-bloch", "0.5", "-1.2e+02", "1"]) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["bloch"]["theta_eg_deg"] == -120.0

    def test_forward_map_at_huge_r_with_finite_splittings(self, capsys):
        # r^2 = 1e400 is past the float range; r |E| = 1 is not
        assert run(["convert", "--from-bloch", "1e200", "30", "1e-200"]) == 0
        out = json.loads(capsys.readouterr().out)["observables"]
        assert out["delta_E"] == pytest.approx(2e-200 * math.sqrt(0.75),
                                               rel=1e-15)
        assert out["delta_Gamma"] == 4.0

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
                    str(FIT_GOLDEN / "data.csv"), "--omega", "0.8",
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

    def test_directory_as_data_is_data_error(self, tmp_path, capsys):
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(tmp_path), "--omega", "1.0"]) == 3
        assert "Traceback" not in capsys.readouterr().err

    def test_non_utf8_file_is_data_error_naming_it(self, tmp_path, capsys):
        bad = tmp_path / "latin1.csv"
        bad.write_bytes(b"t_ps,asymmetry,sigma\n0.0,0.1,0.1 # \xe9\n")
        assert run(["--output-dir", str(tmp_path), "fit",
                    "--data", str(bad), "--omega", "1.0"]) == 3
        err = capsys.readouterr().err
        assert str(bad) in err and "UTF-8" in err

    def test_tiny_sigma_is_named_overflow_and_writes_no_json(self, tmp_path,
                                                             capsys):
        # chi2 at sigma = 1e-160 is past the largest float; no warning
        ds = synthesize_dataset(0.3, 1.0, 200, 60.0, 1e-3, 1)
        data = tmp_path / "tiny.csv"
        save_dataset(AsymmetryDataset(ds.t, ds.delta, np.full(200, 1e-160),
                                      ds.omega), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "fit", "--data",
                        str(data), "--omega", repr(float(ds.omega))]) == 4
        assert "chi2 overflows" in capsys.readouterr().err
        assert not (tmp_path / "fit.json").exists()

    def test_huge_sigma_leaves_no_usable_ratio(self, tmp_path, capsys):
        # D_0's ratio error, 3e154, squares past the largest float: its r
        # error is inf (null), not an OverflowError, and no ratio is usable
        ds = synthesize_dataset(0.3, 1.0, 200, 60.0, 1e-3, 1)
        data = tmp_path / "huge.csv"
        save_dataset(AsymmetryDataset(ds.t, ds.delta, np.full(200, 1e154),
                                      ds.omega), data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run(["--output-dir", str(tmp_path), "fit", "--data",
                        str(data), "--omega", repr(float(ds.omega)),
                        "--n-harmonics", "3"]) == 0
        assert "all ratios unreliable" in capsys.readouterr().out
        rep = json.loads((tmp_path / "fit.json").read_text())
        assert rep["weighted_r"] is None
        assert rep["r_estimates"][0]["r_err"] is None

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

    def test_unwritable_output_dir_is_data_error(self, tmp_path, capsys):
        # the output directory would sit below a regular file
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert run(["--output-dir", str(blocker / "sub"), "catalogue"]) == 3
        assert str(blocker / "sub") in capsys.readouterr().err


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


def test_overflowing_fit_phase_is_an_overflow_error_naming_it(tmp_path,
                                                              capsys):
    # N omega max|t| past the float range, formed before any cos
    with pytest.raises(OverflowError,
                       match=r"omega = 1e\+200, N = 3, max\|t\| = 1e\+300"):
        design_matrix(np.linspace(0.0, 1e300, 5), 1e200, 3)
    assert design_matrix([], 1e308, 3).shape == (0, 4)
    assert run(["--output-dir", str(tmp_path), "fit", "--data",
                str(FIT_GOLDEN / "data.csv"), "--omega", "1e308",
                "--n-harmonics", "2"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: the phase N omega t overflows")
    assert "omega = 1e+308, N = 2, max|t| = " in err
    assert not any(tmp_path.iterdir())


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


# edge values of the float range and of the models, and random ones
EDGE = st.one_of(
    st.sampled_from([0.0, 5e-324, -5e-324, 1e-300, -1e-300, 1e300, -1e300,
                     math.inf, -math.inf, math.nan, math.nextafter(1.0, 2.0),
                     math.nextafter(1.0, 0.0), 1.0 + 1e-10, 90.0 + 1e-8,
                     90.0 - 1e-8]),
    st.floats(-10.0, 10.0))
_ERRNO_ONLY = re.compile(r"numerical failure: (\(\d+, '[^']*'\)"
                         r"|math (range|domain) error)")


def _arg(x):
    return repr(float(x))


def _argvs():
    b0 = st.one_of(st.sampled_from(["exg", "gamma", "e", "mixed"]),
                   st.lists(EDGE, min_size=3, max_size=3).map(
                       lambda v: ",".join(map(_arg, v))))
    grid = st.lists(EDGE, min_size=1, max_size=3).map(
        lambda v: ",".join(map(_arg, v)))
    # small --t-max values; a range that needs too many rows is a flag error
    t_max = st.one_of(st.sampled_from(["1P", "0.5"]), EDGE.map(_arg))
    simulate = st.tuples(EDGE, EDGE, b0, t_max).map(
        lambda a: ["simulate", "--r", _arg(a[0]), "--theta-eg", _arg(a[1]),
                   "--b0", a[2], "--t-max", a[3]])
    sweep = st.tuples(grid, grid).map(
        lambda a: ["sweep-bmax", "--r-grid", a[0], "--b0-grid", a[1]])
    convert = st.tuples(st.sampled_from(["--from-bloch",
                                         "--from-observables"]),
                        st.lists(EDGE, min_size=3, max_size=3)).map(
        lambda a: ["convert", a[0], *map(_arg, a[1])])
    # within 1e-4 below r = 1 the quadrature takes about 0.6 s to give up,
    # an exit that TestFourier covers
    fourier = st.tuples(EDGE.filter(lambda r: not 0.9999 < r < 1.0),
                        st.integers(-1, 8)).map(
        lambda a: ["fourier", "--r", _arg(a[0]), "--n-max", str(a[1])])
    fit = st.tuples(EDGE, st.integers(-1, 100), st.none() | EDGE).map(
        lambda a: ["fit", "--data", str(FIT_GOLDEN / "data.csv"),
                   "--omega", _arg(a[0]), "--n-harmonics", str(a[1])]
        + ([] if a[2] is None else ["--amplitude", _arg(a[2])]))
    return st.one_of(simulate, sweep, convert, fourier, fit)


@settings(max_examples=150, deadline=None)
@given(_argvs())
# 2 sqrt(1 - r^2)/r in closed_form_cn overflows while omega_hat does not
@example(["fourier", "--r", "1.1125369292536007e-308", "--n-max", "0"])
def test_any_argv_exits_cleanly(argv):
    # in process: a traceback fails the test; argparse exits with 2
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(["--output-dir", tmp] + argv)
        files = [np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
                 for path in Path(tmp).glob("*.csv")] if code == 0 else []
        fit_json = (json.loads((Path(tmp) / "fit.json").read_text())
                    if code == 0 and argv[0] == "fit" else None)
    assert code in (0, 2, 4), (code, err.getvalue())
    assert not _ERRNO_ONLY.fullmatch(err.getvalue().strip()), err.getvalue()
    if code != 0:
        return
    if argv[0] == "convert":
        report = json.loads(out.getvalue())
        values = [*report["observables"].values(), *report["bloch"].values()]
        assert all(math.isfinite(x) for x in values), report
        return
    (table,) = files
    if argv[0] == "fourier":
        # the odd series has no d_0: its n = 0 cell is nan
        assert np.isnan(table[0, 2]), argv
        table[0, 2] = 0.0
    assert np.all(np.isfinite(table)), argv
    if argv[0] == "fit":
        for c in fit_json["coefficients"]:
            p = c["p_value"]
            assert p is None or (math.isfinite(p) and 0.0 <= p <= 1.0), c
    if argv[0] == "simulate":
        # the Gram form rounds a pure |b| up to 2 eps past 1, and the
        # frozen outputs hold such rows
        assert np.all(table[:, 4] <= 1.0 + 4 * sys.float_info.epsilon), argv
    elif argv[0] == "sweep-bmax":
        assert np.all(table[:, 2] <= 1.0), argv


class TestFlagErrors:
    def test_unknown_command(self):
        assert run(["frobnicate"]) == 2

    def test_missing_required_flag(self):
        assert run(["simulate"]) == 2

    def test_seed_flag_is_gone(self, tmp_path):
        # no subcommand draws random numbers
        assert run(["--output-dir", str(tmp_path), "--seed", "1",
                    "catalogue"]) == 2

    @pytest.mark.parametrize("argv, want", [
        (["--format", "json", "simulate", "--r", "0.5"],
         "--format applies to fourier and catalogue; simulate writes CSV"),
        (["--format", "json", "sweep-bmax"],
         "--format applies to fourier and catalogue; sweep-bmax writes CSV"),
        (["--format", "json", "fit", "--data", str(FIT_GOLDEN / "data.csv"),
          "--omega", "1"],
         "--format applies to fourier and catalogue; fit writes fit.json "
         "and residuals.csv only"),
        (["sweep-bmax", "--r-grid", "1:2"], "grid '1:2' must be"),
        (["sweep-bmax", "--r-grid", "0:1:2.5"], "grid '0:1:2.5' must be"),
        (["sweep-bmax", "--b0-grid", ""], "grid '' must be"),
    ], ids=["json-simulate", "json-sweep", "json-fit", "grid-two-fields",
            "grid-fractional-n", "grid-empty"])
    def test_ignored_or_malformed_flag_is_named(self, tmp_path, argv, want,
                                                capsys):
        assert run(["--output-dir", str(tmp_path)] + argv) == 2
        err = capsys.readouterr().err
        assert want in err
        if "grid" in want:
            assert "'lo:hi:n' with an integer n, or comma-separated" in err
        assert not any(tmp_path.iterdir())


def _modules_after(code, package, *args):
    """The modules of `package` loaded after `code` runs in a fresh
    interpreter, with src/ first on the path and args from sys.argv[2]."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); " + code + "; "
            f"print(','.join(m for m in sys.modules if m == {package!r} "
            f"or m.startswith({package + '.'!r})), file=sys.stderr)")
    return subprocess.run([sys.executable, "-c", code, str(src), *args],
                          capture_output=True, text=True,
                          check=True).stderr.strip()


# argvs of the numpy-free path that write no file, so have no golden
CONVERT_ARGVS = [["convert", "--from-bloch", "0.85", "90", "1"],
                 ["convert", "--from-observables", "0.5069", "-0.0007",
                  "1.001"]]
# runs `cuq --output-dir sys.argv[2] sys.argv[3:]` in _modules_after
_RUN_MAIN = ("from cuq.cli import main; "
             "assert main(['--output-dir', *sys.argv[2:]]) == 0")


class TestImport:
    def test_runtime_path_loads_no_scipy(self):
        assert _modules_after("import cuq, cuq.cli", "scipy") == ""

    def test_cold_fit_loads_no_scipy(self, tmp_path):
        # p-values included
        (argv,) = argvs("fit")
        assert _modules_after(_RUN_MAIN, "scipy", str(tmp_path), *argv) == ""
        assert (tmp_path / "fit.json").exists()

    def test_import_cuq_loads_no_numpy(self):
        assert _modules_after("import cuq", "numpy") == ""

    @pytest.mark.parametrize("argv", argvs("catalogue", "sweep-bmax")
                             + CONVERT_ARGVS)
    def test_meson_commands_load_no_numpy(self, tmp_path, argv):
        assert _modules_after(_RUN_MAIN, "numpy", str(tmp_path), *argv) == ""

    @pytest.mark.parametrize("argv", argvs("sweep-bmax"))
    def test_sweep_loads_no_numpy_and_no_meson(self, tmp_path, argv):
        # the peak is a closed form in math, so only cli and _base load
        assert _modules_after(_RUN_MAIN, "numpy", str(tmp_path), *argv) == ""
        assert set(_modules_after(_RUN_MAIN, "cuq", str(tmp_path), *argv)
                   .split(",")) == {"cuq", "cuq.cli", "cuq._base"}

    @pytest.mark.parametrize("argv", argvs("catalogue", "sweep-bmax")
                             + CONVERT_ARGVS)
    def test_numpy_free_commands_load_no_dataclasses(self, tmp_path, argv):
        # the meson maps, their checks and the PDG table are plain floats in
        # _base, so no cold start pays for dataclasses and inspect
        assert _modules_after(_RUN_MAIN, "dataclasses", str(tmp_path),
                              *argv) == ""

    @pytest.mark.parametrize("argv", argvs("fourier", "fit"))
    def test_fourier_and_fit_load_no_integrate(self, tmp_path, argv):
        # the closed forms read the generator from core, not from the DP5
        # oracle's module
        mods = _modules_after(_RUN_MAIN, "cuq", str(tmp_path),
                              *argv).split(",")
        assert "cuq.core" in mods and "cuq.integrate" not in mods

    def test_exports_and_submodules_resolve_on_first_use(self):
        # each name is the object its submodule defines, an unknown name is
        # an AttributeError, as without the lazy loader, and resolving them
        # all loads no scipy
        code = ("import cuq, pkgutil; "
                "subs = [m.name for m in pkgutil.iter_modules(cuq.__path__)]; "
                "mods = [getattr(cuq, m) for m in subs]; "
                "assert [m.__name__ for m in mods] == "
                "['cuq.' + m for m in subs]; "
                "assert all(any(vars(m).get(n) is getattr(cuq, n) "
                "for m in mods) for n in cuq.__all__); "
                "assert not hasattr(cuq, 'no_such_name'); "
                "ns = {}; exec('from cuq import *', ns); "
                "assert sorted(set(ns) - {'__builtins__'}) == cuq.__all__")
        assert _modules_after(code, "scipy") == ""
