"""The golden runs of the `cuq` command line, in one table.

Each entry is one argv, given after `--output-dir`, and the files that
run must write there byte for byte, as {file written: golden file}.  The
goldens are output files of an earlier release.  This table is the one
place their argvs are written: the frozen-output test, the mpmath bounds
on the `simulate` goldens and the import tests read them from here, so a
re-baseline edits this table alone.

A data module, not a test module: pytest does not collect it, and it
imports only pathlib, so the tests that run without scipy or mpmath can
read it.
"""

from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"
CLI_GOLDEN = DATA / "cli_golden"
FIT_GOLDEN = DATA / "fit_golden"

GOLDEN_RUNS = [
    (["simulate", "--r", "0.85"],
     {"trajectory.csv": CLI_GOLDEN / "sim_r085.csv"}),
    (["simulate", "--r", "1", "--b0", "mixed", "--t-max", "60"],
     {"trajectory.csv": CLI_GOLDEN / "sim_r1_mixed.csv"}),
    (["simulate", "--r", "2.5", "--theta-eg", "37", "--b0", "0.3,-0.2,0.1",
      "--t-max", "40"],
     {"trajectory.csv": CLI_GOLDEN / "sim_r25_37.csv"}),
    (["simulate", "--r", "0.25", "--theta-eg", "180", "--b0=-0.6,0,0.8",
      "--t-max", "100"],
     {"trajectory.csv": CLI_GOLDEN / "sim_r025_180.csv"}),
    (["sweep-bmax"], {"bmax.csv": CLI_GOLDEN / "sweep_default.csv"}),
    (["sweep-bmax", "--r-grid", "1:30:60", "--b0-grid", "0:1:11"],
     {"bmax.csv": CLI_GOLDEN / "sweep_grid.csv"}),
    (["fourier", "--r", "0.85", "--n-max", "6"],
     {"spectrum.csv": CLI_GOLDEN / "spectrum.csv"}),
    (["--format", "json", "fourier", "--r", "0.3"],
     {"spectrum.json": CLI_GOLDEN / "spectrum.json"}),
    (["catalogue"], {"catalogue.csv": CLI_GOLDEN / "catalogue.csv"}),
    (["--format", "json", "catalogue"],
     {"catalogue.json": CLI_GOLDEN / "catalogue.json"}),
    # many nodes per spectrum: the path the sampled projections take
    (["--format", "json", "fourier", "--r", "0.99", "--n-max", "20"],
     {"spectrum.json": CLI_GOLDEN / "spectrum_r099_n20.json"}),
    # a fixed dataset, p-values and the effective-r correction included
    (["fit", "--data", str(FIT_GOLDEN / "data.csv"), "--omega", "0.8",
      "--n-harmonics", "3", "--amplitude", "0.9"],
     {"fit.json": FIT_GOLDEN / "fit.json",
      "residuals.csv": FIT_GOLDEN / "residuals.csv"}),
]


def command(argv: list[str]) -> str:
    """The subcommand of a golden argv, past the global --format flag."""
    return argv[2] if argv[0] == "--format" else argv[0]


def argvs(*commands: str) -> list[list[str]]:
    """The argvs of the golden runs of these subcommands, in table order."""
    return [argv for argv, _ in GOLDEN_RUNS if command(argv) in commands]
