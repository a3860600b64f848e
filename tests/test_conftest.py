"""A failing property reports its example, and the session goes on."""

import os
import subprocess
import sys
from pathlib import Path

TESTS = Path(__file__).resolve().parent

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=20, database=None)
@given(st.integers(0, 10))
def test_fails(n):
    assert n < 5


def test_runs_after_it():
    pass
'''


def test_failing_property_prints_its_example_and_the_next_test_runs(
        tmp_path):
    # the suite's own settings (pyproject.toml, warnings as errors) with
    # tests/conftest.py loaded as a plugin
    path = tmp_path / "test_property.py"
    path.write_text(FAILING_THEN_PASSING, encoding="utf-8")
    out = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(TESTS.parent / "pyproject.toml"), "--rootdir",
         str(tmp_path), "-p", "conftest", str(path)],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(TESTS)})
    assert "INTERNALERROR" not in out.stdout + out.stderr
    assert "Falsifying example: test_fails(" in out.stdout
    assert "1 failed, 1 passed" in out.stdout
