"""The names a traced benchmark run patches must exist in the package."""

import runpy
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_tracer_targets_resolve():
    # run_path compiles the source in memory: nothing is written to benchmarks/
    targets = runpy.run_path(str(TRACER))["TARGETS"]
    missing = [f"{prefix}.{attr}" for prefix, owner, attr, _ in targets
               if not callable(getattr(owner, attr, None))]
    assert missing == []
