"""Benchmark entry point.  Run from the root of a cuq checkout:

    python3 benchmarks/run.py --workload trajectories --seed 1 --seconds 20 --trace 0

Workloads: trajectories, mixing, cli (see BENCHMARK.json for why each).  With
--trace 0 the last line of standard output is a JSON object holding the
end-to-end metrics; with --trace 1, the per-layer metrics.  The line before
it holds the run record (versions, seed, operation counts, failures), which
is also written to benchmarks/out/.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

WORKLOADS = ("trajectories", "mixing", "cli")
# Single-threaded BLAS/OpenMP in this process and every child it starts.
THREAD_PINS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def prepare(root: Path) -> None:
    """Pin threads and put root/src first on the import path, for this
    process and its children.  Must run before numpy is imported."""
    src = root / "src"
    if not (src / "cuq" / "__init__.py").is_file():
        raise SystemExit(f"error: no cuq sources under {src}; run from the "
                         f"root of a cuq checkout")
    for var in THREAD_PINS:
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, str(src))
    import cuq
    if Path(cuq.__file__).resolve().parent != (src / "cuq").resolve():
        raise SystemExit(f"error: imported cuq from {cuq.__file__}, not {src}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="measure whole passes while another fits in this "
                             "time (at least one pass)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    prepare(root)
    import harness

    result = harness.execute(root, args.workload, args.seed, args.seconds,
                             bool(args.trace))
    record = result.pop("record")
    out = Path(__file__).resolve().parent / "out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"record": record, **result}, indent=1), encoding="utf-8")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
