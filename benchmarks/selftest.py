"""Self-test of the benchmark, run from the root of a cuq checkout:

    python3 benchmarks/selftest.py

Runs every workload at its smallest size (one block), untraced and traced,
prints the end-to-end metrics by name and unit, and asserts that every
metric BENCHMARK.json names is emitted with its unit and that every output
check passes.  Then it corrupts one reference value per workload and asserts
that the corruption shows up as failed operations and a lower ok_frac, which
proves the checks are live.  Exits 1 on any problem.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import run

SMALLEST = {"trajectories": 1, "mixing": 1, "cli": 1}


def _corruptions(reference):
    """workload -> (reference attribute, corrupted replacement)."""
    path = reference.bloch_path
    meson = reference.meson_observables

    def shifted_path(*args):
        return path(*args) + 1e-3

    def scaled_observables(*args):
        return tuple(x * (1.0 + 1e-6) for x in meson(*args))

    return {"trajectories": ("bloch_path", shifted_path),
            "mixing": ("meson_observables", scaled_observables),
            "cli": ("meson_observables", scaled_observables)}


def main() -> int:
    root = Path.cwd()
    run.prepare(root)
    import harness
    import reference

    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for workload in run.WORKLOADS:
        for traced, key in ((False, "end_to_end"), (True, "per_layer")):
            res = harness.execute(root, workload, 1, 1.0, traced, SMALLEST)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{workload} {key}: metrics {sorted(got)} "
                                f"differ from {sorted(want)}")
            if not res["correct"]:
                problems.append(f"{workload} {key}: failures "
                                f"{res['record']['failures']}")
            if not traced:
                clean = res
                print(f"{workload}: {res['attempted']} operations, "
                      f"{res['failed']} failed")
                for name, m in res["metrics"].items():
                    print(f"  {name:12s} {m['value']:12.6g} {m['unit']}")

        attr, corrupted = _corruptions(reference)[workload]
        original = getattr(reference, attr)
        setattr(reference, attr, corrupted)
        try:
            bad = harness.execute(root, workload, 1, 1.0, False, SMALLEST)
        finally:
            setattr(reference, attr, original)
        ok_clean = clean["metrics"]["ok_frac"]["value"]
        ok_bad = bad["metrics"]["ok_frac"]["value"]
        print(f"  corrupted reference.{attr}: {bad['failed']} failed, "
              f"ok_frac {ok_clean:.4g} -> {ok_bad:.4g}")
        if bad["failed"] == 0 or bad["correct"] or not ok_bad < ok_clean:
            problems.append(f"{workload}: corrupting reference.{attr} went "
                            f"unnoticed")

    for problem in problems:
        print(f"PROBLEM: {problem}", file=sys.stderr)
    print("selftest", "failed" if problems else "passed")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
