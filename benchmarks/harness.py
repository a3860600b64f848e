"""Measurement: warm-up, timed passes, output checks, metrics and traced runs.

A run times whole passes of the workload's fixed operation list, one
operation at a time (a closed loop with one client).  It repeats the pass
while another fits in --seconds and always completes at least one.  Set-up
(interpreter start plus `import cuq`), input generation, warm-up and the
output checks are outside the timed region.

Times are reported at a reference machine speed.  The host's speed swings by
up to 40% between 10-second windows on a shared machine, for the program and
for any fixed code alike.  So the run times a fixed calibration kernel every
few operations and scales each operation's wall time by the
kernel's reference time over its time around that operation.  In-process
operations use a CPU kernel; cold processes (the cli workload and set-up)
use a fresh interpreter importing numpy.  A change to cuq moves the scaled
times; a change in host speed hardly does.  The record keeps the unscaled
figures too.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import os
import platform
import resource
import shutil
import signal
import subprocess
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

import numpy as np
import scipy

import workloads
from tracer import BY_NAME_NOTE, Tracer

# Blocks per pass: about 20 s of operations for trajectories and mixing on a
# 2-core x86 VM; cli's 24 cold processes (about 30 s) are as few as lets
# op_tail_ms sit above the median.
BLOCKS = {"trajectories": 10, "mixing": 100, "cli": 2}
SETUP_REPEATS = 3
RUN_BUDGET_S = 150.0  # ops not started by then count as failed
TAIL_BEYOND = 10
# The kernels' times at the reference speed: about their times on the 2-core
# VM the pass sizes were chosen on.
CPU_REFERENCE_S = 1e-3
PROCESS_REFERENCE_S = 0.15


def cpu_kernel() -> float:
    """Best of three timings of fixed CPU-bound work: a Python loop and small
    numpy calls, the mix cuq's integrator steps are made of."""
    best = float("inf")
    for _ in range(3):
        t0 = perf_counter()
        s = 0
        for i in range(2000):
            s += i * i
        x = np.ones(3)
        for _ in range(40):
            x = 0.5 * np.cross(x, x + 1.0) + x
        best = min(best, perf_counter() - t0)
    return best


def process_kernel() -> float:
    """Wall time of a fresh interpreter importing numpy: the start-up work
    (exec, loading shared objects, unmarshalling) a cold cuq process does."""
    t0 = perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True,
                   timeout=60)
    return perf_counter() - t0


class SpeedClock:
    """Samples of a calibration kernel over a run, to rescale wall times to
    the speed at which the kernel takes `reference_s`."""

    def __init__(self, kernel, reference_s: float, every_s: float):
        self.kernel = kernel
        self.reference_s = reference_s
        self.every_s = every_s
        self.times: list[float] = []
        self.values: list[float] = []

    def sample(self) -> None:
        self.values.append(self.kernel())
        self.times.append(perf_counter())

    def sample_if_due(self) -> None:
        if not self.times or perf_counter() - self.times[-1] > self.every_s:
            self.sample()

    def scaled(self, t0: float, t1: float) -> float:
        """t1 - t0 at the reference speed, from the last sample before t0
        and the first after t1 (take a sample after the last span)."""
        before = max(bisect.bisect_right(self.times, t0) - 1, 0)
        after = min(bisect.bisect_left(self.times, t1), len(self.times) - 1)
        kernel = 0.5 * (self.values[before] + self.values[after])
        return (t1 - t0) * self.reference_s / kernel


class OpTimeout(BaseException):
    """An operation ran past its limit.  A BaseException, so that cuq's own
    `except Exception` handlers cannot swallow it."""


@contextmanager
def time_limit(seconds: float):
    def expire(signum, frame):
        raise OpTimeout(f"no result within {seconds:.0f} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


@dataclass
class Result:
    op: workloads.Op
    start: float | None  # None: not attempted within the run budget
    end: float | None
    output: object = None
    error: BaseException | None = None


@dataclass
class Pass:
    results: list[Result]
    wall_s: float           # unscaled, calibration included
    op_s: list[float]       # scaled time of each attempted operation


class Run:
    """State of one benchmark invocation: paths, environment, deadline."""

    def __init__(self, root: Path, workload: str, seed: int, blocks: dict):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.blocks = blocks
        self.out = Path(__file__).resolve().parent / "out"
        self.work = self.out / f"work-{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ)
        self.deadline = perf_counter() + RUN_BUDGET_S
        self.cpu_clock = SpeedClock(cpu_kernel, CPU_REFERENCE_S, every_s=0.2)
        self.process_clock = SpeedClock(process_kernel, PROCESS_REFERENCE_S,
                                        every_s=2.0)
        self.check_s = 0.0

    def build(self, name: str, blocks: int, cold: bool, tag: str):
        if name == "trajectories":
            return workloads.trajectories(self.seed, blocks)
        if name == "mixing":
            return workloads.mixing(self.seed, blocks)
        mode = "cold" if cold else "inproc"
        return workloads.cli_session(self.seed, blocks,
                                     self.work / f"{tag}-{mode}", cold, self.env)

    def run_ops(self, ops) -> Pass:
        clock = self.process_clock if ops and ops[0].cold else self.cpu_clock
        results = []
        t_pass = perf_counter()
        for op in ops:
            clock.sample_if_due()
            left = self.deadline - perf_counter()
            if left <= 0.0:
                results.append(Result(op, None, None, error=OpTimeout(
                    "run time budget exhausted before the operation started")))
                continue
            t0 = perf_counter()
            try:
                with time_limit(min(op.limit_s, max(left, 1.0))):
                    out = op.call()
                results.append(Result(op, t0, perf_counter(), out))
            except (Exception, OpTimeout) as exc:
                results.append(Result(op, t0, perf_counter(), error=exc))
        clock.sample()
        wall = perf_counter() - t_pass
        return Pass(results, wall, [clock.scaled(r.start, r.end)
                                    for r in results if r.start is not None])

    def evaluate(self, results) -> dict:
        """Check every output.  Returns the outcome counts and failures."""
        t0 = perf_counter()
        tally = {"ok": 0, "rejected": 0, "failed": 0, "failures": []}
        for res in results:
            if res.error is not None:
                status = "rejected" if res.op.rejects(res.error) else "failed"
                reason = f"{type(res.error).__name__}: {res.error}"
            else:
                try:
                    res.op.check(res.output)
                    status, reason = "ok", ""
                except Exception as exc:  # a check that cannot parse counts too
                    status, reason = "failed", f"{type(exc).__name__}: {exc}"
            tally[status] += 1
            if status == "failed" and len(tally["failures"]) < 20:
                tally["failures"].append(f"{res.op.kind}: {reason}")
        self.check_s += perf_counter() - t0
        return tally

    def setup_seconds(self) -> tuple[float, float]:
        """Median (scaled, unscaled) wall time of a fresh interpreter
        completing `import cuq`."""
        scaled, raw = [], []
        clock = self.process_clock
        clock.sample()
        for _ in range(SETUP_REPEATS):
            t0 = perf_counter()
            subprocess.run([sys.executable, "-c", "import cuq"], env=self.env,
                           check=True, timeout=120)
            t1 = perf_counter()
            clock.sample()
            scaled.append(clock.scaled(t0, t1))
            raw.append(t1 - t0)
        return median(scaled), median(raw)

    def import_breakdown(self) -> dict[str, float]:
        """Cumulative load times during `import cuq` in a fresh interpreter,
        in load order (a dependency loaded earlier is not counted again).  A
        module that is not loaded reads 0."""
        probe = Path(__file__).resolve().with_name("import_probe.py")
        proc = subprocess.run([sys.executable, str(probe)], env=self.env,
                              capture_output=True, text=True, check=True,
                              timeout=120)
        cumulative = json.loads(proc.stdout)
        return {f"import.{label}_s": cumulative.get(module, 0.0)
                for label, module in (("cuq", "cuq"),
                                      ("scipy_stats", "scipy.stats"),
                                      ("scipy_integrate", "scipy.integrate"),
                                      ("scipy_optimize", "scipy.optimize"))}


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest order statistic with at least
    TAIL_BEYOND samples above it; the maximum for smaller samples."""
    s = sorted(times)
    if len(s) <= TAIL_BEYOND:
        return s[-1], 100.0
    k = len(s) - TAIL_BEYOND - 1
    return s[k], 100.0 * (k + 1) / len(s)


def measure(run: Run, seconds: float) -> tuple[dict, dict, dict]:
    """Untraced run: end-to-end metrics, outcome tally and record fields."""
    name = run.workload
    setup_s, setup_raw_s = run.setup_seconds()
    # Warm-up: the first call of each kind is slow (the first evolve takes
    # about twice as long); for cli one cold start warms the file cache.
    warm = run.build(name, 1, cold=True, tag="warm")
    run.run_ops(warm[:1] if name == "cli"
                else list({op.kind: op for op in warm}.values()))

    ops = run.build(name, run.blocks[name], cold=True, tag="pass")
    passes: list[Pass] = []
    while not passes or sum(p.wall_s for p in passes) + passes[-1].wall_s <= seconds:
        passes.append(run.run_ops(ops))
    results = [r for p in passes for r in p.results]
    if name == "cli":
        rss_kb = max((r.output.peak_rss_kb for r in results
                      if isinstance(r.output, workloads.CliResult)
                      and r.output.peak_rss_kb is not None), default=0)
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    tally = run.evaluate(results)
    times = [t for p in passes for t in p.op_s]
    raw = [r.end - r.start for r in results if r.start is not None]
    tails = [tail(p.op_s) for p in passes]
    metrics = {
        "ops_per_s": len(results) / sum(times),
        "op_p50_ms": 1e3 * median(times),
        "op_tail_ms": 1e3 * median(t for t, _ in tails),
        "ok_frac": tally["ok"] / len(results),
        "setup_s": setup_s,
        "peak_rss_mb": rss_kb * 1024 / 1e6,
    }
    record = {"operations_per_pass": len(ops), "passes": len(passes),
              "pass_wall_s": [p.wall_s for p in passes],
              "op_tail_percentile": tails[0][1],
              "op_tail_samples_per_pass": len(ops),
              "setup_repeats": SETUP_REPEATS,
              "cpu_kernel_median_s": median(run.cpu_clock.values or [0.0]),
              "process_kernel_median_s": median(run.process_clock.values),
              "unscaled": {"ops_per_s": len(results) / sum(raw),
                           "op_p50_ms": 1e3 * median(raw),
                           "setup_s": setup_raw_s}}
    return metrics, tally, record


def trace(run: Run) -> tuple[dict, dict, dict]:
    """Traced run: per-layer metrics.  The workload's pass runs once untraced
    and once traced; then, traced, one block of each other workload, so every
    layer is measured on every workload; then one cold CLI session for the
    per-subcommand wall times.  CLI passes run in-process here."""
    name = run.workload
    imports = run.import_breakdown()
    run.run_ops(run.build(name, 1, cold=False, tag="warm"))
    untraced = run.run_ops(run.build(name, run.blocks[name], cold=False,
                                     tag="untraced"))
    tracer = Tracer()
    traced_ops = run.build(name, run.blocks[name], cold=False, tag="traced")
    others = [op for other in BLOCKS if other != name
              for op in run.build(other, 1, cold=False, tag="traced")]
    tracer.install()
    try:
        traced = run.run_ops(traced_ops)
        traced_others = run.run_ops(others)
    finally:
        tracer.uninstall()
    cold = run.run_ops(run.build("cli", 1, cold=True, tag="session"))
    traced_results = traced.results + traced_others.results
    tally = run.evaluate(untraced.results + traced_results + cold.results)

    m = tracer.layer_metrics()
    m.update(imports)
    for sub in workloads.SUBCOMMANDS:
        walls = [r.end - r.start for r in cold.results
                 if r.op.kind == f"cli.{sub}" and r.start is not None]
        m[f"cli.{sub}.wall_s"] = median(walls) if walls else 0.0
    cli_out = [r.output for r in traced_results
               if isinstance(r.output, workloads.CliResult)]
    m["cli.bytes_written"] = sum(
        len(res.stdout.encode()) + sum(f.stat().st_size
                                       for f in res.outdir.iterdir())
        for res in cli_out)
    acc = m.get("integrate.evolve.steps_accepted", 0)
    rej = m.get("integrate.evolve.steps_rejected", 0)
    m["integrate.evolve.accept_ratio"] = acc / (acc + rej) if acc + rej else 0.0
    fev = m.get("core.vector_field.calls", 0)
    m["core.vector_field.us_per_call"] = (
        1e6 * m["integrate.evolve.busy_s"] / fev if fev else 0.0)
    evals = sum(r.op.tally.get("signal_evals", 0) for r in traced_results)
    coeffs = sum(r.op.tally.get("coefficients", 0) for r in traced_results)
    m["fourier.quadrature_spectrum.signal_evals"] = evals
    m["fourier.quadrature_spectrum.evals_per_coeff"] = (
        evals / coeffs if coeffs else 0.0)
    m["bench.check_s"] = run.check_s
    m["bench.trace_overhead_frac"] = sum(traced.op_s) / sum(untraced.op_s) - 1.0

    run.out.mkdir(parents=True, exist_ok=True)
    spans = run.out / f"spans-{name}-{run.seed}.npz"
    tracer.save(spans)
    record = {"spans_file": str(spans.relative_to(run.root)),
              "spans": len(tracer.start),
              "untraced_wall_s": untraced.wall_s, "traced_wall_s": traced.wall_s,
              "tracing_note": BY_NAME_NOTE,
              "derived": ["core.vector_field.us_per_call = "
                          "integrate.evolve.busy_s / core.vector_field.calls",
                          "bench.trace_overhead_frac uses speed-scaled "
                          "operation times of the two passes"]}
    return m, tally, record


def environment(root: Path) -> dict:
    sha = None
    if (root / ".git").exists():  # a source export has no history
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                 capture_output=True, text=True,
                                 timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return {"git_sha": sha, "src_sha256": digest.hexdigest(),
            "nproc": os.cpu_count(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "machine": platform.machine()}


def execute(root: Path, workload: str, seed: int, seconds: float, traced: bool,
            blocks: dict | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line,
    with the run record under "record"."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    run = Run(root, workload, seed, blocks or BLOCKS)
    try:
        if traced:
            values, tally, record = trace(run)
        else:
            values, tally, record = measure(run, seconds)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)
    wanted = spec["per_layer" if traced else "end_to_end"]
    # A layer a run never called has no spans, so its counts read 0.
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]}
               for m in wanted}
    attempted = tally["ok"] + tally["rejected"] + tally["failed"]
    record.update(environment(root), workload=workload, seed=seed,
                  seconds=seconds, trace=int(traced), blocks=run.blocks[workload],
                  ok=tally["ok"], rejected=tally["rejected"],
                  failures=tally["failures"])
    return {"correct": tally["failed"] == 0, "attempted": attempted,
            "failed": tally["failed"], "metrics": metrics, "record": record}
