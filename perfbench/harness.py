"""Timed passes, the traced run, set-up time, and the result record.

One benchmark run drives one workload in this process: an untimed warm-up
pass, then timed passes until the requested seconds are used (at least
``MIN_PASSES``).  Every pass is checked right after it ends, outside the
timed region.  A traced run alternates untraced and traced passes, so the
tracing overhead is measured against passes made under the same conditions.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

import workloads
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
METRICS = json.loads((BENCH_DIR / "metrics.json").read_text())
UNITS = {m["name"]: m["unit"] for m in METRICS["end_to_end"] + METRICS["per_layer"]}

MIN_PASSES = 3
MIN_TRACED_PASSES = 2
SETUP_REPEATS = 5
# what a command-line user pays before the first result: interpreter start,
# imports, and the first LAPACK and sympy calls
SETUP_CODE = """
import numpy, sympy, slnapprox
a = numpy.arange(1.0, 65.0).reshape(8, 8)
numpy.linalg.qr(a, mode="complete")
numpy.linalg.eigh(a + a.T)
sympy.isprime(2**61 - 1)
sympy.factorint(2**32 + 1)
"""


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)


def load_references() -> dict:
    return json.loads((BENCH_DIR / "references.json").read_text())


def run_pass(ops) -> tuple[float, list]:
    """Call every operation once; return the wall time and the outputs."""
    outputs = []
    t0 = time.perf_counter()
    for op in ops:
        try:
            outputs.append(op.call())
        except Exception as exc:  # counted as a failed operation by check()
            outputs.append(exc)
    return time.perf_counter() - t0, outputs


def check_pass(ops, outputs, refs: dict, tally: Tally) -> int:
    """Check a pass's outputs; return the points its passing operations made."""
    points = 0
    for op, out in zip(ops, outputs):
        tally.attempted += 1
        if workloads.check(op, out, refs):
            points += op.points(out)
        else:
            tally.failed += 1
            tally.failures.append(f"{op.key}: {out!r}"[:300])
    return points


def measure_setup(repeats: int = SETUP_REPEATS) -> float:
    """Median wall time of a fresh interpreter doing SETUP_CODE."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        # no timeout: with one, the wait polls and rounds the time to 50 ms
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def measure(ops, refs: dict, seconds: float, tally: Tally) -> dict:
    """End-to-end metrics of untraced passes.

    Pass times are averaged, not their median taken: the machine the
    benchmark was sized on switches between a fast and a slow speed every
    10-30 s, so the pass times of one run fall into two groups, and the
    median jumps between them while the mean follows the share of each.
    """
    check_pass(ops, run_pass(ops)[1], refs, tally)  # warm-up
    times, points = [], 0
    start = time.perf_counter()
    # no pass starts that would end past the requested seconds
    while len(times) < MIN_PASSES or time.perf_counter() - start + times[-1] <= seconds:
        dt, outputs = run_pass(ops)
        points += check_pass(ops, outputs, refs, tally)
        times.append(dt)
    return {
        "wall_s": statistics.fmean(times),
        "points_per_s": points / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "pass_times_s": times,
    }


def measure_traced(ops, refs: dict, seconds: float, tally: Tally) -> dict:
    """Per-layer metrics: medians over traced passes, plus the trace overhead."""
    tracer = Tracer()
    check_pass(ops, run_pass(ops)[1], refs, tally)  # warm-up
    plain, traced, layers = [], [], []
    start = time.perf_counter()
    while (
        len(traced) < MIN_TRACED_PASSES
        or time.perf_counter() - start + plain[-1] + traced[-1] <= seconds
    ):
        dt, outputs = run_pass(ops)
        check_pass(ops, outputs, refs, tally)
        plain.append(dt)
        tracer.reset()
        with tracer:
            dt, outputs = run_pass(ops)
        layers.append(tracer.pass_metrics())
        check_pass(ops, outputs, refs, tally)
        traced.append(dt)
    out = {}
    for name in layers[0]:
        values = [m[name] for m in layers]
        out[name] = None if None in values else statistics.median_low(values)
    out["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    out["pass_times_s"] = traced
    return out


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "slnapprox").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def _commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=30,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def environment(seed: int, blas_threads: int) -> dict:
    import numpy
    import sympy

    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = None
    return {
        "commit": _commit(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "sympy": sympy.__version__,
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": blas_threads,
        "seed": seed,
    }


def bench(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    size: str,
    workdir: str,
    refs: dict | None = None,
    setup_repeats: int = SETUP_REPEATS,
) -> tuple[dict, dict, Tally]:
    """Run one workload; return (metrics, other measurements, tally)."""
    refs = load_references() if refs is None else refs
    ops = workloads.WORKLOADS[workload].ops(seed, size, workdir)
    tally = Tally()
    if trace:
        names = [m["name"] for m in METRICS["per_layer"]]
        got = measure_traced(ops, refs, seconds, tally)
    else:
        names = [m["name"] for m in METRICS["end_to_end"]]
        got = measure(ops, refs, seconds, tally)
        got["setup_s"] = measure_setup(setup_repeats)
    metrics = {name: {"value": got.pop(name), "unit": UNITS[name]} for name in names}
    return metrics, got, tally
