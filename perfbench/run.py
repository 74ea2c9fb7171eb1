"""Benchmark of the slnapprox pipeline, driven from outside the package.

    python3 perfbench/run.py --workload witness_sweep --seed 1 --seconds 45 --trace 0

``--trace 0`` reports the end-to-end metrics of untraced passes, ``--trace 1``
the per-layer metrics of a traced run; ``metrics.json`` names and explains
both.  The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
give the same numbers for a reader and the environment of the run.
``--size tiny`` runs a small version of the workload in seconds.

The package is imported from ``src/`` of the checkout this file sits in.
BLAS threads are fixed in this process's environment before numpy loads.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
WORKLOAD_NAMES = ("witness_sweep", "cli_pipeline")
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "slnapprox" / "__init__.py").is_file():
        print(f"perfbench: no slnapprox package under {SRC}", file=sys.stderr)
        return 2
    blas_threads = min(BLAS_THREADS, len(os.sched_getaffinity(0)))
    for var in BLAS_VARS:
        os.environ[var] = str(blas_threads)
    sys.path.insert(0, str(SRC))
    import harness  # imports numpy, after the thread count is set

    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        metrics, extra, tally = harness.bench(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, workdir
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    mode = "traced" if args.trace else "untraced"
    print(f"perfbench {args.workload} seed={args.seed} size={args.size} "
          f"{mode} passes={len(extra['pass_times_s'])}")
    for name, m in metrics.items():
        value = "null" if m["value"] is None else f"{m['value']:.6g}"
        print(f"  {name:40s} {value:>14s} {m['unit']}")
    rate = tally.failed / tally.attempted
    print(f"  {'fail_rate':40s} {rate:>14.6g} ({tally.failed}/{tally.attempted})")
    for line in tally.failures[:10]:
        print(f"  failed: {line}")
    info = harness.environment(args.seed, blas_threads)
    info.update(workload=args.workload, size=args.size, trace=args.trace,
                fail_rate=rate, **extra)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
