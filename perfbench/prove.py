"""Repeat benchmark runs over seeds and report the spread of every metric.

    python3 perfbench/prove.py --seeds 1-10 --out set1.json
    python3 perfbench/prove.py --seeds 1-10 --out set2.json --against set1.json

For each workload and end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of the
median.  A spread must stay within the metric's bound, and should stay
below a third of it.  With ``--against``, the medians are
also compared with an earlier set: none may be worse by more than its bound.
Runs are made one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if res.returncode != 0:
        raise RuntimeError(f"{cmd} exited {res.returncode}: {res.stderr[-2000:]}")
    *_, info, result = res.stdout.strip().splitlines()
    return dict(json.loads(result), info=json.loads(info)["info"])


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="JSON file for the runs and summary")
    parser.add_argument("--against", help="an earlier --out file to compare medians with")
    args = parser.parse_args(argv)

    metrics = SPEC["per_layer"] if args.trace else SPEC["end_to_end"]
    earlier = json.loads(Path(args.against).read_text())["summary"] if args.against else {}
    runs, summary, ok = {}, {}, True
    for workload in args.workloads.split(","):
        results = []
        for seed in args.seeds:
            res = run_once(workload, seed, SPEC["run_seconds"], args.trace)
            ok &= res["correct"]
            results.append(res)
            print(f"{workload} seed={seed} correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}", flush=True)
        runs[workload] = results
        summary[workload] = {}
        for m in metrics:
            values = [r["metrics"][m["name"]]["value"] for r in results]
            if args.trace or None in values:
                summary[workload][m["name"]] = {"values": values}
                continue
            med, iqr = spread(values)
            line = {"median": med, "spread": iqr, "values": values}
            verdict = "ok"
            if iqr > m["bound"]:
                verdict, ok = "SPREAD OVER BOUND", False
            elif iqr > m["bound"] / 3:
                verdict = "spread over bound/3"
            before = earlier.get(workload, {}).get(m["name"])
            if before:
                sign = 1 if m["better"] == "lower" else -1
                change = sign * (med - before["median"]) / before["median"]
                line["worse_than_earlier"] = change
                if change > m["bound"]:
                    verdict, ok = "MEDIAN WORSE THAN EARLIER SET", False
            summary[workload][m["name"]] = line
            print(f"  {m['name']:14s} median {med:12.6g} {m['unit']:5s} "
                  f"spread {iqr:7.4f} bound {m['bound']}  {verdict}", flush=True)
    Path(args.out).write_text(json.dumps({"summary": summary, "runs": runs}, indent=1))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
