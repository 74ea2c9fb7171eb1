"""Record the reference output of every workload input into references.json.

    python3 perfbench/make_references.py

Run it only on a commit whose outputs are trusted: the benchmark counts every
later deviation from these values as a failed operation.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import workloads  # noqa: E402  (needs the path above)


def main() -> int:
    workdir = tempfile.mkdtemp(prefix=".work-", dir=BENCH_DIR)
    try:
        refs = workloads.make_references(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = BENCH_DIR / "references.json"
    out.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    print(f"{len(refs)} references written to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
