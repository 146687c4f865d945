"""Check that two traced runs at the same seed give identical work counts.

    python3 perfbench/check_counts.py [--seed 7]

Timings on a small shared machine are noisy, so the work counts are the
main signal when two commits are compared; this only holds if they repeat
exactly.  Every workload in BENCHMARK.json is run twice with ``--trace 1``
and one short pass, and every count metric (every per-layer metric that is
not a time or a ratio of times) must match.  Exits 1 on any mismatch.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMED = ("quadrature.kernel_calls", "quadrature.panels_accepted",
         "quadrature.time_nodes", "quadrature.max_band", "spectral.grid_points")


def traced_counts(workload: str, seed: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    if proc.returncode != 0:
        sys.exit(f"{workload}: traced run failed\n{proc.stderr}")
    result = json.loads(proc.stdout.splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: traced run reported incorrect results\n{proc.stderr}")
    return {k: v["value"] for k, v in result["metrics"].items()
            if v["unit"] in ("count", "B")}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    bad = 0
    for workload in (w["name"] for w in spec["workloads"]):
        first = traced_counts(workload, args.seed)
        second = traced_counts(workload, args.seed)
        missing = [k for k in NAMED if k not in first]
        if missing:
            sys.exit(f"{workload}: counts {missing} are not reported")
        diff = {k: (first[k], second[k]) for k in first if first[k] != second[k]}
        named = ", ".join(f"{k}={first[k]}" for k in NAMED)
        if diff:
            bad += 1
            print(f"FAIL {workload}: counts differ between runs: {diff}")
        else:
            print(f"ok   {workload}: {len(first)} counts repeat ({named})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
