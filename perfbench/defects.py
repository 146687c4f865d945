"""Reproduce the known defects recorded in perfbench/baseline.json.

    python3 perfbench/defects.py [--seed 7]

1. ``verify_remainder_decay`` compares ``tans[0] == 0.0`` exactly.  A
   radially symmetric n = 2 datum has no tangential gradient, so its
   tangential series is roundoff only, and the experiment FAILs on noise.
2. The harness's default thread pool is not faster than one thread on the
   cli-mix config: the experiments are small numpy calls that hold the GIL.
   Worse, an experiment whose numpy calls release the GIL (identity-n2)
   waits for it again after each call while the other thread runs Python
   code, so in the pool it takes about ten times its one-thread wall time.

The benchmark workloads do not include case 1, because the benchmark
contract requires workloads on which no operation fails; this script keeps
it visible.  Exits 0 and prints what it measured; it asserts nothing.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from run import OUT, Lab, Timer
from workloads import CliMix

PAIRS = 3  # alternating one-thread and default-pool passes


def remainder_decay_defect(lab):
    f = lab.model.packet_sum([lab.model.packet(1.0, 1.0, [0.0, 0.0])])
    start = time.perf_counter()
    rep = lab.limits.verify_remainder_decay(
        f, lab.weights.make_psi_k(2), [4.0, 64.0], decay_ratio=0.25)
    print(f"remainder-decay, radially symmetric n = 2 datum, bump-k2, R = 4, 64: "
          f"{'PASS' if rep.passed else 'FAIL'}; tangential {rep.lhs.tolist()}; "
          f"bilaplacian {rep.rhs.tolist()} ({time.perf_counter() - start:.1f} s)")


def thread_pool_defect(lab, seed):
    wl = CliMix(lab, seed, str(OUT / "defects"))
    walls = {1: [], None: []}
    tasks = {1: Timer(time.perf_counter), None: Timer(time.perf_counter)}
    try:
        wl.run_pass(Timer(), threads=1)  # warm-up and CSV reference
        for _ in range(PAIRS):
            for threads in (1, None):
                walls[threads].append(wl.run_pass(tasks[threads], threads=threads)[0])
    finally:
        wl.close()
    print(f"cli-mix seed {seed}: pass wall one thread {statistics.median(walls[1]):.3f} s, "
          f"default pool {statistics.median(walls[None]):.3f} s "
          f"(medians of {PAIRS} alternating passes)")
    for name in ("identity-n2", "flux-n3"):
        alone, pooled = ([s for n, s in tasks[t].samples if n == name] for t in (1, None))
        print(f"  {name} wall: one thread {statistics.median(alone):.3f} s, "
              f"default pool {statistics.median(pooled):.3f} s (each pass: {pooled})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    lab = Lab()
    remainder_decay_defect(lab)
    thread_pool_defect(lab, args.seed)
    return 0


if __name__ == "__main__":
    sys.exit(main())
