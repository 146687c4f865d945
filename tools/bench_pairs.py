"""Alternating parent/change pairs of the benchmark, written to BENCH_<name>.json.

    python3 tools/bench_pairs.py --parent PARENT --name batched_sweep \\
        [--workload finite-identity ...] [--seed N]

The change is the checkout this tool lives in; PARENT is a second git
checkout of the commit to compare against, such as a clone with that
commit checked out.  Each side is labelled with `git describe --always
--dirty` of its checkout.  For each workload (by default every workload
of BENCHMARK.json), pair i of PAIRS runs `perfbench/run.py --trace 0` at
seed N (--seed, default 1) and the benchmark's run_seconds once in each
checkout, the parent first in even pairs and the change first in odd
ones, so that a drift of the host's speed falls on both sides alike.
Timings from different hosts, or from one host on different days, do not
compare; pairs run back to back do.

The work counts come from one pass of each workload per checkout.  Those
the benchmark's tracer does not give are counted in a child process that
wraps private functions of the quadrature module and swaps the spectral
module's `fft` for a counting proxy:

    kernel_calls             calls of both shell kernels, _shell_values
                             (n = 1) and _moment_values (n = 2, 3)
    kernel_state_radii       (state, radius) points over those calls: the
                             size of each call's radii array r, one row per
                             panel, or, where r is one list of radii that
                             every state of the call's geometry shares,
                             the states times its size
    radial_panel_sweeps      calls of the radial panel rule _panel_value
    radial_panels_evaluated  radial panels those calls evaluate
    radial_panels_accepted   panels at convergence, summed over the
                             info["panels"] of every shell_integrals call
    grid_transforms          transforms of the grid path: calls of fftn,
                             ifftn, fft and ifft through the spectral
                             module, one call of a batched 1-D
                             transform of factored fields counting once
    grid_transform_points    points over those calls: N^n per n-D
                             transform, m n N per batched 1-D transform
                             of m packets' factors
    grid_materialised_points grid points of the arrays that factored
                             fields build from their factors: N^n per
                             call of model._outer_sum
    grid_summed_points       grid points that spectral._sum_sq reads:
                             the masses and edge slabs summed from
                             samples, not in grid Gram form
    shell_integrals_calls    calls of the radial engine shell_integrals:
                             hs_norm_sq's, each fixed-time batch, and one
                             per refinement round of a time integral
    adaptive_time_integral_calls
                             calls of adaptive_time_integral, the
                             whole-line ones included, since
                             real_line_time_integral runs through it
    real_line_time_integral_calls
                             calls of real_line_time_integral
    time_nodes               times handed to the time integrand fn of
                             adaptive_time_integral, summed over every
                             call: t on a finite window, and s, the
                             compactified time, on the whole line
    limit_fits               calls of limits.estimate_limit
    per_task                 kernel_calls, kernel_state_radii, the
                             grid_materialised_points and
                             grid_summed_points, the three call counts
                             above, time_nodes and limit_fits again,
                             split by the task of the pass (a
                             verify_* call, or an experiment section of
                             cli-mix) that the pass's Timer was timing
                             when they ran, so that a change of the
                             totals can be traced to the tasks it sits
                             in, and one call per schedule shows there;
                             the fits of cli-mix's judge, which reads the
                             CSVs after the run, fall outside every task

Every state has its own radial panel set, so the panel counts are per
state; a checkout whose states share panel sets in groups counts them per
group, so compare such a parent with a change only on kernel_calls and
kernel_state_radii.  None of these is a tracer metric, and they count
differently from the ones of similar name: the tracer's
quadrature.kernel_calls counts _shell_values only, its
quadrature.panels_accepted only the panel sets of shell_integral, not
those inside the time integrals, and its spectral.fft_calls the calls of
forward_transform, inverse_transform and evolve_spectral, not transforms.
Beside them, cpu_over_wall is the CPU time of the whole child process
over the wall time of that pass: well above 1, a second BLAS thread is
running.  The time sweeps, quadrature.time_nodes (calls of the time
integrand, one per refinement round, where time_nodes counts the nodes
of those calls), come from the record of a
`perfbench/run.py --trace 1` run at the same seed, under the tracer's own
name, with its quadrature.panels_accepted, spectral.fft_calls and
propagator.calls, the calls of the propagator's traced functions: each
builds one GaussianState, while a time sweep builds none.  None of these
counts depends on the host, so they show whether a change of time came
from doing less work or from doing the same work faster.

BENCH_<name>.json, at the change checkout's root, holds the machine block
of perfbench/machine.py, the end-to-end metrics of every pair with their
medians, and the work counts.

    python3 tools/bench_pairs.py --parent PARENT --name import_cost --import-cost

measures instead what importing the package costs, in fresh processes
that run each checkout's src/ and none of perfbench: pair i of PAIRS runs
`import smoothing_lab`, then a CLI run of configs/quickcheck.cfg, once in
each checkout, the parent first in even pairs.  A run's cost is the CPU
time (user and system) of its process.  BENCH_<name>.json holds every
pair, each side's median and least CPU time for both commands, and the
scipy subpackages, scipy.<name>, that `import smoothing_lab` leaves in
sys.modules on each side.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

import numpy as np

CHANGE = Path(__file__).resolve().parents[1]
PAIRS = 10  # the fewest pairs that can show a gain in nine of ten
RUN_TIMEOUT_S = 600
TRACED = ("quadrature.time_nodes", "quadrature.panels_accepted", "propagator.calls",
          "spectral.fft_calls")


def run_checkout(checkout: Path, args: list, what: str) -> str:
    """Standard output of a Python child run in checkout."""
    proc = subprocess.run([sys.executable, *map(str, args)], cwd=checkout,
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"{what} failed in {checkout}:\n{proc.stderr}")
    return proc.stdout


def benchmark_run(checkout: Path, workload: str, seed: int, seconds: float,
                  trace: int) -> dict:
    """The metric values of one perfbench run in checkout."""
    result = json.loads(run_checkout(checkout, [
        "perfbench/run.py", "--workload", workload, "--seed", seed,
        "--seconds", seconds, "--trace", trace],
        f"{workload} benchmark run").splitlines()[-1])
    if not result["correct"]:
        sys.exit(f"{workload}: the run in {checkout} reported incorrect results")
    return {k: v["value"] for k, v in result["metrics"].items()}


def compare(parent: list, change: list, better: str) -> dict:
    """Medians of both sides, the parent's quartile spread, and the pairs
    in which the change is better."""
    mp, mc = statistics.median(parent), statistics.median(change)
    q1, _, q3 = statistics.quantiles(parent, n=4)
    wins = sum((c < p) if better == "lower" else (c > p)
               for p, c in zip(parent, change))
    return {"parent_median": mp, "change_median": mc,
            "change_over_parent": mc / mp if mp else None,
            "parent_iqr": q3 - q1, "pairs_better": wins}


def count_work(workload: str, seed: int) -> dict:
    """The counts of one pass that the tracer does not give, and its CPU
    over wall time, in the checkout that is the working directory."""
    sys.path.insert(0, str(Path.cwd() / "perfbench"))
    import run  # perfbench/run.py of this checkout; Lab() adds its src/

    lab = run.Lab()
    q = lab.quadrature
    counts = Counter(dict.fromkeys((
        "kernel_calls", "kernel_state_radii", "radial_panel_sweeps",
        "radial_panels_evaluated", "radial_panels_accepted",
        "grid_transforms", "grid_transform_points", "grid_materialised_points",
        "grid_summed_points", "shell_integrals_calls",
        "adaptive_time_integral_calls", "real_line_time_integral_calls",
        "time_nodes", "limit_fits"), 0))
    tasks = []  # the task the timer is timing, innermost last
    per_task = {}

    class TaskTimer(run.Timer):
        """The pass's timer, which also names the task it is timing."""

        @contextlib.contextmanager
        def __call__(self, name):
            tasks.append(name)
            try:
                with super().__call__(name):
                    yield
            finally:
                tasks.pop()

    def rebind(name, wrapper, module=q):
        """Rebind module.<name> to wrapper(it) in every module that imported it."""
        inner = getattr(module, name)
        outer = wrapper(inner)
        for mod in lab.modules().values():
            if getattr(mod, name, None) is inner:
                setattr(mod, name, outer)

    def wrap(name, note, module=q):
        """Rebind module.<name> to a function that calls note(args, result)
        after each call."""
        def wrapper(inner):
            def call(*args, **kwargs):
                result = inner(*args, **kwargs)
                note(args, result)
                return result
            return call
        rebind(name, wrapper, module)

    def time_nodes(inner):
        """adaptive_time_integral, counting the times it hands its fn."""
        def call(fn, *args, **kwargs):
            def counted(t):
                tally("time_nodes", np.size(t))
                return fn(t)
            return inner(counted, *args, **kwargs)
        return call

    def tally(key, amount=1):
        """Add to the pass's count and to the current task's."""
        counts[key] += amount
        if tasks:
            per_task.setdefault(tasks[-1], Counter())[key] += amount

    def kernel(args, result):
        geom, r = args[0], np.asarray(args[1])
        tally("kernel_calls")
        tally("kernel_state_radii", r.size if r.ndim == 2 else len(geom.B) * r.size)

    def sweep(args, result):
        # args[1], the panel edges a or the panels' states rows, is (P,)
        counts["radial_panel_sweeps"] += 1
        counts["radial_panels_evaluated"] += int(np.size(args[1]))

    def panel_sets(args, result):
        counts["radial_panels_accepted"] += int(result[1]["panels"])
        tally("shell_integrals_calls")

    class CountingFFT:
        """The spectral module's fft, counting its transforms."""

        def __init__(self, fft):
            self.module = fft  # not self.fft, which would hide fft.fft

        def __getattr__(self, name):
            inner = getattr(self.module, name)
            if name not in ("fftn", "ifftn", "fft", "ifft"):
                return inner

            def transform(x, *args, **kwargs):
                counts["grid_transforms"] += 1
                counts["grid_transform_points"] += np.size(x)
                return inner(x, *args, **kwargs)
            return transform

    lab.spectral.fft = CountingFFT(lab.spectral.fft)
    wrap("_shell_values", kernel)
    wrap("_moment_values", kernel)
    wrap("_panel_value", sweep)
    wrap("shell_integrals", panel_sets)
    for name in ("adaptive_time_integral", "real_line_time_integral"):
        wrap(name, lambda args, result, key=f"{name}_calls": tally(key))
    rebind("adaptive_time_integral", time_nodes)
    wrap("estimate_limit", lambda args, result: tally("limit_fits"), lab.limits)
    wrap("_outer_sum", lambda args, result: tally("grid_materialised_points", result.size),
         lab.model)
    wrap("_sum_sq", lambda args, result: tally("grid_summed_points", np.size(args[0])),
         lab.spectral)
    wl = run.build(lab, workload, seed)
    try:
        wall, cpu = time.perf_counter(), time.process_time()
        wl.run_pass(TaskTimer())
        wall, cpu = time.perf_counter() - wall, time.process_time() - cpu
    finally:
        wl.close()
    return {**counts, "cpu_over_wall": cpu / wall,
            "per_task": {task: dict(tally) for task, tally in per_task.items()}}


def work(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    counted = json.loads(run_checkout(
        checkout, [Path(__file__).resolve(), "--count-work", workload,
                   "--seed", seed], f"{workload} work count").splitlines()[-1])
    traced = benchmark_run(checkout, workload, seed, seconds, trace=1)
    return {**counted, **{name: traced[name] for name in TRACED}}


# the commands --import-cost times, each run as `python -c` with
# PYTHONPATH at the checkout's src/
IMPORT_COST = {
    "import": "import smoothing_lab",
    "quickcheck": "import sys; from smoothing_lab.harness import main; "
                  "sys.exit(main(['run', sys.argv[1]]))",
}
SCIPY_PROBE = ("import sys, smoothing_lab; print(' '.join(sorted({'.'.join(m.split('.')[:2]) "
               "for m in sys.modules if m.startswith('scipy.') "
               "and not m.split('.')[1].startswith('_')})))")


def run_src(checkout: Path, code: str, workdir: str) -> str:
    """Standard output of a fresh Python process that runs code against
    checkout's src/ in workdir, with the checkout's quickcheck config as
    its argument."""
    return subprocess.run(
        [sys.executable, "-c", code, str(checkout / "configs" / "quickcheck.cfg")],
        cwd=workdir, env={**os.environ, "PYTHONPATH": str(checkout / "src")},
        check=True, capture_output=True, text=True, timeout=RUN_TIMEOUT_S).stdout


def child_cpu(checkout: Path, code: str, workdir: str) -> float:
    """CPU seconds, user and system, of one run_src process."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    run_src(checkout, code, workdir)
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    return (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)


def import_cost(checkouts: dict) -> dict:
    """Alternating pairs of both IMPORT_COST commands, and the scipy
    subpackages each side's import loads."""
    out = {"scipy_modules": {}, "commands": {}}
    with tempfile.TemporaryDirectory() as workdir:  # the CLI run writes its CSV here
        for side, path in checkouts.items():
            out["scipy_modules"][side] = run_src(path, SCIPY_PROBE, workdir).split()
        for name, code in IMPORT_COST.items():
            pairs = []
            for i in range(PAIRS):
                order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
                pair = {side: child_cpu(checkouts[side], code, workdir) for side in order}
                pairs.append({side: pair[side] for side in checkouts})
                print(f"{name} pair {i + 1}: cpu_s parent {pair['parent']:.3f}, "
                      f"change {pair['change']:.3f}", file=sys.stderr)
            out["commands"][name] = {
                "code": code, "pairs": pairs,
                **{f"{side}_cpu_s": {"median": statistics.median(p[side] for p in pairs),
                                     "least": min(p[side] for p in pairs)}
                   for side in checkouts},
                "pairs_change_lower": sum(p["change"] < p["parent"] for p in pairs),
            }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path)
    parser.add_argument("--name", help="the output is BENCH_<name>.json")
    parser.add_argument("--workload", action="append",
                        help="repeat for several; default every workload")
    parser.add_argument("--count-work", metavar="WORKLOAD",
                        help="print the tool's work counts of one pass in this checkout")
    parser.add_argument("--seed", type=int, default=1,
                        help="the benchmark seed of every run (default 1)")
    parser.add_argument("--import-cost", action="store_true",
                        help="time the package's import and a quickcheck CLI run "
                             "instead of the benchmark")
    args = parser.parse_args(argv)
    if args.count_work:
        print(json.dumps(count_work(args.count_work, args.seed)))
        return 0
    if args.parent is None or args.name is None:
        parser.error("--parent and --name are required")

    checkouts = {"parent": args.parent.resolve(), "change": CHANGE}
    head = {
        "checkouts": {side: subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=path, check=True,
            capture_output=True, text=True).stdout.strip()
            for side, path in checkouts.items()},
        "machine": json.loads(run_checkout(CHANGE, ["perfbench/machine.py"],
                                           "machine block")),
    }
    path = CHANGE / f"BENCH_{args.name}.json"
    if args.import_cost:
        out = {"command": "python3 -c CODE CONFIG with PYTHONPATH=<checkout>/src, "
                          "CONFIG being the checkout's configs/quickcheck.cfg",
               **head, **import_cost(checkouts)}
        path.write_text(json.dumps(out, indent=2) + "\n")
        print(f"wrote {path}", file=sys.stderr)
        return 0

    spec = json.loads((CHANGE / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    workloads = args.workload or [w["name"] for w in spec["workloads"]]

    out = {
        "command": f"python3 perfbench/run.py --workload W --seed {args.seed} "
                   f"--seconds {seconds:g} --trace 0",
        **head,
        "work_counts": "kernel_calls, kernel_state_radii, radial_panel_sweeps, "
                       "radial_panels_evaluated, radial_panels_accepted, "
                       "grid_transforms, grid_transform_points, "
                       "grid_materialised_points, grid_summed_points, time_nodes, "
                       "limit_fits and the *_calls counts are this "
                       "tool's counts, not the tracer's (see tools/bench_pairs.py); "
                       "the quadrature.*, propagator.* and spectral.* counts are "
                       "the tracer's, from a --trace 1 run, per pass",
        "workloads": {},
    }
    for workload in workloads:
        pairs = []
        for i in range(PAIRS):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            pair = {side: benchmark_run(checkouts[side], workload, args.seed,
                                        seconds, trace=0)
                    for side in order}
            pairs.append({side: pair[side] for side in checkouts})
            print(f"{workload} pair {i + 1}: wall_s parent "
                  f"{pair['parent']['wall_s']:.3f}, change {pair['change']['wall_s']:.3f}",
                  file=sys.stderr)
        out["workloads"][workload] = {
            "pairs": pairs,
            "metrics": {m: compare([p["parent"][m] for p in pairs],
                                   [p["change"][m] for p in pairs], better[m])
                        for m in better},
            "work": {side: work(path, workload, args.seed, seconds)
                     for side, path in checkouts.items()},
        }
    path.write_text(json.dumps(out, indent=2) + "\n")
    print(f"wrote {path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
