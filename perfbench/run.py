"""smoothing-lab benchmark: time to verdict on three seeded workloads.

    python3 perfbench/run.py --workload finite-identity --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from its
``src/`` directory and nothing is installed.  The last line of standard
output is one JSON object with the keys correct, attempted, failed and
metrics.  With ``--trace 0`` the metrics are the end-to-end metrics listed
in BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics, from a
separate run that wraps the package's public functions (see tracer.py) and
writes its spans to perfbench/out/.

A run makes its inputs from the seed, checks every verdict, runs one
untimed warm-up pass and then a fixed number of timed passes,
round(seconds / nominal pass time), so that the sample count and the
percentile ranks are the same on every commit.

End-to-end metrics, per workload:

    wall_s         median wall time of one timed pass over the workload's tasks
    task_s.p50     median CPU time per task (one verify_* call, one experiment
                   of a harness run, or one grid comparison), pooled over the
                   timed passes
    task_s.p90     the 90th percentile of that pool, or the highest percentile
                   with ten samples beyond it; the run prints which
    setup_s        least CPU time of five fresh processes that import the
                   package, generate the inputs, build the weights and load
                   the config
    peak_rss_mb    peak resident set of the process that runs the passes
    pass_frac      1 - failed / attempted verifications, this way round
                   because a reported metric may not be 0
    margin_digits  minimum over verdicts of log10(tolerance / residual), the
                   residual taken as at least one ulp
"""

from __future__ import annotations

import argparse
import gzip
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from pathlib import Path

from scipy.optimize import OptimizeWarning

from tracer import Tracer, pass_metrics, required_spans
from workloads import WORKLOADS, CliMix, Verdict

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
DEADLINE_S = 120.0  # start no new pass after this; a run must end within 180 s
TAIL_SAMPLES = 10  # a reported percentile keeps at least this many samples beyond it
TIME_SUFFIXES = ("_s", "cpu_per_wall")


def fail(message: str, code: int = 2):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


class Lab:
    """The smoothing_lab modules, imported from the checkout's src/."""

    NAMES = ("errors", "model", "weights", "quadrature", "propagator",
             "spectral", "functionals", "limits", "harness")

    def __init__(self):
        src = ROOT / "src"
        if not (src / "smoothing_lab" / "__init__.py").is_file():
            fail(f"no smoothing_lab package under {src}; run from a source checkout")
        sys.path.insert(0, str(src))
        import importlib
        pkg = importlib.import_module("smoothing_lab")
        if Path(pkg.__file__).resolve().parent != (src / "smoothing_lab").resolve():
            fail(f"imported smoothing_lab from {pkg.__file__}, not from {src}")
        for name in self.NAMES:
            setattr(self, name, importlib.import_module(f"smoothing_lab.{name}"))

    def modules(self) -> dict:
        return {name: getattr(self, name) for name in self.NAMES}


def build(lab, workload: str, seed: int):
    cls = WORKLOADS[workload]
    if cls is CliMix:
        # one directory per process, so concurrent runs never share CSVs
        return cls(lab, seed, str(OUT / f"{workload}-{os.getpid()}"))
    return cls(lab, seed)


def measure_setup(workload: str, seed: int) -> float:
    """Least CPU time of fresh processes that import, generate and build.

    CPU time (user + system) leaves out waits for the other CPU, and the
    least of several repeats leaves out transient slowdowns of the host.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        before = resource.getrusage(resource.RUSAGE_CHILDREN)
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(seed), "--setup-only"],
            cwd=ROOT, capture_output=True, text=True, timeout=60)
        after = resource.getrusage(resource.RUSAGE_CHILDREN)
        times.append(after.ru_utime - before.ru_utime + after.ru_stime - before.ru_stime)
        if proc.returncode != 0:
            fail(f"set-up process failed:\n{proc.stderr}")
    return min(times)


class Timer:
    """Collects (task, seconds) samples, by default CPU seconds of the thread.

    CPU time, not wall time: in the harness's thread pool a task's wall time
    is mostly waiting for the GIL, and which tasks wait depends on how the
    pool happens to pair them (see baseline.json).  The timed passes run on
    one thread, where CPU and wall time agree.
    """

    def __init__(self, clock=time.thread_time):
        self.clock = clock
        self.samples = []

    @contextmanager
    def __call__(self, name):
        start = self.clock()
        try:
            yield
        finally:
            self.samples.append((name, self.clock() - start))


class Ledger:
    """Attempted and failed verifications, and the worst margin seen."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.margin = math.inf

    def record(self, name, verdict):
        self.attempted += 1
        self.margin = min(self.margin, verdict.margin_digits)
        if not verdict.ok:
            self.failed += 1
            print(f"FAILED {name}: {verdict.note}", file=sys.stderr)


def tail_percentile(samples):
    """(p, value): the highest percentile up to 90 with TAIL_SAMPLES beyond it.

    Never below the median: a run cut short by the deadline has few samples.
    """
    n = len(samples)
    p = min(90.0, max(50.0, 100.0 * (1.0 - TAIL_SAMPLES / n)))
    return p, percentile(samples, p)


def percentile(samples, p):
    xs = sorted(samples)
    pos = (len(xs) - 1) * p / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def rule_cache_counts(lab):
    """(hits, misses) of the quadrature rule caches, _gl and _sphere_rule.

    The per-layer quadrature.rule_cache_hit_ratio is taken over the warm-up
    pass, the first pass after set-up, where the caches fill; over later
    passes it is 1 by construction.
    """
    infos = [c.cache_info() for c in (lab.quadrature._gl, lab.quadrature._sphere_rule)]
    return sum(i.hits for i in infos), sum(i.misses for i in infos)


def run_passes(wl, count, ledger, started, tracer=None, **kw):
    """Timed passes; returns (walls, task samples, per-pass tracer output)."""
    walls, timer, traced = [], Timer(), []
    for i in range(count):
        if i and time.perf_counter() - started > DEADLINE_S:
            print(f"perfbench: deadline reached after {i} passes", file=sys.stderr)
            break
        if tracer is not None:
            tracer.take()
        wall, verdicts = wl.run_pass(timer, tracer=tracer, **kw)
        if tracer is not None:
            traced.append(tracer.take())
        walls.append(wall)
        for name, verdict in verdicts:
            ledger.record(name, verdict)
    return walls, [s for _, s in timer.samples], traced


def end_to_end(args, lab, wl, ledger, started):
    setup_s = measure_setup(args.workload, args.seed)
    # cli-mix is timed at one thread: in the default two-thread pool its pass
    # wall time follows the load on the host's other CPU (see baseline.json);
    # the pool is measured against one thread in the traced run
    kw = {"threads": 1} if args.workload == "cli-mix" else {}
    walls, samples, _ = run_passes(wl, args.passes, ledger, started, **kw)
    p, tail = tail_percentile(samples)
    print(f"timed passes: {len(walls)} ({', '.join(f'{w:.3f}' for w in walls)} s); "
          f"task samples: {len(samples)}; "
          f"task_s.p90 is the p{p:.1f} (the highest percentile up to 90 "
          f"with {TAIL_SAMPLES} samples beyond it)")
    return {
        "wall_s": statistics.median(walls),
        "task_s.p50": percentile(samples, 50.0),
        "task_s.p90": tail,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "pass_frac": 1.0 - ledger.failed / ledger.attempted,
        "margin_digits": ledger.margin,
    }


def per_layer(args, lab, wl, ledger, tracer, started, warm_cache):
    # untraced passes for the tracing overhead; on cli-mix they alternate with
    # one-thread passes for the thread pool's speedup
    base, serial = [], []
    for _ in range(max(1, args.passes // 2)):
        if args.workload == "cli-mix":
            serial += run_passes(wl, 1, ledger, started, threads=1)[0]
        base += run_passes(wl, 1, ledger, started)[0]
    builds = []
    for _ in range(3):
        start = time.perf_counter()
        lab.weights.BumpAntiderivatives.build()
        builds.append(time.perf_counter() - start)
    try:
        tracer.install()
    except LookupError as exc:
        fail(f"coverage self-check: {exc}", code=3)
    try:
        wl.wrap_weights(tracer.wrap_weight)
        walls, _, traced = run_passes(wl, args.passes, ledger, started, tracer=tracer)
    finally:
        tracer.uninstall()

    per_pass = [pass_metrics(*t) for t in traced]
    fired = {span[1] for spans, *_ in traced for span in spans}
    missing = sorted(required_spans(args.workload) - fired)
    if missing:
        fail(f"coverage self-check: spans never fired on {args.workload}: "
             + ", ".join(missing), code=3)
    metrics = {}
    for key in per_pass[0]:
        values = [m[key] for m in per_pass]
        if key.endswith(TIME_SUFFIXES):
            metrics[key] = statistics.median(values)
        else:
            metrics[key] = values[0]
            if any(v != values[0] for v in values):
                ledger.record(f"repeatable {key}", Verdict(
                    False, 1.0, 1.0, f"count {key} differs between passes: {values}"))
    hits, misses = warm_cache
    metrics.update({
        "weights.table_build_s": statistics.median(builds),
        "quadrature.rule_cache_hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "trace.overhead_frac": statistics.median(walls) / statistics.median(base) - 1.0,
        "trace.spans": len(traced[0][0]),
        "harness.pool_speedup": (statistics.median(serial) / statistics.median(base)
                                 if serial else 0.0),
    })
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{args.workload}.csv.gz"
    with gzip.open(path, "wt", compresslevel=1) as fh:
        fh.write("pass,id,name,parent,task,thread,start,end\n")
        for i, (spans, *_rest) in enumerate(traced):
            for span in spans:
                fh.write(f"{i},{','.join(map(str, span))}\n")
    print(f"traced passes: {len(walls)}; spans written to {path.relative_to(ROOT)}")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="import, generate the inputs and exit (times setup_s)")
    args = parser.parse_args(argv)

    lab = Lab()  # fails first when the checkout has no package
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    wl = build(lab, args.workload, args.seed)
    try:
        return 0 if args.setup_only else measure(args, lab, wl, spec)
    finally:
        wl.close()


def measure(args, lab, wl, spec):
    started = time.perf_counter()
    tracer = Tracer(lab.modules())
    tracer.capture_warnings([RuntimeWarning, OptimizeWarning])
    args.passes = max(1, round(args.seconds / wl.nominal_pass_s))

    ledger = Ledger()
    for name, verdict in wl.checks():
        ledger.record(name, verdict)
    before = rule_cache_counts(lab)
    # warm-up at the harness's default thread count: on cli-mix its CSVs are
    # the reference that the one-thread passes must match byte for byte
    run_passes(wl, 1, ledger, started)
    warm_cache = [a - b for a, b in zip(rule_cache_counts(lab), before)]

    if args.trace:
        values = per_layer(args, lab, wl, ledger, tracer, started, warm_cache)
        wanted = spec["per_layer"]
    else:
        values = end_to_end(args, lab, wl, ledger, started)
        wanted = spec["end_to_end"]
        print(f"warnings captured: {dict(tracer.warnings)}")
    names = {m["name"] for m in wanted}
    if names != set(values):
        fail(f"metrics do not match BENCHMARK.json: {sorted(names ^ set(values))}")
    result = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {m["name"]: {"value": _number(values[m["name"]]), "unit": m["unit"]}
                    for m in wanted},
    }
    print(json.dumps(result))
    return 0


def _number(value):
    """Counts stay integers; everything else is a float with all its digits."""
    return value if isinstance(value, int) else float(value)


if __name__ == "__main__":
    sys.exit(main())
