"""The three benchmark workloads, each generated from a seed.

A task is one verification: one ``verify_*`` call, one experiment inside a
harness run, or one grid comparison.  Every task ends in a Verdict: whether
all its correctness checks held, and the residual its verdict compares with
its tolerance (the margin is log10(tolerance / residual)).

finite-identity
    ``verify_identity`` at one horizon on seeded packet sums in n = 1 and 2
    with the weight trio of acceptance criterion 01 (soft-abs eps = 1, the
    bump weight k = 2, and that bump rescaled by 4), plus one single-packet
    n = 3 datum at a short horizon.  Bump weights spend most of the time in
    the weights layer and the angular kernel of the finite-window time
    integrator.  One horizon per task, so work sharing across a schedule is
    bypassed.
cli-mix
    ``harness.main(["run", cfg])`` on a generated config holding all eight
    experiment kinds across n = 1, 2, 3 at small sizes with short
    schedules.  The only workload where harness scheduling, whole-line
    time integrals, limit fits, config parsing and CSV writes show.  Its
    timed passes run at one thread; the warm-up pass and the traced passes
    run at the harness's default thread count, and the traced run times
    the pool against one thread (run.py says why).  Each experiment is
    timed by wrapping ``harness.run_experiment`` for the pass.
grid-oracle
    ``evolve_spectral`` of a sampled datum against the sampled analytic
    evolution, plus the Plancherel and inverse-transform checks, on
    n = 1 (N = 8192), n = 2 (N = 1024) and n = 3 (N = 128) boxes.  The
    spectral and propagator grid paths do all the work and quadrature and
    weights do none, so every quadrature or weights optimisation predicts
    no change here.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
import os
import shutil
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

EPS = np.finfo(float).eps


@dataclass
class Verdict:
    ok: bool
    residual: float
    tolerance: float
    note: str = ""

    @property
    def margin_digits(self) -> float:
        # a residual below one ulp is roundoff; cap the margin there
        return math.log10(self.tolerance / max(self.residual, EPS))


def _rng(seed: int, stream: int) -> np.random.Generator:
    return np.random.default_rng([int(seed), stream])


def _packet(lab, rng, n, centre=0.4, momentum=0.3, width=(0.8, 1.4)):
    amp = rng.uniform(0.8, 1.2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
    return lab.model.packet(amp, rng.uniform(*width),
                            rng.uniform(-centre, centre, size=n),
                            rng.uniform(-momentum, momentum, size=n))


def _datum(lab, rng, n, count, **kw):
    return lab.model.packet_sum([_packet(lab, rng, n, **kw) for _ in range(count)], n=n)


# ---------------------------------------------------------------------------
# finite-identity
# ---------------------------------------------------------------------------

class FiniteIdentity:
    name = "finite-identity"
    nominal_pass_s = 7.0
    tolerance = 1e-6

    def __init__(self, lab, seed: int):
        self.lab = lab
        rng = _rng(seed, 1)
        w = lab.weights
        eps1 = w.make_psi_eps(1.0)
        bump = w.make_psi_k(2)
        trio = [eps1, bump, w.rescale(bump, 4.0)]
        one = _datum(lab, rng, 1, 2)
        other = _datum(lab, rng, 1, 2)
        two = _datum(lab, rng, 2, 1)
        # centred: any off-centre n = 3 packet raises the angular band from
        # 20 to 36 and costs 3-5x more, too slow to repeat within a run
        amp = rng.uniform(0.8, 1.2) * np.exp(1j * rng.uniform(0.0, 2.0 * np.pi))
        three = lab.model.packet_sum(
            [lab.model.packet(amp, rng.uniform(0.8, 1.4), [0.0, 0.0, 0.0])], n=3)
        self.tasks = (
            [(f"n1-{wt.label}", one, wt, 0.5) for wt in trio]
            + [(f"n1b-{eps1.label}", other, eps1, 0.5),
               (f"n2-{eps1.label}", two, eps1, 0.5),
               (f"n2-{trio[2].label}", two, trio[2], 0.5),
               (f"n3-{eps1.label}", three, eps1, 0.125)]
        )

    def wrap_weights(self, wrap):
        self.tasks = [(name, f, wrap(wt), T) for name, f, wt, T in self.tasks]

    def close(self):
        pass

    def checks(self):
        return [("half-derivative-target", half_derivative_check(self.lab))]

    def run_pass(self, timer, tracer=None):
        """Run every task once; returns (pass wall seconds, [(task, Verdict)])."""
        out = []
        start = time.perf_counter()
        for name, f, wt, T in self.tasks:
            if tracer is not None:
                tracer.task_id = name
            with timer(name):
                verdict = self._verify(f, wt, T)
            out.append((name, verdict))
        return time.perf_counter() - start, out

    def _verify(self, f, wt, T):
        try:
            rep = self.lab.limits.verify_identity(f, wt, [T], tolerance=self.tolerance)
        except self.lab.errors.SmoothingLabError as exc:
            return Verdict(False, math.inf, self.tolerance, f"raised {exc!r}")
        rel = float(rep.rel_residual.max())
        ok = bool(rep.passed) and rel <= self.tolerance and np.all(np.isfinite(rep.lhs))
        return Verdict(ok, rel, self.tolerance, rep.notes)


def half_derivative_check(lab) -> Verdict:
    """2 pi ||f||^2_{H^1/2} = 1 for the unit Gaussian, in closed form."""
    f = lab.model.packet_sum([lab.model.packet(1.0, 1.0, [0.0])])
    target = 2.0 * np.pi * lab.spectral.hs_norm_sq(f, 0.5)
    err = abs(target - 1.0)
    return Verdict(err <= 1e-8, err, 1e-8, f"target {target!r}")


# ---------------------------------------------------------------------------
# cli-mix
# ---------------------------------------------------------------------------

def _fmt_packet(p) -> str:
    nums = [p.amplitude.real, p.amplitude.imag, p.width,
            *p.center.tolist(), *p.momentum.tolist()]
    return " ".join(repr(float(x)) for x in nums)


class CliMix:
    name = "cli-mix"
    nominal_pass_s = 6.0
    # each kind's default tolerance in the harness, written into the config
    tolerance = {"identity": 1e-6, "theorem-limit": 0.02, "corollary-limit": 0.02,
                 "flux-limit": 0.02, "sandwich": 1e-3, "remainder-decay": 0.25,
                 "asymptotics": 0.1, "smoothing-bound": 0.02}

    def __init__(self, lab, seed: int, out_dir: str):
        self.lab = lab
        self.out_dir = out_dir
        os.makedirs(out_dir, exist_ok=True)
        rng = _rng(seed, 2)
        m = lab.model
        # narrow ranges: the adaptive quadratures' cost follows the centre,
        # momentum and width, and a pass cost that swings with the seed
        # makes wall_s swing between runs
        narrow = {"centre": 0.1, "momentum": 0.05, "width": (0.95, 1.05)}

        def odd_pair():
            # f(-x) = -f(x): fhat(0) = 0, which the n = 1 remainder needs;
            # the centres stay apart so the pair does not cancel
            p = _packet(lab, rng, 1, **narrow)
            x0 = rng.choice([-1.0, 1.0]) * rng.uniform(0.45, 0.55)
            return [m.packet(p.amplitude, p.width, [x0], p.momentum),
                    m.packet(-p.amplitude, p.width, [-x0], -p.momentum)]

        def d(n, count=1, **kw):
            return [_packet(lab, rng, n, **{**narrow, **kw}) for _ in range(count)]

        eps = {"weight": "eps", "eps": 1.0}
        geo = lambda start, factor, count: {"schedule_start": start,
                                            "schedule_factor": factor,
                                            "schedule_count": count}
        self.sections = [
            ("identity-n1", "identity", d(1, 2), {**eps, **geo(0.25, 2, 1)}),
            ("identity-n2", "identity", d(2), {**eps, **geo(0.25, 2, 1)}),
            ("theorem-n1", "theorem-limit", d(1), {**eps, **geo(1, 2, 4)}),
            ("corollary-n1", "corollary-limit", d(1), geo(4, 2, 3)),
            ("flux-n1", "flux-limit", d(1), {**eps, **geo(8, 2, 4)}),
            ("flux-n2", "flux-limit", d(2), {**eps, **geo(8, 2, 4)}),
            ("flux-n3", "flux-limit", d(3), {**eps, **geo(8, 2, 3)}),
            ("sandwich-n1", "sandwich", d(1), {"k": 2, **geo(4, 2, 2)}),
            ("remainder-n1", "remainder-decay", odd_pair(), {**eps, **geo(2, 4, 2)}),
            ("asymptotics-n1", "asymptotics", d(1), geo(1, 2, 5)),
            ("asymptotics-n2", "asymptotics", d(2), geo(1, 2, 5)),
            ("asymptotics-n3", "asymptotics", d(3), geo(1, 2, 5)),
            ("smoothing-n1", "smoothing-bound", d(1), geo(4, 2, 3)),
        ]
        self.config = os.path.join(out_dir, "cli-mix.cfg")
        self.summary = os.path.join(out_dir, "summary.txt")
        with open(self.config, "w") as fh:
            fh.write(self._render())
        lab.harness.load_config(self.config)  # config load is part of set-up
        self.reference = None

    def _csv(self, section):
        return os.path.join(self.out_dir, f"{section}.csv")

    def _render(self) -> str:
        lines = ["[lab]", f"summary = {self.summary}", ""]
        for section, kind, packets, keys in self.sections:
            lines += [f"[{section}]", f"kind = {kind}", f"n = {packets[0].n}"]
            lines += [f"packet{i + 1} = {_fmt_packet(p)}" for i, p in enumerate(packets)]
            lines += [f"{k} = {v}" for k, v in keys.items()]
            lines += [f"tolerance = {self.tolerance[kind]!r}",
                      f"output = {self._csv(section)}", ""]
        return "\n".join(lines)

    def wrap_weights(self, wrap):
        pass  # the harness builds its weights through the traced factories

    def close(self):
        shutil.rmtree(self.out_dir, ignore_errors=True)

    def checks(self):
        return [("half-derivative-target", half_derivative_check(self.lab))]

    def run_pass(self, timer, tracer=None, threads=None):
        """One harness run; per-experiment times come from run_experiment."""
        harness = self.lab.harness
        inner = harness.run_experiment

        def timed(spec):
            if tracer is not None:
                tracer.task_id = spec.section
            with timer(spec.section):
                return inner(spec)

        saved = os.environ.get("SMOOTHING_LAB_THREADS")
        if threads is not None:
            os.environ["SMOOTHING_LAB_THREADS"] = str(threads)
        harness.run_experiment = timed
        buf = io.StringIO()
        try:
            start = time.perf_counter()
            with contextlib.redirect_stdout(buf):
                code = harness.main(["run", self.config])
            wall = time.perf_counter() - start
        finally:
            harness.run_experiment = inner
            if threads is not None:
                if saved is None:
                    del os.environ["SMOOTHING_LAB_THREADS"]
                else:
                    os.environ["SMOOTHING_LAB_THREADS"] = saved
        # the judge's own estimate_limit fits are the benchmark's work, not the program's
        with tracer.paused() if tracer is not None else contextlib.nullcontext():
            return wall, self._judge(code, buf.getvalue())

    def _judge(self, code, stdout):
        """Verdict per experiment from the summary, the exit code and the CSVs."""
        outputs = {s: Path(self._csv(s)).read_bytes() for s, *_ in self.sections}
        if self.reference is None:
            self.reference = outputs  # the first pass; later passes must match it
        lines = stdout.splitlines()
        all_pass = all(any(line.startswith(f"PASS [{s}]") for line in lines)
                       for s, *_ in self.sections)
        code_ok = (code == 0) == all_pass
        out = []
        for section, kind, _, keys in self.sections:
            rows = list(csv.DictReader(io.StringIO(outputs[section].decode())))
            notes = []
            if not any(line.startswith(f"PASS [{section}]") for line in lines):
                notes.append("verdict is not PASS")
            if not rows or any(r["pass"] != "1" for r in rows):
                notes.append("CSV rows do not pass")
            if outputs[section] != self.reference[section]:
                notes.append("CSV bytes differ from the first pass")
            if not code_ok:
                notes.append(f"exit code {code} does not match the verdicts")
            try:
                residual, tol = self._residual(kind, rows, keys)
            except (KeyError, ValueError, ZeroDivisionError) as exc:
                residual, tol = math.inf, 1.0
                notes.append(f"unreadable CSV: {exc!r}")
            if not residual <= tol:
                notes.append(f"residual {residual:.3e} above tolerance {tol:.3e}")
            out.append((section, Verdict(not notes, residual, tol, "; ".join(notes))))
        return out

    def _residual(self, kind, rows, keys):
        """The quantity the experiment's verdict compares with its tolerance."""
        col = lambda name: np.array([float(r[name]) for r in rows])
        tol = self.tolerance[kind]
        if kind == "identity":
            return float(col("rel_residual").max()), tol
        if kind in ("theorem-limit", "corollary-limit"):
            lim, target = float(rows[0]["extrapolated_limit"]), col("rhs")[0]
            return abs(lim - target) / max(abs(lim), abs(target)), tol
        if kind == "flux-limit":
            params, lhs, target = col("schedule_param"), col("lhs"), col("rhs")[-1]
            half = len(rows) // 2
            plus = self.lab.limits.estimate_limit(zip(params[half:], lhs[half:])).value
            minus = self.lab.limits.estimate_limit(
                zip(-params[:half][::-1], lhs[:half][::-1])).value
            return max(abs(plus - target) / max(abs(plus), abs(target)),
                       abs(minus + target) / max(abs(minus), abs(target))), tol
        if kind == "sandwich":
            # the spread ratio of the profile tail must stay below
            # (k+1)/k + tol; measure both from 1
            low = col("lhs")
            tail = low[-max(2, len(low) // 2):]
            ratio = tail.max() / tail.min()
            k = keys["k"]
            return ratio - 1.0, (k + 1.0) / k + tol - 1.0
        if kind == "remainder-decay":
            tans, bils = col("lhs"), col("rhs")
            shrink = [s[-1] / s[0] for s in (tans, bils) if s[0] != 0.0]
            return max(shrink), tol
        if kind == "asymptotics":
            errs = col("lhs")
            return errs[-1] / errs[0], tol
        if kind == "smoothing-bound":
            vals, target = col("lhs"), col("rhs")[0]
            return max(1.0 - vals.max() / target, 0.0), tol
        raise ValueError(f"no residual rule for kind {kind!r}")


# ---------------------------------------------------------------------------
# grid-oracle
# ---------------------------------------------------------------------------

class GridOracle:
    name = "grid-oracle"
    nominal_pass_s = 3.0
    tolerance = 1e-8  # acceptance criterion 06
    plancherel_tol = 1e-12  # acceptance criterion 07
    inverse_tol = 1e-12  # the group-law bound of criterion 07

    def __init__(self, lab, seed: int):
        self.lab = lab
        rng = _rng(seed, 3)
        # (label, datum, L, N, times), like acceptance criterion 06.  Each box
        # keeps the boundary mass fraction below the 1e-8 aliasing threshold,
        # and the grid error below 1e-8, for every datum the ranges allow.
        self.boxes = [
            ("n1", _datum(lab, rng, 1, 2, centre=0.5), 80.0, 8192, (0.1, 0.7, 2.0)),
            ("n2", _datum(lab, rng, 2, 2, centre=0.5, momentum=0.25), 32.0, 512, (0.1, 0.7)),
            ("n2w", _datum(lab, rng, 2, 2, centre=0.5, momentum=0.25), 84.0, 1024, (2.0,)),
            ("n3", _datum(lab, rng, 3, 1, centre=0.5, momentum=0.2, width=(0.6, 1.0)),
             18.0, 128, (0.1, 0.5)),
        ]

    def wrap_weights(self, wrap):
        pass

    def close(self):
        pass

    def checks(self):
        return []

    def run_pass(self, timer, tracer=None):
        """Run every task once; returns (pass wall seconds, [(task, Verdict)])."""
        out = []
        start = time.perf_counter()
        for label, f, L, N, times in self.boxes:
            steps = [(f"{label}-N{N}-sample", self._sample, None)]
            steps += [(f"{label}-N{N}-t{t:g}", self._evolve, t) for t in times]
            grid = None
            for name, step, t in steps:
                if tracer is not None:
                    tracer.task_id = name
                with timer(name):
                    try:
                        grid, verdict = step(f, L, N, grid, t)
                    except self.lab.errors.SmoothingLabError as exc:
                        verdict = Verdict(False, math.inf, self.tolerance, f"raised {exc!r}")
                out.append((name, verdict))
        return time.perf_counter() - start, out

    def _sample(self, f, L, N, grid, t):
        """Sample the datum; check Plancherel and the inverse transform."""
        sp = self.lab.spectral
        g0 = sp.sample_datum(f, L, N)
        sf = sp.forward_transform(g0)
        mass = sp.grid_l2_sq(g0)
        spec = float((sf.values.real ** 2 + sf.values.imag ** 2).sum() * sf.dxi ** f.n)
        plancherel = abs(spec - mass) / mass
        back = sp.rel_l2_diff(sp.inverse_transform(sf), g0)
        checks = [Verdict(plancherel <= self.plancherel_tol, plancherel,
                          self.plancherel_tol, "plancherel"),
                  Verdict(back <= self.inverse_tol, back, self.inverse_tol,
                          "inverse transform")]
        worst = min(checks, key=lambda v: v.margin_digits)
        worst.ok = all(v.ok for v in checks)
        return g0, worst

    def _evolve(self, f, L, N, g0, t):
        """Grid propagation of the sampled datum against the sampled exact state."""
        if g0 is None:
            return None, Verdict(False, math.inf, self.tolerance, "no sampled datum")
        sp = self.lab.spectral
        moved = sp.evolve_spectral(g0, t)
        exact = sp.sample_state(self.lab.propagator.evolve_analytic(f, t), L, N)
        err = sp.rel_l2_diff(moved, exact)
        return g0, Verdict(err <= self.tolerance, err, self.tolerance)


WORKLOADS = {w.name: w for w in (FiniteIdentity, CliMix, GridOracle)}
