"""Outside-in tracer for smoothing-lab: spans and work counts at layer boundaries.

Nothing under ``src/`` is changed.  Each public function of a layer is
wrapped, and the wrapper is installed under every name that refers to the
function, in every ``smoothing_lab`` module: ``functionals`` imports
``shell_integral`` by name, so patching only ``quadrature.shell_integral``
would miss every call the functionals make.  Weight objects get wrapped
derivative callables, and the weight factories are wrapped where they are
looked up, so weights built inside the library are traced too.

A span records (id, name, parent id, task id, thread, start, end).  Spans
live in memory until the run ends.  Self time is a span's duration minus
the union of the intervals its children cover.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import itertools
import sys
import threading
import time
import warnings
from collections import Counter, defaultdict

TIME_SPANS = ("quadrature.adaptive_time_integral",
              "quadrature.real_line_time_integral")

# (module, attribute, workloads that must fire the span).  The span name is
# "<module>.<attribute>".  The coverage self-check fails the traced run when
# a listed workload never fires its span, so a rename under src/ cannot
# quietly zero a layer.
FI, CM, GO = "finite-identity", "cli-mix", "grid-oracle"
SPANS = [
    ("weights", "radial_laplacians", {FI, CM}),
    ("quadrature", "_shell_values", {FI, CM}),
    ("quadrature", "shell_integral", {FI, CM}),
    ("quadrature", "adaptive_time_integral", {FI, CM}),
    ("quadrature", "real_line_time_integral", {CM}),
    ("propagator", "evolve_analytic", {FI, CM, GO}),
    ("propagator", "dispersive_approx", {CM}),
    ("propagator", "difference_state", {CM}),
    ("propagator", "fourier_state", {FI, CM}),
    ("spectral", "forward_transform", {GO}),
    ("spectral", "inverse_transform", {GO}),
    ("spectral", "evolve_spectral", {GO}),
    ("spectral", "sample_state", {GO}),
    ("spectral", "sample_datum", {GO}),
    ("spectral", "hs_norm_sq", {FI, CM}),
    ("spectral", "grid_l2_sq", {GO}),
    ("spectral", "rel_l2_diff", {GO}),
    ("functionals", "smoothing_profile", {CM}),
    ("functionals", "radial_profile", {CM}),
    ("functionals", "morawetz_lhs", {FI, CM}),
    ("functionals", "flux", {FI, CM}),
    ("functionals", "boundary_term", {FI, CM}),
    ("functionals", "check_remainder_hypotheses", {CM}),
    ("functionals", "remainder_terms", {CM}),
    # only the sandwich identity check calls it, which is too slow to
    # repeat in a timed pass
    ("functionals", "morawetz_remainder_split", set()),
    ("functionals", "weighted_radial_energy", {CM}),
    ("functionals", "dispersive_l2_error", {CM}),
    ("limits", "estimate_limit", {CM}),
    ("limits", "verify_identity", {FI, CM}),
    ("limits", "verify_theorem_main", {CM}),
    ("limits", "verify_corollary", {CM}),
    ("limits", "verify_flux", {CM}),
    ("limits", "verify_sandwich", {CM}),
    ("limits", "verify_asymptotics", {CM}),
    ("limits", "verify_smoothing_bound", {CM}),
    ("limits", "verify_remainder_decay", {CM}),
    ("harness", "run", {CM}),
    ("harness", "load_config", {CM}),
    ("harness", "run_experiment", {CM}),
    ("harness", "write_report_csv", {CM}),
    ("harness", "_empty_csv", set()),  # only after an experiment raised
    ("model", "gaussian_inner", {FI, CM}),
    ("model", "l2_norm_sq", {FI, CM}),
]
WEIGHT_SPANS = {f"weights.d{j}": ({FI, CM} if j else set()) for j in range(5)}
WEIGHT_FACTORIES = ("make_psi_eps", "make_psi_k", "constant_weight")

FUNCTIONALS = [attr for mod, attr, _ in SPANS if mod == "functionals"]

# bytes computed per grid point for one call, complex128 (16 B): one read and
# one write per FFT pass, one write per sampled point
_GRID_BYTES = {
    "spectral.forward_transform": 32,
    "spectral.inverse_transform": 32,
    "spectral.evolve_spectral": 64,
    "spectral.sample_state": 16,
}


def required_spans(workload: str) -> set:
    names = {f"{mod}.{attr}" for mod, attr, fires in SPANS if workload in fires}
    names |= {name for name, fires in WEIGHT_SPANS.items() if workload in fires}
    return names


class Tracer:
    """Installs wrappers into smoothing_lab modules and records spans."""

    def __init__(self, lab_modules: dict):
        self.mods = lab_modules
        self.enabled = False
        self.spans = []
        self.counts = Counter()
        self.max_band = 0
        self.warnings = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches = []
        self.harness_runs = []  # (perf start, perf end, cpu start, cpu end)

    # -- span bookkeeping ---------------------------------------------------

    def _stack(self):
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    @property
    def task_id(self):
        return getattr(self._local, "task", None)

    @task_id.setter
    def task_id(self, value):
        self._local.task = value

    def _span(self, name, fn, after=None, before=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack = tracer._stack()
            parent = stack[-1][0] if stack else -1
            sid = next(tracer._ids)
            stack.append((sid, name))
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                tracer._note_failure(exc)
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append((sid, name, parent, tracer.task_id,
                                     threading.get_ident(), start, end))
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _count(self, key, amount=1):
        with self._lock:
            self.counts[key] += amount

    def _note_failure(self, exc):
        tnm = self.mods["errors"].ToleranceNotMetError
        if isinstance(exc, tnm) and not getattr(exc, "_traced", False):
            exc._traced = True
            self._count("quadrature.tolerance_failures")

    def in_span(self, name: str) -> bool:
        return any(n == name for _, n in self._stack())

    # -- installation -------------------------------------------------------

    def _lookup(self, mod, attr):
        original = getattr(self.mods[mod], attr, None)
        if original is None:
            raise LookupError(f"traced function {mod}.{attr} no longer exists")
        return original

    def _patch_everywhere(self, original, replacement):
        """Rebind every module-level name that refers to `original`."""
        for modname, mod in list(sys.modules.items()):
            if not (modname == "smoothing_lab" or modname.startswith("smoothing_lab.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is original:
                    self._patches.append((mod, attr, val))
                    setattr(mod, attr, replacement)

    def install(self):
        """Patch every traced name; LookupError if one no longer exists."""
        hooks = self._hooks()
        for mod, attr, _ in SPANS:
            original = self._lookup(mod, attr)
            name = f"{mod}.{attr}"
            before, after = hooks.get(name, (None, None))
            self._patch_everywhere(original, self._span(name, original, after, before))
        panel = self._lookup("quadrature", "_panel_value")
        self._patch_everywhere(panel, self._counter(panel, "quadrature.panel_evals"))
        band = self._lookup("quadrature", "_bucket_band")
        self._patch_everywhere(band, self._band_probe(band))
        for attr in WEIGHT_FACTORIES:
            original = self._lookup("weights", attr)
            self._patch_everywhere(original, self._factory(original))
        self.enabled = True

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside: for the benchmark's own calls into the package."""
        enabled, self.enabled = self.enabled, False
        try:
            yield
        finally:
            self.enabled = enabled

    def uninstall(self):
        self.enabled = False
        for mod, attr, val in reversed(self._patches):
            setattr(mod, attr, val)
        self._patches.clear()

    def _counter(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer.enabled:
                tracer._count(key)
            return fn(*args, **kwargs)

        return wrapper

    def _band_probe(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(band):
            m = fn(band)
            if tracer.enabled and m > tracer.max_band:
                with tracer._lock:
                    tracer.max_band = max(tracer.max_band, m)
            return m

        return wrapper

    def _factory(self, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.wrap_weight(fn(*args, **kwargs))

        return wrapper

    def wrap_weight(self, w):
        """A copy of the RadialWeight w whose d0..d4 record weights spans."""
        tracer = self

        def points(args, result):
            with tracer._lock:
                tracer.counts["weights.calls"] += 1
                tracer.counts["weights.points"] += int(getattr(args[0], "size", 1))

        return dataclasses.replace(w, **{
            f"d{j}": self._span(f"weights.d{j}", getattr(w, f"d{j}"), points)
            for j in range(5)
        })

    def _hooks(self):
        """Per-span (before, after) hooks that collect work counts."""
        tracer = self
        count = self._count

        def kernel(args, result):
            geom, r, omega = args[0], args[1], args[2]
            with tracer._lock:
                tracer.counts["quadrature.kernel_points"] += \
                    int(r.size) * int(omega.shape[0]) * int(geom.m)

        def shell(args, result):
            count("quadrature.panels_accepted", int(result[1]["panels"]))

        def time_integrand(args, kwargs):
            fn = args[0]

            def counted(t):
                count("quadrature.time_nodes")
                return fn(t)

            return (counted,) + tuple(args[1:]), kwargs

        def estimate(args, result):
            if not result.converged:
                count("limits.nonconverged")

        def grid(name):
            def after(args, result):
                g = result if name == "spectral.sample_state" else args[0]
                pts = int(g.N) ** int(g.n)
                count("spectral.grid_points", pts)
                count("spectral.bytes_computed", _GRID_BYTES[name] * pts)
            return after

        def run_before(args, kwargs):
            tracer._local.run_clock = (time.perf_counter(), time.process_time())
            return args, kwargs

        def run_after(args, result):
            p0, c0 = tracer._local.run_clock
            tracer.harness_runs.append((p0, time.perf_counter(),
                                        c0, time.process_time()))

        hooks = {
            "quadrature._shell_values": (None, kernel),
            "quadrature.shell_integral": (None, shell),
            "quadrature.adaptive_time_integral": (time_integrand, None),
            "limits.estimate_limit": (None, estimate),
            "harness.run": (run_before, run_after),
        }
        for name in _GRID_BYTES:
            hooks[name] = (None, grid(name))
        return hooks

    # -- warnings -----------------------------------------------------------

    def showwarning(self, message, category, filename, lineno, file=None, line=None):
        """Count a warning instead of printing it to stderr."""
        with self._lock:
            self.warnings[category.__name__] += 1
            if self.enabled:
                self.counts["warnings.count"] += 1
                if self.in_span("limits.estimate_limit"):
                    self.counts["limits.fit_warnings"] += 1

    def capture_warnings(self, categories):
        for cat in categories:
            warnings.simplefilter("always", cat)
        warnings.showwarning = self.showwarning

    # -- per-pass reduction ---------------------------------------------------

    def take(self):
        """Return and reset the spans and counts recorded since the last take."""
        with self._lock:
            spans, self.spans = self.spans, []
            counts, self.counts = self.counts, Counter()
            band, self.max_band = self.max_band, 0
            runs, self.harness_runs = self.harness_runs, []
        return spans, counts, band, runs


def self_times(spans):
    """Map span id -> self seconds (duration minus the union of child intervals)."""
    children = defaultdict(list)
    for sid, _, parent, _, _, start, end in spans:
        if parent >= 0:
            children[parent].append((start, end))
    out = {}
    for sid, _, _, _, _, start, end in spans:
        covered = 0.0
        hi = start
        for a, b in sorted(children.get(sid, ())):
            a = max(a, hi)
            if b > a:
                covered += b - a
                hi = b
        out[sid] = (end - start) - covered
    return out


def pass_metrics(spans, counts, band, runs) -> dict:
    """Per-layer metrics for one traced pass."""
    own = self_times(spans)
    name_of = {s[0]: s[1] for s in spans}
    layer_self = Counter()
    calls = Counter()
    for sid, name, parent, *_ in spans:
        calls[name] += 1
        layer_self[name] += own[sid]

    def total(prefix=None, names=()):
        keys = [n for n in layer_self
                if (prefix and n.startswith(prefix)) or n in names]
        return sum(layer_self[n] for n in keys)

    weight_names = list(WEIGHT_SPANS) + ["weights.radial_laplacians"]
    m = {
        "weights.calls": counts["weights.calls"],
        "weights.points": counts["weights.points"],
        "weights.self_s": total(names=weight_names),
        "quadrature.kernel_calls": calls["quadrature._shell_values"],
        "quadrature.kernel_self_s": layer_self["quadrature._shell_values"],
        "quadrature.kernel_points": counts["quadrature.kernel_points"],
        "quadrature.max_band": band,
        "quadrature.shell_calls": calls["quadrature.shell_integral"],
        "quadrature.shell_self_s": layer_self["quadrature.shell_integral"],
        "quadrature.panels_accepted": counts["quadrature.panels_accepted"],
        "quadrature.panel_evals": counts["quadrature.panel_evals"],
        "quadrature.panel_yield": (counts["quadrature.panels_accepted"]
                                   / counts["quadrature.panel_evals"]
                                   if counts["quadrature.panel_evals"] else 0.0),
        "quadrature.tolerance_failures": counts["quadrature.tolerance_failures"],
        "quadrature.time_integrals": sum(
            1 for s in spans if s[1] in TIME_SPANS
            and name_of.get(s[2]) not in TIME_SPANS),
        "quadrature.time_nodes": counts["quadrature.time_nodes"],
        "quadrature.time_self_s": total(names=TIME_SPANS),
        "propagator.calls": sum(v for k, v in calls.items() if k.startswith("propagator.")),
        "propagator.self_s": total(prefix="propagator."),
        "spectral.fft_calls": sum(calls[k] for k in (
            "spectral.forward_transform", "spectral.inverse_transform",
            "spectral.evolve_spectral")),
        "spectral.fft_self_s": total(names=(
            "spectral.forward_transform", "spectral.inverse_transform",
            "spectral.evolve_spectral")),
        "spectral.sample_self_s": total(names=("spectral.sample_state",
                                               "spectral.sample_datum")),
        "spectral.grid_points": counts["spectral.grid_points"],
        "spectral.bytes_computed": counts["spectral.bytes_computed"],
        "spectral.hs_norm_calls": calls["spectral.hs_norm_sq"],
        "functionals.calls": sum(calls[f"functionals.{f}"] for f in FUNCTIONALS),
        "functionals.self_s": total(prefix="functionals."),
        "limits.verify_self_s": total(names=[k for k in layer_self
                                             if k.startswith("limits.verify_")]),
        "limits.estimate_calls": calls["limits.estimate_limit"],
        "limits.estimate_s": layer_self["limits.estimate_limit"],
        "limits.nonconverged": counts["limits.nonconverged"],
        "limits.fit_warnings": counts["limits.fit_warnings"],
        "warnings.count": counts["warnings.count"],
        "harness.load_s": layer_self["harness.load_config"],
        "harness.csv_s": total(names=("harness.write_report_csv", "harness._empty_csv")),
        "model.gram_calls": calls["model.gaussian_inner"],
        "model.gram_self_s": total(prefix="model."),
    }
    for f in FUNCTIONALS:
        m[f"functionals.{f}.calls"] = calls[f"functionals.{f}"]
        m[f"functionals.{f}.self_s"] = layer_self[f"functionals.{f}"]

    # harness scheduling: waits from run start to each experiment start
    waits, threads, cpu, wall = [], set(), 0.0, 0.0
    for p0, p1, c0, c1 in runs:
        cpu += c1 - c0
        wall += p1 - p0
        for sid, name, _, _, thread, start, _ in spans:
            if name == "harness.run_experiment" and p0 <= start <= p1:
                waits.append(start - p0)
                threads.add(thread)
    m["harness.queue_wait_s"] = sum(waits) / len(waits) if waits else 0.0
    m["harness.threads"] = len(threads)
    m["harness.cpu_per_wall"] = cpu / wall if wall else 0.0
    return m
