"""Experiment orchestration: config files in, CSVs and a summary out.

Config format: one INI section per experiment, flat key-value pairs, e.g.

    [gauss-identity]
    kind = identity
    n = 1
    packet1 = 1.0 0.0 1.0 0.0 0.0
    weight = eps
    eps = 1.0
    schedule_start = 0.5
    schedule_factor = 4
    schedule_count = 2
    tolerance = 1e-6
    output = gauss_identity.csv

A packet key lists amplitude_re amplitude_im width center(n) momentum(n).
The optional [lab] section holds the summary path.  Each experiment kind
is one ExperimentKind record in REGISTRY: its statement, default
tolerance, the parser of its own keys and its driver; its shortest
schedule is limits.MIN_POINTS[kind], which the load enforces too.
A key is known to a section because some parser reads it.
run_experiment labels each report with the section's datum_id, which
defaults to the section name.

The whole config is checked when it loads: keys nothing reads, non-finite
numbers, short or overlong schedules, a file written twice or under a missing
directory all fail there.  Experiments then run one after another in
config order; an exception in one is recorded in the summary and the
others still run.  Exit status: 0 all experiments pass, 1 any tolerance
failure or runtime error (failing rows are named), 2 config errors
(section and key are named).

CSV rows are deterministic: fixed column order, 17-significant-digit
floats, one row per schedule point, newline-terminated lines.
"""

from __future__ import annotations

import argparse
import configparser
import contextlib
import csv
import math
import os
import re
import sys
import traceback
from dataclasses import dataclass, field
from typing import Callable

from .errors import ConfigError, SmoothingLabError
from .limits import (MIN_POINTS, verify_asymptotics, verify_corollary,
                     verify_flux, verify_identity, verify_remainder_decay,
                     verify_sandwich, verify_smoothing_bound,
                     verify_theorem_main)
from .model import VerificationReport, WavePacket, WavePacketSum
from .weights import constant_weight, make_psi_eps, make_psi_k, rescale

CSV_COLUMNS = [
    "experiment", "n", "datum_id", "weight_id", "schedule_param",
    "lhs", "rhs", "abs_residual", "rel_residual",
    "extrapolated_limit", "limit_error", "pass",
]

_PACKET_KEY = re.compile(r"^packet(\d+)$")
# each schedule point is one full space-time computation; a longer
# schedule is a typo, not a run that would finish
_MAX_SCHEDULE = 64


@dataclass
class ExperimentSpec:
    """One validated experiment, ready to run."""

    section: str
    kind: str
    datum: WavePacketSum
    datum_id: str
    schedule: list
    tolerance: float
    output: str
    options: dict = field(default_factory=dict)


class _SectionReader:
    """Typed access to one config section with key-level diagnostics.

    Every key asked for lands in `read`, present or not; a key of the
    section that no parser asked for is unknown.
    """

    def __init__(self, section: str, items: dict):
        self.section = section
        self.items = dict(items)
        self.read = set()

    def error(self, key: str, message: str) -> ConfigError:
        return ConfigError(self.section, key, message)

    def raw(self, key: str, default=None, required: bool = False):
        self.read.add(key)
        if key in self.items:
            return self.items[key]
        if required:
            raise self.error(key, "required key is missing")
        return default

    def floatv(self, key: str, default=None, required: bool = False):
        raw = self.raw(key, required=required)
        if raw is None:
            return default
        try:
            value = float(raw)
        except ValueError:
            raise self.error(key, f"expected a number, got {raw!r}") from None
        if not math.isfinite(value):
            raise self.error(key, f"expected a finite number, got {raw!r}")
        return value

    def intv(self, key: str, default=None, required: bool = False):
        raw = self.raw(key, required=required)
        if raw is None:
            return default
        try:
            return int(raw)
        except ValueError:
            raise self.error(key, f"expected an integer, got {raw!r}") from None


def _parse_packets(reader: _SectionReader, n: int) -> WavePacketSum:
    entries = []
    for key, raw in reader.items.items():
        m = _PACKET_KEY.match(key)
        if not m:
            continue
        reader.read.add(key)
        try:
            nums = [float(tok) for tok in raw.split()]
        except ValueError:
            raise reader.error(key, f"non-numeric packet entry in {raw!r}") from None
        if len(nums) != 3 + 2 * n:
            raise reader.error(
                key,
                f"expected {3 + 2 * n} numbers "
                "(amplitude_re amplitude_im width center momentum), "
                f"got {len(nums)}",
            )
        amp = complex(nums[0], nums[1])
        width = nums[2]
        center = nums[3:3 + n]
        momentum = nums[3 + n:3 + 2 * n]
        try:
            entries.append(
                (int(m.group(1)), WavePacket(amp, width, center, momentum))
            )
        except SmoothingLabError as exc:
            raise reader.error(key, str(exc)) from None
    if not entries:
        raise reader.error("packet1", "experiment defines no packets")
    entries.sort(key=lambda e: e[0])
    return WavePacketSum(n, tuple(p for _, p in entries))


# each weight kind's parameter key, the reader of that key, its default
# (None: the key is required) and the factory that judges the value, named
# in a lambda body, as REGISTRY's drivers are, so it is looked up per call
_WEIGHT_KINDS = {
    "eps": ("eps", _SectionReader.floatv, None, lambda x: make_psi_eps(x)),
    "bump": ("k", _SectionReader.intv, None, lambda x: make_psi_k(x)),
    "constant": ("value", _SectionReader.floatv, 1.0, lambda x: constant_weight(x)),
}


def _parse_weight(reader: _SectionReader):
    kind = reader.raw("weight", required=True).strip().lower()
    if kind not in _WEIGHT_KINDS:
        raise reader.error(
            "weight", f"unknown weight kind {kind!r} ({'|'.join(_WEIGHT_KINDS)})")
    key, read, default, factory = _WEIGHT_KINDS[kind]
    value = read(reader, key, default, required=default is None)
    try:
        w = factory(value)
    except SmoothingLabError as exc:
        raise reader.error(key, str(exc)) from None
    R = reader.floatv("rescale_r")
    if R is not None:
        try:
            w = rescale(w, R)
        except SmoothingLabError as exc:
            raise reader.error("rescale_r", str(exc)) from None
    return w


def _weight_options(reader: _SectionReader) -> dict:
    return {"weight": _parse_weight(reader)}


def _sandwich_options(reader: _SectionReader) -> dict:
    k = reader.intv("k", required=True)
    try:
        make_psi_k(k)  # owns the rule for k
    except SmoothingLabError as exc:
        raise reader.error("k", str(exc)) from None
    return {"k": k}


@dataclass(frozen=True)
class ExperimentKind:
    """Everything the harness knows about one experiment kind.

    tolerance is the kind's default, the only one: verify_* take theirs
    explicitly.  parse reads the kind's own keys into ExperimentSpec.options,
    and any key that neither it nor the common parsers read is rejected;
    driver runs a spec.  Drivers name their verify_* function in the lambda
    body, so the function is looked up when the experiment runs.
    """

    statement: str
    tolerance: float
    driver: Callable[[ExperimentSpec], VerificationReport]
    parse: Callable[[_SectionReader], dict] = lambda reader: {}


REGISTRY = {
    "identity": ExperimentKind(
        "int_{-T}^{T} int [psi''|u_r|^2 + (psi'/r)|grad_tau u|^2"
        " - (1/4)|u|^2 Lap^2 psi] dx dt = (flux(T) - flux(-T)) / 2",
        1e-6, parse=_weight_options,
        driver=lambda s: verify_identity(
            s.datum, s.options["weight"], s.schedule, s.tolerance)),
    "theorem-limit": ExperimentKind(
        "lim_{T->inf} int_{-T}^{T} int [psi''|u_r|^2 + (psi'/r)|grad_tau u|^2"
        " - (1/4)|u|^2 Lap^2 psi] dx dt = 2 pi psi'(inf) ||f||^2_{H^1/2}",
        0.02, parse=_weight_options,
        driver=lambda s: verify_theorem_main(
            s.datum, s.options["weight"], s.schedule, s.tolerance)),
    "corollary-limit": ExperimentKind(
        "lim_{R->inf} (1/R) int_t int_{B_R} |u_r|^2 dx dt"
        " = 2 pi ||f||^2_{H^1/2}",
        0.02,
        driver=lambda s: verify_corollary(
            s.datum, s.schedule, s.tolerance)),
    "flux-limit": ExperimentKind(
        "lim_{t->+-inf} Im int conj(u) psi'(r) u_r dx"
        " = +-2 pi psi'(inf) ||f||^2_{H^1/2}",
        0.02, parse=_weight_options,
        driver=lambda s: verify_flux(
            s.datum, s.options["weight"], s.schedule, s.tolerance)),
    "sandwich": ExperimentKind(
        "(1/R) int_t int_{B_R} |u_r|^2 <= int_t int psi_{k,R}''|u_r|^2"
        " <= ((k+1)/k) profile((k+1)R/k)",
        1e-3, parse=_sandwich_options,
        driver=lambda s: verify_sandwich(
            s.datum, s.options["k"], s.schedule, s.tolerance)),
    "remainder-decay": ExperimentKind(
        "lim_{R->inf} int_t int |u|^2 |Lap^2 psi_R| dx dt = 0,"
        " same for int_t int (|grad_tau u|^2/r) |psi_R'|",
        0.25, parse=_weight_options,
        driver=lambda s: verify_remainder_decay(
            s.datum, s.options["weight"], s.schedule, decay_ratio=s.tolerance)),
    "asymptotics": ExperimentKind(
        "u(t) = e^{-i sgn(t) n pi/4} e^{i|x|^2/(4t)} (4 pi |t|)^{-n/2}"
        " fhat(x/(4 pi t)) + o_{L2}(1)",
        0.1,
        driver=lambda s: verify_asymptotics(
            s.datum, s.schedule, final_ratio=s.tolerance)),
    "smoothing-bound": ExperimentKind(
        "sup_R (1/R) int_t int_{B_R} |grad u|^2 dx dt"
        " >= 2 pi ||f||^2_{H^1/2}",
        0.02,
        driver=lambda s: verify_smoothing_bound(
            s.datum, s.schedule, s.tolerance)),
}


def _parse_schedule(reader: _SectionReader, kind: str) -> list:
    least = MIN_POINTS[kind]
    start = reader.floatv("schedule_start", required=True)
    count = reader.intv("schedule_count", required=True)
    factor = reader.floatv("schedule_factor", 2.0)
    if start <= 0:
        raise reader.error("schedule_start", "must be positive")
    if count < least:
        raise reader.error("schedule_count",
                           f"{kind} needs at least {least} "
                           f"schedule points, got {count}")
    if count > _MAX_SCHEDULE:
        raise reader.error("schedule_count",
                           f"at most {_MAX_SCHEDULE} schedule points, got {count}")
    if factor <= 1.0 and count > 1:
        raise reader.error("schedule_factor", "must exceed 1 for multi-point schedules")
    try:
        schedule = [start * factor**j for j in range(count)]
        if not math.isfinite(schedule[-1]):
            raise OverflowError
    except OverflowError:
        raise reader.error("schedule_factor",
                           "schedule overflows to infinity") from None
    return schedule


def parse_experiment(section: str, items: dict) -> ExperimentSpec:
    reader = _SectionReader(section, items)
    kind = reader.raw("kind", required=True).strip()
    if kind not in REGISTRY:
        raise reader.error(
            "kind", f"unknown kind {kind!r}; see list-experiments"
        )
    record = REGISTRY[kind]
    n = reader.intv("n", required=True)
    if n not in (1, 2, 3):
        raise reader.error("n", f"dimension must be 1, 2 or 3, got {n}")
    datum = _parse_packets(reader, n)
    schedule = _parse_schedule(reader, kind)
    tolerance = reader.floatv("tolerance", record.tolerance)
    if tolerance <= 0:
        raise reader.error("tolerance", "must be positive")
    spec = ExperimentSpec(
        section=section, kind=kind, datum=datum,
        datum_id=reader.raw("datum_id", section), schedule=schedule,
        tolerance=tolerance,
        output=reader.raw("output", f"{section}.csv"),
        options=record.parse(reader),
    )
    for key in reader.items:  # section order, so the first stray key is named
        if key not in reader.read:
            raise reader.error(key, f"unknown key for kind {kind!r}")
    return spec


def run_experiment(spec: ExperimentSpec) -> VerificationReport:
    report = REGISTRY[spec.kind].driver(spec)
    report.datum_id = spec.datum_id
    return report


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _fmt(x: float) -> str:
    return "%.17g" % float(x)


def _row_passes(report: VerificationReport, idx: int) -> bool:
    if report.experiment == "identity":
        return bool(report.rel_residual[idx] <= report.tolerance)
    return report.passed


def write_report_csv(report: VerificationReport, path: str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(CSV_COLUMNS)
        for i, p in enumerate(report.params):
            writer.writerow([
                report.experiment,
                str(report.n),
                report.datum_id,
                report.weight_id,
                _fmt(p),
                _fmt(report.lhs[i]),
                _fmt(report.rhs[i]),
                _fmt(report.abs_residual[i]),
                _fmt(report.rel_residual[i]),
                _fmt(report.extrapolated_limit),
                _fmt(report.limit_error),
                "1" if _row_passes(report, i) else "0",
            ])


def _empty_csv(path: str) -> None:
    with open(path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(CSV_COLUMNS)


def _claim(writers: dict, section: str, key: str, path: str) -> None:
    """Record that [section] writes path: no file twice, no missing folder."""
    target = os.path.abspath(path)
    if target in writers:
        raise ConfigError(section, key, f"[{writers[target]}] already writes {path!r}")
    if not os.path.isdir(os.path.dirname(target)):
        raise ConfigError(section, key, f"the directory of {path!r} does not exist")
    writers[target] = section


def load_config(path: str) -> tuple[list[ExperimentSpec], str]:
    """Parse and validate a config file; returns (specs, summary_path)."""
    parser = configparser.ConfigParser(interpolation=None)
    try:
        with open(path) as fh:
            parser.read_file(fh)
    except OSError as exc:
        raise ConfigError("-", "-", f"cannot read config: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError("-", "-", f"malformed config: {exc}") from None

    summary_path = "summary.txt"
    specs = []
    writers = {}  # output file -> the section that writes it
    for section in parser.sections():
        items = dict(parser.items(section))
        if section == "lab":
            for key in items:
                if key != "summary":
                    raise ConfigError("lab", key, "unknown key in [lab]")
            summary_path = items.get("summary", summary_path)
            continue
        spec = parse_experiment(section, items)
        _claim(writers, section, "output", spec.output)
        specs.append(spec)
    _claim(writers, "lab", "summary", summary_path)
    return specs, summary_path


def run(config_path: str) -> int:
    """Execute a config: one CSV per experiment, a summary file, exit code."""
    try:
        specs, summary_path = load_config(config_path)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    lines = []
    n_pass = 0
    for spec in specs:
        try:
            # looked up per spec: callers may wrap run_experiment
            report = run_experiment(spec)
            write_report_csv(report, spec.output)
        except Exception as exc:
            if not isinstance(exc, SmoothingLabError):
                traceback.print_exc()  # a crash, not a numerical verdict
            lines.append(f"ERROR [{spec.section}] kind={spec.kind}: "
                         f"{type(exc).__name__}: {exc}")
            with contextlib.suppress(OSError):
                _empty_csv(spec.output)
            continue
        verdict = "PASS" if report.passed else "FAIL"
        lines.append(
            f"{verdict} [{spec.section}] kind={spec.kind} "
            f"datum={report.datum_id} weight={report.weight_id} "
            f"-> {spec.output}"
            + (f" ({report.notes})" if report.notes else "")
        )
        if report.passed:
            n_pass += 1
            continue
        for i, p in enumerate(report.params):
            if not _row_passes(report, i):
                lines.append(
                    f"    failing row: {spec.section} "
                    f"param={_fmt(p)} lhs={_fmt(report.lhs[i])} "
                    f"rhs={_fmt(report.rhs[i])} "
                    f"rel_residual={_fmt(report.rel_residual[i])}"
                )

    lines.append(f"{n_pass}/{len(specs)} experiments passed")
    summary = "\n".join(lines) + "\n"
    print(summary, end="")
    try:
        with open(summary_path, "w") as fh:
            fh.write(summary)
    except OSError as exc:
        print(f"cannot write summary: {exc}", file=sys.stderr)
        return 1
    return 0 if n_pass == len(specs) else 1


DEFAULT_CONFIG = """\
# smoothing-lab experiment file.  One section per experiment; run with
#   smoothing-lab run <this file>
# Packet rows: amplitude_re amplitude_im width center(n) momentum(n).

[gauss-identity]
kind = identity
n = 1
packet1 = 1.0 0.0 1.0 0.0 0.0
weight = eps
eps = 1.0
schedule_start = 0.5
schedule_factor = 4
schedule_count = 2
tolerance = 1e-6
output = gauss_identity.csv

[gauss-corollary]
kind = corollary-limit
n = 1
packet1 = 1.0 0.0 1.0 0.0 0.0
schedule_start = 4
schedule_factor = 2
schedule_count = 6
tolerance = 0.02
output = gauss_corollary.csv

[gauss-flux]
kind = flux-limit
n = 1
packet1 = 1.0 0.0 1.0 0.0 0.0
weight = eps
eps = 1.0
schedule_start = 8
schedule_factor = 2
schedule_count = 4
tolerance = 0.02
output = gauss_flux.csv
"""


def emit_default_config(path: str) -> None:
    with open(path, "w") as fh:
        fh.write(DEFAULT_CONFIG)


def list_experiments() -> str:
    width = max(len(k) for k in REGISTRY)
    lines = [f"{name.ljust(width)}  {kind.statement}"
             for name, kind in REGISTRY.items()]
    return "\n".join(lines) + "\n"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="smoothing-lab",
        description="Verification experiments for free-flow smoothing identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="execute every experiment in a config")
    run_p.add_argument("config", help="path to the experiment config")
    sub.add_parser("list-experiments",
                   help="print the experiment kinds and their statements")
    emit_p = sub.add_parser("emit-default-config",
                            help="write a starter config")
    emit_p.add_argument("path", help="destination file")
    args = parser.parse_args(argv)

    if args.command == "run":
        return run(args.config)
    if args.command == "list-experiments":
        print(list_experiments(), end="")
        return 0
    if args.command == "emit-default-config":
        emit_default_config(args.path)
        print(f"wrote {args.path}")
        return 0
    return 2


if __name__ == "__main__":
    sys.exit(main())
