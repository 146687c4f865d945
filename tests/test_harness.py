"""End-to-end CLI tests.

Each test works in a pytest tmp directory, runs main() with real argv, and
inspects exit codes, CSV bytes and the summary file.  The configs use the
cheapest experiment that exercises the path in question, so the whole file
stays in the seconds range.
"""

from pathlib import Path

import numpy as np
import pytest

from smoothing_lab import limits
from smoothing_lab.errors import ConfigError, InvalidParameterError
from smoothing_lab.harness import (CSV_COLUMNS, REGISTRY, ExperimentSpec,
                                   list_experiments, load_config, main,
                                   parse_experiment, run_experiment,
                                   write_report_csv)
from smoothing_lab.limits import MIN_POINTS
from smoothing_lab.model import VerificationReport, packet, packet_sum
from smoothing_lab.weights import make_psi_eps

QUICK_IDENTITY = """\
[quick-identity]
kind = identity
n = 1
packet1 = 1.0 0.0 1.0 0.1 0.3
weight = eps
eps = 1.0
schedule_start = 0.5
schedule_count = 1
tolerance = 1e-6
output = quick_identity.csv
"""


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def write_config(workdir, text, name="lab.cfg"):
    path = workdir / name
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# happy path
# ---------------------------------------------------------------------------

def test_run_writes_deterministic_csv(workdir, capsys):
    cfg = write_config(workdir, QUICK_IDENTITY)
    assert main(["run", cfg]) == 0
    first = (workdir / "quick_identity.csv").read_bytes()
    assert main(["run", cfg]) == 0
    second = (workdir / "quick_identity.csv").read_bytes()
    assert first == second

    lines = first.decode().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[0] == "identity"
    assert row[1] == "1"
    assert row[2] == "quick-identity"       # datum_id defaults to the section
    assert row[-1] == "1"
    assert float(row[8]) <= 1e-6            # rel_residual within tolerance

    out = capsys.readouterr().out
    assert "PASS [quick-identity]" in out
    assert "1/1 experiments passed" in out


def test_bundled_quickcheck_config(workdir, capsys):
    cfg = Path(__file__).resolve().parent.parent / "configs" / "quickcheck.cfg"
    assert main(["run", str(cfg)]) == 0
    assert "1/1 experiments passed" in capsys.readouterr().out
    assert (workdir / "quickcheck_identity.csv").exists()


def test_empty_experiment_list(workdir, capsys):
    cfg = write_config(workdir, "[lab]\nsummary = out.txt\n")
    assert main(["run", cfg]) == 0
    assert (workdir / "out.txt").read_text() == "0/0 experiments passed\n"


def test_summary_file_honors_lab_section(workdir):
    cfg = write_config(workdir, "[lab]\nsummary = verdicts.txt\n" + QUICK_IDENTITY)
    assert main(["run", cfg]) == 0
    text = (workdir / "verdicts.txt").read_text()
    assert "PASS [quick-identity]" in text
    assert text.endswith("1/1 experiments passed\n")


def test_failing_experiment_names_rows(workdir, capsys):
    # the far-field error of a moving packet halves from t = 1 to 2, far
    # above a final ratio of 1e-30: the run fails for that, not for a
    # roundoff residual, and names every row
    cfg = write_config(workdir, """\
[slow-decay]
kind = asymptotics
n = 1
packet1 = 1.0 0.0 1.0 0.0 0.5
schedule_start = 1.0
schedule_factor = 2
schedule_count = 2
tolerance = 1e-30
output = slow_decay.csv
""")
    assert main(["run", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL [slow-decay]" in out
    assert "error fell by 5.021e-01" in out
    assert "failing row: slow-decay param=1 " in out
    assert "failing row: slow-decay param=2 " in out
    assert "rel_residual=" in out
    rows = (workdir / "slow_decay.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["0", "0"]


def test_identity_rows_pass_one_by_one(workdir):
    # an identity row passes on its own relative residual, not on the
    # report's verdict
    report = VerificationReport(
        experiment="identity", n=1, weight_id="w", params=[1.0, 2.0],
        lhs=[1.0, 1.0 - 1e-3], rhs=[1.0, 1.0], tolerance=1e-6, floor=1.0)
    np.testing.assert_allclose(report.rel_residual, [0.0, 1e-3], rtol=1e-12)
    write_report_csv(report, str(workdir / "rows.csv"))
    rows = (workdir / "rows.csv").read_text().splitlines()[1:]
    assert [row.split(",")[-1] for row in rows] == ["1", "0"]


def test_fast_packet_sandwich_fails(workdir, capsys):
    # every profile integral misses the fast packet and reads 0 (see
    # FAST_1D in test_limits): the run must fail, not pass on zeros
    cfg = write_config(workdir, """\
[fast-sandwich]
kind = sandwich
n = 1
packet1 = 1.0 0.0 1.0 -500.0 300.0
k = 2
schedule_start = 1.0
schedule_factor = 2
schedule_count = 3
output = fast_sandwich.csv
""")
    assert main(["run", cfg]) == 1
    out = capsys.readouterr().out
    assert "FAIL [fast-sandwich]" in out
    assert "profile is 0 for a nonzero datum" in out


def test_runtime_error_yields_empty_csv(workdir, capsys):
    # even 1d datum: the absolute bilaplacian remainder diverges, so the
    # experiment errors at run time while its sibling still completes
    cfg = write_config(workdir, QUICK_IDENTITY + """
[diverging-remainder]
kind = remainder-decay
n = 1
packet1 = 1.0 0.0 1.0 0.0 0.0
weight = eps
eps = 1.0
schedule_start = 4
schedule_count = 2
output = diverging.csv
""")
    assert main(["run", cfg]) == 1
    out = capsys.readouterr().out
    assert "ERROR [diverging-remainder]" in out
    assert "PASS [quick-identity]" in out
    assert "1/2 experiments passed" in out
    assert (workdir / "diverging.csv").read_text() == ",".join(CSV_COLUMNS) + "\n"
    assert len((workdir / "quick_identity.csv").read_text().splitlines()) == 2


def test_unwritable_output_keeps_siblings_and_summary(workdir, capsys):
    # the output path names an existing directory, so opening it for
    # writing fails only after the experiment has run
    (workdir / "taken").mkdir()
    broken = (QUICK_IDENTITY.replace("[quick-identity]", "[broken-output]")
              .replace("output = quick_identity.csv", "output = taken"))
    cfg = write_config(workdir, "[lab]\nsummary = verdicts.txt\n"
                       + broken + "\n" + QUICK_IDENTITY)
    assert main(["run", cfg]) == 1
    out = capsys.readouterr().out
    assert "ERROR [broken-output] kind=identity: IsADirectoryError:" in out
    assert "PASS [quick-identity]" in out
    assert len((workdir / "quick_identity.csv").read_text().splitlines()) == 2
    assert (workdir / "verdicts.txt").read_text() == out
    assert out.endswith("1/2 experiments passed\n")


def test_unwritable_summary_still_prints(workdir, capsys):
    (workdir / "taken").mkdir()
    cfg = write_config(workdir, "[lab]\nsummary = taken\n" + QUICK_IDENTITY)
    assert main(["run", cfg]) == 1
    captured = capsys.readouterr()
    assert captured.out.endswith("1/1 experiments passed\n")
    assert "cannot write summary" in captured.err
    assert len((workdir / "quick_identity.csv").read_text().splitlines()) == 2


# ---------------------------------------------------------------------------
# config validation: exit 2, section and key named
# ---------------------------------------------------------------------------

def run_expecting_config_error(workdir, capsys, text, *needles):
    cfg = write_config(workdir, text)
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "config error" in err
    for needle in needles:
        assert needle in err
    return err


def test_negative_eps_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY.replace("eps = 1.0", "eps = -1.0"),
        "[quick-identity]", "eps")


def test_unknown_key_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY + "liminf_fraction = 0.9\n",
        "[quick-identity]", "liminf_fraction", "unknown key")


def test_short_packet_row_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("packet1 = 1.0 0.0 1.0 0.1 0.3",
                               "packet1 = 1.0 0.0 1.0"),
        "[quick-identity]", "packet1", "expected 5 numbers")


def test_unknown_kind_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("kind = identity", "kind = conservation"),
        "[quick-identity]", "kind", "conservation")


def test_missing_dimension_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY.replace("n = 1\n", ""),
        "[quick-identity]", "n", "missing")


def test_schedule_kind_mismatch_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY + "schedule_kind = R\n",
        "[quick-identity]", "schedule_kind")


def test_unknown_lab_key_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys, "[lab]\nthreads = 4\n" + QUICK_IDENTITY,
        "[lab]", "threads")


def test_missing_config_file(workdir, capsys):
    assert main(["run", str(workdir / "absent.cfg")]) == 2
    assert "cannot read config" in capsys.readouterr().err


def test_parse_experiment_reports_section_and_key():
    with pytest.raises(ConfigError) as exc:
        parse_experiment("exp", {"kind": "identity", "n": "2"})
    assert exc.value.section == "exp"
    assert exc.value.key == "packet1"


def test_non_finite_numbers_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("tolerance = 1e-6", "tolerance = nan"),
        "[quick-identity]", "tolerance", "finite")
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("schedule_start = 0.5", "schedule_start = inf"),
        "[quick-identity]", "schedule_start", "finite")
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("schedule_count = 1",
                               "schedule_count = 3\nschedule_factor = 1e300"),
        "[quick-identity]", "schedule_factor", "infinity")


def test_short_limit_schedule_rejected(workdir, capsys):
    for kind, count, least in (
            # the horizon limit is extrapolated from at least 3 points
            ("theorem-limit", 2, 3),
            # the decay verdicts compare the last point with the first
            ("asymptotics", 1, 2),
            ("remainder-decay", 1, 2)):
        text = QUICK_IDENTITY.replace("kind = identity", f"kind = {kind}") \
                             .replace("schedule_count = 1", f"schedule_count = {count}")
        if kind == "asymptotics":
            text = text.replace("weight = eps\neps = 1.0\n", "")
        run_expecting_config_error(workdir, capsys, text, "[quick-identity]",
                                   "schedule_count", f"at least {least}")


def uncomputed_spec(monkeypatch, kind, schedule):
    """A spec of kind on schedule whose driver fails if it computes the
    half-norm, the first thing every driver computes after its checks."""

    def computed(*args):
        raise AssertionError("the driver computed before checking its schedule")

    monkeypatch.setattr(limits, "hs_norm_sq", computed)
    return ExperimentSpec(
        section="bad", kind=kind, datum=packet_sum([packet(1.0, 1.0, [0.0])]),
        datum_id="bad", schedule=schedule,
        tolerance=REGISTRY[kind].tolerance, output="bad.csv",
        options={"weight": make_psi_eps(1.0), "k": 2})


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_driver_rejects_short_schedule_before_computing(monkeypatch, kind):
    # the load's minimum is the driver's own first check: a schedule one
    # point short raises before the half-norm every driver computes
    assert set(MIN_POINTS) == set(REGISTRY)
    spec = uncomputed_spec(monkeypatch, kind,
                           [2.0**j for j in range(MIN_POINTS[kind] - 1)])
    with pytest.raises(InvalidParameterError,
                       match=f"{kind} needs at least {MIN_POINTS[kind]} "):
        run_experiment(spec)


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_driver_rejects_decreasing_schedule_before_computing(monkeypatch, kind):
    # a schedule read out of order would fit, bracket or compare the wrong
    # points; three points meet every kind's minimum, so the order is what
    # raises, and flux-limit checks it before its positivity guard
    spec = uncomputed_spec(monkeypatch, kind, [4.0, 2.0, 1.0])
    with pytest.raises(InvalidParameterError, match="must strictly increase"):
        run_experiment(spec)


@pytest.mark.parametrize("kind", sorted(REGISTRY))
@pytest.mark.parametrize("schedule,rule", [
    ([-1.0, 1.0, 2.0], "must be positive"), ([0.0, 1.0, 2.0], "must be positive"),
    ([1.0, 2.0, float("inf")], "must be finite"), ([1.0, float("nan"), 2.0], "must be finite"),
], ids=["negative", "zero", "infinite", "nan"])
def test_driver_rejects_bad_point_before_computing(monkeypatch, kind, schedule, rule):
    # every driver reads the one schedule rule: a time, horizon or radius
    # is finite and positive, so asymptotics rejects negative times too
    spec = uncomputed_spec(monkeypatch, kind, schedule)
    with pytest.raises(InvalidParameterError, match=rule):
        run_experiment(spec)


def test_overlong_schedule_rejected(workdir, capsys):
    # a million-point schedule would load and then run for days; the load
    # alone is checked first, so a parser without the cap fails here quickly
    text = QUICK_IDENTITY.replace(
        "schedule_count = 1", "schedule_count = 1000000\nschedule_factor = 1.000001")
    with pytest.raises(ConfigError) as exc:
        load_config(write_config(workdir, text))
    assert (exc.value.section, exc.value.key) == ("quick-identity", "schedule_count")
    assert "at most 64" in str(exc.value)
    run_expecting_config_error(workdir, capsys, text, "[quick-identity]",
                               "schedule_count", "at most 64")


def test_duplicate_output_rejected(workdir, capsys):
    twin = QUICK_IDENTITY.replace("[quick-identity]", "[twin-identity]")
    run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY + "\n" + twin,
        "[twin-identity]", "output", "quick_identity.csv")
    run_expecting_config_error(
        workdir, capsys, "[lab]\nsummary = quick_identity.csv\n" + QUICK_IDENTITY,
        "[lab]", "summary", "[quick-identity]")


def test_output_under_missing_directory_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("output = quick_identity.csv",
                               "output = missing/broken.csv"),
        "[quick-identity]", "output", "does not exist")
    assert not (workdir / "missing").exists()


def test_summary_under_missing_directory_rejected(workdir, capsys):
    run_expecting_config_error(
        workdir, capsys, "[lab]\nsummary = missing/verdicts.txt\n" + QUICK_IDENTITY,
        "[lab]", "summary", "does not exist")
    assert not (workdir / "quick_identity.csv").exists()


@pytest.mark.parametrize("key", ["time_nodes", "time_panels", "aliasing_threshold",
                                 "rel_tol", "tau_space"])
def test_removed_plan_keys_rejected(workdir, capsys, key):
    run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY + f"{key} = 16\n",
        "[quick-identity]", key, "unknown key")


def test_ignored_final_ratio_key_rejected(workdir, capsys):
    # the asymptotics ratio bound is the section's tolerance
    run_expecting_config_error(
        workdir, capsys,
        QUICK_IDENTITY.replace("kind = identity", "kind = asymptotics")
                      .replace("weight = eps\neps = 1.0\n", "")
                      .replace("schedule_count = 1", "schedule_count = 2")
        + "final_ratio = 0.5\n",
        "[quick-identity]", "final_ratio", "unknown key")


SANDWICH = """\
[quick-sandwich]
kind = sandwich
n = 1
packet1 = 1.0 0.0 1.0 0.1 0.3
k = 2
schedule_start = 4
schedule_count = 2
"""


@pytest.mark.parametrize("text,needle", [
    (SANDWICH.replace("k = 2", "k = 0"), "[quick-sandwich] k"),
    (QUICK_IDENTITY.replace("weight = eps\neps = 1.0", "weight = bump\nk = -1"),
     "[quick-identity] k"),
], ids=["sandwich", "bump-weight"])
def test_bad_plateau_index_names_k(workdir, capsys, text, needle):
    # make_psi_k judges k for both readers of the key
    run_expecting_config_error(workdir, capsys, text,
                               f"{needle}: bump steepness k must be an integer >= 1")


@pytest.mark.parametrize("text,needle", [
    # the sandwich kind computes no identity check, so the key is unread
    (SANDWICH + "identity_check = true\n", "[quick-sandwich] identity_check"),
    # a weight kind reads its own parameter only
    (QUICK_IDENTITY + "k = 7\n", "[quick-identity] k"),
    (QUICK_IDENTITY.replace("weight = eps\neps = 1.0", "weight = bump\nk = 2")
     + "value = 3\n", "[quick-identity] value"),
    (QUICK_IDENTITY.replace("weight = eps", "weight = constant"),
     "[quick-identity] eps"),
    # the schedule's symbol follows from the kind; no key sets it
    (QUICK_IDENTITY + "schedule_kind = T\n", "[quick-identity] schedule_kind"),
    # the liminf fraction of the smoothing bound is a constant of the lab
    (SANDWICH.replace("kind = sandwich", "kind = smoothing-bound")
     .replace("k = 2\n", "") + "liminf_fraction = 0.9\n",
     "[quick-sandwich] liminf_fraction"),
], ids=["sandwich-identity_check", "eps-k", "bump-value", "constant-eps",
        "identity-schedule_kind", "smoothing-liminf_fraction"])
def test_key_the_kind_does_not_read_rejected(workdir, capsys, text, needle):
    run_expecting_config_error(workdir, capsys, text, f"{needle}: unknown key")


# the keys each kind needs beyond the datum and the schedule
KIND_KEYS = {
    "identity": "weight = eps\neps = 1.0\n",
    "theorem-limit": "weight = eps\neps = 1.0\n",
    "corollary-limit": "",
    "flux-limit": "weight = eps\neps = 1.0\n",
    "sandwich": "k = 2\n",
    "remainder-decay": "weight = eps\neps = 1.0\n",
    "asymptotics": "",
    "smoothing-bound": "",
}


@pytest.mark.parametrize("kind", sorted(REGISTRY))
def test_zero_datum_passes_every_kind(workdir, capsys, kind):
    # a zero-amplitude packet loads, and every identity holds as 0 = 0
    cfg = write_config(workdir, f"""\
[zero]
kind = {kind}
n = 1
packet1 = 0 0 1 0 0
schedule_start = 2
schedule_count = 3
""" + KIND_KEYS[kind])
    assert main(["run", cfg]) == 0
    assert "PASS [zero]" in capsys.readouterr().out


def test_first_unknown_key_is_named(workdir, capsys):
    err = run_expecting_config_error(
        workdir, capsys, QUICK_IDENTITY + "zeta = 1\nalpha = 2\n",
        "[quick-identity] zeta: unknown key")
    assert "alpha" not in err


# ---------------------------------------------------------------------------
# auxiliary commands
# ---------------------------------------------------------------------------

def test_list_experiments_command(capsys):
    assert main(["list-experiments"]) == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert len(lines) == len(REGISTRY) == 8
    for line in lines:
        assert "=" in line                  # every entry states an identity
    for kind in REGISTRY:
        assert any(line.startswith(kind) for line in lines)
    assert out == list_experiments()


def test_emit_default_config_is_loadable(workdir, capsys):
    path = str(workdir / "starter.cfg")
    assert main(["emit-default-config", path]) == 0
    specs, summary = load_config(path)
    assert [s.kind for s in specs] == ["identity", "corollary-limit",
                                       "flux-limit"]
    assert summary == "summary.txt"
