"""The benchmark's contract with the package.

perfbench/ wraps package functions by name and copies the harness's default
tolerances into the cli-mix config.  A rename under src/ or a changed
default would otherwise show only in a traced benchmark run; these tests
build the three workloads at seed 1, install and remove the tracer, and
run one traced seed-1 pass of finite-identity and of cli-mix, in which
every span the benchmark requires of the workload must fire and every
verdict must be ok.  A call that moves out from under a traced name, such
as a weight derivative read other than through the weight, fails there.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)
from tracer import Tracer, required_spans  # noqa: E402
from workloads import WORKLOADS, CliMix  # noqa: E402

from smoothing_lab import harness  # noqa: E402


@pytest.fixture(scope="module")
def lab():
    return run.Lab()


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_builds(lab, name, tmp_path):
    # cli-mix writes and loads its config in set-up
    cls = WORKLOADS[name]
    wl = cls(lab, 1, str(tmp_path)) if cls is CliMix else cls(lab, 1)
    wl.close()


def test_tracer_finds_every_name(lab):
    run.rule_cache_counts(lab)  # reads the cache_info of _gl and _sphere_rule
    tracer = Tracer(lab.modules())
    try:
        tracer.install()
    finally:
        tracer.uninstall()


@pytest.mark.parametrize("name", ["finite-identity", "cli-mix"])
def test_traced_pass_fires_every_required_span(lab, name, tmp_path):
    cls = WORKLOADS[name]
    wl = cls(lab, 1, str(tmp_path)) if cls is CliMix else cls(lab, 1)
    tracer = Tracer(lab.modules())
    try:
        tracer.install()
        wl.wrap_weights(tracer.wrap_weight)
        _, verdicts = wl.run_pass(run.Timer(), tracer=tracer)
    finally:
        tracer.uninstall()
        wl.close()
    fired = {span[1] for span in tracer.spans}
    assert sorted(required_spans(name) - fired) == []
    assert [(task, v.note) for task, v in verdicts if not v.ok] == []


def test_cli_mix_tolerances_are_the_registry_defaults():
    assert CliMix.tolerance == {kind: rec.tolerance
                                for kind, rec in harness.REGISTRY.items()}
