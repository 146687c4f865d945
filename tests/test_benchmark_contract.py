"""The benchmark's contract with the package.

perfbench/ wraps package functions by name and copies the harness's default
tolerances into the cli-mix config.  A rename under src/ or a changed
default would otherwise show only in a traced benchmark run; these tests
build the three workloads at seed 1 without running a pass and install and
remove the tracer, which takes about a second.
"""

import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

import run  # noqa: E402  (perfbench/run.py)
from tracer import Tracer  # noqa: E402
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


def test_cli_mix_tolerances_are_the_registry_defaults():
    assert CliMix.tolerance == {kind: rec.tolerance
                                for kind, rec in harness.REGISTRY.items()}
