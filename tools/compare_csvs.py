"""Run three configs with this checkout's src/ and a parent's, and diff the outputs.

    python3 tools/compare_csvs.py --parent PARENT

PARENT is a second git checkout of the commit to compare against, such as
a clone with that commit checked out.  The configs are each checkout's
configs/quickcheck.cfg, the starter each checkout's `emit-default-config`
writes, and the seed-1 cli-mix config of this checkout's perfbench, the
same file for both.  Every config runs in a fresh directory per side,
`python -m smoothing_lab.harness run` with PYTHONPATH set to that side's
src/.

No CSV shows the residuals near 1e-14 on which finite-identity's
margin_digits rests, so each side also runs `verify_identity` on the
seed-1 finite-identity tasks of its own perfbench, in a child process that
imports that side's src/, and prints `float.hex` of each task's lhs and rhs.

Every CSV field and every finite-identity value that differs is printed
with its relative size |change - parent| / max(|change|, |parent|).  The
exit status is 1 when a `pass` column, a summary verdict (PASS, FAIL or
ERROR per section, and the closing count), a run's exit code, a CSV's
shape or the finite-identity tasks that return differ, and 0 otherwise:
values that move at roundoff are reported, not judged.
"""

from __future__ import annotations

import argparse
import csv
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CHANGE = Path(__file__).resolve().parents[1]
SEED = 1
RUN_TIMEOUT_S = 600
# run in a child with a checkout's src/: verify_identity on the seed-1
# finite-identity tasks of that checkout's perfbench, one line per task
IDENTITY_VALUES = """
import sys
sys.path.insert(0, sys.argv[1] + "/perfbench")
import run  # Lab() imports the package from this checkout's src/

wl = run.build(run.Lab(), "finite-identity", int(sys.argv[2]))
for name, f, w, T in wl.tasks:
    try:
        rep = wl.lab.limits.verify_identity(f, w, [T], tolerance=wl.tolerance)
    except wl.lab.errors.SmoothingLabError as exc:
        print(name, "raised", type(exc).__name__)
    else:
        print(name, float(rep.lhs[0]).hex(), float(rep.rhs[0]).hex())
"""


def cli_mix_config() -> str:
    """The seed-1 cli-mix config with its outputs and summary made relative."""
    sys.path.insert(0, str(CHANGE / "perfbench"))
    import run  # perfbench/run.py of this checkout; Lab() adds its src/

    wl = run.build(run.Lab(), "cli-mix", SEED)
    try:
        return Path(wl.config).read_text().replace(wl.out_dir + os.sep, "")
    finally:
        wl.close()


def harness(checkout: Path, cwd: Path, *args) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    return subprocess.run([sys.executable, "-m", "smoothing_lab.harness", *args],
                          cwd=cwd, env=env, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)


def identity_values(checkout: Path) -> dict:
    """Task name -> (lhs, rhs) as float.hex, or ("raised", error name)."""
    proc = subprocess.run([sys.executable, "-c", IDENTITY_VALUES, str(checkout), str(SEED)],
                          capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    proc.check_returncode()
    return {name: tuple(values) for name, *values in map(str.split, proc.stdout.splitlines())}


def compare_identity(checkouts: dict) -> bool:
    """Print the finite-identity values that differ; True when the tasks or
    which of them raise do."""
    values = {side: identity_values(path) for side, path in checkouts.items()}
    parent, change = values["parent"], values["change"]
    if parent.keys() != change.keys():
        print(f"finite-identity: tasks {sorted(parent)} -> {sorted(change)}")
        return True
    judged = False
    for name in parent:
        if "raised" in (parent[name][0], change[name][0]):
            if parent[name] != change[name]:
                print(f"finite-identity {name}: {' '.join(parent[name])} -> "
                      f"{' '.join(change[name])}")
                judged = True
            continue
        for side, a, b in zip(("lhs", "rhs"), parent[name], change[name]):
            if a != b:
                size = rel_size(float.fromhex(a), float.fromhex(b))
                print(f"finite-identity {name} {side}: {a} -> {b} (relative {size:.2g})")
    print(f"finite-identity: {len(change)} tasks compared")
    return judged


def run_config(checkout: Path, cwd: Path, text: str | None) -> int:
    """Exit code of one harness run of a config in cwd; text None means the
    checkout's own starter."""
    cwd.mkdir(parents=True)
    if text is None:
        harness(checkout, cwd, "emit-default-config", "run.cfg").check_returncode()
    else:
        (cwd / "run.cfg").write_text(text)
    return harness(checkout, cwd, "run", "run.cfg").returncode


def verdicts(summary: Path) -> list:
    """The verdict of each summary line that has one, and the closing count."""
    lines = summary.read_text().splitlines() if summary.exists() else []
    return [" ".join(line.split()[:2]) for line in lines
            if line.startswith(("PASS ", "FAIL ", "ERROR "))] + lines[-1:]


def rel_size(a, b) -> float:
    x, y = float(a), float(b)
    return abs(x - y) / max(abs(x), abs(y)) if x != y else 0.0


def compare_csv(label: str, parent: Path, change: Path) -> bool:
    """Print the fields that differ; True when a pass column or the shape does."""
    with open(parent, newline="") as fp, open(change, newline="") as fc:
        rows_p, rows_c = list(csv.reader(fp)), list(csv.reader(fc))
    if len(rows_p) != len(rows_c) or (rows_p and rows_p[0] != rows_c[0]):
        print(f"{label}: the CSVs differ in shape or header")
        return True
    if not rows_p:
        return False
    header, judged = rows_p[0], False
    for i, (rp, rc) in enumerate(zip(rows_p[1:], rows_c[1:]), start=1):
        for column, a, b in zip(header, rp, rc):
            if a == b:
                continue
            if column == "pass":
                print(f"{label} row {i} pass: {a} -> {b}")
                judged = True
                continue
            try:
                size = f"relative {rel_size(a, b):.2g}"
            except ValueError:
                size = "not numeric"
            print(f"{label} row {i} {column}: {a} -> {b} ({size})")
    return judged


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    args = parser.parse_args(argv)
    checkouts = {"parent": args.parent.resolve(), "change": CHANGE}
    mix = cli_mix_config()
    configs = {
        "quickcheck": {side: (path / "configs" / "quickcheck.cfg").read_text()
                       for side, path in checkouts.items()},
        "starter": {side: None for side in checkouts},
        "cli-mix": {side: mix for side in checkouts},
    }
    differs = False
    work = Path(tempfile.mkdtemp(prefix="compare_csvs_"))
    try:
        for name, texts in configs.items():
            dirs = {side: work / side / name for side in checkouts}
            codes = {side: run_config(path, dirs[side], texts[side])
                     for side, path in checkouts.items()}
            if codes["parent"] != codes["change"]:
                print(f"{name}: exit code {codes['parent']} -> {codes['change']}")
                differs = True
            if verdicts(dirs["parent"] / "summary.txt") != \
                    verdicts(dirs["change"] / "summary.txt"):
                print(f"{name}: the summary verdicts differ")
                differs = True
            csvs = {side: sorted(p.name for p in d.glob("*.csv"))
                    for side, d in dirs.items()}
            if csvs["parent"] != csvs["change"]:
                print(f"{name}: CSV files {csvs['parent']} -> {csvs['change']}")
                differs = True
            for file in sorted(set(csvs["parent"]) & set(csvs["change"])):
                differs |= compare_csv(f"{name}/{file}", dirs["parent"] / file,
                                       dirs["change"] / file)
            print(f"{name}: exit code {codes['change']}, {len(csvs['change'])} CSVs compared")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    differs |= compare_identity(checkouts)
    return 1 if differs else 0


if __name__ == "__main__":
    sys.exit(main())
