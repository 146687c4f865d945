"""The package's exports are the README's API list, every name imports,
no module imports a name it never uses, and importing the package leaves
scipy.optimize out."""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import smoothing_lab

ROOT = Path(__file__).resolve().parent.parent
README = ROOT / "README.md"


def readme_api_names():
    """Backticked names on the list items of the README's '## API' section."""
    text = README.read_text()
    section = text.split("\n## API\n", 1)[1].split("\n## ", 1)[0]
    items = re.split(r"\n(?=- )", section[section.index("\n- ") + 1:])
    return [name for item in items
            for name in re.findall(r"`([A-Za-z_]\w*)`", item)]


def test_exports_equal_readme_api_list():
    names = readme_api_names()
    assert len(names) == len(set(names))
    assert sorted(smoothing_lab.__all__) == sorted(names)


def test_every_listed_name_imports():
    namespace = {}
    exec("from smoothing_lab import *", namespace)
    for name in readme_api_names():
        assert namespace[name] is getattr(smoothing_lab, name)


def unused_imports(path):
    """Names an import of the module at path binds and nothing reads.

    A name listed in the module's __all__ counts as read; __future__
    imports bind nothing.
    """
    tree = ast.parse(path.read_text())
    bound, read = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom) and node.module != "__future__"):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                getattr(t, "id", None) == "__all__" for t in node.targets):
            read.update(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(bound.items()) if name not in read]


def test_no_unused_imports():
    paths = sorted((ROOT / "src" / "smoothing_lab").glob("*.py")) \
        + sorted((ROOT / "tests").glob("*.py")) \
        + sorted((ROOT / "tools").glob("*.py"))
    assert [hit for path in paths for hit in unused_imports(path)] == []


def test_fresh_import_leaves_scipy_optimize_out():
    # in a fresh interpreter: pytest's warning filter and the tests'
    # oracles import scipy.optimize into this one
    probe = "import json, sys, smoothing_lab; print(json.dumps(sorted(sys.modules)))"
    out = subprocess.run([sys.executable, "-c", probe], cwd=ROOT, check=True,
                         env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert "smoothing_lab.functionals" in loaded
    assert [m for m in loaded if m.split(".")[:2] == ["scipy", "optimize"]] == []
