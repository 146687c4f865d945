"""The package's exports are the README's API list, and every name imports."""

import re
from pathlib import Path

import smoothing_lab

README = Path(__file__).resolve().parent.parent / "README.md"


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
