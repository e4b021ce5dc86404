"""Every demo script imports cleanly against the current package.

Each demo runs its work only under `__main__`, so importing one runs
nothing; it does resolve every name the demo takes from twoview, so a
refactor that removes one fails here and not only when the demo is run.
README's Demos section names exactly the scripts under demos/.
"""

import importlib.util
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _readme_demos():
    """Script stems named in README's Demos section."""
    text = (ROOT / "README.md").read_text()
    section = re.search(r"^## Demos\n(.*?)(?=^## )", text, re.M | re.S).group(1)
    return set(re.findall(r"`(\w+)\.py`", section))


def test_demos_found():
    assert DEMOS


@pytest.mark.parametrize("path", DEMOS, ids=lambda p: p.stem)
def test_demo_imports(path):
    spec = importlib.util.spec_from_file_location(f"demo_{path.stem}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    assert callable(module.main)


def test_readme_names_every_demo():
    assert {p.stem for p in DEMOS} <= _readme_demos()


def test_readme_demos_exist():
    assert _readme_demos() <= {p.stem for p in DEMOS}
