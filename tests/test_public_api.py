"""Every `__all__` entry of the subpackages resolves and is listed once, so a
deleted name cannot leave a stale re-export behind. The package ships only
what runs: every public op is called somewhere in the package, and the
package never imports the test oracles."""

import importlib
import re
from pathlib import Path

import pytest

from florence_mini.numerics import ops

PACKAGES = ["numerics", "encoders", "curation", "evaluation", "trainer"]
SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve_and_are_unique(name):
    module = importlib.import_module(f"florence_mini.{name}")
    exported = module.__all__
    assert sorted({e for e in exported if exported.count(e) > 1}) == []
    assert [e for e in exported if not hasattr(module, e)] == []


def _sources() -> dict[str, str]:
    return {str(p.relative_to(SRC)): p.read_text() for p in sorted(SRC.rglob("*.py"))}


def test_every_public_op_is_called_in_the_package():
    public = [
        name
        for name, fn in vars(ops).items()
        if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == ops.__name__
    ]
    text = "\n".join(_sources().values())
    assert [name for name in public if f"ops.{name}(" not in text] == []


def test_no_package_file_imports_the_oracles():
    pattern = re.compile(r"^\s*(from\s+\S*oracles\b|import\s+\S*oracles\b)", re.MULTILINE)
    assert [path for path, text in _sources().items() if pattern.search(text)] == []
