"""Every `__all__` entry of the subpackages resolves and is listed once, so a
deleted name cannot leave a stale re-export behind."""

import importlib

import pytest

PACKAGES = ["numerics", "encoders", "curation", "evaluation", "trainer"]


@pytest.mark.parametrize("name", PACKAGES)
def test_all_entries_resolve_and_are_unique(name):
    module = importlib.import_module(f"florence_mini.{name}")
    exported = module.__all__
    assert sorted({e for e in exported if exported.count(e) > 1}) == []
    assert [e for e in exported if not hasattr(module, e)] == []
