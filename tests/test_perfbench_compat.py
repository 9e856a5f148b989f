"""The benchmark harness under `perfbench/` imports and wraps names of the
package where its callers look them up. Installing and removing its tracer
here makes a rename of any of those names fail the suite, not a benchmark
run."""

from __future__ import annotations

import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _bindings() -> dict[tuple, object]:
    """Every module global of the package, and every attribute of the
    classes it defines, keyed by where it is looked up."""
    found = {}
    for name, module in list(sys.modules.items()):
        if name != "florence_mini" and not name.startswith("florence_mini."):
            continue
        for attr, obj in vars(module).items():
            found[(name, attr)] = obj
            if isinstance(obj, type) and obj.__module__ == name:
                found.update(((name, attr, a), o) for a, o in vars(obj).items())
    return found


def test_tracer_installs_and_restores_every_patched_name(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing
    import workloads  # noqa: F401  (its imports are part of what this guards)

    before = _bindings()
    tracer = tracing.Tracer()
    try:
        tracer.install()
        patched = {key for key, obj in _bindings().items() if key in before and obj is not before[key]}
    finally:
        tracer.unpatch()
    after = _bindings()
    assert {"checkpointed", "encode_image"} <= {key[-1] for key in patched}
    assert [key for key, obj in before.items() if after.get(key) is not obj] == []
