"""Reduced-precision emulation by value quantization.

Half precision is emulated by snapping values to the IEEE-754 binary16 grid
while keeping the original storage dtype, so numerical behavior is testable
without 16-bit storage. The mode is one module flag; each op in ``ops``
decides in its own code whether its output goes through ``current_snap()``.
"""

from __future__ import annotations

import contextlib
from typing import Callable

import numpy as np

PRECISION_MODES = ("full", "half-emulated")

_half = False


@contextlib.contextmanager
def precision_policy(mode: str):
    """Run the block in ``mode``, one of PRECISION_MODES."""
    global _half
    if mode not in PRECISION_MODES:
        raise ValueError(f"unknown precision mode {mode!r}")
    prev = _half
    _half = mode == "half-emulated"
    try:
        yield
    finally:
        _half = prev


def half_grid(values: np.ndarray) -> np.ndarray:
    """Round each element to the nearest binary16 value, kept at input dtype.

    numpy's float16 cast implements IEEE round-to-nearest-even and saturates
    out-of-range magnitudes to signed infinity, which is exactly the wanted
    semantics.
    """
    with np.errstate(over="ignore"):
        return values.astype(np.float16).astype(values.dtype)


def _unchanged(values: np.ndarray) -> np.ndarray:
    return values


def current_snap() -> Callable[[np.ndarray], np.ndarray]:
    """The snap of the mode active now, fixed: ``half_grid`` in half-emulated
    mode, else the identity. An op takes it once per forward, and a backward
    rule that rebuilds a snapped forward value calls it and gets the
    forward's bytes, whatever mode is active when it runs."""
    return half_grid if _half else _unchanged
