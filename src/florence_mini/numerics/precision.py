"""Reduced-precision emulation by value quantization.

Half precision is emulated by snapping values to the IEEE-754 binary16 grid
while keeping the original storage dtype, so numerical behavior is testable
without 16-bit storage. Operations named in the policy's stable set always
run at full precision; layer normalization, softmax (whose denominator
accumulation is the fragile part) and L2 normalization (whose unit-norm
output the contrastive loss checks) are stable unconditionally.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

import numpy as np

from .tensor import Tensor

HALF_MAX = 65504.0

ALWAYS_STABLE_OPS = frozenset({"layer_norm", "softmax", "l2_normalize"})

PRECISION_MODES = ("full", "half-emulated")


@dataclass(frozen=True)
class PrecisionPolicy:
    mode: str = "full"  # one of PRECISION_MODES
    stable_ops: frozenset[str] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.mode not in PRECISION_MODES:
            raise ValueError(f"unknown precision mode {self.mode!r}")
        object.__setattr__(self, "stable_ops", frozenset(self.stable_ops) | ALWAYS_STABLE_OPS)

    def quantizes(self, op: str) -> bool:
        return self.mode == "half-emulated" and op not in self.stable_ops


FULL_PRECISION = PrecisionPolicy(mode="full")
EMULATED_HALF = PrecisionPolicy(mode="half-emulated")

_current_policy = FULL_PRECISION


@contextlib.contextmanager
def precision_policy(policy: PrecisionPolicy):
    global _current_policy
    prev = _current_policy
    _current_policy = policy
    try:
        yield
    finally:
        _current_policy = prev


def half_grid(values: np.ndarray) -> np.ndarray:
    """Round each element to the nearest binary16 value, kept at input dtype.

    numpy's float16 cast implements IEEE round-to-nearest-even and saturates
    out-of-range magnitudes to signed infinity, which is exactly the wanted
    semantics.
    """
    with np.errstate(over="ignore"):
        return values.astype(np.float16).astype(values.dtype)


@dataclass
class HalfQuantization:
    tensor: Tensor
    overflow_indices: np.ndarray  # flat indices that saturated to +/-inf

    @property
    def overflow_count(self) -> int:
        return int(self.overflow_indices.size)


def quantize_to_half(t: Tensor) -> HalfQuantization:
    """Snap a floating tensor onto the binary16 grid and report overflows."""
    if not np.issubdtype(t.data.dtype, np.floating):
        raise TypeError("quantize_to_half requires a floating dtype")
    q = half_grid(t.data)
    overflowed = np.flatnonzero(np.isinf(q) & np.isfinite(t.data))
    return HalfQuantization(tensor=Tensor(q), overflow_indices=overflowed)


def apply_policy(op: str, values: np.ndarray) -> np.ndarray:
    """Quantize an op's forward output when the active policy demands it."""
    policy = _current_policy
    if policy.quantizes(op) and np.issubdtype(values.dtype, np.floating):
        return half_grid(values)
    return values
