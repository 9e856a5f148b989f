"""References and test primitives the suite checks the package against.

Everything here is one of two things. A reference is an independently
written route to a value the package computes (the finite-difference
check, the plain InfoNCE loss, the per-shape parameter count, the scalar
Hamming distance). A test primitive is an op the package no longer runs
(``exp``, ``gelu``, ``reshape``, ``matmul``, ``unfold``) but which the
composition tests build their expected values from: ``attention``,
``mlp`` and ``conv`` must equal those compositions byte for byte. The ops
import ``florence_mini.numerics.ops``' private kernels, so each composition
runs the very arithmetic the fused op replaced. The package never imports
this module, and every op the package keeps has a caller in it
(``test_public_api.py`` checks both).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from florence_mini.encoders.config import ModelConfig, parameter_shapes
from florence_mini.numerics.ops import (
    _check_same_dtype,
    _gelu_tanh,
    _gelu_tanh_term,
    _gelu_value,
    _record,
    _result,
    _unbroadcast,
    _unfolding,
)
from florence_mini.numerics.tensor import Tensor, evaluate_and_backward, no_grad
from florence_mini.unicl import _log_softmax

# ---------------------------------------------------------------------------
# finite differences: the analytic side comes from the tape; the numeric
# side is plain central differences computed with recording disabled, so the
# check never shares a code path with what it checks
# ---------------------------------------------------------------------------

KINK_TOL = 0.1


@dataclass
class FiniteDifferenceReport:
    max_rel_error: float
    rel_errors: np.ndarray
    kinks: list[int] = field(default_factory=list)  # flat indices where one-sided slopes disagree

    @property
    def differentiable(self) -> bool:
        return not self.kinks


def finite_difference_check(
    f: Callable[[Tensor], Tensor],
    point: np.ndarray,
    eps: float = 1e-5,
) -> FiniteDifferenceReport:
    """Compare tape gradients of scalar f against central differences.

    Per-coordinate relative error is |analytic - central| / (|central| +
    1e-12). Coordinates where the forward and backward one-sided slopes
    disagree are flagged as non-differentiable points and excluded from the
    max instead of being reported as silently large errors.
    """
    point = np.asarray(point, dtype=np.float64)
    x = Tensor(point.copy(), requires_grad=True, name="fd_point")
    out = f(x)
    if out.size != 1:
        raise ValueError("finite_difference_check needs a scalar-valued function")
    if not np.isfinite(out.data).all():
        raise ValueError("non-finite function value at the evaluation point")
    grads = evaluate_and_backward(out)
    analytic = grads.get(x)
    if analytic is None:
        analytic = np.zeros_like(point)
    analytic = analytic.reshape(-1)

    def value_at(arr: np.ndarray) -> float:
        with no_grad():
            y = f(Tensor(arr))
        val = float(y.data.reshape(()))
        if not np.isfinite(val):
            raise ValueError("non-finite function value during probing")
        return val

    f0 = value_at(point)
    flat = point.reshape(-1)
    n = flat.size
    rel_errors = np.zeros(n)
    kinks: list[int] = []
    for i in range(n):
        probe = point.copy().reshape(-1)
        probe[i] = flat[i] + eps
        f_plus = value_at(probe.reshape(point.shape))
        probe[i] = flat[i] - eps
        f_minus = value_at(probe.reshape(point.shape))
        central = (f_plus - f_minus) / (2.0 * eps)
        d_fwd = (f_plus - f0) / eps
        d_bwd = (f0 - f_minus) / eps
        if abs(d_fwd - d_bwd) > KINK_TOL * (abs(d_fwd) + abs(d_bwd) + 1.0):
            kinks.append(i)
            continue
        rel_errors[i] = abs(analytic[i] - central) / (abs(central) + 1e-12)
    max_rel = float(rel_errors.max()) if n else 0.0
    return FiniteDifferenceReport(max_rel_error=max_rel, rel_errors=rel_errors, kinks=kinks)


# ---------------------------------------------------------------------------
# test primitives: tape ops the fused ops replaced, snapping as ``ops``'
# rules say (values snap; shape moves and gathers never do)
# ---------------------------------------------------------------------------


def exp(a: Tensor) -> Tensor:
    out = np.exp(a.data)

    def backward(g, saved):
        (y,) = saved
        return (g * y,)

    return _result("exp", out, (a,), (out,), backward)


def _gelu_grad(g: np.ndarray, x: np.ndarray, t: np.ndarray) -> np.ndarray:
    """g * (0.5 * (1 + t) + 0.5 * x * (1 - t * t) * K0 * (1 + 3 * K1 * x * x))"""
    dx = _gelu_tanh_term(x, t.copy())
    half = t + 1.0
    half *= 0.5
    dx += half
    dx *= g
    return dx


def gelu(a: Tensor) -> Tensor:
    """tanh-approximated GELU (smooth, finite-difference friendly).

    Both directions update fresh temporaries in place; every product and
    sum keeps the operands and order of the plain formula in
    ``_gelu_grad``'s docstring, so the bytes equal that formula's.
    """
    t = _gelu_tanh(a.data)

    def backward(g, saved):
        return (_gelu_grad(g, *saved),)

    return _result("gelu", _gelu_value(a.data, t + 1.0), (a,), (a.data, t), backward)


def reshape(a: Tensor, shape) -> Tensor:
    old = a.shape

    def backward(g, saved):
        return (g.reshape(old),)

    return _record("reshape", a.data.reshape(shape), (a,), (), backward)


def matmul(a: Tensor, b: Tensor) -> Tensor:
    """Matrix product with numpy's stacked-matmul semantics (ndim >= 2).

    The package's dense layers use ``linear`` and attention its own op;
    this is the product criterion 03's finite-difference check and the
    composed attention that ``attention`` must equal are built from.
    """
    _check_same_dtype(a, b, "matmul")
    if a.data.ndim < 2 or b.data.ndim < 2:
        raise ValueError("matmul requires tensors of rank >= 2")
    sa, sb = a.shape, b.shape

    def backward(g, saved):
        av, bv = saved
        ga = _unbroadcast(np.matmul(g, bv.swapaxes(-1, -2)), sa)
        gb = _unbroadcast(np.matmul(av.swapaxes(-1, -2), g), sb)
        return ga, gb

    return _result("matmul", np.matmul(a.data, b.data), (a, b), (a.data, b.data), backward)


def unfold(x: Tensor, kernel, stride) -> Tensor:
    """Extract patches from (B, *S, C) into (B, *So, prod(kernel)*C), laid
    out as ``ops._unfolding`` describes; the backward folds the gradient
    back. ``conv`` builds its columns itself and must equal this unfold,
    ``reshape`` and ``linear`` byte for byte.
    """
    to_cols, fold = _unfolding(x.shape, kernel, stride)

    def backward(g, saved):
        return (fold(g),)

    return _record("unfold", to_cols(x.data), (x,), (), backward)


# ---------------------------------------------------------------------------
# references: independently written routes to values the package computes
# ---------------------------------------------------------------------------


def infonce_reference(u: np.ndarray, v: np.ndarray, tau: float) -> float:
    """Symmetric InfoNCE oracle: each diagonal pair is the unique positive.

    Kept independent of unicl_loss_arrays so the all-distinct-labels
    reduction can be cross-checked between two separately written routes.
    """
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    if u.shape[0] < 2:
        raise ValueError("need at least 2 rows")
    scores = tau * (u @ v.T)
    diag = np.arange(u.shape[0])
    row_ls = _log_softmax(scores, axis=1)
    col_ls = _log_softmax(scores, axis=0)
    return float(-(row_ls[diag, diag].sum() + col_ls[diag, diag].sum()))


def parameter_count(config: ModelConfig, vocab_size: int) -> int:
    total = 0
    for shape in parameter_shapes(config, vocab_size).values():
        n = 1
        for ext in shape:
            n *= ext
        total += n
    return total


def hamming_distance(a: int, b: int) -> int:
    """Bits in which two hashes differ: the scalar form of the popcount
    ``dedup_near_duplicates`` takes over all kept hashes at once."""
    return (a ^ b).bit_count()
