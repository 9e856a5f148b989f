"""References and test primitives the suite checks the package against.

Everything here is one of two things. A reference is an independently
written route to a value the package computes (the finite-difference
check and the whole-step directional derivative, the plain InfoNCE loss,
the per-shape parameter count, the scalar Hamming distance). A test
primitive is an op the package no longer runs (``exp``, ``gelu``,
``reshape``, ``matmul``, ``unfold``) but which the
composition tests build their expected values from: ``attention``,
``mlp`` and ``conv`` must equal those compositions byte for byte. The ops
import ``florence_mini.numerics.ops``' private kernels, so each composition
runs the very arithmetic the fused op replaced. The package never imports
this module, and every op the package keeps has a caller in it
(``test_public_api.py`` checks both).
"""

from __future__ import annotations

import re
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from florence_mini.encoders.config import ModelConfig, parameter_shapes
from florence_mini.encoders.model import TwoTowerModel
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
from florence_mini.unicl import _log_softmax, unicl_loss_arrays

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
# whole-step directional derivatives: the analytic side is one step's
# gradients; the numeric side runs both towers' forwards with recording
# disabled, one Richardson-extrapolated central difference per parameter
# group, so a failure names its group
# ---------------------------------------------------------------------------

STEP_FD_H = 1e-3
STEP_FD_M5 = 1e8  # assumed bound on |f^(5)| along a unit direction
STEP_FD_ROUNDING = 1e-12  # assumed relative error of one float64 loss evaluation


def parameter_group(name: str) -> str:
    """The group a parameter's direction is drawn for: a block's attention
    (its ln1 and attn tensors) or MLP (ln2 and mlp), the text embeddings, or
    else the name less its last part (patch embed, a merge, a final norm, a
    projection, tau)."""
    block = re.match(r"(.*\.b\d+)\.(ln1|attn|ln2|mlp)\.", name)
    if block:
        return f"{block[1]}.{'attention' if block[2] in ('ln1', 'attn') else 'mlp'}"
    if name in ("text.tok_embed", "text.pos_embed"):
        return "text.embed"
    return name.rsplit(".", 1)[0]


def group_directions(params: dict[str, np.ndarray], seed: int) -> dict[str, dict[str, np.ndarray]]:
    """group -> {name: direction}: one Gaussian direction per parameter
    group, of unit L2 norm over the group's tensors."""
    groups: dict[str, list[str]] = {}
    for name in params:
        groups.setdefault(parameter_group(name), []).append(name)
    directions = {}
    for group, names in groups.items():
        rng = np.random.default_rng([seed, zlib.crc32(group.encode())])
        d = {k: rng.standard_normal(params[k].shape) for k in names}
        norm = np.sqrt(sum(float((a * a).sum()) for a in d.values()))
        directions[group] = {k: a / norm for k, a in d.items()}
    return directions


def richardson_derivative(f: Callable[[float], np.ndarray], h: float) -> np.ndarray:
    """f'(0) as (4 D(h/2) - D(h)) / 3, D(s) = (f(s) - f(-s)) / 2s: the
    central difference with its h^2 term cancelled. Its error is at most
    M5 h^4 / 480 from truncation, with M5 bounding |f^(5)|, plus 3 delta / h
    from rounding when each f(s) is within delta."""

    def central(s: float) -> np.ndarray:
        return (f(s) - f(-s)) / (2.0 * s)

    return (4.0 * central(h / 2) - central(h)) / 3.0


def step_fd_tolerance(loss: float, abs_terms: float, h: float = STEP_FD_H) -> float:
    """Bound on |analytic - richardson_derivative| for a step loss ``loss``
    along a unit direction: truncation M5 h^4 / 480, rounding 3 delta / h
    with delta = STEP_FD_ROUNDING * max(1, |loss|), and STEP_FD_ROUNDING
    times ``abs_terms`` (sum |g_i d_i|) for the analytic side's own sum."""
    delta = STEP_FD_ROUNDING * max(1.0, abs(loss))
    return STEP_FD_M5 * h**4 / 480 + 3 * delta / h + STEP_FD_ROUNDING * abs_terms


def step_loss_derivatives(
    model: TwoTowerModel,
    images: np.ndarray,
    ids: np.ndarray,
    label_sets: list[np.ndarray],
    directions: dict[str, dict[str, np.ndarray]],
    h: float = STEP_FD_H,
) -> dict[str, np.ndarray]:
    """group -> the Richardson derivative of the step loss under each of
    ``label_sets`` along the group's direction. Each probe is a fresh model
    over shifted copies of ``model``'s arrays, run forward with recording
    disabled and scored by the UniCL closed form."""
    base = model.param_arrays()
    out = {}
    for group, d in directions.items():

        def losses(t: float) -> np.ndarray:
            arrays = {k: a + t * d[k] if k in d else a for k, a in base.items()}
            probe = TwoTowerModel(model.config, model.vocab, {k: Tensor(a) for k, a in arrays.items()})
            with no_grad():
                u, v = probe.encode_image(images).data, probe.encode_text(ids).data
            return np.array([unicl_loss_arrays(u, v, y, float(arrays["tau_param"])).loss for y in label_sets])

        out[group] = richardson_derivative(losses, h)
    return out


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
