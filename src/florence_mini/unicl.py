"""Unified image-text contrastive objective over hash-derived labels.

Every pair sharing a label is treated as positive in both directions
(image-to-text and text-to-image); denominators run over the whole batch
including self. Temperature enters only through the similarity products and
is parametrized as tau = exp(s) so it stays positive by construction. The
loss is the plain sum of both directions over the batch, with no mean
reduction.

The loss and its gradients with respect to the embeddings and the
temperature parameter are closed-form; ``unicl_loss_op`` adapts them onto
the differentiation tape so encoder backpropagation and finite-difference
checking both see a single scalar node.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics.tensor import Tensor, record


@dataclass
class UniCLLossResult:
    loss: float
    grad_u: np.ndarray
    grad_v: np.ndarray
    grad_tau_param: float


def _label_mask(y: np.ndarray) -> np.ndarray:
    return (y[:, None] == y[None, :]).astype(np.float64)


def _log_softmax(scores: np.ndarray, axis: int) -> np.ndarray:
    m = scores.max(axis=axis, keepdims=True)
    z = scores - m
    return z - np.log(np.exp(z).sum(axis=axis, keepdims=True))


def unicl_loss_arrays(u: np.ndarray, v: np.ndarray, y: np.ndarray, tau_param: float) -> UniCLLossResult:
    """Core loss math on raw arrays, summed over the batch; callers own the
    unit-norm contract."""
    u = np.asarray(u, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    y = np.asarray(y)
    if u.shape[0] < 2:
        raise ValueError("contrastive batch needs at least 2 items")
    tau = float(np.exp(tau_param))
    scores = tau * (u @ v.T)

    mask = _label_mask(y)
    counts = mask.sum(axis=1)  # |P(i)| row-wise == |Q(j)| col-wise (mask symmetric)

    log_p_rows = _log_softmax(scores, axis=1)
    log_p_cols = _log_softmax(scores, axis=0)
    loss_i2t = -((mask / counts[:, None]) * log_p_rows).sum()
    loss_t2i = -((mask / counts[None, :]) * log_p_cols).sum()
    loss = loss_i2t + loss_t2i

    softmax_rows = np.exp(log_p_rows)
    softmax_cols = np.exp(log_p_cols)
    d_scores = (softmax_rows - mask / counts[:, None]) + (softmax_cols - mask / counts[None, :])

    grad_u = tau * (d_scores @ v)
    grad_v = tau * (d_scores.T @ u)
    grad_tau_param = float((d_scores * scores).sum())  # d scores / d s = scores
    return UniCLLossResult(float(loss), grad_u, grad_v, grad_tau_param)


OP_NORM_TOL = 1e-4  # loose enough that eps-scale FD probes of unit rows pass


def unicl_loss_op(u: Tensor, v: Tensor, tau_param: Tensor, y: np.ndarray) -> Tensor:
    """Tape-integrated UniCL loss: one scalar node backed by the closed form."""
    for name, m in (("u", u.data), ("v", v.data)):
        norms = np.linalg.norm(m, axis=-1)
        if np.abs(norms - 1.0).max() > OP_NORM_TOL:
            raise ValueError(f"{name} rows must be unit-norm within {OP_NORM_TOL}")
    res = unicl_loss_arrays(u.data, v.data, y, float(tau_param.data))

    def backward(g, saved):
        gu, gv, gs = saved
        gval = float(g)
        return (
            (gval * gu).astype(u.data.dtype),
            (gval * gv).astype(v.data.dtype),
            np.asarray(gval * gs, dtype=tau_param.data.dtype).reshape(tau_param.data.shape),
        )

    saved = (res.grad_u, res.grad_v, np.array(res.grad_tau_param))
    return record("unicl_loss", np.array(res.loss), (u, v, tau_param), saved, backward)
