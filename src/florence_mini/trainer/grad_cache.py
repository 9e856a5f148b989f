"""Gradient cache: full-batch contrastive gradients from chunked re-forwards.

Pass 1 forwards each chunk to assemble the full batch of embeddings,
recording only the last chunk's image forward; pass 2 takes the loss
gradient at the embedding level; pass 3 backpropagates one tower of one
chunk at a time, injecting the matching embedding-gradient rows as output
gradients. It walks the last image chunk from its pass-1 tape first, then
re-forwards and walks image chunks 0..n-2, then every text chunk. The towers
share no parameter, so each parameter's gradient still folds in chunk order,
((g0 + g1) + g2) + g3, and no tape of one tower is alive beside the other's.
Injection happens at the post-normalization embeddings, so the recorded
chunk graph includes the normalization. Accumulated parameter gradients must
equal the monolithic full-batch backward; with a single chunk they are
bit-identical.
"""

from __future__ import annotations

from contextlib import nullcontext
from functools import partial
from typing import Callable

import numpy as np

from ..numerics.tensor import backward_from, evaluate_and_backward, no_grad, same_bits
from ..unicl import unicl_loss_arrays, unicl_loss_op


def monolithic_gradients(
    model,
    images: np.ndarray,
    ids: np.ndarray,
    labels: np.ndarray,
    block_wrapper: Callable | None = None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Single recorded forward over the whole batch, one backward sweep."""
    u = model.encode_image(images, block_wrapper=block_wrapper)
    v = model.encode_text(ids)
    loss = unicl_loss_op(u, v, model.tau_param, labels)
    g = evaluate_and_backward(loss)
    grads = {name: g[t] for name, t in model.params.items() if t in g}
    return float(loss.data), grads


def gradient_cache_gradients(
    model,
    images: np.ndarray,
    ids: np.ndarray,
    labels: np.ndarray,
    chunk_size: int,
    block_wrapper: Callable | None = None,
    debug_guard: bool = True,
) -> tuple[float, dict[str, np.ndarray]]:
    batch = images.shape[0]
    if batch % chunk_size != 0:
        raise ValueError(f"chunk_size {chunk_size} must divide batch size {batch}")
    n_chunks = batch // chunk_size
    chunks = [slice(c * chunk_size, (c + 1) * chunk_size) for c in range(n_chunks)]

    # pass 1: chunk forwards assemble the full embedding batch; only the
    # last chunk's image forward records, so pass 3 need not re-run it
    u_parts, v_parts = [], []
    for c, rows in enumerate(chunks):
        with no_grad() if c < n_chunks - 1 else nullcontext():
            u_last = model.encode_image(images[rows], block_wrapper=block_wrapper)
        u_parts.append(u_last.data)
        with no_grad():
            v_parts.append(model.encode_text(ids[rows]).data)
    u_full = np.concatenate(u_parts, axis=0)
    v_full = np.concatenate(v_parts, axis=0)

    # pass 2: embedding-level loss gradient over the full batch
    res = unicl_loss_arrays(u_full, v_full, labels, float(model.tau_param.data))

    # pass 3, one tower of one chunk at a time. The last image chunk walks
    # its pass-1 tape first and folds after chunks 0..n-2, so each
    # parameter's fold keeps chunk order, ((g0 + g1) + g2) + g3.
    last = backward_from([u_last], [res.grad_u[chunks[-1]]])
    acc: dict = {}
    image = partial(model.encode_image, block_wrapper=block_wrapper)
    _walk_chunks(acc, image, images, u_full, res.grad_u, chunks[:-1], debug_guard)
    _fold(acc, last)
    _walk_chunks(acc, model.encode_text, ids, v_full, res.grad_v, chunks, debug_guard)
    # the closed form runs in float64; tau's gradient takes the model's dtype
    grads: dict[str, np.ndarray] = {"tau_param": np.asarray(res.grad_tau_param, dtype=model.tau_param.data.dtype)}
    grads.update((name, acc[t]) for name, t in model.params.items() if t in acc)
    return float(res.loss), grads


def _walk_chunks(
    acc: dict,
    encode: Callable,
    inputs: np.ndarray,
    full: np.ndarray,
    grad: np.ndarray,
    chunks: list[slice],
    debug_guard: bool,
) -> None:
    """Re-forward one tower on each chunk in turn with recording, check its
    embeddings against pass 1's rows of ``full`` bit for bit, backpropagate
    the chunk's rows of ``grad`` and fold the parameter gradients into
    ``acc``. Each chunk's tape is walked before the next one is recorded."""
    for c, rows in enumerate(chunks):
        out = encode(inputs[rows])
        if debug_guard and not same_bits(out.data, full[rows]):
            raise RuntimeError(
                f"embedding drift between pass 1 and pass 3 in chunk {c}; non-deterministic encoder forward"
            )
        _fold(acc, backward_from([out], [grad[rows]]))


def _fold(acc: dict, chunk_grads: dict) -> None:
    """Add each gradient into ``acc`` under its leaf, after what is there."""
    for t, g in chunk_grads.items():
        acc[t] = acc[t] + g if t in acc else g
