"""Gradient cache: full-batch contrastive gradients from chunked re-forwards.

Pass 1 forwards each chunk to assemble the full batch of embeddings,
recording only the last chunk's tape; pass 2 takes the loss gradient at the
embedding level; pass 3 backpropagates the last chunk from its pass-1 tape,
then re-forwards every other chunk with recording enabled, injecting the
matching embedding-gradient rows as output gradients. Injection happens at
the post-normalization embeddings, so the recorded chunk graph includes the
normalization. Accumulated parameter gradients must equal the monolithic
full-batch backward; with a single chunk they are bit-identical.
"""

from __future__ import annotations

from contextlib import nullcontext
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

    # pass 1: chunk forwards assemble the full embedding batch; only the
    # last chunk records, so pass 3 need not re-run it
    u_parts, v_parts = [], []
    for c in range(n_chunks):
        rows = slice(c * chunk_size, (c + 1) * chunk_size)
        with no_grad() if c < n_chunks - 1 else nullcontext():
            u_c = model.encode_image(images[rows], block_wrapper=block_wrapper)
            v_c = model.encode_text(ids[rows])
        u_parts.append(u_c.data)
        v_parts.append(v_c.data)
    u_full = np.concatenate(u_parts, axis=0)
    v_full = np.concatenate(v_parts, axis=0)

    # pass 2: embedding-level loss gradient over the full batch
    res = unicl_loss_arrays(u_full, v_full, labels, float(model.tau_param.data))

    # pass 3: the last chunk backpropagates from its pass-1 tape; the others
    # re-forward with recording and the embedding gradients injected. The
    # fold keeps chunk order, ((g0 + g1) + g2) + g3, whichever ran first.
    last = backward_from([u_c, v_c], [res.grad_u[-chunk_size:], res.grad_v[-chunk_size:]])
    del u_c, v_c
    # the closed form runs in float64; tau's gradient takes the model's dtype
    grads: dict[str, np.ndarray] = {"tau_param": np.asarray(res.grad_tau_param, dtype=model.tau_param.data.dtype)}
    for c in range(n_chunks):
        rows = slice(c * chunk_size, (c + 1) * chunk_size)
        if c == n_chunks - 1:
            chunk_grads = last
        else:
            u_c = model.encode_image(images[rows], block_wrapper=block_wrapper)
            v_c = model.encode_text(ids[rows])
            if debug_guard:
                if not (same_bits(u_c.data, u_full[rows]) and same_bits(v_c.data, v_full[rows])):
                    raise RuntimeError(
                        f"embedding drift between pass 1 and pass 3 in chunk {c}; "
                        "non-deterministic encoder forward"
                    )
            chunk_grads = backward_from([u_c, v_c], [res.grad_u[rows], res.grad_v[rows]])
        for name, t in model.params.items():
            g = chunk_grads.get(t)
            if g is None:
                continue
            if name in grads:
                grads[name] = grads[name] + g
            else:
                grads[name] = g
    return float(res.loss), grads
