"""Activation checkpointing: store block inputs, recompute on backward.

``checkpointed(fn, x, *params)`` runs a block once without recording and
adds one tape node whose inputs are ``x`` and the block's parameters. The
node saves only ``x``, so the meter counts ``x.size`` scalars for it; the
parameters are not saved, and neither is the block's output, which dies
once its consumers drop it. For the determinism guard the node keeps a
digest of that output instead: its shape, its dtype string and the SHA-256
of its C-contiguous bytes. Its backward re-runs the block with recording
on, pushes the incoming gradient through the recomputed subgraph and
returns one gradient per input, like any other node: every gradient leaves
the node through its inputs. A recompute whose digest differs from the
stored one, in any bit of any element or in shape or dtype, declares the
block non-deterministic; a recompute that reaches a requires-grad leaf it
was not given raises, naming that leaf.

In the image tower a segment starts at its stage's input, as in Chen et
al.'s segments that each store only their input (arXiv 1604.06174): the
first call of each stage carries the stage's convolution (the patch
embed, or the merge before it) ahead of its first block, so that node
saves the pixels or the previous stage's output and no convolution output
is stored; every later block's node saves its block input.
"""

from __future__ import annotations

import hashlib
from typing import Callable

import numpy as np

from ..numerics.tensor import TapeNode, Tensor, backward_from, enable_grad, grad_enabled, no_grad


def checkpointed(fn: Callable[..., Tensor], x: Tensor, *params: Tensor) -> Tensor:
    """Run ``fn(x, *params)`` without recording; recompute it on backward.

    The node is made whenever recording is on, even when no input is on
    the tape, so a block that reads a requires-grad leaf it was not given
    raises in backward instead of leaving that leaf without a gradient. It
    saves ``x`` and holds the output's digest, not the output. The
    recompute runs over fresh leaves holding the inputs' arrays, so a
    parameter that is itself a recorded result never has its own tape
    walked by the nested backward.
    """
    if not grad_enabled():
        return fn(x, *params)
    with no_grad():
        out = fn(x, *params)
    if not isinstance(out, Tensor):
        raise TypeError("checkpointed blocks must return a single Tensor")
    inputs = (x, *params)
    live = tuple(t.requires_grad or t.node is not None for t in inputs)
    stored = _digest(out.data)

    def backward(grad_out, saved):
        (x_arr,) = saved
        arrays = (x_arr, *(p.data for p in params))
        leaves = [Tensor(arr, requires_grad=flag) for arr, flag in zip(arrays, live)]
        # no reference to the recomputed output is kept here, so the walk
        # frees it once it has seeded it
        grads = backward_from(_recompute(fn, leaves, stored), [grad_out])
        given = set(leaves)
        stray = [t.name or repr(t) for t in grads if t not in given]
        if stray:
            raise RuntimeError(f"checkpointed block reached leaves it was not given: {stray}; pass them as inputs")
        return tuple(grads.get(leaf) if flag else None for leaf, flag in zip(leaves, live))

    return Tensor(out.data, node=TapeNode("checkpoint", inputs, (x.data,), backward))


def _digest(arr: np.ndarray) -> tuple[tuple[int, ...], str, bytes]:
    """``(shape, dtype string, SHA-256 of the C-contiguous bytes)``: equal
    for two arrays exactly when they agree in shape, dtype (byte order
    included) and every element's bit pattern, short of a hash collision.
    A C-contiguous array is hashed in place; any other is copied once."""
    return arr.shape, arr.dtype.str, hashlib.sha256(np.ascontiguousarray(arr)).digest()


def _recompute(fn: Callable[..., Tensor], leaves: list[Tensor], stored) -> list[Tensor]:
    """``[fn(*leaves)]`` recorded, after checking that its digest equals
    the forward output's, ``stored``."""
    with enable_grad():
        out = fn(*leaves)
    if _digest(out.data) != stored:
        raise RuntimeError("checkpointed block is non-deterministic: recompute does not match stored output")
    return [out]
