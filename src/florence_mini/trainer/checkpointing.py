"""Activation checkpointing: store block inputs, recompute on backward.

``checkpointed(fn, x, *params)`` runs a block once without recording and
adds one tape node whose inputs are ``x`` and the block's parameters. The
node saves only ``x`` and the output (the latter for the determinism
guard); the parameters are not saved, so the meter does not count them.
Its backward re-runs the block with recording on, pushes the incoming
gradient through the recomputed subgraph and returns one gradient per
input, like any other node: every gradient leaves the node through its
inputs. Recompute must agree with the stored output bit-for-bit, or the
block is declared non-deterministic; a recompute that reaches a
requires-grad leaf it was not given raises, naming that leaf.
"""

from __future__ import annotations

from typing import Callable

from ..numerics.tensor import TapeNode, Tensor, backward_from, enable_grad, grad_enabled, no_grad, same_bits


def checkpointed(fn: Callable[..., Tensor], x: Tensor, *params: Tensor) -> Tensor:
    """Run ``fn(x, *params)`` without recording; recompute it on backward.

    The node is made whenever recording is on, even when no input is on
    the tape, so a block that reads a requires-grad leaf it was not given
    raises in backward instead of leaving that leaf without a gradient. The
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

    def backward(grad_out, saved):
        x_arr, out_ref = saved
        arrays = (x_arr, *(p.data for p in params))
        leaves = [Tensor(arr, requires_grad=flag) for arr, flag in zip(arrays, live)]
        # no reference to the recomputed output is kept here, so the walk
        # frees it once it has seeded it
        grads = backward_from(_recompute(fn, leaves, out_ref), [grad_out])
        given = set(leaves)
        stray = [t.name or repr(t) for t in grads if t not in given]
        if stray:
            raise RuntimeError(f"checkpointed block reached leaves it was not given: {stray}; pass them as inputs")
        return tuple(grads.get(leaf) if flag else None for leaf, flag in zip(leaves, live))

    return Tensor(out.data, node=TapeNode("checkpoint", inputs, (x.data, out.data), backward))


def _recompute(fn: Callable[..., Tensor], leaves: list[Tensor], out_ref) -> list[Tensor]:
    """``[fn(*leaves)]`` recorded, after checking that it reproduces the
    stored output ``out_ref`` bit for bit."""
    with enable_grad():
        out = fn(*leaves)
    if not same_bits(out.data, out_ref):
        raise RuntimeError("checkpointed block is non-deterministic: recompute does not match stored output")
    return [out]
