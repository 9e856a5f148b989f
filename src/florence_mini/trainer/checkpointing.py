"""Activation checkpointing: store block inputs, recompute on backward.

A checkpointed block contributes one tape node holding only the block's
inputs (plus the output for the determinism guard). Its backward re-runs
the block with recording enabled, pushes the incoming gradient through the
recomputed subgraph, routes gradients of the replaced inputs out as normal
node gradients, and forwards gradients of closure-referenced leaves (model
parameters) into the enclosing backward's collector. Recompute must agree
with the stored output bit-for-bit, or the block is declared
non-deterministic.
"""

from __future__ import annotations

from typing import Callable

from ..numerics.tensor import (
    TapeNode,
    Tensor,
    backward_from,
    current_collector,
    enable_grad,
    grad_enabled,
    no_grad,
    same_bits,
)


def checkpointed(fn: Callable[..., Tensor], *inputs: Tensor) -> Tensor:
    """Run ``fn(*inputs)`` without recording; recompute internals on backward.

    The node is created whenever recording is on, even for constant inputs:
    blocks usually reach their parameters through closures, and those still
    need gradients routed out of the recompute.
    """
    live = tuple(t.requires_grad or t.node is not None for t in inputs)
    if not grad_enabled():
        return fn(*inputs)
    with no_grad():
        out = fn(*inputs)
    if not isinstance(out, Tensor):
        raise TypeError("checkpointed blocks must return a single Tensor")
    saved = tuple(t.data for t in inputs) + (out.data,)

    def backward(grad_out, saved_arrays):
        *input_arrays, out_ref = saved_arrays
        outer = current_collector()
        leaves = [Tensor(arr, requires_grad=flag) for arr, flag in zip(input_arrays, live)]
        with enable_grad():
            recomputed = fn(*leaves)
        if not same_bits(recomputed.data, out_ref):
            raise RuntimeError(
                "checkpointed block is non-deterministic: recompute does not match stored output"
            )
        sub = backward_from([recomputed], [grad_out])
        leaf_uids = {leaf.uid for leaf in leaves}
        if outer is not None:
            for uid, g in sub.items():
                if uid not in leaf_uids:
                    outer.accumulate(uid, g)
        return tuple(sub.get(leaf) if flag else None for leaf, flag in zip(leaves, live))

    node = TapeNode("checkpoint", tuple(inputs), saved, backward)
    return Tensor(out.data, node=node)
