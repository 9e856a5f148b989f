"""Single-process simulation of optimizer-state sharding.

As in ZeRO, the parameters laid end to end (``container.flat_layout``) are
cut into one contiguous slice per worker, 1/W of them to within one scalar
(``zero_shards``). A run keeps one per-name OptimizerState; the split exists
only inside ``zero_shard_update``, where each worker steps AdamW once over
views of its parts of the parameters, gradients and moments. AdamW is
elementwise, so the gathered result must be bit-equal to the unsharded
update. Every run steps through it; one worker holds everything.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..numerics.container import flat_layout
from ..numerics.optim import OptimizerState, adamw_step


def zero_shards(params: dict[str, np.ndarray], workers: int) -> list[list[tuple[str, int, int]]]:
    """Each worker's parts of ``params`` as (name, start, stop) ranges of the
    flattened tensors: worker w holds scalars [n*w//W, n*(w+1)//W) of the
    parameters laid end to end. Refuses a worker count outside [1, n]."""
    n = sum(p.size for p in params.values())
    if not 1 <= workers <= n:
        raise ValueError(f"zero_workers {workers} must be between 1 and the {n} parameter scalars")
    layout = flat_layout(params)
    shards = []
    for w in range(workers):
        lo, hi = n * w // workers, n * (w + 1) // workers
        parts = [(k, max(lo, o) - o, min(hi, o + params[k].size) - o) for k, (o, _) in layout.items()]
        shards.append([part for part in parts if part[1] < part[2]])
    return shards


def zero_shard_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    workers: int,
    lr: float | None = None,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One AdamW step over ``workers`` shards; returns (new params, new
    state), which must equal the unsharded adamw_step output exactly. A name
    one worker holds whole keeps that worker's fresh arrays; only the names a
    shard boundary cuts are concatenated."""
    shapes = {k: p.shape for k, p in params.items()}
    if any({k: a.shape for k, a in d.items()} != shapes for d in (grads, state.m, state.v)):
        raise ValueError("gradients and optimizer moments must match the parameters name for name and shape for shape")
    pieces: dict[str, list[tuple[np.ndarray, ...]]] = {k: [] for k in params}  # new (param, m, v) parts in order
    for parts in zero_shards(params, workers):
        local_p, local_g, local_m, local_v = (
            {part: d[part[0]].ravel()[part[1] : part[2]] for part in parts} for d in (params, grads, state.m, state.v)
        )
        updated, local = adamw_step(local_p, local_g, replace(state, m=local_m, v=local_v), lr=lr)
        for part in parts:
            pieces[part[0]].append((updated[part], local.m[part], local.v[part]))
    new_p, new_m, new_v = (
        {k: (ps[0][i] if len(ps) == 1 else np.concatenate([p[i] for p in ps])).reshape(shapes[k]) for k, ps in pieces.items()}
        for i in range(3)
    )
    return new_p, replace(state, step=local.step, m=new_m, v=new_v)
