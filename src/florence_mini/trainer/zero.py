"""Single-process simulation of optimizer-state sharding.

As in ZeRO, the optimizer state laid end to end (``container.flat_layout``)
is cut into one contiguous slice per worker, 1/N of it to within one scalar.
A worker keeps its slice as the parts of each tensor inside it, keyed (name,
start, stop), and steps AdamW once over the same parts of the parameters and
gradients: all views, so neither the split nor a step makes flat copies.
AdamW is elementwise, so the gathered result must be bit-equal to the
unsharded update. Every run steps through it; one worker holds everything.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from ..numerics.container import flat_layout, unflatten
from ..numerics.optim import OptimizerState, adamw_step


def split_zero_state(state: OptimizerState, params: dict[str, np.ndarray], workers: int) -> list[OptimizerState]:
    """Inverse of merge_zero_states: the per-worker states every run steps.
    Worker w holds scalars [n*w//W, n*(w+1)//W) of the moments laid end to
    end, as parts that are views of ``state``'s moments."""
    shapes = {k: p.shape for k, p in params.items()}
    if any({k: a.shape for k, a in moments.items()} != shapes for moments in (state.m, state.v)):
        raise ValueError("optimizer moments must match the parameters name for name and shape for shape")
    layout, n = flat_layout(state.m), sum(a.size for a in state.m.values())
    states = []
    for w in range(workers):
        lo, hi = n * w // workers, n * (w + 1) // workers
        keys = [(k, max(lo, o) - o, min(hi, o + state.m[k].size) - o) for k, (o, _) in layout.items()]
        keys = [key for key in keys if key[1] < key[2]]
        m, v = ({key: a[key[0]].ravel()[key[1] : key[2]] for key in keys} for a in (state.m, state.v))
        states.append(replace(state, m=m, v=v))
    return states


def zero_shard_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    states: list[OptimizerState],
    lr: float | None = None,
) -> tuple[dict[str, np.ndarray], list[OptimizerState]]:
    """Each worker updates its slice locally; merged result must equal the
    unsharded adamw_step output exactly."""
    if any(grads[k].shape != p.shape for k, p in params.items()):
        raise ValueError("gradients must match the parameters name for name and shape for shape")
    gathered: dict[str, list[np.ndarray]] = {k: [] for k in params}
    new_states: list[OptimizerState] = []
    for state in states:
        local_params = {key: params[key[0]].ravel()[key[1] : key[2]] for key in state.m}
        local_grads = {key: grads[key[0]].ravel()[key[1] : key[2]] for key in state.m}
        updated, next_state = adamw_step(local_params, local_grads, state, lr=lr)
        for (name, _, _), part in updated.items():
            gathered[name].append(part)
        new_states.append(next_state)
    return {k: np.concatenate(gathered[k]).reshape(p.shape) for k, p in params.items()}, new_states


def merge_zero_states(states: list[OptimizerState], params: dict[str, np.ndarray]) -> OptimizerState:
    """Collapse worker states into one per-name state for ``params`` (for
    checkpointing): the workers' parts, in order, are the flattened moments."""
    if any(s.step != states[0].step for s in states):
        raise ValueError("worker states out of sync")
    layout = flat_layout(params)
    m, v = (unflatten(np.concatenate([a for s in states for a in getattr(s, k).values()]), layout) for k in "mv")
    return replace(states[0], m=m, v=v)
