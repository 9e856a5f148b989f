"""Single-process simulation of optimizer-state sharding.

Parameters are partitioned round-robin over sorted names; each simulated
worker owns only its shard's moments and updates those parameters locally;
the final "all-gather" is a dict merge. AdamW is elementwise per parameter,
so the result must be bit-equal to the unsharded update; the point of the
simulation is per-worker resident-state accounting. The trainer always
steps through it; one worker is one shard holding every parameter.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..numerics.optim import OptimizerState, adamw_step


def partition_parameters(names, workers: int) -> list[list[str]]:
    if workers < 1:
        raise ValueError("need at least one worker")
    shards: list[list[str]] = [[] for _ in range(workers)]
    for i, name in enumerate(sorted(names)):
        shards[i % workers].append(name)
    return shards


@dataclass
class ShardReport:
    shards: list[list[str]]
    resident_state_scalars: list[int]  # per worker: first + second moments
    largest_tensor_scalars: int
    imbalance_flagged: bool


def shard_report(params: dict[str, np.ndarray], workers: int) -> ShardReport:
    shards = partition_parameters(params, workers)
    resident = [2 * sum(params[k].size for k in shard) for shard in shards]
    largest = max(p.size for p in params.values())
    flagged = (max(resident) - min(resident)) > 2 * largest
    return ShardReport(
        shards=shards,
        resident_state_scalars=resident,
        largest_tensor_scalars=largest,
        imbalance_flagged=flagged,
    )


def zero_shard_update(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    states: list[OptimizerState],
    lr: float | None = None,
) -> tuple[dict[str, np.ndarray], list[OptimizerState]]:
    """Each worker updates its shard locally; merged result must equal the
    unsharded adamw_step output exactly."""
    shards = partition_parameters(params, len(states))
    gathered: dict[str, np.ndarray] = {}
    new_states: list[OptimizerState] = []
    for shard, state in zip(shards, states):
        local_params = {k: params[k] for k in shard}
        local_grads = {k: grads[k] for k in shard if k in grads}
        updated, next_state = adamw_step(local_params, local_grads, state, lr=lr)
        gathered.update(updated)
        new_states.append(next_state)
    return {k: gathered[k] for k in params}, new_states


def merge_zero_states(states: list[OptimizerState]) -> OptimizerState:
    """Collapse worker states into one unsharded state (for checkpointing)."""
    if any(s.step != states[0].step for s in states):
        raise ValueError("worker states out of sync")
    return replace(
        states[0],
        m={k: a for s in states for k, a in s.m.items()},
        v={k: a for s in states for k, a in s.v.items()},
    )


def split_zero_state(state: OptimizerState, params: dict[str, np.ndarray], workers: int) -> list[OptimizerState]:
    """Inverse of merge_zero_states: the per-worker states every run steps,
    from a fresh or a resumed state."""
    return [
        replace(state, m={k: state.m[k] for k in shard}, v={k: state.v[k] for k in shard})
        for shard in partition_parameters(params, workers)
    ]
