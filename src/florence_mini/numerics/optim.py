"""AdamW with decoupled weight decay, plus the warmup-cosine schedule."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np


@dataclass
class OptimizerState:
    """Per-parameter moments and the shared hyperparameters.

    The betas, eps and decay are the common decoupled-decay defaults, and
    training always uses them; only the linear probe sets its own decay (0).
    """

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    weight_decay: float = 0.05
    step: int = 0
    m: dict[str, np.ndarray] = field(default_factory=dict)
    v: dict[str, np.ndarray] = field(default_factory=dict)


def init_optimizer_state(params: dict[str, np.ndarray], lr: float, **hyper) -> OptimizerState:
    """Zero moments for ``params``; ``hyper`` overrides OptimizerState's
    beta1, beta2, eps or weight_decay."""
    if lr <= 0:
        raise ValueError("lr must be positive")
    return OptimizerState(
        lr=lr,
        m={k: np.zeros_like(p) for k, p in params.items()},
        v={k: np.zeros_like(p) for k, p in params.items()},
        **hyper,
    )


def adamw_step(
    params: dict[str, np.ndarray],
    grads: dict[str, np.ndarray],
    state: OptimizerState,
    lr: float | None = None,
) -> tuple[dict[str, np.ndarray], OptimizerState]:
    """One bias-corrected Adam update plus decoupled decay p -= lr*wd*p.

    Pure function of (params, grads, state): returns fresh arrays, leaving
    the inputs untouched, so sharded and unsharded executions can be
    compared bit-for-bit. Every parameter needs a gradient.
    """
    step_lr = state.lr if lr is None else lr
    if step_lr < 0:
        raise ValueError("lr must be non-negative")
    t = state.step + 1
    bc1 = 1.0 - state.beta1**t
    bc2 = 1.0 - state.beta2**t

    new_params: dict[str, np.ndarray] = {}
    new_m = dict(state.m)
    new_v = dict(state.v)
    for name in params:
        p, g = params[name], grads[name]
        if g.shape != p.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {p.shape} for {name!r}")
        if not np.isfinite(g).all():
            # one inf makes m_hat / sqrt(v_hat) inf / inf, a NaN parameter
            raise ValueError(f"non-finite gradient for parameter {name!r}; step aborted")
        m = state.beta1 * state.m[name] + (1.0 - state.beta1) * g
        v = state.beta2 * state.v[name] + (1.0 - state.beta2) * (g * g)
        update = (m / bc1) / (np.sqrt(v / bc2) + state.eps)
        new_params[name] = p - step_lr * update - step_lr * state.weight_decay * p
        new_m[name] = m
        new_v[name] = v

    return new_params, replace(state, step=t, m=new_m, v=new_v)


def cosine_lr(step: int, total_steps: int, warmup_steps: int, peak_lr: float) -> float:
    """Linear ramp 0 -> peak over warmup, then cosine decay peak -> 0.

    Clamped at both ends, so callers may pass steps outside [0, total].
    """
    if warmup_steps < 0:
        raise ValueError(f"warmup_steps must be >= 0, got {warmup_steps}")
    if warmup_steps >= total_steps:
        raise ValueError("warmup_steps must be smaller than total_steps")
    step = max(0, min(step, total_steps))
    if step < warmup_steps:
        return peak_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return peak_lr * 0.5 * (1.0 + math.cos(math.pi * progress))
