"""Linear probing on frozen features."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics import ops
from ..numerics.optim import adamw_step, init_optimizer_state
from ..numerics.tensor import Tensor, evaluate_and_backward

# The probe head's AdamW learning rate.
PROBE_LR = 0.05


@dataclass
class ProbeConfig:
    epochs: int = 100
    holdout_fraction: float = 0.25
    seed: int = 0

    def __post_init__(self):
        # zero epochs would score the untrained probe as if it were trained
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if not 0 < self.holdout_fraction < 1:
            raise ValueError(f"holdout_fraction must be in (0, 1), got {self.holdout_fraction}")


@dataclass
class ProbeResult:
    accuracy: float
    degenerate: bool = False


def _cross_entropy(x: Tensor, w: Tensor, b: Tensor, onehot: np.ndarray) -> Tensor:
    logits = ops.linear(x, w, b)
    log_probs = ops.log(ops.softmax(logits))
    picked = ops.mul(log_probs, Tensor(onehot.astype(x.data.dtype)))
    return ops.scale(ops.tensor_sum(picked), -1.0 / onehot.shape[0])


def linear_probe(features: np.ndarray, labels: np.ndarray, config: ProbeConfig = ProbeConfig()) -> ProbeResult:
    """Train one linear layer (softmax cross-entropy, AdamW at PROBE_LR) on
    frozen features; report held-out accuracy. Single-class data scores 1.0
    and is flagged degenerate."""
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    n, d = features.shape
    classes = np.unique(labels)
    if classes.size < 2:
        return ProbeResult(accuracy=1.0, degenerate=True)
    n_classes = int(labels.max()) + 1

    rng = np.random.default_rng([config.seed, 0x9B0E])
    perm = rng.permutation(n)
    n_hold = max(1, int(round(n * config.holdout_fraction)))
    test_idx, train_idx = perm[:n_hold], perm[n_hold:]
    if np.unique(labels[train_idx]).size < 2:
        raise ValueError("degenerate single-class training split")

    x_train = features[train_idx]
    onehot = np.eye(n_classes)[labels[train_idx]]
    w = Tensor(np.zeros((d, n_classes)), requires_grad=True, name="probe.w")
    b = Tensor(np.zeros(n_classes), requires_grad=True, name="probe.b")
    params = {"probe.w": w.data, "probe.b": b.data}
    state = init_optimizer_state(params, lr=PROBE_LR, weight_decay=0.0)
    xt = Tensor(x_train)
    for _ in range(config.epochs):
        loss = _cross_entropy(xt, w, b, onehot)
        g = evaluate_and_backward(loss)
        params, state = adamw_step(params, {"probe.w": g[w], "probe.b": g[b]}, state)
        w.data = params["probe.w"]
        b.data = params["probe.b"]

    logits = features[test_idx] @ w.data + b.data
    accuracy = float((logits.argmax(axis=1) == labels[test_idx]).mean())
    return ProbeResult(accuracy=accuracy)
