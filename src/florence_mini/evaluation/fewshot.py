"""Episodic few-shot evaluation with a linear adapter head.

Per episode: sample ``way`` classes, ``shot`` supports and up to
QUERY_PER_CLASS queries per class, train a linear head on frozen features
with momentum-SGD for ADAPTER_EPOCHS, score the queries. The heads of a
block of episodes train together in one stacked run. The benchmark protocol
(5-way, {5, 20, 50}-shot, 600 episodes) is the ``way``, ``shot`` and
``episodes`` arguments.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.ops import _softmax_rows


# Episodes whose heads train together in one stack. One stack of all 600
# protocol episodes raised the eval's peak memory by 11% and ran no faster.
# The 600-episode 5-way 5-shot protocol over 1,024 64-d features took 177,
# 170, 165, 164, 170 and 180 ms at blocks of 30, 40, 50, 60, 75 and 100
# (best of 5, one BLAS thread, one Xeon core), with every per-episode
# accuracy byte-equal; 50 and 60 tie, and 50 keeps the smaller stack.
EPISODE_BLOCK = 50

# Queries scored per class (fewer when a class runs short) and the adapter
# head's momentum-SGD budget.
QUERY_PER_CLASS = 15
ADAPTER_EPOCHS = 100
ADAPTER_LR = 0.01
ADAPTER_MOMENTUM = 0.99


@dataclass
class EpisodeEvalResult:
    mean_accuracy: float
    ci95: float
    per_episode: np.ndarray


def _train_linear_heads(
    x: np.ndarray, y: np.ndarray, n_classes: int, epochs: int, lr: float, momentum: float
) -> tuple[np.ndarray, np.ndarray]:
    """Full-batch momentum-SGD on softmax cross-entropy, one head per episode.

    x is (E, n, d) and y (n,), the labels every episode's rows share; returns
    weights (E, d, n_classes) and biases (E, 1, n_classes). The stacked
    matmul makes each episode's product as the 2-D one would, so every head
    is byte-equal to training it alone. The momentum buffers update in
    place, which keeps every byte of the out-of-place form.
    """
    e, n, d = x.shape
    w = np.zeros((e, d, n_classes))
    b = np.zeros((e, 1, n_classes))
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    onehot = np.eye(n_classes)[y]
    xt = x.transpose(0, 2, 1)
    for _ in range(epochs):
        g = _softmax_rows(x @ w + b)
        g -= onehot
        g /= n
        vw *= momentum
        vw += xt @ g
        vb *= momentum
        vb += g.sum(axis=1, keepdims=True)
        w -= lr * vw
        b -= lr * vb
    return w, b


def _draw_episode(rng, classes, per_class, way: int, shot: int, query_per_class: int):
    """Support and query indices with their episode-local labels."""
    chosen = rng.choice(classes, size=way, replace=False)
    support, query, y_query = [], [], []
    for slot, c in enumerate(chosen):
        idx = per_class[int(c)]
        picked = rng.permutation(idx)
        n_query = min(query_per_class, idx.size - shot)
        support.append(picked[:shot])
        query.append(picked[shot : shot + n_query])
        y_query.append(np.full(n_query, slot))
    return np.concatenate(support), np.concatenate(query), np.concatenate(y_query)


def few_shot_episode_eval(
    features: np.ndarray,
    labels: np.ndarray,
    way: int,
    shot: int,
    episodes: int,
    seed: int,
) -> EpisodeEvalResult:
    """Mean accuracy over episodes with a normal-approximation 95% CI.

    Episode draws are a pure function of (seed, episode index), so the
    evaluation is reproducible draw-for-draw. Heads train EPISODE_BLOCK
    episodes at a time; each episode's accuracy equals a lone run's.
    """
    for name, value in (("way", way), ("shot", shot), ("episodes", episodes)):
        if value < 1:
            raise ValueError(f"{name} must be >= 1, got {value}")
    features = np.asarray(features, dtype=np.float64)
    labels = np.asarray(labels)
    classes = np.unique(labels)
    if classes.size < way:
        raise ValueError(f"need at least {way} classes, have {classes.size}")
    per_class = {int(c): np.flatnonzero(labels == c) for c in classes}
    smallest = min(idx.size for idx in per_class.values())
    if smallest < shot + 1:
        raise ValueError(f"every class needs at least shot+1={shot + 1} samples, smallest has {smallest}")

    draws = [
        _draw_episode(np.random.default_rng([seed, ep, 0xFE75]), classes, per_class, way, shot, QUERY_PER_CLASS)
        for ep in range(episodes)
    ]
    # supports are class-major, `shot` rows per slot, in every episode
    y_support = np.repeat(np.arange(way), shot)
    accs = np.zeros(episodes)
    for start in range(0, episodes, EPISODE_BLOCK):
        block = draws[start : start + EPISODE_BLOCK]
        x_support = features[np.stack([support for support, _, _ in block])]
        w, b = _train_linear_heads(x_support, y_support, way, ADAPTER_EPOCHS, ADAPTER_LR, ADAPTER_MOMENTUM)
        for i, (_, query, y_query) in enumerate(block):
            pred = (features[query] @ w[i] + b[i]).argmax(axis=1)
            accs[start + i] = float((pred == y_query).mean())

    ci = 1.96 * accs.std(ddof=1) / np.sqrt(episodes) if episodes > 1 else 0.0
    return EpisodeEvalResult(mean_accuracy=float(accs.mean()), ci95=float(ci), per_episode=accs)
