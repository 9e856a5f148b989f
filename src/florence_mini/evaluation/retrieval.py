"""Cross-modal retrieval recall over row-aligned embedding pairs."""

from __future__ import annotations

import numpy as np


def retrieval_recall(u: np.ndarray, v: np.ndarray, ks) -> dict[str, dict[int, float]]:
    """R@k in both directions; row i of u and v is a ground-truth pair.

    Rank of the true candidate = its position in the stable descending sort
    of similarity scores (ties resolved by ascending candidate index).
    """
    u = np.asarray(u)
    v = np.asarray(v)
    ks = sorted(int(k) for k in ks)
    if not ks:
        raise ValueError("ks must be non-empty")
    if ks[0] < 1:
        raise ValueError(f"k must be >= 1, got k={ks[0]}")
    if u.shape != v.shape:
        raise ValueError("u and v must be row-aligned")
    n = u.shape[0]
    if n < 2:
        raise ValueError("need at least 2 rows")
    if ks[-1] > n:
        # past the candidate count every truth is inside the top k
        raise ValueError(f"k={ks[-1]} exceeds the {n} candidates")
    scores = u @ v.T  # scores[i, j]: image i vs text j

    def ranks(score_rows: np.ndarray) -> np.ndarray:
        order = np.argsort(-score_rows, axis=1, kind="stable")
        return np.argmax(order == np.arange(n)[:, None], axis=1)  # 0-based rank of truth

    i2t = ranks(scores)
    t2i = ranks(scores.T)
    return {
        "i2t": {k: float((i2t < k).mean()) for k in ks},
        "t2i": {k: float((t2i < k).mean()) for k in ks},
    }
