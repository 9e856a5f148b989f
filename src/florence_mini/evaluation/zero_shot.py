"""Zero-shot classification with prompt-template ensembling.

Class scores are cosine similarities between the image embedding and each
class's ensembled text embedding (mean of per-template unit embeddings,
re-normalized). Ranking is descending score with ties broken by ascending
class index; any positive rescaling of the scores leaves it unchanged.
"""

from __future__ import annotations

import numpy as np

from ..numerics.tensor import no_grad
from .embed import embed_images, embed_texts

# The ensembling templates every prompt set is built from; a deliberately
# small, documented stand-in for the full CLIP prompt list.
DEFAULT_EVAL_TEMPLATES = (
    "a photo of a {}.",
    "a photo of the {}.",
    "a cropped photo of a {}.",
    "a close-up photo of a {}.",
    "a bright photo of a {}.",
    "a photo of one {}.",
    "a low resolution photo of a {}.",
)


def build_prompt_sets(model, class_names) -> np.ndarray:
    """Class-embedding matrix (num_classes, d): row c is the mean of class c's
    DEFAULT_EVAL_TEMPLATES text embeddings, re-normalized to unit length."""
    if not class_names:
        raise ValueError("class list is empty")
    v = embed_texts(model, [t.format(name) for name in class_names for t in DEFAULT_EVAL_TEMPLATES])
    # the same 2-D (templates, d) reduction a forward per class made, and a
    # per-row norm: norm(axis=1) over the stack can differ in the last bit
    means = [rows.mean(axis=0) for rows in v.reshape(len(class_names), len(DEFAULT_EVAL_TEMPLATES), -1)]
    return np.stack([m / np.linalg.norm(m) for m in means])


def rank_scores(scores: np.ndarray) -> np.ndarray:
    """Descending-score order; stable sort breaks ties by class index."""
    return np.argsort(-scores, axis=-1, kind="stable")


def zero_shot_classify(model, image: np.ndarray, class_embeddings: np.ndarray) -> list[tuple[int, float]]:
    """Ranked (class index, cosine score) for one image."""
    if len(class_embeddings) == 0:
        raise ValueError("class list is empty")
    with no_grad():
        u = model.encode_image(image).data[0]
    scores = class_embeddings @ u
    order = rank_scores(scores)
    return [(int(c), float(scores[c])) for c in order]


def class_scores(model, images, class_embeddings: np.ndarray) -> np.ndarray:
    """Cosine scores (N, num_classes) of N images (as `embed_images` takes
    them) against each class, row by row the matrix-vector product
    zero_shot_classify takes (a GEMM over all rows could differ from it in
    the last bit)."""
    if len(class_embeddings) == 0:
        raise ValueError("class list is empty")
    return (class_embeddings @ embed_images(model, images)[:, :, None])[..., 0]


def zero_shot_classify_batch(model, images, class_embeddings: np.ndarray) -> np.ndarray:
    """Ranked class indices (N, num_classes) for N images (as `embed_images` takes them)."""
    return rank_scores(class_scores(model, images, class_embeddings))


def evaluate_topk(ranked: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose true label appears among the first k entries."""
    ranked = np.asarray(ranked)
    labels = np.asarray(labels)
    if k < 1:
        raise ValueError("k must be >= 1")
    if ranked.shape[0] != labels.shape[0]:
        raise ValueError("ranked predictions and labels must align")
    if ranked.shape[1] < k:
        raise ValueError(f"prediction lists shorter than k={k}")
    return float((ranked[:, :k] == labels[:, None]).any(axis=1).mean())
