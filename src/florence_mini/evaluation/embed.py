"""The one way eval protocols embed images and captions with the frozen encoder."""

from __future__ import annotations

import numpy as np

from ..encoders.vocab import tokenize_batch
from ..numerics.tensor import no_grad

EVAL_CHUNK = 32  # images per no-grad forward


def embed_images(model, images) -> np.ndarray:
    """Unit embeddings (N, d) of N images, from no-grad forwards of at most
    EVAL_CHUNK images each.

    `images` is an (N, H, W, C) stack or an `ImageFiles`, which reads each
    chunk from disk as the loop slices it, so one chunk of pixels is
    resident at a time. Each row depends on its own image only, so the
    chunking bounds the working memory without changing any value.
    """
    with no_grad():
        return np.concatenate(
            [model.encode_image(images[s : s + EVAL_CHUNK]).data for s in range(0, len(images), EVAL_CHUNK)]
        )


def embed_texts(model, texts) -> np.ndarray:
    """Unit embeddings (N, d) of N captions, from one no-grad text forward."""
    ids = tokenize_batch(texts, model.vocab)
    with no_grad():
        return model.encode_text(ids).data
