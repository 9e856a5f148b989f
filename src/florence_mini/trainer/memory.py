"""Activation-scalar accounting: the desk-scale stand-in for device-memory
profiles. Counts come straight from the tape instrumentation and are exact
integers."""

from __future__ import annotations

import numpy as np

from ..numerics.tensor import activation_meter
from .loop import TrainConfig, compute_gradients


def activation_profile(
    model, images: np.ndarray, ids: np.ndarray, labels: np.ndarray, chunk_size: int
) -> tuple[int, int]:
    """Peak live activation scalars of one gradient step, as (plain,
    checkpointed). The step runs the trainer's own gradient dispatch, so a
    chunk below the batch size takes the gradient cache exactly as `train`
    would."""
    peaks = []
    for flag in (False, True):
        config = TrainConfig(
            model=model.config, batch_size=images.shape[0], chunk_size=chunk_size, activation_checkpointing=flag
        )
        activation_meter.reset()
        compute_gradients(model, images, ids, labels, config)
        peaks.append(activation_meter.peak)
    return peaks[0], peaks[1]
