"""Activation-scalar accounting: the desk-scale stand-in for device-memory
profiles. Counts come straight from the tape instrumentation and are exact
integers."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.tensor import activation_meter
from .loop import TrainConfig, compute_gradients


@dataclass
class MemoryReport:
    peak_with_checkpointing: list[int]  # per measured step
    peak_without_checkpointing: list[int]

    def reduction(self) -> float:
        """Mean fractional peak reduction from checkpointing."""
        with_c = np.array(self.peak_with_checkpointing, dtype=float)
        without = np.array(self.peak_without_checkpointing, dtype=float)
        return float((1.0 - with_c / without).mean())


def activation_profile(
    model, batches: list[tuple[np.ndarray, np.ndarray, np.ndarray]], chunk_size: int | None = None
) -> MemoryReport:
    """Peak live activation scalars per step, with and without activation
    checkpointing, over (images, ids, labels) batches. Each step runs the
    trainer's own gradient dispatch, so a chunk below the batch size takes
    the gradient cache exactly as `train` would."""
    with_c: list[int] = []
    without: list[int] = []
    for images, ids, labels in batches:
        batch = images.shape[0]
        for flag, sink in ((False, without), (True, with_c)):
            config = TrainConfig(
                model=model.config, batch_size=batch, chunk_size=batch if chunk_size is None else chunk_size,
                activation_checkpointing=flag,
            )
            activation_meter.reset()
            compute_gradients(model, images, ids, labels, config)
            sink.append(activation_meter.peak)
    return MemoryReport(peak_with_checkpointing=with_c, peak_without_checkpointing=without)
