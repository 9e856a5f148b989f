"""Training loop and the memory-efficiency algorithms."""

from .checkpointing import checkpointed
from .grad_cache import gradient_cache_gradients, monolithic_gradients
from .loop import (
    TrainConfig,
    TrainingAborted,
    effective_labels,
    load_model_checkpoint,
    load_train_checkpoint,
    prepare_batch,
    run_two_stage_training,
    save_train_checkpoint,
    train_step,
)
from .zero import zero_shard_update

__all__ = [
    "TrainConfig",
    "TrainingAborted",
    "checkpointed",
    "effective_labels",
    "gradient_cache_gradients",
    "load_model_checkpoint",
    "load_train_checkpoint",
    "monolithic_gradients",
    "prepare_batch",
    "run_two_stage_training",
    "save_train_checkpoint",
    "train_step",
    "zero_shard_update",
]
