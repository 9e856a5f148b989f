"""Dense tensor engine: tape autodiff, AdamW, precision emulation, containers."""

from .container import (
    TensorFormatError,
    load_checkpoint,
    read_tensor_file,
    read_tensor_header,
    save_checkpoint,
    write_tensor_file,
)
from .optim import OptimizerState, adamw_step, cosine_lr, init_optimizer_state
from .precision import half_grid, precision_policy
from .tensor import (
    ActivationMeter,
    TapeNode,
    Tensor,
    activation_meter,
    backward_from,
    enable_grad,
    evaluate_and_backward,
    grad_enabled,
    no_grad,
)
from . import ops

__all__ = [
    "ActivationMeter",
    "OptimizerState",
    "TapeNode",
    "Tensor",
    "TensorFormatError",
    "activation_meter",
    "adamw_step",
    "backward_from",
    "cosine_lr",
    "enable_grad",
    "evaluate_and_backward",
    "grad_enabled",
    "half_grid",
    "init_optimizer_state",
    "load_checkpoint",
    "no_grad",
    "ops",
    "precision_policy",
    "read_tensor_file",
    "read_tensor_header",
    "save_checkpoint",
    "write_tensor_file",
]
