"""2D -> 3D weight inflation and the video embedding path.

The tokenizer becomes a tube convolution (temporal kernel = stride = kt);
its 2D weights are duplicated along time and divided by kt so temporally
constant input produces the 2D response. Patch merges inflate the same way
with temporal stride 1, capping the temporal kernel at the extent still
available. Attention stays 2D per temporal slice (3D shifted windows are
out of scope), so the relative-position tables and all other weights are
inherited byte-identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..numerics.tensor import Tensor
from .config import ModelConfig
from .model import image_tower


def inflate_conv_2d_to_3d(w2d: np.ndarray, kt: int) -> np.ndarray:
    """w3d[t] = w2d / kt for each of kt temporal slices; kt=1 is a copy."""
    if kt < 1:
        raise ValueError("temporal kernel size must be >= 1")
    return np.repeat(w2d[None] / kt, kt, axis=0)


@dataclass
class VideoTowerParams:
    config: ModelConfig
    kt: int
    frames: int
    params: dict[str, np.ndarray]


def build_video_tower(params: dict[str, np.ndarray], config: ModelConfig, kt: int, frames: int) -> VideoTowerParams:
    """Inflate the tokenizer by kt and each merge by kt capped at the
    temporal extent its stage has left; copy the rest."""
    if kt < 1:
        raise ValueError("temporal kernel size must be >= 1")
    if kt > frames:
        raise ValueError(f"temporal kernel {kt} exceeds frame count {frames}")
    if frames % kt != 0:
        raise ValueError(f"frame count {frames} not divisible by temporal kernel {kt}")

    out = {name: arr.copy() for name, arr in params.items()}
    out["image.patch_embed.w"] = inflate_conv_2d_to_3d(params["image.patch_embed.w"], kt)
    t = frames // kt
    for s in range(config.num_stages - 1):
        k = min(kt, t)
        out[f"image.merge{s}.w"] = inflate_conv_2d_to_3d(params[f"image.merge{s}.w"], k)
        t -= k - 1
    return VideoTowerParams(config=config, kt=kt, frames=frames, params=out)


def encode_video(tower: VideoTowerParams, clip: np.ndarray) -> Tensor:
    """Clip (B, T, H, W, C) or (T, H, W, C) -> unit-norm embedding (B, d).

    The clip runs through ``image_tower`` on the inflated weights. Attention
    stays 2D within each temporal slice, with the image tower's positional
    tables; tube tokenization and 3D merges do the temporal mixing.
    """
    arr = np.asarray(clip, dtype=tower.config.dtype)
    if arr.ndim == 4:
        arr = arr[None]
    if arr.ndim != 5:
        raise ValueError(f"clip must be (B, T, H, W, C) or (T, H, W, C), got shape {arr.shape}")
    if arr.shape[1] != tower.frames:
        raise ValueError(f"clip has {arr.shape[1]} frames, tower built for {tower.frames}")
    return image_tower({name: Tensor(w) for name, w in tower.params.items()}, tower.config, Tensor(arr))
