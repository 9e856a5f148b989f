"""Miniature two-tower encoders and video inflation."""

from .config import ModelConfig, parameter_shapes
from .model import (
    TwoTowerModel,
    image_tower,
    init_two_tower,
    relative_index,
    text_tower,
    windowed_attention_block,
)
from .video import (
    VideoTowerParams,
    build_video_tower,
    encode_video,
    inflate_conv_2d_to_3d,
)
from .vocab import BOS, EOS, PAD, UNK, Vocabulary, build_vocabulary, split_words, tokenize, tokenize_batch

__all__ = [
    "BOS",
    "EOS",
    "ModelConfig",
    "PAD",
    "TwoTowerModel",
    "UNK",
    "VideoTowerParams",
    "Vocabulary",
    "build_video_tower",
    "build_vocabulary",
    "encode_video",
    "image_tower",
    "inflate_conv_2d_to_3d",
    "init_two_tower",
    "parameter_shapes",
    "relative_index",
    "split_words",
    "text_tower",
    "tokenize",
    "tokenize_batch",
    "windowed_attention_block",
]
