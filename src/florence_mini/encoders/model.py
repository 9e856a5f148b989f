"""Miniature two-tower model.

Image tower: strided-conv patch embed, stages of non-overlapping windowed
self-attention with relative position bias and conv patch merging, final
layer norm, global average pool. Video clips run through the same tower
with inflated weights: the tube tokenizer and the merges mix time, while
attention stays within each temporal slice. Text tower: token + learned
position embeddings, pre-norm transformer blocks with PAD masking, masked
mean pool. Both project into a shared space and L2-normalize.
"""

from __future__ import annotations

import functools
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..numerics import ops
from ..numerics.tensor import Tensor
from .config import ModelConfig, parameter_shapes
from .vocab import PAD, Vocabulary

MASK_NEG = -1e9


def init_two_tower(config: ModelConfig, vocab_size: int, seed: int) -> dict[str, Tensor]:
    """Seeded parameter initialization; every tensor keyed and named by path."""
    dtype = np.dtype(config.dtype)
    params: dict[str, Tensor] = {}
    for name, shape in parameter_shapes(config, vocab_size).items():
        rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
        if name == "tau_param":
            arr = np.asarray(np.log(config.tau_init), dtype=dtype)
        elif name.endswith((".gamma",)):
            arr = np.ones(shape, dtype=dtype)
        elif name.endswith((".beta", ".b", ".b1", ".b2", ".bq", ".bv", ".bo", ".rel_bias")):
            arr = np.zeros(shape, dtype=dtype)
        elif name == "text.pos_embed":
            arr = rng.normal(0.0, 0.01, size=shape).astype(dtype)
        else:
            arr = rng.normal(0.0, 0.02, size=shape).astype(dtype)
        params[name] = Tensor(arr, requires_grad=True, name=name)
    return params


@functools.lru_cache(maxsize=16)
def relative_index(window: int) -> np.ndarray:
    """(N, N) table row index for each query/key offset inside one window.

    Cached and read-only: every block with this window shares one table.
    """
    coords = np.stack(np.meshgrid(np.arange(window), np.arange(window), indexing="ij"), axis=-1)
    flat = coords.reshape(-1, 2)
    rel = flat[:, None, :] - flat[None, :, :]  # (N, N, 2) in [-(w-1), w-1]
    index = (rel[..., 0] + window - 1) * (2 * window - 1) + (rel[..., 1] + window - 1)
    index.flags.writeable = False
    return index


_ATTENTION_PARAMS = (
    "ln1.gamma", "ln1.beta", "attn.wq", "attn.bq", "attn.wk", "attn.wv", "attn.bv", "attn.wo", "attn.bo"
)
_MLP_PARAMS = ("ln2.gamma", "ln2.beta", "mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2")


def transformer_block(x: Tensor, bias: Tensor, heads: int, window: int | None, *block: Tensor) -> Tensor:
    """Pre-norm attention and MLP sublayers with residuals, one tape node
    each. ``block`` holds the block's tensors in ``_ATTENTION_PARAMS`` then
    ``_MLP_PARAMS`` order, as ``ops.attention`` and ``ops.mlp`` take them.
    ``bias`` broadcasts onto the attention scores; with ``window``, x is an
    (..., H, W, C) map attended within non-overlapping windows."""
    split = len(_ATTENTION_PARAMS)
    x = ops.add(x, ops.attention(x, *block[:split], bias, heads, window))
    return ops.add(x, ops.mlp(x, *block[split:]))


def windowed_attention_block(x: Tensor, rel_bias: Tensor, *block: Tensor, heads: int, window: int) -> Tensor:
    """Pre-norm windowed MHSA + MLP with residuals on a (..., H, W, C) map;
    leading axes hold independent maps. ``rel_bias`` is the block's
    relative-position table and ``block`` its other tensors, in
    ``transformer_block``'s order."""
    eff = min(window, x.shape[-3])
    table = ops.embedding(rel_bias, relative_index(eff))  # (N, N, h)
    return transformer_block(x, ops.transpose(table, (2, 0, 1)), heads, eff, *block)


def conv_then_block(
    x: Tensor, conv_w: Tensor, conv_b: Tensor, *block: Tensor, stride: tuple[int, ...], block_fn: Callable
) -> Tensor:
    """A stage's convolution (the patch embed or a merge) and then its
    first block: ``block_fn(conv(x), *block)``."""
    return block_fn(ops.conv(x, conv_w, conv_b, stride), *block)


def image_tower(
    params: dict[str, Tensor],
    config: ModelConfig,
    images: Tensor,
    block_wrapper: Callable | None = None,
) -> Tensor:
    """Images (B, H, W, C), or clips (B, T, H, W, C) under inflated weights,
    -> unit-norm embeddings (B, d).

    Each stage is its convolution (the patch embed for stage 0,
    ``merge{s-1}`` for stage s) followed by its blocks. The patch embed
    strides by its own kernel, so a clip's temporal kernel rides in the
    inflated weight; merges keep temporal stride 1 and pooling averages
    every middle axis. Each stage binds its head count and the window into
    ``windowed_attention_block`` once, and every block of the stage calls
    that function as ``fn(x, rel_bias, *block)``, except the first, which
    is ``conv_then_block`` with the convolution in front:
    ``fn(stage_input, conv_w, conv_b, rel_bias, *block)``. A stage of no
    blocks runs its convolution bare.
    ``block_wrapper(fn, x, *params) -> Tensor`` (activation checkpointing)
    wraps each such call when provided: ``params`` are every tensor the
    call reads, so their gradients leave the wrapper's node as input
    gradients, and the first call of a stage carries its convolution, so
    that call's node saves the stage input and no convolution output.
    """
    *_, h, w, c = images.shape
    if h % config.patch_kernel or w % config.patch_kernel:
        raise ValueError(f"spatial extent {h}x{w} not divisible by patch kernel")
    if c != config.channels:
        raise ValueError(f"expected {config.channels} channels, got {c}")
    merge_stride = (1,) * (images.data.ndim - 4) + (config.merge_kernel,) * 2
    x = images
    for s, (depth, heads) in enumerate(zip(config.stage_depths, config.stage_heads)):
        if s and x.shape[-3] % config.merge_kernel:
            raise ValueError(f"stage side {x.shape[-3]} not divisible by merge kernel")
        conv_name = f"image.merge{s - 1}" if s else "image.patch_embed"
        conv = [params[f"{conv_name}.w"], params[f"{conv_name}.b"]]
        stride = merge_stride if s else conv[0].shape[:-2]
        if depth == 0:
            x = ops.conv(x, *conv, stride)
        fn = functools.partial(windowed_attention_block, heads=heads, window=config.window)
        for b in range(depth):
            block = [params[f"image.s{s}.b{b}.{name}"] for name in ("attn.rel_bias", *_ATTENTION_PARAMS, *_MLP_PARAMS)]
            call = fn
            if b == 0:
                call, block = functools.partial(conv_then_block, stride=stride, block_fn=fn), conv + block
            x = block_wrapper(call, x, *block) if block_wrapper is not None else call(x, *block)
    x = ops.layer_norm(x, params["image.ln_f.gamma"], params["image.ln_f.beta"])
    pooled = ops.mean(x, axis=tuple(range(1, x.data.ndim - 1)))
    return ops.l2_normalize(ops.linear(pooled, params["image.proj.w"]))


def text_tower(params: dict[str, Tensor], config: ModelConfig, ids: np.ndarray) -> Tensor:
    """Token id batch (B, L) -> unit-norm embeddings (B, d); PAD is masked
    out of both attention and pooling, and trailing columns that are PAD in
    every row are dropped first (attention cost is quadratic in length)."""
    ids = np.asarray(ids)
    if ids.shape[1] > config.max_len:
        raise ValueError(f"sequence length {ids.shape[1]} exceeds max_len {config.max_len}")
    valid = ids != PAD
    counts = valid.sum(axis=1)
    if (counts == 0).any():
        raise ValueError("all-PAD sequence cannot be pooled")
    length = int(np.flatnonzero(valid.any(axis=0))[-1]) + 1
    ids, valid = ids[:, :length], valid[:, :length]
    dtype = np.dtype(config.dtype)

    x = ops.add(
        ops.embedding(params["text.tok_embed"], ids),
        ops.embedding(params["text.pos_embed"], np.arange(length)),
    )
    mask_bias = Tensor((~valid[:, None, None, :]).astype(dtype) * MASK_NEG)
    for l in range(config.text_layers):
        block = [params[f"text.b{l}.{name}"] for name in (*_ATTENTION_PARAMS, *_MLP_PARAMS)]
        x = transformer_block(x, mask_bias, config.text_heads, None, *block)
    x = ops.layer_norm(x, params["text.ln_f.gamma"], params["text.ln_f.beta"])
    pooled = ops.tensor_sum(ops.mul(x, Tensor(valid[:, :, None].astype(dtype))), axis=1)
    pooled = ops.mul(pooled, Tensor((1.0 / counts)[:, None].astype(dtype)))
    return ops.l2_normalize(ops.linear(pooled, params["text.proj.w"]))


@dataclass
class TwoTowerModel:
    """Parameter snapshot plus the config and vocabulary that shaped it."""

    config: ModelConfig
    vocab: Vocabulary
    params: dict[str, Tensor]

    @staticmethod
    def create(config: ModelConfig, vocab: Vocabulary, seed: int) -> "TwoTowerModel":
        if vocab.max_len != config.max_len:
            vocab = Vocabulary.from_list(vocab.to_list(), max_len=config.max_len)
        return TwoTowerModel(config, vocab, init_two_tower(config, len(vocab), seed))

    def encode_image(self, images, block_wrapper: Callable | None = None) -> Tensor:
        arr = images if isinstance(images, Tensor) else Tensor(np.asarray(images, dtype=self.config.dtype))
        if arr.data.ndim == 3:
            arr = Tensor(arr.data[None])
        if arr.data.dtype != np.dtype(self.config.dtype):
            arr = Tensor(arr.data.astype(self.config.dtype))
        return image_tower(self.params, self.config, arr, block_wrapper=block_wrapper)

    def encode_text(self, ids: np.ndarray) -> Tensor:
        return text_tower(self.params, self.config, ids)

    @property
    def tau_param(self) -> Tensor:
        return self.params["tau_param"]

    def param_arrays(self) -> dict[str, np.ndarray]:
        return {k: t.data for k, t in self.params.items()}

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        for k, t in self.params.items():
            if k not in arrays:
                raise KeyError(f"missing parameter {k!r}")
            if arrays[k].shape != t.data.shape:
                raise ValueError(f"shape mismatch for {k!r}")
            t.data = arrays[k].astype(t.data.dtype, copy=True)
