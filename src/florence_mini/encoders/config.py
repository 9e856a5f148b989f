"""Two-tower model configuration and its parameter shapes, a pure function of the config."""

from __future__ import annotations

import functools
import math
import numbers
import types
import typing
from dataclasses import asdict, dataclass, field, fields


@dataclass(frozen=True)
class ModelConfig:
    """Desk-scale defaults: 32x32x3 inputs, two windowed-attention stages
    (widths 32 -> 64), a 2-layer text tower, shared dimension 64."""

    image_size: int = 32
    channels: int = 3
    patch_kernel: int = 4  # tokenizer conv kernel == stride
    stage_depths: tuple[int, ...] = (2, 2)
    stage_widths: tuple[int, ...] = (32, 64)
    stage_heads: tuple[int, ...] = (2, 2)
    window: int = 4
    merge_kernel: int = 2  # patch-merge conv kernel == stride
    mlp_ratio: int = 2
    shared_dim: int = 64
    text_layers: int = 2
    text_width: int = 64
    text_heads: int = 2
    max_len: int = 76
    dtype: str = "float64"
    tau_init: float = 1.0 / 0.07

    def __post_init__(self):
        check_field_types(self)
        if not (len(self.stage_depths) == len(self.stage_widths) == len(self.stage_heads)):
            raise ValueError("stage tuples must have equal length")
        if not self.stage_depths:
            raise ValueError("stage_depths, stage_widths and stage_heads must hold at least one stage, got ()")
        if self.dtype not in ("float32", "float64"):
            raise ValueError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        # the model stores log(tau_init): 0 gives -inf, a negative or NaN value NaN
        if not (self.tau_init > 0 and math.isfinite(self.tau_init)):
            raise ValueError(f"tau_init must be finite and > 0, got {self.tau_init}")
        # a size below 1 divides by zero or builds empty tensors far from
        # here, so it is refused by name; a depth of 0 means no blocks
        sizes = (
            "image_size", "channels", "patch_kernel", "window", "merge_kernel", "mlp_ratio", "shared_dim",
            "text_width", "text_heads",
        )
        bounds = [(k, getattr(self, k), 1) for k in sizes] + [("text_layers", self.text_layers, 0)]
        for key, least in (("stage_widths", 1), ("stage_heads", 1), ("stage_depths", 0)):
            bounds += [(f"{key}[{i}]", v, least) for i, v in enumerate(getattr(self, key))]
        for name, value, least in bounds:
            if value < least:
                raise ValueError(f"{name} must be >= {least}, got {value}")
        if self.image_size % self.patch_kernel != 0:
            raise ValueError("image_size must be divisible by patch_kernel")
        for w, h in zip(self.stage_widths, self.stage_heads):
            if w % h != 0:
                raise ValueError("stage width must be divisible by its head count")
        if self.text_width % self.text_heads != 0:
            raise ValueError("text width must be divisible by text heads")
        if self.max_len < 2:
            raise ValueError("max_len must be at least 2 (BOS + EOS)")
        side = self.image_size // self.patch_kernel
        for i in range(len(self.stage_depths)):
            eff = min(self.window, side)
            if side % eff != 0:
                raise ValueError(f"stage {i} side {side} not divisible by window {eff}")
            if i + 1 < len(self.stage_depths):
                if side % self.merge_kernel != 0:
                    raise ValueError(f"stage {i} side {side} not divisible by merge kernel")
                side //= self.merge_kernel

    @property
    def num_stages(self) -> int:
        return len(self.stage_depths)

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "ModelConfig":
        if not isinstance(d, dict):
            raise ValueError(f"model config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        for key in ("stage_depths", "stage_widths", "stage_heads"):
            if isinstance(d.get(key), list):
                d[key] = tuple(d[key])
        known = set(ModelConfig.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown model config keys: {sorted(unknown)}")
        return ModelConfig(**d)


def check_field_types(config) -> None:
    """Refuse, by name, a dataclass field whose value has the wrong type:
    an integer field takes an integer but no bool, a float field any real
    number but a bool, a tuple field a tuple of integers, an optional field
    None as well, and any other field an instance of its annotated class.
    ``--config`` JSON reaches the configs unconverted, so a ``"4"`` for a
    size would otherwise fail far from here with a ``TypeError``."""
    for name, kind in _field_types(type(config)):
        value = getattr(config, name)
        if not _fits(value, kind):
            raise ValueError(f"{name} must be {_describe(kind)}, got {value!r}")


@functools.cache
def _field_types(cls) -> tuple[tuple[str, object], ...]:
    hints = typing.get_type_hints(cls)
    return tuple((f.name, hints[f.name]) for f in fields(cls))


def _fits(value, kind) -> bool:
    if isinstance(value, bool) and kind is not bool:
        return False
    if kind is int:
        return isinstance(value, numbers.Integral)
    if kind is float:
        return isinstance(value, numbers.Real)
    if typing.get_origin(kind) is tuple:
        return isinstance(value, tuple) and all(_fits(v, int) for v in value)
    if isinstance(kind, types.UnionType):
        return any(_fits(value, k) for k in typing.get_args(kind))
    return isinstance(value, kind)


def _describe(kind) -> str:
    if isinstance(kind, types.UnionType):
        return " or ".join(_describe(k) for k in typing.get_args(kind))
    if typing.get_origin(kind) is tuple:
        return "a list of integers"
    names = {int: "an integer", float: "a number", str: "a string", bool: "a boolean", type(None): "null"}
    return names.get(kind, f"a {kind.__name__}")


def _block_shapes(
    shapes: dict[str, tuple[int, ...]], p: str, width: int, mlp_ratio: int, rel_bias: tuple[int, int] | None = None
) -> None:
    """One pre-norm attention + MLP block; image blocks add their
    relative-position bias table after the attention biases."""
    shapes[f"{p}.ln1.gamma"] = (width,)
    shapes[f"{p}.ln1.beta"] = (width,)
    for m in ("wq", "wk", "wv", "wo"):
        shapes[f"{p}.attn.{m}"] = (width, width)
    for m in ("bq", "bv", "bo"):
        shapes[f"{p}.attn.{m}"] = (width,)
    if rel_bias is not None:
        shapes[f"{p}.attn.rel_bias"] = rel_bias
    shapes[f"{p}.ln2.gamma"] = (width,)
    shapes[f"{p}.ln2.beta"] = (width,)
    shapes[f"{p}.mlp.w1"] = (width, width * mlp_ratio)
    shapes[f"{p}.mlp.b1"] = (width * mlp_ratio,)
    shapes[f"{p}.mlp.w2"] = (width * mlp_ratio, width)
    shapes[f"{p}.mlp.b2"] = (width,)


def parameter_shapes(config: ModelConfig, vocab_size: int) -> dict[str, tuple[int, ...]]:
    """Name -> shape map; a pure function of config, never allocating."""
    shapes: dict[str, tuple[int, ...]] = {}
    rel_rows = (2 * config.window - 1) ** 2

    w0 = config.stage_widths[0]
    shapes["image.patch_embed.w"] = (config.patch_kernel, config.patch_kernel, config.channels, w0)
    shapes["image.patch_embed.b"] = (w0,)
    for s, (depth, width, heads) in enumerate(
        zip(config.stage_depths, config.stage_widths, config.stage_heads)
    ):
        for b in range(depth):
            _block_shapes(shapes, f"image.s{s}.b{b}", width, config.mlp_ratio, rel_bias=(rel_rows, heads))
        if s + 1 < config.num_stages:
            nxt = config.stage_widths[s + 1]
            shapes[f"image.merge{s}.w"] = (config.merge_kernel, config.merge_kernel, width, nxt)
            shapes[f"image.merge{s}.b"] = (nxt,)
    w_last = config.stage_widths[-1]
    shapes["image.ln_f.gamma"] = (w_last,)
    shapes["image.ln_f.beta"] = (w_last,)
    shapes["image.proj.w"] = (w_last, config.shared_dim)

    tw = config.text_width
    shapes["text.tok_embed"] = (vocab_size, tw)
    shapes["text.pos_embed"] = (config.max_len, tw)
    for l in range(config.text_layers):
        _block_shapes(shapes, f"text.b{l}", tw, config.mlp_ratio)
    shapes["text.ln_f.gamma"] = (tw,)
    shapes["text.ln_f.beta"] = (tw,)
    shapes["text.proj.w"] = (tw, config.shared_dim)

    shapes["tau_param"] = ()
    return shapes
