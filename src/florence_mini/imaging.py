"""Small image utilities shared by training (high-res phase) and eval (crops)."""

from __future__ import annotations

import numpy as np


def resize_bilinear(image: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Bilinear resample of an H x W x C image, or an N x H x W x C stack of
    them (pixel-center alignment).

    Each input row is blended across once, then the output rows gather the
    blended rows they fall between, so no output row's column blend is
    computed twice; every element takes the same operations, in the same
    order, as a blend of the four neighbours row by row.
    """
    if image.ndim not in (3, 4):
        raise ValueError("expected an H x W x C image or an N x H x W x C stack")
    h, w = image.shape[-3:-1]
    if out_h < 1 or out_w < 1:
        raise ValueError("output size must be positive")
    ys = np.clip((np.arange(out_h) + 0.5) * h / out_h - 0.5, 0.0, h - 1.0)
    xs = np.clip((np.arange(out_w) + 0.5) * w / out_w - 0.5, 0.0, w - 1.0)
    y0 = np.floor(ys).astype(int)
    x0 = np.floor(xs).astype(int)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = (ys - y0)[:, None, None]
    wx = (xs - x0)[None, :, None]
    across = image[..., x0, :] * (1 - wx) + image[..., x1, :] * wx
    top, bot = across[..., y0, :, :], across[..., y1, :, :]
    return (top * (1 - wy) + bot * wy).astype(image.dtype)


def crop_box(image: np.ndarray, x0: int, y0: int, x1: int, y1: int) -> np.ndarray:
    """Crop [y0:y1, x0:x1] with bounds checking; zero-area boxes are errors."""
    h, w, _ = image.shape
    if not (0 <= x0 < x1 <= w and 0 <= y0 < y1 <= h):
        if x1 <= x0 or y1 <= y0:
            raise ValueError(f"zero-area box ({x0}, {y0}, {x1}, {y1})")
        raise ValueError(f"box ({x0}, {y0}, {x1}, {y1}) outside image {w}x{h}")
    return image[y0:y1, x0:x1]
