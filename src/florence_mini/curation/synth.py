"""Synthetic desk-scale corpus: procedural class textures plus captions.

Each class is a deterministic color/grating prototype; samples add Gaussian
pixel noise. A configurable fraction of captions is the bare class word
(shared by every drawing image, hence duplicate labels downstream); the
rest are unique sentences containing the word.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from ..numerics.container import write_tensor_file
from .records import RawRecord

CLASS_WORDS = (
    "heron", "maple", "cobalt", "saffron", "basalt", "meadow", "ember", "glacier",
    "orchid", "falcon", "juniper", "quartz", "lichen", "onyx", "tundra", "sable",
)

SENTENCE_PATTERNS = (
    "a bright outdoor scene full of {} texture shot {}",
    "close view number {1} of the woven {0} pattern",
    "field study frame {1} showing {0} colours in daylight",
)


def class_names(num_classes: int) -> list[str]:
    if num_classes < 2:
        raise ValueError("need at least 2 classes")
    names = list(CLASS_WORDS[:num_classes])
    names += [f"texture{i}" for i in range(len(names), num_classes)]
    return names


def class_prototype(class_idx: int, image_side: int, seed: int) -> np.ndarray:
    """Deterministic per-class RGB texture prototype in [0.05, 0.95]."""
    rng = np.random.default_rng([seed, class_idx, 0x9201])
    yy, xx = np.meshgrid(np.arange(image_side), np.arange(image_side), indexing="ij")
    img = np.zeros((image_side, image_side, 3))
    base = rng.uniform(0.25, 0.75, size=3)
    for c in range(3):
        fx, fy = rng.uniform(0.5, 3.0, size=2)
        phase = rng.uniform(0, 2 * np.pi)
        wave = np.sin(2 * np.pi * (fx * xx + fy * yy) / image_side + phase)
        img[:, :, c] = base[c] + 0.28 * wave
    return np.clip(img, 0.05, 0.95).astype(np.float32)


def generate_synthetic_dataset(
    out_dir,
    num_classes: int,
    per_class: int,
    image_side: int = 32,
    seed: int = 0,
    noise_sigma: float = 0.05,
    word_caption_fraction: float = 0.5,
) -> tuple[list[RawRecord], list[str]]:
    """Write container images under out_dir/images and return the records;
    arguments that would make unusable data are refused before any write."""
    names = class_names(num_classes)
    for name, value, ok, bound in (
        ("per_class", per_class, per_class >= 1, ">= 1"),
        ("image_side", image_side, image_side >= 1, ">= 1"),
        ("noise_sigma", noise_sigma, noise_sigma >= 0, ">= 0"),
        ("word_caption_fraction", word_caption_fraction, 0 <= word_caption_fraction <= 1, "in [0, 1]"),
    ):
        if not ok:
            raise ValueError(f"{name} must be {bound}, got {value}")
    out_dir = Path(out_dir)
    img_dir = out_dir / "images"
    img_dir.mkdir(parents=True, exist_ok=True)

    records: list[RawRecord] = []
    n_word_captions = int(round(per_class * word_caption_fraction))
    for ci, word in enumerate(names):
        proto = class_prototype(ci, image_side, seed)
        for k in range(per_class):
            rng = np.random.default_rng([seed, ci, k, 0x5A11])
            img = proto
            if noise_sigma > 0:
                # white pixel noise plus a block-scale component; the latter
                # survives 8x8 cell averaging so same-class samples do not
                # collapse to one perceptual hash
                blocks = rng.normal(size=(8, 8, 3)) * (2.0 * noise_sigma)
                up = (np.arange(image_side) * 8) // image_side
                img = np.clip(
                    proto + blocks[up][:, up] + noise_sigma * rng.normal(size=proto.shape),
                    0.0,
                    1.0,
                )
            rec_id = f"{word}-{k:04d}"
            path = img_dir / f"{rec_id}.bin"
            write_tensor_file(path, img.astype(np.float32))
            if k < n_word_captions:
                text = word
            else:
                pattern = SENTENCE_PATTERNS[k % len(SENTENCE_PATTERNS)]
                text = pattern.format(word, k)
            records.append(
                RawRecord(id=rec_id, image_path=str(path), text=text, source=f"class:{ci}:{word}")
            )
    return records, names
