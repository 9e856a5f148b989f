"""Decoupled region classification: externally supplied boxes, zero-shot
classification of every crop (proposal generation stays out of scope)."""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Collection

import numpy as np

from ..imaging import crop_box, resize_bilinear
from ..jsonl import read_jsonl, write_jsonl
from .zero_shot import class_scores, rank_scores


@dataclass(frozen=True)
class Box:
    image_id: str
    x0: int
    y0: int
    x1: int
    y1: int


def read_boxes_jsonl(
    path, image_ids: Collection[str] | None = None, image_size: tuple[int, int] | None = None
) -> list[Box]:
    """Boxes, one per line. A coordinate that is not a JSON integer, an
    ``image_id`` outside ``image_ids`` when it is given, or, when the image's
    (H, W) ``image_size`` is given, a box that is empty or leaves
    ``0 <= x0 < x1 <= W``, ``0 <= y0 < y1 <= H`` raises ValueError naming
    ``<path> line <n>``."""
    keys = ("image_id", "x0", "y0", "x1", "y1")

    def build(d) -> Box:
        if image_ids is not None and d["image_id"] not in image_ids:
            raise ValueError(f"image_id {d['image_id']!r} is not the image's record ({', '.join(sorted(image_ids))})")
        box = Box(*(d[k] for k in keys))
        if image_size is not None:
            h, w = image_size
            coords = (box.x0, box.y0, box.x1, box.y1)
            if box.x1 <= box.x0 or box.y1 <= box.y0:
                raise ValueError(f"zero-area box {coords}")
            if not (0 <= box.x0 and box.x1 <= w and 0 <= box.y0 and box.y1 <= h):
                raise ValueError(f"box {coords} outside image {w}x{h}")
        return box

    return read_jsonl(path, keys=keys, types=dict.fromkeys(keys[1:], int), build=build)


def write_boxes_jsonl(path, boxes: list[Box]) -> None:
    write_jsonl(path, map(asdict, boxes))


def classify_regions(model, image: np.ndarray, boxes, class_embeddings: np.ndarray) -> list[list[tuple[int, float]]]:
    """Crop each box and bilinear-resize it to the encoder input size, embed
    all crops together, and rank each crop's (class index, cosine score)
    pairs as zero_shot_classify would. Empty box list yields an empty result."""
    side = model.config.image_size
    crops = []
    for box in boxes:
        coords = (box.x0, box.y0, box.x1, box.y1) if isinstance(box, Box) else tuple(box)
        crop = crop_box(image, *coords)
        if crop.shape[0] != side or crop.shape[1] != side:
            crop = resize_bilinear(crop, side, side)
        crops.append(crop)
    if not crops:
        return []
    scores = class_scores(model, np.stack(crops), class_embeddings)
    return [[(int(c), float(row[c])) for c in order] for row, order in zip(scores, rank_scores(scores))]
