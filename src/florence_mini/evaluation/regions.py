"""Decoupled region classification: externally supplied boxes, zero-shot
classification of every crop (proposal generation stays out of scope)."""

from __future__ import annotations

from dataclasses import asdict, dataclass

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


def read_boxes_jsonl(path) -> list[Box]:
    keys = ("image_id", "x0", "y0", "x1", "y1")
    return [Box(*(d[k] for k in keys)) for d in read_jsonl(path, keys=keys)]


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
