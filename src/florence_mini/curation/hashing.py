"""64-bit average hash and near-duplicate removal.

The hash: channel-mean grayscale, 8x8 average pool, threshold each cell at
the grid mean, one bit per cell. Near-duplicates are records whose hash
lies within a Hamming threshold of an earlier-kept record; the first
occurrence in input order always survives.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from ..jsonl import write_jsonl
from .records import RawRecord, load_image

HASH_BITS = 64


def _pool_8x8(gray: np.ndarray) -> np.ndarray:
    h, w = gray.shape
    if h < 8:
        gray = np.repeat(gray, -(-8 // h), axis=0)
        h = gray.shape[0]
    if w < 8:
        gray = np.repeat(gray, -(-8 // w), axis=1)
        w = gray.shape[1]
    r = (np.arange(8) * h) // 8
    c = (np.arange(8) * w) // 8
    sums = np.add.reduceat(np.add.reduceat(gray, r, axis=0), c, axis=1)
    rcount = np.diff(np.append(r, h))
    ccount = np.diff(np.append(c, w))
    return sums / (rcount[:, None] * ccount[None, :])


def average_hash(image: np.ndarray) -> int:
    """64-bit perceptual hash of an H x W x C image."""
    if image.ndim != 3:
        raise ValueError(f"image must be rank 3, got rank {image.ndim}")
    gray = image.astype(np.float64).mean(axis=2)
    cells = _pool_8x8(gray)
    bits = (cells > cells.mean()).astype(np.uint8).reshape(-1)
    return int.from_bytes(np.packbits(bits).tobytes(), "big")


@dataclass(frozen=True)
class RemovalReport:
    removed_id: str
    kept_id: str
    hamming_distance: int


def dedup_near_duplicates(
    records: list[RawRecord], hamming_threshold: int = 5
) -> tuple[list[RawRecord], list[RemovalReport]]:
    """Greedy first-keeps-win dedup by average-hash Hamming distance.

    A record is removed as a duplicate of the first kept record whose hash
    lies within ``hamming_threshold``; the kept hashes sit in one ``uint64``
    array, so each record's match is one vectorized popcount over them.
    """
    if not 0 <= hamming_threshold <= HASH_BITS:
        raise ValueError(f"hamming_threshold must be in [0, {HASH_BITS}]")
    kept: list[RawRecord] = []
    kept_hashes = np.empty(len(records), dtype=np.uint64)
    reports: list[RemovalReport] = []
    for rec in records:
        h = np.uint64(average_hash(load_image(rec.image_path)))
        dist = np.bitwise_count(kept_hashes[: len(kept)] ^ h)
        match = np.flatnonzero(dist <= hamming_threshold)
        if match.size:
            i = match[0]
            reports.append(RemovalReport(removed_id=rec.id, kept_id=kept[i].id, hamming_distance=int(dist[i])))
        else:
            kept_hashes[len(kept)] = h
            kept.append(rec)
    return kept, reports


def write_removal_report_jsonl(path, reports: list[RemovalReport]) -> None:
    write_jsonl(path, map(asdict, reports))
