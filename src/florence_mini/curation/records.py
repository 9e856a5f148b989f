"""Dataset records, curated triplets, and their JSONL on-disk forms."""

from __future__ import annotations

import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..imaging import resize_bilinear
from ..jsonl import read_jsonl, write_jsonl
from ..numerics.container import read_tensor_file, read_tensor_header


@dataclass(frozen=True)
class RawRecord:
    """One ingested image-text pair; the image lives in a container file."""

    id: str
    image_path: str
    text: str
    source: str = ""

    def __post_init__(self):
        if not self.text.strip():
            raise ValueError(f"record {self.id!r} has empty text")


@dataclass(frozen=True)
class Triplet:
    """Curated training record: image, description, hash-derived label."""

    id: str
    image_path: str
    text: str
    label: int
    augmented: bool = False

    def __post_init__(self):
        if self.label < 0:
            raise ValueError(f"label must be non-negative, got {self.label}")


def load_image(path, side: int | None = None) -> np.ndarray:
    """Read an H x W x C float32 image in [0, 1] from a float32 or float64
    tensor container (uint8 is refused), bilinearly resized to side x side
    when `side` is given and either extent differs from it."""
    arr = read_tensor_file(path)
    if arr.dtype.kind != "f":
        raise ValueError(f"{path}: image container holds {arr.dtype}, not float32 or float64")
    if arr.ndim != 3:
        raise ValueError(f"{path}: image tensor must be rank 3, got rank {arr.ndim}")
    if arr.shape[2] not in (1, 3):
        raise ValueError(f"{path}: channel count must be 1 or 3, got {arr.shape[2]}")
    img = arr.astype(np.float32, copy=False)
    return img if side is None or img.shape[:2] == (side, side) else resize_bilinear(img, side, side)


def load_images(paths, side: int | None = None) -> np.ndarray:
    """An (N, H, W, C) float32 stack of `load_image` over `paths`.

    The stack is allocated once, before the loop, and each image is copied
    in and dropped, so the loader holds one image beside the stack instead
    of N, and no run of N small buffers fragments the heap under it.
    """
    paths = list(paths)
    if not paths:
        raise ValueError("no images to load")
    first = load_image(paths[0], side)
    out = np.empty((len(paths), *first.shape), dtype=np.float32)
    out[0] = first
    for i, path in enumerate(paths[1:], start=1):
        img = load_image(path, side)
        if img.shape != first.shape:
            raise ValueError(f"{path}: image shape {img.shape} differs from {first.shape} of {paths[0]}")
        out[i] = img
    return out


class ImageFiles:
    """The images at `paths`, read from disk a slice at a time: ``files[a:b]``
    is ``load_images(paths[a:b], side)``. A caller that walks the sequence in
    slices holds one slice of pixels, not all of them.

    Every slice must have the shape of the first one read, as one stack of
    all the images would, so a slice that differs is refused by its first path.
    """

    def __init__(self, paths, side: int | None = None):
        self.paths = list(paths)
        if not self.paths:
            raise ValueError("no images to load")
        self.side = side
        self._first: tuple[str, tuple] | None = None  # (path, image shape) of the first slice read

    def __len__(self) -> int:
        return len(self.paths)

    def __getitem__(self, index: slice) -> np.ndarray:
        paths = self.paths[index]
        images = load_images(paths, self.side)
        if self._first is None:
            self._first = (paths[0], images.shape[1:])
        elif images.shape[1:] != self._first[1]:
            raise ValueError(
                f"{paths[0]}: image shape {images.shape[1:]} differs from {self._first[1]} of {self._first[0]}"
            )
        return images


def image_size(path) -> tuple[int, int]:
    """(H, W) from the container header without loading the payload."""
    shape, _ = read_tensor_header(path)
    if len(shape) != 3:
        raise ValueError(f"{path}: image tensor must be rank 3, got rank {len(shape)}")
    return shape[0], shape[1]


def _relative_image(image_path: str, jsonl_path) -> str:
    # store images relative to the JSONL so reruns in different roots hash
    # identically and datasets stay relocatable
    return os.path.relpath(image_path, start=Path(jsonl_path).parent)


def _image_resolver(jsonl_path):
    """Map a JSONL's image field to the path one ``Path.resolve()`` of it
    against the JSONL's directory gives; absolute paths pass through.

    Each image directory resolves once per file, not once per image. A
    resolved directory joined with a file name is already resolved, unless
    the file itself is a symlink or the name is empty, ``.`` or ``..``;
    those take the full walk.
    """
    base = Path(jsonl_path).parent
    dirs: dict[str, str] = {}

    def resolve(image: str) -> str:
        if os.path.isabs(image):
            return image
        head, name = os.path.split(image)
        if head not in dirs:
            dirs[head] = str((base / head).resolve())
        full = os.path.join(dirs[head], name)
        if name in ("", ".", "..") or os.path.islink(full):
            return str((base / image).resolve())
        return full

    return resolve


def write_records_jsonl(path, records: list[RawRecord]) -> None:
    write_jsonl(
        path,
        (
            {"id": r.id, "image": _relative_image(r.image_path, path), "text": r.text, "source": r.source}
            for r in records
        ),
    )


def read_records_jsonl(path) -> list[RawRecord]:
    """Records, one per line: ``id``, ``image`` and ``text`` strings and an
    optional ``source`` string; a missing key, a value of another JSON type
    or a blank ``text`` raises ValueError naming ``<path> line <n>``."""
    resolve = _image_resolver(path)
    types = dict.fromkeys(("id", "image", "text", "source"), str)
    return read_jsonl(
        path,
        keys=("id", "image", "text"),
        types=types,
        build=lambda d: RawRecord(d["id"], resolve(d["image"]), d["text"], d.get("source", "")),
    )


def write_triplets_jsonl(path, triplets: list[Triplet]) -> None:
    write_jsonl(
        path,
        (
            {
                "id": t.id,
                "image": _relative_image(t.image_path, path),
                "text": t.text,
                "label": t.label,
                "augmented": t.augmented,
            }
            for t in triplets
        ),
    )


def read_triplets_jsonl(path) -> list[Triplet]:
    """Triplets, one per line: ``id``, ``image`` and ``text`` strings, an
    integer ``label`` and a boolean ``augmented``; a missing key, a value of
    another JSON type or a negative ``label`` raises ValueError naming
    ``<path> line <n>``."""
    resolve = _image_resolver(path)
    types = {"id": str, "image": str, "text": str, "label": int, "augmented": bool}
    return read_jsonl(
        path,
        keys=tuple(types),
        types=types,
        build=lambda d: Triplet(d["id"], resolve(d["image"]), d["text"], d["label"], d["augmented"]),
    )


def class_of_record(record: RawRecord, class_names: list[str]) -> int | None:
    """Ground-truth class index of a synthetic record, whose source is
    "class:i:word"; None when the source has another form or ``i`` is not an
    integer. Raises ValueError, naming the record, when ``i`` does not index
    ``class_names`` (the data set's classes.txt) or ``word`` is not
    ``class_names[i]``."""
    parts = record.source.split(":", 2)
    if len(parts) != 3 or parts[0] != "class":
        return None
    try:
        label = int(parts[1])
    except ValueError:
        return None
    if not 0 <= label < len(class_names):
        raise ValueError(
            f"record {record.id!r} names class {label} (source {record.source!r}), "
            f"but classes.txt has {len(class_names)} classes"
        )
    if parts[2] != class_names[label]:
        raise ValueError(
            f"record {record.id!r} names class {label} (source {record.source!r}), "
            f"which classes.txt names {class_names[label]!r}"
        )
    return label


def holdout_ids(ids: list[str], fraction: float, seed: int) -> set[str]:
    """Deterministic held-out subset: a pure function of (ids order, seed)."""
    if not 0.0 <= fraction < 1.0:
        raise ValueError("holdout fraction must be in [0, 1)")
    n = len(ids)
    k = int(round(n * fraction))
    perm = np.random.default_rng([seed, 0x484F]).permutation(n)  # salt keeps split independent of shuffles
    return {ids[i] for i in perm[:k]}
