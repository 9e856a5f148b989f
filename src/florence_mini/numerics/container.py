"""Bit-exact binary tensor container, flat layouts and checkpoint directories.

Container layout (little-endian):
    magic "FMT1" | dtype code u8 (0=f32, 1=f64, 2=u8) | rank u32 |
    rank x u32 extents | raw row-major payload

``flat_layout`` places named tensors end to end in sorted-name order; ZeRO
shards and checkpoints both use it. A checkpoint is a directory of one
rank-1 container per dtype, named by it (``float64.bin``), plus
``manifest.json``: name -> {dtype, offset, shape} and, at its top level, any
JSON-serializable metadata (model config, vocabulary, optimizer scalars).
"""

from __future__ import annotations

import json
import math
import os
import struct
from itertools import accumulate
from pathlib import Path

import numpy as np

MAGIC = b"FMT1"
MAX_RANK = 5
CHECKPOINT_FORMAT = "florence-mini-checkpoint-v2"

_DTYPE_CODES = {np.dtype(np.float32): 0, np.dtype(np.float64): 1, np.dtype(np.uint8): 2}
_CODE_DTYPES = {v: k for k, v in _DTYPE_CODES.items()}
_DTYPE_NAMES = {str(dt): dt for dt in _DTYPE_CODES}


class TensorFormatError(ValueError):
    pass


def flat_layout(tensors) -> dict[str, tuple[int, tuple[int, ...]]]:
    """name -> (offset, shape) of each tensor laid end to end in sorted-name
    order, as a checkpoint container holds them; no buffer is built."""
    names = sorted(tensors)
    offsets = accumulate((tensors[name].size for name in names), initial=0)
    return {name: (o, tensors[name].shape) for name, o in zip(names, offsets)}


def unflatten(flat: np.ndarray, layout: dict) -> dict[str, np.ndarray]:
    """Name -> view of ``flat`` for each entry of ``layout``."""
    return {name: flat[offset : offset + math.prod(shape)].reshape(shape) for name, (offset, shape) in layout.items()}


def write_tensor_file(path, arr: np.ndarray | list[np.ndarray]) -> None:
    """Write ``arr`` as one container. A list of arrays of one dtype is
    written as the rank-1 container of all their elements in order, each
    array from its own buffer, so the joined payload is never built."""
    parts = arr if isinstance(arr, list) else [arr]
    shape = (sum(a.size for a in parts),) if isinstance(arr, list) else arr.shape
    dtype = parts[0].dtype
    if any(a.dtype != dtype for a in parts):
        raise TensorFormatError(f"a container holds one dtype, got {sorted({str(a.dtype) for a in parts})}")
    if dtype not in _DTYPE_CODES:
        raise TensorFormatError(f"unsupported dtype {dtype}")
    if len(shape) > MAX_RANK:
        raise TensorFormatError(f"rank {len(shape)} exceeds container maximum {MAX_RANK}")
    for ext in shape:
        if ext >= 2**32:
            raise TensorFormatError(f"extent {ext} exceeds u32")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<B", _DTYPE_CODES[dtype]))
        fh.write(struct.pack("<I", len(shape)))
        for ext in shape:
            fh.write(struct.pack("<I", ext))
        for a in parts:
            fh.write(np.ascontiguousarray(a).data)  # no payload copy when a is C-contiguous


def _read_checked_header(fh, path) -> tuple[tuple[int, ...], np.dtype]:
    """The header, once the file is known to hold exactly the payload it declares."""
    magic = fh.read(4)
    if magic != MAGIC:
        raise TensorFormatError(f"{path}: bad magic {magic!r}")
    head = fh.read(5)
    if len(head) != 5:
        raise TensorFormatError(f"{path}: truncated header")
    code, rank = struct.unpack("<BI", head)
    if code not in _CODE_DTYPES:
        raise TensorFormatError(f"{path}: unknown dtype code {code}")
    if rank > MAX_RANK:
        raise TensorFormatError(f"{path}: rank {rank} exceeds container maximum {MAX_RANK}")
    raw = fh.read(4 * rank)
    if len(raw) != 4 * rank:
        raise TensorFormatError(f"{path}: truncated extent list")
    shape = struct.unpack(f"<{rank}I", raw) if rank else ()
    dtype = _CODE_DTYPES[code]
    # Python ints: a corrupt header can neither wrap the size nor make the reader allocate it
    declared, held = math.prod(shape) * dtype.itemsize, os.fstat(fh.fileno()).st_size - fh.tell()
    if held != declared:
        problem = "truncated payload" if held < declared else "trailing bytes after payload"
        raise TensorFormatError(f"{path}: {problem}: header declares {declared} bytes, file holds {held}")
    return shape, dtype


def read_tensor_header(path) -> tuple[tuple[int, ...], np.dtype]:
    """Shape and dtype without loading the payload; the file size is
    checked against them as a full read checks it."""
    with open(path, "rb") as fh:
        return _read_checked_header(fh, path)


def read_tensor_file(path) -> np.ndarray:
    """The container's array, read whole once its header and file size agree."""
    with open(path, "rb") as fh:
        shape, dtype = _read_checked_header(fh, path)
        arr = np.empty(math.prod(shape), dtype=dtype.newbyteorder("<"))
        fh.readinto(arr)
    return arr.astype(dtype, copy=False).reshape(shape)


def save_checkpoint(dirpath, tensors: dict[str, np.ndarray], metadata: dict | None = None) -> Path:
    """Write one flat container per dtype, tensor by tensor in sorted-name
    order, plus a manifest locating each tensor."""
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    entries = {}
    for dtype in sorted({str(a.dtype) for a in tensors.values()}):
        layout = flat_layout({name: a for name, a in tensors.items() if str(a.dtype) == dtype})
        write_tensor_file(d / f"{dtype}.bin", [tensors[name] for name in layout])
        entries.update({name: {"dtype": dtype, "offset": o, "shape": list(s)} for name, (o, s) in layout.items()})
    manifest = {"format": CHECKPOINT_FORMAT, "tensors": entries, **(metadata or {})}
    with open(d / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return d


def _read_manifest(d: Path) -> dict:
    """A v2 manifest, refused with a TensorFormatError that names the file
    when it is torn, not a JSON object, or has no ``tensors`` object."""
    path = d / "manifest.json"
    with open(path) as fh:
        try:
            manifest = json.load(fh)
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise TensorFormatError(f"{path}: not valid JSON: {exc}") from exc
    if not isinstance(manifest, dict):
        raise TensorFormatError(f"{path}: holds a JSON {type(manifest).__name__}, not an object")
    if manifest.get("format") != CHECKPOINT_FORMAT:
        raise TensorFormatError(f"{d}: checkpoint format {manifest.get('format')!r} is not {CHECKPOINT_FORMAT!r}")
    if not isinstance(manifest.get("tensors"), dict):
        raise TensorFormatError(f"{path}: no \"tensors\" object")
    return manifest


def load_checkpoint(dirpath) -> tuple[dict[str, np.ndarray], dict]:
    """Inverse of save_checkpoint: name -> view into its dtype's container.

    Every entry of every container is checked against the container's
    header and size: in range, with no gap and no overlap. Then each
    container is read whole, once, from the file named by its (known) dtype.
    """
    d = Path(dirpath)
    manifest = _read_manifest(d)
    layouts: dict[str, dict] = {}
    for name, entry in manifest["tensors"].items():
        fields = entry if isinstance(entry, dict) else {}
        dtype, offset, shape = fields.get("dtype"), fields.get("offset"), fields.get("shape")
        valid = isinstance(shape, list) and all(isinstance(v, int) and v >= 0 for v in (offset, *shape))
        if not isinstance(dtype, str) or dtype not in _DTYPE_NAMES or not valid:
            raise TensorFormatError(f"{d}: {name}: bad manifest entry {entry}")
        layouts.setdefault(dtype, {})[name] = (offset, tuple(shape))
    tensors: dict[str, np.ndarray] = {}
    for dtype, layout in sorted(layouts.items()):
        path = d / f"{dtype}.bin"
        shape, held = read_tensor_header(path)
        if len(shape) != 1 or held != _DTYPE_NAMES[dtype]:
            raise TensorFormatError(f"{path}: holds a rank-{len(shape)} {held} tensor, not a flat {dtype} one")
        end = 0
        for offset, count, name in sorted((o, math.prod(s), n) for n, (o, s) in layout.items()):
            if offset != end or offset + count > shape[0]:
                raise TensorFormatError(f"{path}: {name} spans [{offset}, {offset + count}) of {shape[0]}, after {end}")
            end = offset + count
        if end != shape[0]:
            raise TensorFormatError(f"{path}: the entries cover {end} of its {shape[0]} scalars")
        tensors.update(unflatten(read_tensor_file(path), layout))
    return tensors, manifest
