"""Byte-exact tensor container, flat layouts and checkpoint directory round trips."""

import json
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from florence_mini.numerics import (
    TensorFormatError,
    load_checkpoint,
    read_tensor_file,
    read_tensor_header,
    save_checkpoint,
    write_tensor_file,
)
from florence_mini.numerics.container import flat_layout, unflatten


def _roundtrip(tmp_path, arr):
    p = tmp_path / "t.bin"
    write_tensor_file(p, arr)
    back = read_tensor_file(p)
    assert type(back) is np.ndarray
    assert back.dtype == arr.dtype
    assert back.shape == arr.shape
    assert back.tobytes() == arr.tobytes()


def test_float32_matrix_roundtrip(tmp_path):
    _roundtrip(tmp_path, np.arange(6, dtype=np.float32).reshape(2, 3))


def test_rank0_scalar_roundtrip(tmp_path):
    _roundtrip(tmp_path, np.array(3.5, dtype=np.float64))


def test_uint8_roundtrip(tmp_path):
    _roundtrip(tmp_path, np.arange(24, dtype=np.uint8).reshape(2, 3, 4))


def test_special_values_bit_exact(tmp_path):
    _roundtrip(tmp_path, np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 1e-300]))


@settings(max_examples=40, deadline=None)
@given(
    rank=st.integers(min_value=0, max_value=5),
    dtype=st.sampled_from(["float32", "float64", "uint8"]),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_roundtrip_ranks_0_to_5(rank, dtype, seed):
    import tempfile
    from pathlib import Path

    rng = np.random.default_rng(seed)
    shape = tuple(rng.integers(1, 4, size=rank))
    if dtype == "uint8":
        arr = rng.integers(0, 256, size=shape).astype(np.uint8)
    else:
        arr = rng.normal(size=shape).astype(dtype)
    with tempfile.TemporaryDirectory() as d:
        _roundtrip(Path(d), arr)


def test_bad_magic_rejected(tmp_path):
    p = tmp_path / "bad.bin"
    p.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(TensorFormatError, match="magic"):
        read_tensor_file(p)


def test_truncated_payload_rejected(tmp_path):
    p = tmp_path / "t.bin"
    write_tensor_file(p, np.ones((4, 4), dtype=np.float64))
    raw = p.read_bytes()
    p.write_bytes(raw[:-8])
    with pytest.raises(TensorFormatError, match="truncated"):
        read_tensor_file(p)


def test_rank_overflow_rejected(tmp_path):
    p = tmp_path / "t.bin"
    with pytest.raises(TensorFormatError, match="rank"):
        write_tensor_file(p, np.ones((1, 1, 1, 1, 1, 1)))
    p.write_bytes(b"FMT1" + bytes([0]) + (200).to_bytes(4, "little"))
    with pytest.raises(TensorFormatError, match="rank"):
        read_tensor_file(p)


@pytest.mark.parametrize("shape", [(2**32 - 1,) * 3, (2**31, 2**31, 4)])
def test_oversized_header_rejected_before_reading(tmp_path, shape):
    """Extents whose payload the file cannot hold, including ones whose byte
    count wraps to 0 in int64, are refused as truncated, naming the file."""
    p = tmp_path / "huge.bin"
    p.write_bytes(b"FMT1" + struct.pack("<BI", 1, 3) + struct.pack("<3I", *shape) + b"\x00" * 16)
    with pytest.raises(TensorFormatError, match=re.escape(f"{p}: truncated payload")):
        read_tensor_file(p)


def test_header_read_skips_payload(tmp_path):
    p = tmp_path / "t.bin"
    write_tensor_file(p, np.zeros((7, 9), dtype=np.float32))
    shape, dtype = read_tensor_header(p)
    assert shape == (7, 9)
    assert dtype == np.float32


@pytest.mark.parametrize("read", [read_tensor_file, read_tensor_header], ids=["file", "header"])
def test_trailing_byte_rejected(tmp_path, read):
    """A header-only read checks the file size as a full read does."""
    p = tmp_path / "t.bin"
    write_tensor_file(p, np.zeros((7, 9), dtype=np.float32))
    p.write_bytes(p.read_bytes() + b"\x00")
    with pytest.raises(TensorFormatError, match=re.escape(f"{p}: trailing bytes after payload")):
        read(p)


def test_checkpoint_directory_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    tensors = {
        "image.proj.w": rng.normal(size=(8, 4)),
        "text.tok_embed": rng.normal(size=(11, 4)).astype(np.float32),
        "tau_param": np.array(2.65926),
    }
    save_checkpoint(tmp_path / "ckpt", tensors, metadata={"step": 42, "note": "x"})
    back, manifest = load_checkpoint(tmp_path / "ckpt")
    assert manifest["step"] == 42
    assert set(back) == set(tensors)
    for k in tensors:
        assert back[k].tobytes() == tensors[k].tobytes()
        assert back[k].dtype == tensors[k].dtype


def test_checkpoint_is_one_container_per_dtype(tmp_path):
    tensors = {"b": np.ones((2, 3)), "a": np.arange(4.0), "c": np.zeros(2, dtype=np.float32)}
    save_checkpoint(tmp_path / "ckpt", tensors)
    assert sorted(p.name for p in (tmp_path / "ckpt").iterdir()) == ["float32.bin", "float64.bin", "manifest.json"]
    manifest = json.loads((tmp_path / "ckpt/manifest.json").read_text())
    assert manifest["format"] == "florence-mini-checkpoint-v2"
    assert manifest["tensors"] == {
        "a": {"dtype": "float64", "offset": 0, "shape": [4]},
        "b": {"dtype": "float64", "offset": 4, "shape": [2, 3]},
        "c": {"dtype": "float32", "offset": 0, "shape": [2]},
    }
    assert read_tensor_file(tmp_path / "ckpt/float64.bin").tobytes() == np.concatenate(
        [tensors["a"], tensors["b"].ravel()]
    ).tobytes()


def test_checkpoint_containers_equal_a_concatenation_in_name_order(tmp_path):
    """Each dtype's container holds the header of its total length, then its
    tensors' elements in sorted-name order: the bytes of one concatenation,
    here built by the test. A list given to write_tensor_file is written the
    same way, from each array's own buffer, a transposed one included."""
    rng = np.random.default_rng(5)
    tensors = {
        "w": rng.normal(size=(3, 4)),
        "t": rng.normal(size=(4, 3)).T,
        "b": rng.normal(size=5),
        "s": np.array(1.5),
        "h": rng.normal(size=(2, 3)).astype(np.float32),
        "e": rng.normal(size=4).astype(np.float32),
        "mask": rng.integers(0, 256, size=(2, 2, 2), dtype=np.uint8),
        "ids": np.arange(3, dtype=np.uint8),
    }
    save_checkpoint(tmp_path / "ckpt", tensors)
    for dtype, code in (("float32", 0), ("float64", 1), ("uint8", 2)):
        names = sorted(n for n, a in tensors.items() if a.dtype == dtype)
        payload = np.concatenate([tensors[n].ravel() for n in names])
        want = b"FMT1" + struct.pack("<BII", code, 1, payload.size) + payload.tobytes()
        assert (tmp_path / f"ckpt/{dtype}.bin").read_bytes() == want
        write_tensor_file(tmp_path / f"{dtype}.bin", [tensors[n] for n in names])
        assert (tmp_path / f"{dtype}.bin").read_bytes() == want
    with pytest.raises(TensorFormatError, match=r"one dtype, got \[.float32., .float64.\]"):
        write_tensor_file(tmp_path / "mixed.bin", [tensors["w"], tensors["h"]])


def test_flat_layout_orders_by_name_and_unflatten_returns_views():
    tensors = {"z": np.array(2.5), "m": np.arange(6.0).reshape(2, 3), "a": np.ones(2)}
    layout = flat_layout(tensors)
    assert layout == {"a": (0, (2,)), "m": (2, (2, 3)), "z": (8, ())}
    flat = np.array([1, 1, 0, 1, 2, 3, 4, 5, 2.5])
    views = unflatten(flat, layout)
    assert all(views[k].tobytes() == tensors[k].tobytes() and views[k].base is flat for k in tensors)


class TestManifestValidation:
    """A v2 manifest must tile each container exactly, with its dtype."""

    def _checkpoint(self, tmp_path, edit):
        d = tmp_path / "ckpt"
        save_checkpoint(d, {"a": np.ones(2), "b": np.ones(2), "c": np.ones(2)}, metadata={"step": 1})
        manifest = json.loads((d / "manifest.json").read_text())
        edit(manifest)
        (d / "manifest.json").write_text(json.dumps(manifest))
        return d

    @pytest.mark.parametrize(
        "entry, change, message",
        [
            pytest.param("c", {"offset": 5}, r"/float64\.bin: c spans \[5, 7\) of 6, after 4", id="past-end"),
            pytest.param("b", {"shape": [1]}, r"/float64\.bin: c spans \[4, 6\) of 6, after 3", id="gap"),
            pytest.param("b", {"offset": 1}, r"/float64\.bin: b spans \[1, 3\) of 6, after 2", id="overlap"),
            pytest.param("c", {"shape": [1]}, r"/float64\.bin: the entries cover 5 of its 6 scalars", id="short"),
            pytest.param("a", {"offset": -1}, r": a: bad manifest entry", id="negative"),
        ],
    )
    def test_entries_must_tile_the_container(self, tmp_path, entry, change, message):
        d = self._checkpoint(tmp_path, lambda m: m["tensors"][entry].update(change))
        with pytest.raises(TensorFormatError, match=re.escape(str(d)) + message):
            load_checkpoint(d)

    def test_dtype_must_agree_with_its_container(self, tmp_path):
        def relabel(manifest):
            for entry in manifest["tensors"].values():
                entry["dtype"] = "float32"

        d = self._checkpoint(tmp_path, relabel)
        (d / "float64.bin").rename(d / "float32.bin")
        with pytest.raises(TensorFormatError, match="holds a rank-1 float64 tensor, not a flat float32 one"):
            load_checkpoint(d)

    def test_unknown_dtype_opens_no_file(self, tmp_path):
        d = self._checkpoint(tmp_path, lambda m: m["tensors"]["a"].update(dtype="../float64"))
        with pytest.raises(TensorFormatError, match=r"a: bad manifest entry .*'\.\./float64'"):
            load_checkpoint(d)

    @pytest.mark.parametrize(
        "text, message",
        [
            pytest.param(None, r"/manifest\.json: not valid JSON: ", id="torn"),
            pytest.param("[1, 2]", r"/manifest\.json: holds a JSON list, not an object", id="list"),
            pytest.param(json.dumps({"format": "florence-mini-checkpoint-v2", "step": 1}),
                         r'/manifest\.json: no "tensors" object', id="no-tensors"),
            pytest.param(json.dumps({"format": "florence-mini-checkpoint-v2", "tensors": {"a": [0, 2]}}),
                         r": a: bad manifest entry \[0, 2\]", id="entry-not-object"),
        ],
    )
    def test_malformed_manifest_is_named(self, tmp_path, text, message):
        d = self._checkpoint(tmp_path, lambda m: None)
        raw = (d / "manifest.json").read_text()
        (d / "manifest.json").write_text(raw[: len(raw) // 2] if text is None else text)
        with pytest.raises(TensorFormatError, match=re.escape(str(d)) + message):
            load_checkpoint(d)

    def test_v1_directory_refused_by_name(self, tmp_path):
        d = tmp_path / "v1"
        d.mkdir()
        write_tensor_file(d / "a.bin", np.ones(2))
        manifest = {"format": "florence-mini-checkpoint-v1", "tensors": {"a": {"file": "a.bin", "shape": [2], "dtype": "float64"}}}
        (d / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TensorFormatError, match="checkpoint format 'florence-mini-checkpoint-v1' is not 'florence-mini-checkpoint-v2'"):
            load_checkpoint(d)
