"""Byte-identity digest of a short CLI pipeline and of one gradient step.

`pipeline(root)` runs synth, curate, two `train` runs, the four record evals,
`eval regions` on a 3-box file for the first record's image, `inflate` and
`memory-report` under `root`. `digest_table(root)` gives the
sha256 of every file under `root`, with two kinds of bytes masked: the values
of the wall-time fields, and the absolute `root` wherever it starts a path.
`tensor_table(root)` gives, for every checkpoint directory under `root`, the
name, dtype, shape and sha256 of each tensor `load_checkpoint` returns, so two
checkpoint formats holding the same tensors print the same rows.
`gradient_table(root)` gives the sha256 of `compute_gradients`' loss, of every
gradient and of the peak activation-scalar count, for the pipeline's first 8
curated triplets at 32 px under each dtype, precision mode, checkpointing
setting and chunk size of a small grid; chunk 2 folds each gradient across
four chunks. Everything else a fixed (corpus, config, seed) writes or
computes must repeat exactly.

    python tests/digest.py OUT

runs the pipeline into the fresh directory OUT and prints the file, tensor
and gradient rows, sorted by name, then the root digest to stdout. The
commands' own messages, which name OUT, go to stderr. So two trees write the
same bytes and compute the same gradients when their stdout is equal (`diff`
of the two is empty), whatever OUT each was given and in whatever order each
builds its tables.
"""

from __future__ import annotations

import contextlib
import hashlib
import re
import sys
from pathlib import Path

MASKED_FIELDS = ("step_time_s", "wall_clock_s")
_TIMING = re.compile(rb'("(?:' + b"|".join(f.encode() for f in MASKED_FIELDS) + rb')": )[^,}\n]+')


REGION_BOXES = ((0, 0, 32, 32), (4, 8, 20, 16), (16, 0, 32, 24))


def pipeline(root) -> None:
    """The eleven commands, each through `cli.main`; raises on a non-zero
    exit. `eval regions` runs last, on boxes written for the first record
    synth wrote."""
    from florence_mini.cli import main
    from florence_mini.curation import read_records_jsonl
    from florence_mini.evaluation import Box, write_boxes_jsonl

    root = Path(root)
    data, cur, ckpt = root / "data", root / "cur", root / "gcache" / "ckpt-final"
    train = ["train", "--triplets", str(cur / "triplets.jsonl"), "--warmup-steps", "1", "--seed", "1"]
    evals = ["--checkpoint", str(ckpt), "--data", str(data), "--seed", "1"]
    commands = [
        ["synth", "--classes", "4", "--per-class", "16", "--seed", "1", "--out", str(data)],
        ["curate", "--records", str(data / "records.jsonl"), "--seed", "1", "--out", str(cur)],
        [*train, "--batch-size", "8", "--chunk-size", "4", "--zero-workers", "2", "--checkpoint-every", "2",
         "--stage1-steps", "3", "--stage2-steps", "2", "--high-res-steps", "1", "--out", str(root / "gcache")],
        [*train, "--batch-size", "8", "--chunk-size", "8", "--precision", "half-emulated",
         "--stage1-steps", "2", "--stage2-steps", "1", "--out", str(root / "half")],
        ["eval", "zero-shot", *evals, "--out", str(root / "zero-shot")],
        ["eval", "retrieval", *evals, "--out", str(root / "retrieval")],
        ["eval", "linear-probe", *evals, "--probe-epochs", "5", "--out", str(root / "linear-probe")],
        ["eval", "few-shot", *evals, "--way", "3", "--shot", "2", "--episodes", "4", "--out", str(root / "few-shot")],
        ["inflate", "--checkpoint", str(ckpt), "--temporal-kernel", "2", "--frames", "2", "--out", str(root / "inflate")],
        ["memory-report", "--triplets", str(cur / "triplets.jsonl"), "--batch-size", "8", "--chunks", "8,4",
         "--out", str(root / "memory")],
    ]

    def run(argv):
        if main(argv) != 0:
            raise RuntimeError(f"exit status != 0: {' '.join(argv)}")

    for argv in commands:
        run(argv)
    first = read_records_jsonl(data / "records.jsonl")[0]
    write_boxes_jsonl(root / "boxes.jsonl", [Box(first.id, *box) for box in REGION_BOXES])
    run(["eval", "regions", *evals, "--image", first.image_path, "--boxes", str(root / "boxes.jsonl"),
         "--out", str(root / "regions")])


def masked_bytes(path: Path, root: Path) -> bytes:
    """The file's bytes with the wall-time values and the absolute `root`
    as a path prefix replaced by fixed tokens."""
    data = _TIMING.sub(rb"\1null", path.read_bytes())
    return re.sub(rb'(?<=")' + re.escape(str(root).encode() + b"/"), b"<root>/", data)


def digest_table(root) -> dict[str, str]:
    """Relative path -> sha256 of its masked bytes, for every file under root."""
    root = Path(root).resolve()
    return {
        path.relative_to(root).as_posix(): hashlib.sha256(masked_bytes(path, root)).hexdigest()
        for path in sorted(root.rglob("*"))
        if path.is_file()
    }


def tensor_table(root) -> dict[str, str]:
    """`tensors/<checkpoint dir>/<name> <dtype> <shape>` -> sha256 of the
    tensor's bytes, for every directory under root whose manifest names a
    checkpoint format."""
    import json

    from florence_mini.numerics.container import load_checkpoint

    root = Path(root).resolve()
    table = {}
    for manifest in sorted(root.rglob("manifest.json")):
        if not str(json.loads(manifest.read_text()).get("format", "")).startswith("florence-mini-checkpoint"):
            continue
        tensors, _ = load_checkpoint(manifest.parent)
        rel = manifest.parent.relative_to(root).as_posix()
        for name in sorted(tensors):
            arr = tensors[name]
            table[f"tensors/{rel}/{name} {arr.dtype} {list(arr.shape)}"] = hashlib.sha256(arr.tobytes()).hexdigest()
    return table


def gradient_table(root) -> dict[str, str]:
    """`gradients/<dtype>/<precision>/<plain|checkpointed>/chunk<k>/<name>` ->
    sha256 of the loss, each gradient and the peak activation scalars of one
    `compute_gradients` call on a batch of 8 from `root`'s curated triplets."""
    import numpy as np

    from florence_mini.curation import read_triplets_jsonl
    from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary
    from florence_mini.numerics.precision import PRECISION_MODES
    from florence_mini.numerics.tensor import activation_meter
    from florence_mini.trainer import TrainConfig, prepare_batch
    from florence_mini.trainer.loop import compute_gradients

    def sha(data: bytes) -> str:
        return hashlib.sha256(data).hexdigest()

    triplets = read_triplets_jsonl(Path(root) / "cur" / "triplets.jsonl")[:8]
    vocab = build_vocabulary([t.text for t in triplets])
    table = {}
    for dtype in ("float64", "float32"):
        model_config = ModelConfig(dtype=dtype)
        images, ids, labels, _ = prepare_batch(triplets, vocab, dtype)
        for precision in PRECISION_MODES:
            for checkpointing in (False, True):
                for chunk in (2, 4, 8):
                    config = TrainConfig(
                        model=model_config, batch_size=8, chunk_size=chunk, precision=precision,
                        activation_checkpointing=checkpointing,
                    )
                    activation_meter.reset()
                    loss, grads = compute_gradients(
                        TwoTowerModel.create(model_config, vocab, seed=1), images, ids, labels, config
                    )
                    tag = f"gradients/{dtype}/{precision}/{'checkpointed' if checkpointing else 'plain'}/chunk{chunk}"
                    table[f"{tag}/loss"] = sha(np.float64(loss).tobytes())
                    table[f"{tag}/peak_activation_scalars"] = sha(str(activation_meter.peak).encode())
                    table.update({f"{tag}/{name}": sha(g.tobytes()) for name, g in grads.items()})
    return table


def root_digest(table: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{name}\t{h}\n" for name, h in sorted(table.items())).encode()).hexdigest()


if __name__ == "__main__":
    out = Path(sys.argv[1]).resolve()
    if out.exists():
        sys.exit(f"{out} exists; give a fresh directory")
    with contextlib.redirect_stdout(sys.stderr):  # keep the commands' messages out of the table
        pipeline(out)
        table = {**digest_table(out), **tensor_table(out), **gradient_table(out)}
    for name, h in sorted(table.items()):
        print(f"{h}  {name}")
    print(f"{root_digest(table)}  <root>")
