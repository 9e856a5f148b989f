"""Byte-identity digest of a short CLI pipeline.

`pipeline(root)` runs synth, curate, two `train` runs, the four record evals,
`inflate` and `memory-report` under `root`. `digest_table(root)` gives the
sha256 of every file under `root`, with two kinds of bytes masked: the values
of the wall-time fields, and the absolute `root` wherever it starts a path.
Everything else a fixed (corpus, config, seed) writes must repeat exactly.

    python tests/digest.py OUT

runs the pipeline into the fresh directory OUT and prints the per-file table,
then the root digest. Two trees write the same bytes when their tables are
equal (`diff` of the two printouts is empty).
"""

from __future__ import annotations

import contextlib
import hashlib
import re
import sys
from pathlib import Path

MASKED_FIELDS = ("step_time_s", "wall_clock_s")
_TIMING = re.compile(rb'("(?:' + b"|".join(f.encode() for f in MASKED_FIELDS) + rb')": )[^,}\n]+')


def pipeline(root) -> None:
    """The ten commands, each through `cli.main`; raises on a non-zero exit."""
    from florence_mini.cli import main

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
    for argv in commands:
        if main(argv) != 0:
            raise RuntimeError(f"exit status != 0: {' '.join(argv)}")


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


def root_digest(table: dict[str, str]) -> str:
    return hashlib.sha256("".join(f"{name}\t{h}\n" for name, h in sorted(table.items())).encode()).hexdigest()


if __name__ == "__main__":
    out = Path(sys.argv[1]).resolve()
    if out.exists():
        sys.exit(f"{out} exists; give a fresh directory")
    with contextlib.redirect_stdout(sys.stderr):  # keep the commands' messages out of the table
        pipeline(out)
    table = digest_table(out)
    for name, h in table.items():
        print(f"{h}  {name}")
    print(f"{root_digest(table)}  <root>")
