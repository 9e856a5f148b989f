"""JSONL, the line-delimited format of every record, report and label file:
one JSON object per line, blank lines skipped on read."""

from __future__ import annotations

import json


def read_jsonl(path) -> list[dict]:
    with open(path) as fh:
        return [json.loads(line) for line in fh if line.strip()]


def write_jsonl(path, rows, mode: str = "w") -> None:
    """Write (or with ``mode="a"`` append) one ``json.dumps`` line per row."""
    with open(path, mode) as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
