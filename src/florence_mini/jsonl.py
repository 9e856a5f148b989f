"""JSONL, the line-delimited format of every record, report and label file:
one JSON object per line, blank lines skipped on read."""

from __future__ import annotations

import json

_JSON_TYPES = {str: "string", int: "integer", bool: "boolean"}


def read_jsonl(path, keys=(), types=None, build=None) -> list:
    """Each non-blank line of ``path`` parsed as a JSON object holding every
    name in ``keys``, passed through ``build`` when it is given. ``types``
    maps a name to ``str``, ``int`` or ``bool``, the exact type its value
    must have where the row holds it (so a bool is not an integer).

    A malformed line, or a row that ``build`` refuses with ValueError, raises
    ValueError naming ``<path> line <n>`` (1-based, blank lines counted).
    """
    rows = []
    with open(path) as fh:
        for n, line in enumerate(fh, 1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ValueError(f"{path} line {n}: invalid JSON: {exc.msg} at column {exc.pos + 1}") from None
            if not isinstance(row, dict):
                raise ValueError(f"{path} line {n}: expected a JSON object, got {type(row).__name__}")
            missing = [k for k in keys if k not in row]
            if missing:
                raise ValueError(f"{path} line {n}: missing key {missing[0]!r}")
            for k, t in (types or {}).items():
                if k in row and type(row[k]) is not t:
                    raise ValueError(f"{path} line {n}: {k} must be a JSON {_JSON_TYPES[t]}, got {json.dumps(row[k])}")
            try:
                rows.append(row if build is None else build(row))
            except ValueError as exc:
                raise ValueError(f"{path} line {n}: {exc}") from None
    return rows


def write_jsonl(path, rows, mode: str = "w") -> None:
    """Write (or with ``mode="a"`` append) one ``json.dumps`` line per row."""
    with open(path, mode) as fh:
        fh.writelines(json.dumps(row) + "\n" for row in rows)
