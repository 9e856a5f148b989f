"""Metric bundles serialized as line-delimited records."""

from __future__ import annotations

from dataclasses import asdict, dataclass

from ..jsonl import read_jsonl, write_jsonl


@dataclass
class EvalReport:
    task: str
    metrics: dict[str, float]
    n: int
    seed: int | None = None
    ci95: float | None = None

    def __post_init__(self):
        for name, value in self.metrics.items():
            if ("acc" in name or name.startswith("r_at_")) and not (0.0 <= value <= 1.0):
                raise ValueError(f"metric {name}={value} outside [0, 1]")


def append_report_jsonl(path, report: EvalReport) -> None:
    write_jsonl(path, [asdict(report)], mode="a")


def read_reports_jsonl(path) -> list[EvalReport]:
    return [EvalReport(**d) for d in read_jsonl(path, keys=("task", "metrics", "n"))]
