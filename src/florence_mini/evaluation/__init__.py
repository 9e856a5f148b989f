"""Transfer-evaluation protocols at desk scale."""

from .embed import embed_images, embed_texts
from .fewshot import EpisodeEvalResult, few_shot_episode_eval
from .probe import ProbeConfig, ProbeResult, linear_probe
from .regions import Box, classify_regions, read_boxes_jsonl, write_boxes_jsonl
from .report import EvalReport, append_report_jsonl, read_reports_jsonl
from .retrieval import retrieval_recall
from .zero_shot import (
    DEFAULT_EVAL_TEMPLATES,
    build_prompt_sets,
    evaluate_topk,
    rank_scores,
    zero_shot_classify,
    zero_shot_classify_batch,
)

__all__ = [
    "Box",
    "DEFAULT_EVAL_TEMPLATES",
    "EpisodeEvalResult",
    "EvalReport",
    "ProbeConfig",
    "ProbeResult",
    "append_report_jsonl",
    "build_prompt_sets",
    "classify_regions",
    "embed_images",
    "embed_texts",
    "evaluate_topk",
    "few_shot_episode_eval",
    "linear_probe",
    "rank_scores",
    "read_boxes_jsonl",
    "read_reports_jsonl",
    "retrieval_recall",
    "write_boxes_jsonl",
    "zero_shot_classify",
    "zero_shot_classify_batch",
]
