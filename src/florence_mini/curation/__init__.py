"""Dataset ingestion and FLD-style curation at desk scale."""

from .hashing import (
    RemovalReport,
    average_hash,
    dedup_near_duplicates,
    write_removal_report_jsonl,
)
from .pipeline import (
    DEFAULT_PROMPT_TEMPLATES,
    CurationResult,
    apply_prompt_augmentation,
    augment_prompt,
    build_text_hash_table,
    curate,
    filter_small_images,
    normalize_description,
)
from .records import (
    ImageFiles,
    RawRecord,
    Triplet,
    class_of_record,
    holdout_ids,
    image_size,
    load_image,
    load_images,
    read_records_jsonl,
    read_triplets_jsonl,
    write_records_jsonl,
    write_triplets_jsonl,
)
from .synth import CLASS_WORDS, class_names, class_prototype, generate_synthetic_dataset

__all__ = [
    "CLASS_WORDS",
    "CurationResult",
    "DEFAULT_PROMPT_TEMPLATES",
    "ImageFiles",
    "RawRecord",
    "RemovalReport",
    "Triplet",
    "apply_prompt_augmentation",
    "augment_prompt",
    "average_hash",
    "build_text_hash_table",
    "class_names",
    "class_of_record",
    "class_prototype",
    "curate",
    "dedup_near_duplicates",
    "filter_small_images",
    "generate_synthetic_dataset",
    "holdout_ids",
    "image_size",
    "load_image",
    "load_images",
    "normalize_description",
    "read_records_jsonl",
    "read_triplets_jsonl",
    "write_records_jsonl",
    "write_removal_report_jsonl",
    "write_triplets_jsonl",
]
