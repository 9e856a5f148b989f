"""Curation pipeline: size filter, label hash table (each unique description
mapped to its dense label id), prompt augmentation, stage-aware deterministic
batch streams."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .hashing import RemovalReport, dedup_near_duplicates
from .records import RawRecord, Triplet, image_size

DEFAULT_PROMPT_TEMPLATES = (
    "A photo of the {}.",
    "A cropped photo of {}.",
)

# Descriptions of at most this many whitespace tokens count as "short" and
# are eligible for template augmentation.
SHORT_DESCRIPTION_TOKENS = 2


def filter_small_images(records: list[RawRecord], min_side: int) -> list[RawRecord]:
    """Drop records whose smaller image side is below ``min_side`` (inclusive keep)."""
    if min_side < 1:
        raise ValueError("min_side must be >= 1")
    out = []
    for rec in records:
        h, w = image_size(rec.image_path)
        if min(h, w) >= min_side:
            out.append(rec)
    return out


def normalize_description(text: str, case_fold: bool = False) -> str:
    """Whitespace trim only by default; identical strings share a label."""
    t = text.strip()
    return t.lower() if case_fold else t


def build_text_hash_table(
    records: list[RawRecord], case_fold: bool = False
) -> tuple[dict[str, int], list[Triplet]]:
    """Assign dense label ids to unique descriptions in first-appearance
    order; the table maps each description to its id, so its keys in order
    are the descriptions by id."""
    table: dict[str, int] = {}
    triplets = []
    for rec in records:
        t = normalize_description(rec.text, case_fold=case_fold)
        label = table.setdefault(t, len(table))
        triplets.append(Triplet(id=rec.id, image_path=rec.image_path, text=t, label=label))
    return table, triplets


def augment_prompt(word: str, rng: np.random.Generator) -> str:
    """Wrap a short description in one uniformly chosen prompt template of
    DEFAULT_PROMPT_TEMPLATES."""
    if not word:
        raise ValueError("word must be non-empty")
    idx = int(rng.integers(0, len(DEFAULT_PROMPT_TEMPLATES)))
    return DEFAULT_PROMPT_TEMPLATES[idx].format(word)


def apply_prompt_augmentation(triplets: list[Triplet], seed: int) -> list[Triplet]:
    """Template short descriptions (kept label, augmented flag set).

    Labels stay keyed to the original description, so images sharing one
    short caption remain mutual positives whichever template they drew.
    """
    rng = np.random.default_rng([seed, 0xA46])
    out = []
    for t in triplets:
        if len(t.text.split()) <= SHORT_DESCRIPTION_TOKENS:
            out.append(
                Triplet(
                    id=t.id,
                    image_path=t.image_path,
                    text=augment_prompt(t.text, rng),
                    label=t.label,
                    augmented=True,
                )
            )
        else:
            out.append(t)
    return out


@dataclass
class StageStream:
    """Deterministic shuffled batch source for one training stage.

    Stage 1 draws from the full pool; stage 2 excludes every augmented
    triplet. Epoch order is a pure function of (seed, stage, epoch); the
    final short batch of each epoch is dropped.
    """

    stage: int
    seed: int
    batch_size: int
    pool: list[Triplet]

    def __post_init__(self):
        if self.stage not in (1, 2):
            raise ValueError("stage must be 1 or 2")
        if self.batch_size < 2:
            raise ValueError("contrastive batches need batch_size >= 2")
        # a stream owns its pool: later edits to the caller's list change nothing
        self.pool = [t for t in self.pool if self.stage == 1 or not t.augmented]
        if not self.pool:
            raise ValueError(f"stage-{self.stage} pool is empty")

    @property
    def batches_per_epoch(self) -> int:
        return len(self.pool) // self.batch_size

    def epoch_batches(self, epoch: int) -> list[list[Triplet]]:
        perm = np.random.default_rng([self.seed, self.stage, epoch]).permutation(len(self.pool))
        n_full = self.batches_per_epoch
        return [
            [self.pool[perm[i]] for i in range(b * self.batch_size, (b + 1) * self.batch_size)]
            for b in range(n_full)
        ]


@dataclass
class CurationResult:
    triplets: list[Triplet]
    hash_table: dict[str, int]
    removal_reports: list[RemovalReport]
    n_input: int
    n_after_dedup: int
    n_after_size_filter: int

    def stats(self) -> dict:
        """Corpus statistics contract: counts the pipeline must reproduce."""
        return {
            "records_in": self.n_input,
            "removed_near_duplicates": len(self.removal_reports),
            "removed_small": self.n_after_dedup - self.n_after_size_filter,
            "records_out": len(self.triplets),
            "unique_descriptions": len(self.hash_table),
            "augmented_records": sum(t.augmented for t in self.triplets),
            "total_tokens": sum(len(t.text.split()) for t in self.triplets),
        }


def curate(
    records: list[RawRecord],
    dedup_threshold: int = 5,
    min_side: int = 16,
    seed: int = 0,
    case_fold: bool = False,
) -> CurationResult:
    """Full curation pass: dedup, size filter, labels, prompt augmentation.
    Output order is a pure function of (input, seed)."""
    n_input = len(records)
    survivors, reports = dedup_near_duplicates(records, hamming_threshold=dedup_threshold)
    n_after_dedup = len(survivors)
    survivors = filter_small_images(survivors, min_side=min_side)
    n_after_size = len(survivors)
    table, triplets = build_text_hash_table(survivors, case_fold=case_fold)
    triplets = apply_prompt_augmentation(triplets, seed=seed)
    return CurationResult(
        triplets=triplets,
        hash_table=table,
        removal_reports=reports,
        n_input=n_input,
        n_after_dedup=n_after_dedup,
        n_after_size_filter=n_after_size,
    )
