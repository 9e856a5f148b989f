"""Reusable desk-scale experiments built from the pipeline pieces."""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .curation import ImageFiles, curate, generate_synthetic_dataset, holdout_ids
from .evaluation import embed_images, embed_texts, retrieval_recall
from .trainer import TrainConfig, run_two_stage_training


def duplicate_caption_advantage(
    workdir,
    seeds=(0, 1, 2),
    num_classes: int = 8,
    per_class: int = 48,
    stage1_steps: int = 90,
    stage2_steps: int = 30,
) -> dict:
    """Train UniCL vs an InfoNCE baseline on a corpus where half of all
    captions are shared across images; compare held-out text-to-image R@1.

    Retrieval is scored on the held-out pairs with unique sentence captions
    (shared-word captions make row-aligned retrieval ill-posed for any
    model). Identical corpus, schedule, and seeds for both objectives.
    """
    workdir = Path(workdir)
    results: dict = {"unicl": [], "infonce": [], "seeds": list(seeds)}
    for seed in seeds:
        data_dir = workdir / f"data-seed{seed}"
        records, _ = generate_synthetic_dataset(
            data_dir, num_classes=num_classes, per_class=per_class,
            seed=seed, word_caption_fraction=0.5,
        )
        curated = curate(records, seed=seed)
        held = holdout_ids([r.id for r in records], 0.2, seed=seed)
        train_pool = [t for t in curated.triplets if t.id not in held]
        rec_by_id = {r.id: r for r in records}
        eval_records = [
            rec_by_id[i] for i in sorted(held) if len(rec_by_id[i].text.split()) > 2
        ]
        for objective in ("unicl", "infonce"):
            config = TrainConfig(
                stage1_steps=stage1_steps,
                stage2_steps=stage2_steps,
                batch_size=32,
                chunk_size=32,
                peak_lr=2e-3,
                warmup_steps=min(10, stage1_steps + stage2_steps - 1),
                seed=seed,
                objective=objective,
            )
            run = run_two_stage_training(
                train_pool, config, workdir / f"run-{objective}-seed{seed}"
            )
            u = embed_images(run["model"], ImageFiles([r.image_path for r in eval_records]))
            v = embed_texts(run["model"], [r.text for r in eval_records])
            r1 = retrieval_recall(u, v, ks=[1])["t2i"][1]
            results[objective].append(r1)
    results["unicl_mean"] = float(np.mean(results["unicl"]))
    results["infonce_mean"] = float(np.mean(results["infonce"]))
    with open(workdir / "duplicate_caption_advantage.json", "w") as fh:
        json.dump(results, fh, indent=1)
    return results
