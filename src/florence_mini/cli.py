"""Command-line surface: synth, curate, train, eval, inflate, and the
duplicate-captions and memory-report experiments.

Every command runs through `run_command`, which writes the command's outputs
under --out together with a run manifest (resolved config, seed, input
hashes, artifact list, wall clock, version). Execution is always
deterministic and sequential.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .curation import (
    ImageFiles,
    class_of_record,
    curate,
    generate_synthetic_dataset,
    holdout_ids,
    load_image,
    read_records_jsonl,
    read_triplets_jsonl,
    write_records_jsonl,
    write_removal_report_jsonl,
    write_triplets_jsonl,
)
from .encoders import ModelConfig, TwoTowerModel, build_video_tower, build_vocabulary
from .evaluation import (
    EvalReport,
    ProbeConfig,
    append_report_jsonl,
    build_prompt_sets,
    classify_regions,
    embed_images,
    embed_texts,
    evaluate_topk,
    few_shot_episode_eval,
    linear_probe,
    read_boxes_jsonl,
    retrieval_recall,
    zero_shot_classify_batch,
)
from .experiments import duplicate_caption_advantage
from .jsonl import write_jsonl
from .numerics.container import save_checkpoint
from .numerics.precision import PRECISION_MODES
from .numerics.tensor import activation_meter
from .trainer import (
    TrainConfig,
    load_model_checkpoint,
    prepare_batch,
    run_two_stage_training,
)
from .trainer.loop import compute_gradients


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 16), b""):
            h.update(block)
    return h.hexdigest()


def _json_safe(config: dict) -> dict:
    return {
        k: v
        for k, v in config.items()
        if k != "fn" and isinstance(v, (str, int, float, bool, list, dict, type(None)))
    }


def write_run_manifest(out_dir, command: str, config: dict, seed, inputs, artifacts, wall_clock_s) -> None:
    manifest = {
        "command": command,
        "config": _json_safe(config),
        "seed": seed,
        "input_hashes": {str(p): _sha256(p) for p in inputs},
        "artifacts": [str(a) for a in artifacts],
        "wall_clock_s": wall_clock_s,
        "version": __version__,
    }
    with open(Path(out_dir) / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)


def parse_config(path: str | None, overrides: dict) -> TrainConfig:
    """File config merged with flag overrides (flags win); unknown keys are
    rejected with the offending key names."""
    data: dict = {}
    if path:
        with open(path) as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"config {path} must hold a JSON object, got {type(data).__name__}")
    for key, value in overrides.items():
        if value is not None:
            data[key] = value
    return TrainConfig.from_dict(data)


def _int_list(flag: str, text: str) -> list[int]:
    """The integers of a comma-separated flag value; an entry that is no
    integer is refused naming the flag."""
    try:
        return [int(entry) for entry in text.split(",")]
    except ValueError:
        raise ValueError(f"{flag} takes comma-separated integers, got {text!r}") from None


# ---------------------------------------------------------------------------
# subcommands: each body does its own work under the created --out and
# returns (inputs, artifacts, message); run_command supplies the rest
# ---------------------------------------------------------------------------


def run_command(args) -> int:
    """The frame every subcommand shares: time the body, hand it the created
    --out directory, then write manifest.json and print the body's message.

    `train`, `duplicate-captions` and `memory-report` also return their
    resolved config and seed, which their manifests record in place of the
    parsed flags. `inflate` has no seed, so its manifest records null.
    """
    t0 = time.perf_counter()
    out = Path(args.out)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    out.mkdir(parents=True, exist_ok=True)
    try:
        inputs, artifacts, message, *resolved = args.fn(args, out)
    except BaseException:
        # a refused command removes the directories it made for --out while
        # they are empty, and never one that was there before it ran
        for d in created:
            if any(d.iterdir()):
                break
            d.rmdir()
        raise
    config, seed = resolved or (vars(args) | {"out": str(out)}, getattr(args, "seed", None))
    command = f"eval {args.eval_command}" if args.command == "eval" else args.command
    write_run_manifest(out, command, config, seed, inputs, artifacts, time.perf_counter() - t0)
    print(message)
    return 0


def cmd_synth(args, out):
    records, names = generate_synthetic_dataset(
        out,
        num_classes=args.classes,
        per_class=args.per_class,
        image_side=args.image_side,
        seed=args.seed,
        noise_sigma=args.noise_sigma,
        word_caption_fraction=args.word_fraction,
    )
    write_records_jsonl(out / "records.jsonl", records)
    (out / "classes.txt").write_text("\n".join(names) + "\n")
    artifacts = [out / "records.jsonl", out / "classes.txt", out / "images"]
    return [], artifacts, f"synth: wrote {len(records)} records over {len(names)} classes to {out}"


def cmd_curate(args, out):
    records_path = Path(args.records)
    result = curate(
        read_records_jsonl(records_path),
        dedup_threshold=args.dedup_threshold,
        min_side=args.min_side,
        seed=args.seed,
        case_fold=args.case_fold,
    )
    write_triplets_jsonl(out / "triplets.jsonl", result.triplets)
    write_removal_report_jsonl(out / "removals.jsonl", result.removal_reports)
    with open(out / "stats.json", "w") as fh:
        json.dump(result.stats(), fh, indent=1)
    artifacts = [out / "triplets.jsonl", out / "removals.jsonl", out / "stats.json"]
    return [records_path], artifacts, f"curate: {result.stats()}"


# `train` flags that override the --config file, keyed by TrainConfig field.
TRAIN_FLAGS = {
    "seed": {"type": int},
    "batch_size": {"type": int},
    "chunk_size": {"type": int},
    "zero_workers": {"type": int},
    "precision": {"choices": PRECISION_MODES},
    "stage1_steps": {"type": int},
    "stage2_steps": {"type": int},
    "high_res_steps": {"type": int},
    "peak_lr": {"type": float},
    "warmup_steps": {"type": int},
    "objective": {"choices": ["unicl", "infonce"]},
    "holdout_fraction": {"type": float},
    "checkpoint_every": {"type": int},
}


def cmd_train(args, out):
    config = parse_config(args.config, {name: getattr(args, name) for name in TRAIN_FLAGS})
    triplets_path = Path(args.triplets)
    triplets = read_triplets_jsonl(triplets_path)
    held = holdout_ids([t.id for t in triplets], config.holdout_fraction, config.seed)
    triplets = [t for t in triplets if t.id not in held]
    result = run_two_stage_training(triplets, config, out, resume_from=args.resume)
    artifacts = [result["metrics_path"], *result["checkpoints"].values()]
    message = f"train: {result['steps_run']} steps, final checkpoint {result['checkpoints']['final']}"
    return [triplets_path], artifacts, message, config.to_dict(), config.seed


def _class_names(args) -> list[str]:
    return [c for c in (Path(args.data) / "classes.txt").read_text().splitlines() if c]


def _record_labels(records, records_path: Path, class_names: list[str]) -> np.ndarray:
    """Each record's class index from its source ``class:i:word``, checked
    against classes.txt (``class_of_record``). The first record that fails
    is named with ``records_path``."""
    labels = []
    for r in records:
        try:
            label = class_of_record(r, class_names)
        except ValueError as e:
            raise ValueError(f"{records_path}: {e}") from None
        if label is None:
            raise ValueError(
                f"{records_path}: record {r.id!r} has no class label (source {r.source!r}, not class:i:word)"
            )
        labels.append(label)
    return np.array(labels)


def _eval_inputs(args, holdout: bool, labelled: bool = True):
    """Model, class names, eval records (the held-out split when `holdout`),
    their images at the model's input side, and their class labels (None
    unless `labelled`). The images are an `ImageFiles`, which `embed_images`
    reads a chunk at a time. A labelled eval refuses a record whose source
    names no class of classes.txt (``_record_labels``) before it reads an
    image."""
    model = load_model_checkpoint(args.checkpoint)
    records_path = Path(args.data) / "records.jsonl"
    records = read_records_jsonl(records_path)
    class_names = _class_names(args)
    if holdout:
        held = holdout_ids([r.id for r in records], args.holdout_fraction, args.seed)
        records = [r for r in records if r.id in held]
        if not records:
            raise ValueError(f"held-out split is empty (--holdout-fraction {args.holdout_fraction})")
    labels = _record_labels(records, records_path, class_names) if labelled else None
    images = ImageFiles([r.image_path for r in records], model.config.image_size)
    return model, class_names, records, images, labels


def _eval_report(args, out, report: EvalReport, message: str):
    """Append a record-based eval's report; returns its (inputs, artifacts, message)."""
    append_report_jsonl(out / "reports.jsonl", report)
    return [Path(args.data) / "records.jsonl"], [out / "reports.jsonl"], message


def cmd_eval_zero_shot(args, out):
    model, class_names, records, images, labels = _eval_inputs(args, holdout=True)
    ranked = zero_shot_classify_batch(model, images, build_prompt_sets(model, class_names))
    metrics = {
        "top1_acc": evaluate_topk(ranked, labels, 1),
        "top5_acc": evaluate_topk(ranked, labels, min(5, len(class_names))),
    }
    report = EvalReport(task="zero_shot", metrics=metrics, n=len(records), seed=args.seed)
    return _eval_report(args, out, report, f"zero-shot: {metrics} over {len(records)} held-out images")


def cmd_eval_retrieval(args, out):
    ks = _int_list("--ks", args.ks)
    model, _, records, images, _ = _eval_inputs(args, holdout=True, labelled=False)
    rec = retrieval_recall(embed_images(model, images), embed_texts(model, [r.text for r in records]), ks)
    metrics = {f"r_at_{k}_{d}": rec[d][k] for d in ("i2t", "t2i") for k in ks}
    report = EvalReport(task="retrieval", metrics=metrics, n=len(records), seed=args.seed)
    return _eval_report(args, out, report, f"retrieval: {metrics}")


def cmd_eval_linear_probe(args, out):
    config = ProbeConfig(epochs=args.probe_epochs, holdout_fraction=args.holdout_fraction, seed=args.seed)
    model, _, records, images, labels = _eval_inputs(args, holdout=False)
    result = linear_probe(embed_images(model, images), labels, config)
    metrics = {"probe_acc": result.accuracy}
    report = EvalReport(task="linear_probe", metrics=metrics, n=len(records), seed=args.seed)
    message = f"linear probe: {metrics}" + (" (degenerate)" if result.degenerate else "")
    return _eval_report(args, out, report, message)


def cmd_eval_few_shot(args, out):
    model, _, _, images, labels = _eval_inputs(args, holdout=False)
    result = few_shot_episode_eval(
        embed_images(model, images), labels, way=args.way, shot=args.shot, episodes=args.episodes, seed=args.seed
    )
    report = EvalReport(
        task="few_shot", metrics={"episode_acc": result.mean_accuracy}, n=args.episodes,
        seed=args.seed, ci95=result.ci95,
    )
    message = f"few-shot {args.way}-way {args.shot}-shot: {result.mean_accuracy:.4f} +/- {result.ci95:.4f}"
    return _eval_report(args, out, report, message)


def cmd_eval_regions(args, out):
    """Label each box of --boxes on --image. --image must be the image of a
    record of --data, and every box's image_id that record's id and its
    coordinates a non-empty box inside the image."""
    records_path = Path(args.data) / "records.jsonl"
    resolved = str(Path(args.image).resolve())
    image_ids = {r.id for r in read_records_jsonl(records_path) if r.image_path == resolved}
    if not image_ids:
        raise ValueError(f"--image {args.image} is the image of no record of {records_path}")
    image = load_image(args.image)
    boxes = read_boxes_jsonl(args.boxes, image_ids, image.shape[:2])
    model = load_model_checkpoint(args.checkpoint)
    class_names = _class_names(args)
    rankings = classify_regions(model, image, boxes, build_prompt_sets(model, class_names))
    write_jsonl(
        out / "region_labels.jsonl",
        (
            {
                "image_id": box.image_id,
                "box": [box.x0, box.y0, box.x1, box.y1],
                "ranked_classes": [class_names[c] for c, _ in ranked],
                "scores": [s for _, s in ranked],
            }
            for box, ranked in zip(boxes, rankings)
        ),
    )
    inputs = [records_path, args.boxes, args.image]
    return inputs, [out / "region_labels.jsonl"], f"regions: labeled {len(boxes)} boxes"


def cmd_inflate(args, out):
    model = load_model_checkpoint(args.checkpoint)
    tower = build_video_tower(model.param_arrays(), model.config, args.temporal_kernel, args.frames)
    ckpt_dir = out / "video-tower"  # keeps the container manifest clear of the run manifest
    save_checkpoint(
        ckpt_dir,
        tower.params,
        metadata={
            "model_config": model.config.to_dict(),
            "vocab": model.vocab.to_list(),
            "video": {"temporal_kernel": args.temporal_kernel, "frames": args.frames},
        },
    )
    message = f"inflate: wrote video tower (kt={args.temporal_kernel}, T={args.frames}) to {ckpt_dir}"
    return [Path(args.checkpoint) / "manifest.json"], [ckpt_dir], message


def cmd_duplicate_captions(args, out):
    seeds = _int_list("--seeds", args.seeds)
    config = {
        "seeds": seeds, "num_classes": args.classes, "per_class": args.per_class,
        "stage1_steps": args.stage1_steps, "stage2_steps": args.stage2_steps,
    }
    res = duplicate_caption_advantage(out, **config)
    message = "\n".join([
        f"seeds   : {res['seeds']}",
        f"unicl   : {[f'{v:.3f}' for v in res['unicl']]} mean {res['unicl_mean']:.3f}",
        f"infonce : {[f'{v:.3f}' for v in res['infonce']]} mean {res['infonce_mean']:.3f}",
        f"advantage (text->image R@1): {res['unicl_mean'] - res['infonce_mean']:+.3f}",
    ])
    return [], [out / "duplicate_caption_advantage.json"], message, config, seeds


def cmd_memory_report(args, out):
    """Peak activation scalars of one gradient step on the first --batch-size
    triplets, per chunk size, with and without activation checkpointing. Each
    step runs the trainer's own gradient dispatch, so a chunk below the batch
    size takes the gradient cache exactly as `train` would."""
    chunks = _int_list("--chunks", args.chunks)
    triplets_path = Path(args.triplets)
    triplets = read_triplets_jsonl(triplets_path)
    if not 2 <= args.batch_size <= len(triplets):
        raise ValueError(f"--batch-size {args.batch_size} is not in [2, {len(triplets)}], the triplets in {triplets_path}")
    config = ModelConfig()
    vocab = build_vocabulary([t.text for t in triplets], max_len=config.max_len)
    # the counts depend only on tensor shapes, so the weight-init seed is fixed
    model = TwoTowerModel.create(config, vocab, seed=0)
    images, ids, labels, _ = prepare_batch(triplets[: args.batch_size], vocab, config.dtype)
    rows = []
    lines = [
        f"batch {args.batch_size}, mini model, exact activation-scalar counts",
        f"{'chunk':>6} {'plain':>12} {'checkpointed':>12} {'reduction':>10}",
    ]
    for chunk in chunks:
        peaks = []
        for flag in (False, True):
            train = TrainConfig(config, batch_size=args.batch_size, chunk_size=chunk, activation_checkpointing=flag)
            activation_meter.reset()
            compute_gradients(model, images, ids, labels, train)
            peaks.append(activation_meter.peak)
        plain, ckpt = peaks
        rows.append({"chunk": chunk, "plain": plain, "checkpointed": ckpt})
        lines.append(f"{chunk:>6} {plain:>12} {ckpt:>12} {1 - ckpt / plain:>9.1%}")
    with open(out / "memory_report.json", "w") as fh:
        json.dump({"batch_size": args.batch_size, "peaks": rows}, fh, indent=1)
    resolved = {"batch_size": args.batch_size, "chunks": chunks, "model": config.to_dict()}
    return [triplets_path], [out / "memory_report.json"], "\n".join(lines), resolved, None


# ---------------------------------------------------------------------------
# argument wiring
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="florence-mini")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic image-text corpus")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=128)
    p.add_argument("--image-side", type=int, default=32)
    p.add_argument("--noise-sigma", type=float, default=0.05)
    p.add_argument("--word-fraction", type=float, default=0.5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_synth)

    p = sub.add_parser("curate", help="dedup, filter, label, and augment records")
    p.add_argument("--records", required=True, help="records.jsonl path")
    p.add_argument("--dedup-threshold", type=int, default=5)
    p.add_argument("--min-side", type=int, default=16)
    p.add_argument("--case-fold", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_curate)

    p = sub.add_parser("train", help="two-stage contrastive training")
    p.add_argument("--triplets", required=True, help="curated triplets.jsonl")
    p.add_argument("--config", help="JSON config file (flags override)")
    for name, kwargs in TRAIN_FLAGS.items():
        p.add_argument("--" + name.replace("_", "-"), **kwargs)
    p.add_argument("--resume", help="checkpoint directory to resume from")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_train)

    pe = sub.add_parser("eval", help="transfer evaluation protocols")
    esub = pe.add_subparsers(dest="eval_command", required=True)

    def eval_parser(name, fn, holdout=False):
        q = esub.add_parser(name)
        q.add_argument("--checkpoint", required=True)
        q.add_argument("--data", required=True, help="synth dir with records.jsonl + classes.txt")
        q.add_argument("--seed", type=int, default=0)
        if holdout:
            q.add_argument("--holdout-fraction", type=float, default=0.2)
        q.add_argument("--out", required=True)
        q.set_defaults(fn=fn)
        return q

    eval_parser("zero-shot", cmd_eval_zero_shot, holdout=True)
    eval_parser("retrieval", cmd_eval_retrieval, holdout=True).add_argument("--ks", default="1,5")
    q = eval_parser("linear-probe", cmd_eval_linear_probe, holdout=True)
    q.add_argument("--probe-epochs", type=int, default=100)
    q = eval_parser("few-shot", cmd_eval_few_shot)
    q.add_argument("--way", type=int, default=5)
    q.add_argument("--shot", type=int, default=5)
    q.add_argument("--episodes", type=int, default=600)
    q = eval_parser("regions", cmd_eval_regions)
    q.add_argument("--image", required=True, help="image container file")
    q.add_argument("--boxes", required=True, help="boxes.jsonl")

    p = sub.add_parser("inflate", help="2D -> 3D video tower inflation")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--temporal-kernel", type=int, required=True)
    p.add_argument("--frames", type=int, required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_inflate)

    p = sub.add_parser("duplicate-captions", help="UniCL vs InfoNCE under 50%% shared captions")
    p.add_argument("--seeds", default="0,1,2", help="comma-separated seeds")
    p.add_argument("--classes", type=int, default=8)
    p.add_argument("--per-class", type=int, default=48)
    p.add_argument("--stage1-steps", type=int, default=90)
    p.add_argument("--stage2-steps", type=int, default=30)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_duplicate_captions)

    p = sub.add_parser("memory-report", help="peak activation scalars by chunk size and checkpointing")
    p.add_argument("--triplets", required=True, help="curated triplets.jsonl")
    p.add_argument("--batch-size", type=int, default=16)
    p.add_argument("--chunks", default="16,8,4,2", help="comma-separated chunk sizes")
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_memory_report)

    return parser


# glibc mallopt (parameter, value) pairs from malloc.h: M_MMAP_THRESHOLD at
# 32 MiB, the largest value glibc accepts on 64-bit, and M_TRIM_THRESHOLD at 256 MiB
_MALLOPT_SETTINGS = ((-3, 32 << 20), (-1, 256 << 20))


def _keep_freed_memory() -> bool:
    """Keep freed heap memory in the process instead of returning it to the
    kernel; returns whether the allocator took every setting.

    Under glibc's dynamic thresholds, each multi-MiB buffer a backward frees
    is unmapped and the heap top is trimmed, so the next chunk, block
    recompute or step faults every page back in (about 32,000 minor faults
    per 64 px, batch-16 checkpointed step). No arithmetic changes. Where
    there is no glibc `mallopt`, it does nothing.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return all([mallopt(param, value) == 1 for param, value in _MALLOPT_SETTINGS])


def main(argv=None) -> int:
    _keep_freed_memory()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return run_command(args)
    except (ValueError, OSError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
