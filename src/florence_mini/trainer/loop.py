"""Two-stage training loop with checkpointing, resume, and metrics."""

from __future__ import annotations

import json
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from ..curation.records import Triplet, load_images
from ..encoders.config import ModelConfig, check_field_types, parameter_shapes
from ..encoders.model import TwoTowerModel
from ..encoders.vocab import Vocabulary, build_vocabulary, tokenize_batch
from ..jsonl import read_jsonl
from ..numerics.container import load_checkpoint, save_checkpoint
from ..numerics.optim import OptimizerState, cosine_lr, init_optimizer_state
from ..numerics.precision import PRECISION_MODES, precision_policy
from ..numerics.tensor import Tensor, activation_meter
from .checkpointing import checkpointed
from .grad_cache import gradient_cache_gradients, monolithic_gradients
from .zero import zero_shard_update, zero_shards


class TrainingAborted(RuntimeError):
    pass


@dataclass
class TrainConfig:
    """Declarative description of a two-stage run.

    Defaults keep the web-scale stage shape (long mixed pretrain, shorter
    clean continuation, brief high-resolution finish) at desk-size step and
    batch counts. The loss is summed over the batch and AdamW keeps
    OptimizerState's betas, eps and weight decay; neither is a setting.
    """

    model: ModelConfig = field(default_factory=ModelConfig)
    stage1_steps: int = 300
    stage2_steps: int = 60
    high_res_steps: int = 0
    high_res_size: int = 64
    batch_size: int = 64
    chunk_size: int = 16
    peak_lr: float = 2e-3
    warmup_steps: int = 50
    total_steps: int | None = None
    seed: int = 0
    zero_workers: int = 1
    activation_checkpointing: bool = False
    precision: str = "full"  # one of PRECISION_MODES
    objective: str = "unicl"  # "unicl" | "infonce"
    holdout_fraction: float = 0.2
    checkpoint_every: int = 0

    def __post_init__(self):
        check_field_types(self)
        if not 0 < self.peak_lr < float("inf"):
            raise ValueError(f"peak_lr must be finite and > 0, got {self.peak_lr}")
        if self.batch_size < 2:
            raise ValueError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.chunk_size < 1 or self.batch_size % self.chunk_size != 0:
            raise ValueError(f"chunk_size {self.chunk_size} must divide batch_size {self.batch_size}")
        if self.checkpoint_every < 0:
            raise ValueError(f"checkpoint_every must be >= 0, got {self.checkpoint_every}")
        if min(self.stage1_steps, self.stage2_steps, self.high_res_steps) < 0:
            raise ValueError("stage step counts must be >= 0")
        if self.precision not in PRECISION_MODES:
            raise ValueError(f"unknown precision {self.precision!r}")
        if self.objective not in ("unicl", "infonce"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.warmup_steps < 0:
            raise ValueError(f"warmup_steps must be >= 0, got {self.warmup_steps}")
        if self.planned_steps > 0 and self.warmup_steps >= self.schedule_total:
            # cosine_lr's own condition, refused here before a run opens anything
            raise ValueError(
                f"warmup_steps {self.warmup_steps} must be smaller than total_steps {self.schedule_total}"
            )
        if self.high_res_steps > 0:
            # the high-res phase runs the same towers at this input side
            try:
                replace(self.model, image_size=self.high_res_size)
            except ValueError as err:
                raise ValueError(f"high_res_size {self.high_res_size} does not fit the model: {err}") from None

    @property
    def planned_steps(self) -> int:
        return self.stage1_steps + self.stage2_steps + self.high_res_steps

    @property
    def schedule_total(self) -> int:
        return self.total_steps if self.total_steps is not None else self.planned_steps

    def to_dict(self) -> dict:
        return asdict(self)

    @staticmethod
    def from_dict(d: dict) -> "TrainConfig":
        if not isinstance(d, dict):
            raise ValueError(f"train config must be a JSON object, got {type(d).__name__}")
        d = dict(d)
        known = set(TrainConfig.__dataclass_fields__)
        unknown = set(d) - known
        if unknown:
            raise ValueError(f"unknown train config keys: {sorted(unknown)}")
        if "model" in d:
            if not isinstance(d["model"], dict):
                raise ValueError(f"train config key 'model' must be a JSON object, got {type(d['model']).__name__}")
            d["model"] = ModelConfig.from_dict(d["model"])
        return TrainConfig(**d)


def stage_pool(triplets: list[Triplet], stage: int) -> list[Triplet]:
    """Stage 1 trains on every triplet; stage 2 and the high-res phase only
    on those prompt augmentation left unchanged."""
    return [t for t in triplets if stage == 1 or not t.augmented]


def stage_batch(pool: list[Triplet], seed: int, stage: int, batch_size: int, k: int) -> list[Triplet]:
    """Batch ``k`` of a stage over ``pool``: epochs of ``len(pool) //
    batch_size`` full batches, each a permutation that is a pure function of
    (seed, stage, epoch); each epoch's final short batch is dropped."""
    epoch, idx = divmod(k, len(pool) // batch_size)
    perm = np.random.default_rng([seed, stage, epoch]).permutation(len(pool))
    return [pool[i] for i in perm[idx * batch_size : (idx + 1) * batch_size]]


def prepare_batch(
    batch: list[Triplet],
    vocab: Vocabulary,
    dtype: str,
    image_size: int | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """Load and stack a triplet batch: images, token ids, labels, record ids.

    Every call reads its images from disk, resized to ``image_size`` when
    given; no pixels are held between batches.
    """
    x = load_images([t.image_path for t in batch], image_size).astype(dtype, copy=False)
    ids = tokenize_batch([t.text for t in batch], vocab)
    labels = np.array([t.label for t in batch], dtype=np.int64)
    return x, ids, labels, [t.id for t in batch]


def effective_labels(labels: np.ndarray, objective: str) -> np.ndarray:
    """UniCL uses hash labels; the InfoNCE baseline treats every row as its
    own class (the all-distinct reduction)."""
    if objective == "infonce":
        return np.arange(labels.shape[0], dtype=np.int64)
    return labels


def compute_gradients(model: TwoTowerModel, images, ids, labels, config: TrainConfig):
    wrapper = checkpointed if config.activation_checkpointing else None
    with precision_policy(config.precision):
        if config.chunk_size < images.shape[0]:
            return gradient_cache_gradients(model, images, ids, labels, config.chunk_size, block_wrapper=wrapper)
        return monolithic_gradients(model, images, ids, labels, block_wrapper=wrapper)


def train_step(
    model: TwoTowerModel,
    images: np.ndarray,
    ids: np.ndarray,
    labels: np.ndarray,
    record_ids: list[str],
    state: OptimizerState,
    config: TrainConfig,
    lr: float,
) -> tuple[OptimizerState, dict]:
    """One optimizer step, sharded over ``config.zero_workers`` inside the
    update (``zero_shard_update``); returns (new state, metrics record)."""
    t0 = time.perf_counter()
    activation_meter.reset()
    labels_eff = effective_labels(labels, config.objective)
    loss, grads = compute_gradients(model, images, ids, labels_eff, config)
    if not np.isfinite(loss):
        raise TrainingAborted(f"non-finite loss {loss}; batch ids: {record_ids}")
    # checked before any update: one inf reaching AdamW turns its parameter to NaN
    bad = [name for name, g in grads.items() if not np.isfinite(g).all()]
    if bad:
        raise TrainingAborted(f"non-finite gradient for {bad}; batch ids: {record_ids}")
    params = model.param_arrays()
    new_params, new_state = zero_shard_update(params, grads, state, config.zero_workers, lr=lr)
    model.load_arrays(new_params)
    metrics = {
        "loss": loss,
        "lr": lr,
        "tau": float(np.exp(model.tau_param.data)),
        "peak_activation_scalars": activation_meter.peak,
        "step_time_s": time.perf_counter() - t0,
    }
    return new_state, metrics


def save_train_checkpoint(path, model: TwoTowerModel, state: OptimizerState, config: TrainConfig, step: int) -> None:
    moments = {f"__opt_{kind}__.{k}": a for kind in "mv" for k, a in getattr(state, kind).items()}
    save_checkpoint(
        path,
        {**model.param_arrays(), **moments},
        metadata={
            "step": step,
            "optimizer_step": state.step,
            "model_config": config.model.to_dict(),
            "train_config": config.to_dict(),
            "vocab": model.vocab.to_list(),
        },
    )


# TrainConfig fields a resume may change: they extend or reschedule the run,
# or reshard its optimizer state, without changing what any already-taken step computed.
RESUMABLE_KEYS = ("stage1_steps", "stage2_steps", "high_res_steps", "total_steps", "checkpoint_every", "zero_workers")


def _flat_config(config: TrainConfig) -> dict:
    d = config.to_dict()
    d.update({f"model.{k}": v for k, v in d.pop("model").items()})
    return d


def _manifest_value(path, manifest: dict, key: str):
    """``manifest[key]``; a missing key is refused naming the checkpoint."""
    if key not in manifest:
        raise ValueError(f"checkpoint {path}: its manifest has no {key!r}")
    return manifest[key]


def _manifest_count(path, manifest: dict, key: str) -> int:
    """``manifest[key]``, refused naming the checkpoint and the key unless
    it is a non-negative integer (a bool is not one)."""
    value = _manifest_value(path, manifest, key)
    if type(value) is not int or value < 0:
        raise ValueError(f"checkpoint {path}: its manifest's {key} must be a non-negative integer, got {value!r}")
    return value


def load_train_checkpoint(path, config: TrainConfig):
    """Rebuild (model, optimizer state, step) from a checkpoint directory.

    Rejects a ``config`` that differs from the checkpoint's stored
    ``train_config`` in any field outside RESUMABLE_KEYS, one whose planned
    steps end before the checkpoint's step, and an optimizer moment that is
    missing or differs from its parameter in shape or dtype.
    """
    tensors, manifest = load_checkpoint(path)
    step = _manifest_count(path, manifest, "step")
    optimizer_step = _manifest_count(path, manifest, "optimizer_step")
    stored_config = _manifest_value(path, manifest, "train_config")
    try:
        stored = _flat_config(TrainConfig.from_dict(stored_config))
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: its stored train_config cannot be resumed: {exc}") from exc
    given = _flat_config(config)
    drift = [
        f"{k} (checkpoint {stored[k]!r}, run {given[k]!r})"
        for k in given
        if k not in RESUMABLE_KEYS and stored[k] != given[k]
    ]
    if drift:
        raise ValueError(f"resume config differs from the checkpoint's train_config: {', '.join(drift)}")
    if step > config.planned_steps:
        raise ValueError(f"checkpoint step {step} is past the run's planned_steps {config.planned_steps}")
    model = _checkpoint_model(path, tensors, manifest)
    params = model.param_arrays()
    for kind in "mv":
        for k, p in params.items():
            name = f"__opt_{kind}__.{k}"
            a = tensors.get(name)
            if a is None or (a.shape, a.dtype) != (p.shape, p.dtype):
                got = "no tensor" if a is None else f"{a.dtype} {a.shape}"
                raise ValueError(f"checkpoint {path}: optimizer moment {name} must be {p.dtype} {p.shape}, got {got}")
    state = OptimizerState(
        lr=config.peak_lr,
        step=optimizer_step,
        m={k: tensors[f"__opt_m__.{k}"] for k in params},
        v={k: tensors[f"__opt_v__.{k}"] for k in params},
    )
    return model, state, step


def load_model_checkpoint(path) -> TwoTowerModel:
    """Parameters + embedded config/vocab, for evaluation and inflation.

    A training checkpoint's optimizer moments are read and checked with the
    rest of it, then dropped: the model takes only its own parameter names.
    """
    return _checkpoint_model(path, *load_checkpoint(path))


def _checkpoint_model(path, tensors: dict[str, np.ndarray], manifest: dict) -> TwoTowerModel:
    """The model the checkpoint at ``path`` holds: config and vocab from its
    manifest, weights from its tensors of the config's parameter names and
    shapes. A missing key, a stored model_config that is refused and a vocab
    that is not a list of distinct strings, or that Vocabulary refuses, each
    name the checkpoint."""
    stored_config = _manifest_value(path, manifest, "model_config")
    tokens = _manifest_value(path, manifest, "vocab")
    try:
        config = ModelConfig.from_dict(stored_config)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: its stored model_config cannot be loaded: {exc}") from exc
    if not (isinstance(tokens, list) and all(isinstance(t, str) for t in tokens) and len(set(tokens)) == len(tokens)):
        raise ValueError(f"checkpoint {path}: its manifest's vocab must be a list of distinct strings")
    try:
        vocab = Vocabulary.from_list(tokens, max_len=config.max_len)
    except ValueError as exc:
        raise ValueError(f"checkpoint {path}: its manifest's vocab cannot be loaded: {exc}") from exc
    shapes = parameter_shapes(config, len(vocab))
    placeholders = {k: Tensor(np.empty(s, config.dtype), requires_grad=True, name=k) for k, s in shapes.items()}
    model = TwoTowerModel(config, vocab, placeholders)
    model.load_arrays(tensors)  # refuses a missing name or another shape, by name
    return model


def run_two_stage_training(triplets: list[Triplet], config: TrainConfig, out_dir, resume_from=None) -> dict:
    """Stage 1 on the full pool, stage 2 with augmented records excluded,
    optional high-resolution phase; deterministic for a fixed (corpus,
    config, seed)."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if resume_from is not None:
        model, state, start_step = load_train_checkpoint(resume_from, config)
    else:
        vocab = build_vocabulary([t.text for t in triplets], max_len=config.model.max_len)
        model = TwoTowerModel.create(config.model, vocab, seed=config.seed)
        state = init_optimizer_state(model.param_arrays(), lr=config.peak_lr)
        start_step = 0

    zero_shards(model.param_arrays(), config.zero_workers)  # refuses a bad worker count before metrics.jsonl opens

    # (stage, first step, end step, pool stage, image side) for each stage
    # that runs; the high-res phase redraws the stage-2 pool from its first batch
    pools = {s: stage_pool(triplets, s) for s in (1, 2)}
    plan = []
    first = 0
    for stage, steps, s, size in (
        ("stage1", config.stage1_steps, 1, None),
        ("stage2", config.stage2_steps, 2, None),
        ("high_res", config.high_res_steps, 2, config.high_res_size),
    ):
        if steps > 0:
            plan.append((stage, first, first + steps, s, size))
        first += steps
    # each epoch drops its short batch, so a pool smaller than one batch
    # would leave a stage nothing to draw
    short = [
        f"{stage} pool holds {len(pools[s])} triplets, fewer than batch_size {config.batch_size}"
        for stage, _, _, s, _ in plan
        if len(pools[s]) < config.batch_size
    ]
    if short:
        raise ValueError("; ".join(short))

    metrics_path = out / "metrics.jsonl"
    # a resume into the run's own directory replays steps >= start_step, so
    # only the records before it are kept
    kept = []
    if resume_from is not None and metrics_path.exists():
        kept = [row for row in read_jsonl(metrics_path, keys=("step",)) if row["step"] < start_step]
    checkpoints: dict[str, str] = {}
    with open(metrics_path, "w") as metrics_fh:
        metrics_fh.writelines(json.dumps(row) + "\n" for row in kept)
        for stage, first, end, s, size in plan:
            for step in range(max(first, start_step), end):
                batch = stage_batch(pools[s], config.seed, s, config.batch_size, step - first)
                images, ids, labels, rec_ids = prepare_batch(batch, model.vocab, config.model.dtype, image_size=size)
                lr = cosine_lr(step, config.schedule_total, config.warmup_steps, config.peak_lr)
                try:
                    state, metrics = train_step(model, images, ids, labels, rec_ids, state, config, lr)
                except TrainingAborted as exc:
                    with open(out / "abort_diagnostic.json", "w") as fh:
                        json.dump({"step": step, "stage": stage, "batch_ids": rec_ids, "error": str(exc)}, fh)
                    raise
                record = {"step": step, "stage": stage, **metrics}
                metrics_fh.write(json.dumps(record) + "\n")

                done = step + 1
                for name, due in (
                    (f"step-{done}", config.checkpoint_every and done % config.checkpoint_every == 0),
                    (stage, done == end and stage != "high_res"),
                ):
                    if due:
                        p = out / f"ckpt-{name}"
                        save_train_checkpoint(p, model, state, config, done)
                        checkpoints[name] = str(p)

    final = out / "ckpt-final"
    save_train_checkpoint(final, model, state, config, config.planned_steps)
    checkpoints["final"] = str(final)
    return {
        "model": model,
        "checkpoints": checkpoints,
        "metrics_path": str(metrics_path),
        "steps_run": config.planned_steps - start_step,
    }
