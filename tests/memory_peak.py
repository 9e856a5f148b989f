"""Where one training step's memory goes: metered against traced bytes.

For the benchmark's two training step shapes, the gradient-cache step
(batch 64 in chunks of 16, 32 px) and the memory-saving step (batch 64 in
one chunk, 64 px, every block checkpointed), this prints

- the metered peak: the activation meter's peak scalar count, in bytes of
  the model's dtype, and where the meter reaches it: the node being
  recorded, its first input's shape, and the innermost backward rule
  running (a checkpoint's recompute runs inside its node's rule), or the
  forward;
- the traced peak: tracemalloc's highest traced size during one
  `compute_gradients` call, above the level at its start;
- what one recorded forward holds: the bytes tracemalloc sees left
  allocated after both towers' forward of one chunk, against the bytes of
  the saved scalars the meter counts for it. The tape keeps only what
  backward rules save, and the meter also counts saved weights and the
  pixels, which were allocated before the forward, so the first should not
  exceed the second;
- the three backward rules in whose own run (not counting the rules nested
  inside them, such as a checkpoint's inner walk) the traced size rose
  highest, with the level on entry to each.

It then prints the traced peak of one training checkpoint write of the
default model, as the loop makes it: `save_train_checkpoint` of the state
one 4-worker `zero_shard_update` returns, against the bytes of tensors
written.

    python tests/memory_peak.py

Inputs are synthetic (seed 0) and written to a temporary directory that is
removed on exit; nothing else is written. The step runs once untraced
first, so one-time allocations do not count.
"""

from __future__ import annotations

import tempfile
import tracemalloc
from pathlib import Path

SHAPES = {
    "train-32px-gcache": dict(batch_size=64, chunk_size=16, image_size=None),
    "train-64px-memsave": dict(batch_size=64, chunk_size=64, image_size=64, activation_checkpointing=True),
}
TOP_RULES = 3


class RuleLocator:
    """Wraps the tape walk's per-node visit to record, for each backward
    rule run, the traced peak reached while it was the innermost rule; and
    wraps node recording to note where the activation meter last rose to a
    new peak."""

    def __init__(self, tensor_module):
        self.module = tensor_module
        self.original = tensor_module._visit
        self.original_init = tensor_module.TapeNode.__init__
        self.open: list[list] = []  # per running rule: [entry size, own peak, label]
        self.rules: list[tuple[int, int, str]] = []  # (own peak, entry size, label)
        self.highest = 0  # traced peak over everything run inside the block
        self.metered_at = "no node recorded"

    def fold(self) -> None:
        """Credit the traced peak since the last fold to the innermost open
        rule and to ``highest``, and restart the peak."""
        peak = tracemalloc.get_traced_memory()[1]
        self.highest = max(self.highest, peak)
        if self.open:
            self.open[-1][1] = max(self.open[-1][1], peak)
        tracemalloc.reset_peak()

    def visit(self, node, g, grad_table):
        self.fold()
        entry = tracemalloc.get_traced_memory()[0]
        self.open.append([entry, entry, f"{node.op} {tuple(g.shape)}"])
        try:
            self.original(node, g, grad_table)
        finally:
            self.fold()
            entry, peak, label = self.open.pop()
            self.rules.append((peak, entry, label))

    def record(self, node, op, inputs, saved, backward_fn):
        meter = self.module.activation_meter
        before = meter.peak
        self.original_init(node, op, inputs, saved, backward_fn)
        if meter.peak > before:
            where = f"rule {self.open[-1][2]}" if self.open else "the forward"
            self.metered_at = f"{op} {node.shapes[0]} recorded in {where}"

    def __enter__(self):
        self.module._visit = self.visit
        self.module.TapeNode.__init__ = lambda node, *args: self.record(node, *args)
        return self

    def __exit__(self, *exc):
        self.module._visit = self.original
        self.module.TapeNode.__init__ = self.original_init


def forward_held(model, images, ids, config) -> tuple[int, int]:
    """(bytes left allocated, scalars metered) after one recorded forward of
    both towers over the step's first chunk, with the step's checkpointing
    and precision; the tape is dropped unwalked on return."""
    from florence_mini.numerics import precision_policy, tensor
    from florence_mini.trainer import checkpointed

    wrapper = checkpointed if config.activation_checkpointing else None
    rows = slice(0, config.chunk_size)
    before = tensor.activation_meter.current
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        with precision_policy(config.precision):
            # kept, so the tape lives until the return reads the meter
            embeddings = model.encode_image(images[rows], block_wrapper=wrapper), model.encode_text(ids[rows])  # noqa: F841
        held = tracemalloc.get_traced_memory()[0] - start
    finally:
        tracemalloc.stop()
    return held, tensor.activation_meter.current - before


def step_report(name: str, shape: dict, triplets, vocab) -> list[str]:
    from florence_mini.encoders import ModelConfig, TwoTowerModel
    from florence_mini.numerics import tensor
    from florence_mini.trainer import TrainConfig, prepare_batch
    from florence_mini.trainer.loop import compute_gradients, effective_labels

    shape = dict(shape)
    image_size = shape.pop("image_size")
    config = TrainConfig(model=ModelConfig(), **shape)
    model = TwoTowerModel.create(config.model, vocab, seed=0)
    images, ids, labels, _ = prepare_batch(triplets[: config.batch_size], vocab, config.model.dtype, image_size=image_size)
    labels = effective_labels(labels, config.objective)
    compute_gradients(model, images, ids, labels, config)
    held, forward_metered = forward_held(model, images, ids, config)

    tensor.activation_meter.reset()
    tracemalloc.start()
    try:
        with RuleLocator(tensor) as locator:
            start = tracemalloc.get_traced_memory()[0]
            compute_gradients(model, images, ids, labels, config)
            locator.fold()
        traced = locator.highest - start
    finally:
        tracemalloc.stop()
    itemsize = images.dtype.itemsize
    metered = tensor.activation_meter.peak
    lines = [
        f"{name}: batch {config.batch_size}, chunk {config.chunk_size}, {images.shape[1]} px, "
        f"checkpointing {'on' if config.activation_checkpointing else 'off'}, {images.dtype}",
        f"  metered peak  {metered * itemsize:>12,} bytes ({metered:,} scalars)",
        f"  metered at    {locator.metered_at}",
        f"  traced peak   {traced:>12,} bytes above the step's start",
        f"  one forward   {held:>12,} bytes held, {forward_metered * itemsize:>12,} metered "
        f"({config.chunk_size} rows)",
    ]
    for peak, entry, label in sorted(locator.rules, reverse=True)[:TOP_RULES]:
        lines.append(f"  rule {label:<32} peak {peak - start:>12,}  on entry {entry - start:>12,}")
    return lines


def checkpoint_report(vocab, workers: int = 4) -> list[str]:
    import numpy as np

    from florence_mini.encoders import ModelConfig, TwoTowerModel
    from florence_mini.numerics import init_optimizer_state
    from florence_mini.trainer import TrainConfig, zero_shard_update
    from florence_mini.trainer.loop import save_train_checkpoint

    config = TrainConfig(model=ModelConfig())
    model = TwoTowerModel.create(config.model, vocab, seed=0)
    params = model.param_arrays()
    grads = {k: np.full_like(p, 0.5) for k, p in params.items()}
    _, state = zero_shard_update(params, grads, init_optimizer_state(params, lr=config.peak_lr), workers)
    payload = 3 * sum(a.nbytes for a in params.values())
    with tempfile.TemporaryDirectory() as tmp:
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            save_train_checkpoint(Path(tmp) / "ckpt", model, state, config, 1)
            traced = tracemalloc.get_traced_memory()[1] - start
        finally:
            tracemalloc.stop()
    return [
        f"checkpoint: save_train_checkpoint of the default model, state after one {workers}-worker update",
        f"  traced peak   {traced:>12,} bytes for {payload:,} bytes of parameters and moments",
    ]


def main() -> None:
    from florence_mini.curation import curate, generate_synthetic_dataset
    from florence_mini.encoders import build_vocabulary

    with tempfile.TemporaryDirectory() as tmp:
        records, _ = generate_synthetic_dataset(Path(tmp), num_classes=8, per_class=16, seed=0)
        triplets = curate(records, seed=0).triplets
        vocab = build_vocabulary([t.text for t in triplets])
        for name, shape in SHAPES.items():
            print("\n".join(step_report(name, shape, triplets, vocab)))
        print("\n".join(checkpoint_report(vocab)))


if __name__ == "__main__":
    main()
