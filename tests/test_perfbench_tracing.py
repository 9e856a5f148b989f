"""The benchmark tracer under `perfbench/` times each checkpointed block
through `loop.checkpointed`. A block path that bypassed that module global
would leave its forward and recompute spans, and so the benchmark's
recompute time, at zero without failing anything else."""

from __future__ import annotations

from collections import Counter
from pathlib import Path

import numpy as np

from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary, tokenize_batch
from florence_mini.trainer import TrainConfig, loop

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_tracer_records_one_forward_and_one_recompute_span_per_checkpointed_block(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    config = TrainConfig(batch_size=4, chunk_size=4, activation_checkpointing=True)
    vocab = build_vocabulary(["a heron", "a maple"])
    model = TwoTowerModel.create(ModelConfig(), vocab, seed=0)
    images = np.random.default_rng(0).uniform(size=(4, 32, 32, 3))
    ids = tokenize_batch(["a heron", "a maple", "a heron", "a maple"], vocab)
    labels = np.array([0, 1, 0, 1])

    tracer = tracing.Tracer()
    try:
        tracer.install()
        loop.compute_gradients(model, images, ids, labels, config)
    finally:
        tracer.unpatch()
    spans = Counter(span[0] for span in tracer.spans)
    blocks = sum(ModelConfig().stage_depths)
    assert blocks == 4
    assert spans["trainer.checkpointing.forward"] == blocks
    assert spans["trainer.checkpointing.recompute"] == blocks
