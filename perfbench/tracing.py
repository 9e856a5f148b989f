"""In-memory span tracing of florence_mini's layers, from outside the package.

Each public entry point is wrapped where its callers look it up (a module
global or a class attribute), so the package itself is untouched. A span is
``[name, start, end, parent, step, grad, n]``: ``parent`` is the index of the
enclosing span (-1 at the top), ``step`` the training step or command index
current when the span opened, ``grad`` whether tape recording was on (kept for
encoder and checkpoint spans, which is how gradient-cache passes 1 and 3 are
told apart) and ``n`` a per-call count (image rows, container bytes).
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict

# Spans whose wall time is the workload's own work rather than command
# overhead; `cli.command_overhead_s` is command time minus the outermost of these.
WORK_SPANS = (
    "trainer.run",
    "encoders.image_forward",
    "encoders.text_forward",
    "encoders.video_forward",
    "encoders.inflate",
    "evaluation.prompt_sets",
    "evaluation.zero_shot",
    "evaluation.retrieval",
    "evaluation.linear_probe",
    "evaluation.few_shot",
    "evaluation.regions",
)

# Glue spans the benchmark opens itself; their self time is not a layer's.
GLUE_SPANS = ("cli.command", "trainer.run", "trainer.step")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.step = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name, fn, new_step=False, grad=False, count=None, name_by_grad=None):
        """Return ``fn`` recording one span per call.

        ``new_step`` advances the step id first; ``grad`` stores whether tape
        recording is on; ``count(args, kwargs, result)`` gives the span's ``n``;
        ``name_by_grad`` is a (recording, not recording) pair of span names.
        """
        from florence_mini.numerics.tensor import grad_enabled

        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            if new_step:
                self.step += 1
            recording = grad_enabled() if (grad or name_by_grad) else None
            label = name if name_by_grad is None else name_by_grad[0 if recording else 1]
            rec = [label, 0.0, 0.0, stack[-1] if stack else -1, self.step, recording, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if count is not None:
                rec[6] = count(args, kwargs, result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, **kw) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(name, original, **kw))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self) -> None:
        """Wrap every layer boundary the benchmark reports."""
        from florence_mini import cli, curation
        from florence_mini.curation import pipeline, records, synth
        from florence_mini.encoders import model
        import florence_mini.encoders as encoders
        from florence_mini.evaluation import probe
        from florence_mini.numerics import container, ops, optim
        from florence_mini.trainer import checkpointing, grad_cache, loop, zero

        rows = lambda a, k, r: r.shape[0]  # noqa: E731  (embeddings are (rows, dim))
        size = lambda a, k, r: os.path.getsize(a[0])  # noqa: E731

        self.patch(cli, "main", "cli.command", new_step=True)
        self.patch(cli, "run_two_stage_training", "trainer.run")
        for attr, layer in (
            ("build_prompt_sets", "prompt_sets"),
            ("zero_shot_classify_batch", "zero_shot"),
            ("retrieval_recall", "retrieval"),
            ("linear_probe", "linear_probe"),
            ("few_shot_episode_eval", "few_shot"),
            ("classify_regions", "regions"),
        ):
            self.patch(cli, attr, f"evaluation.{layer}")
        self.patch(cli, "build_video_tower", "encoders.inflate")

        self.patch(loop, "prepare_batch", "trainer.prepare_batch", new_step=True)
        self.patch(loop, "train_step", "trainer.step")
        self.patch(loop, "gradient_cache_gradients", "trainer.grad_cache")
        self.patch(loop, "monolithic_gradients", "trainer.monolithic")
        self.patch(loop, "zero_shard_update", "trainer.zero")
        self.patch(loop, "save_train_checkpoint", "trainer.save_checkpoint")
        self.patch(optim, "adamw_step", "trainer.optimizer")
        self.patch(zero, "adamw_step", "trainer.optimizer")
        original_checkpointed = loop.checkpointed
        block_names = ("trainer.checkpointing.recompute", "trainer.checkpointing.forward")
        self._patches.append((loop, "checkpointed", original_checkpointed))
        loop.checkpointed = lambda fn, *inputs: original_checkpointed(
            self.wrap("", fn, name_by_grad=block_names), *inputs
        )

        for owner, attr in (
            (grad_cache, "backward_from"),
            (grad_cache, "evaluate_and_backward"),
            (checkpointing, "backward_from"),
            (probe, "evaluate_and_backward"),
        ):
            self.patch(owner, attr, "numerics.backward")
        self.patch(grad_cache, "unicl_loss_arrays", "unicl.loss")
        self.patch(grad_cache, "unicl_loss_op", "unicl.loss")

        self.patch(model.TwoTowerModel, "encode_image", "encoders.image_forward", grad=True, count=rows)
        self.patch(model.TwoTowerModel, "encode_text", "encoders.text_forward", grad=True)
        self.patch(encoders, "encode_video", "encoders.video_forward")

        for owner in (container, synth):
            self.patch(owner, "write_tensor_file", "numerics.container.write", count=size)
        for owner in (container, records):
            self.patch(owner, "read_tensor_file", "numerics.container.read")

        self.patch(curation, "generate_synthetic_dataset", "curation.synth")
        self.patch(curation, "curate", "curation.curate")
        self.patch(pipeline, "dedup_near_duplicates", "curation.dedup")

        for attr in sorted(vars(ops)):
            fn = getattr(ops, attr)
            if (
                callable(fn)
                and not attr.startswith("_")
                and getattr(fn, "__module__", None) == ops.__name__
                and attr not in ("constant", "parameter")
            ):
                self.patch(ops, attr, f"numerics.op.{attr}")

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(["name", "start", "end", "parent", "step", "grad", "n"], fh)
            fh.write("\n")
            for rec in self.spans:
                fh.write(json.dumps(rec) + "\n")


def _within(spans, lo: float, hi: float) -> list[int]:
    return [i for i, s in enumerate(spans) if lo <= s[1] and s[2] <= hi]


def self_times(spans, lo: float, hi: float) -> dict[str, dict[str, float]]:
    """Per span name: calls, inclusive seconds and self seconds in [lo, hi].

    Self time is a span's duration minus the part its direct children cover.
    Inclusive totals double count a name nested in itself (a backward inside a
    recompute inside a backward); self totals never do.
    """
    child = defaultdict(float)
    idx = _within(spans, lo, hi)
    for i in idx:
        s = spans[i]
        if s[3] >= 0:
            child[s[3]] += s[2] - s[1]
    table: dict[str, dict[str, float]] = {}
    for i in idx:
        s = spans[i]
        row = table.setdefault(s[0], {"calls": 0, "inclusive_s": 0.0, "self_s": 0.0, "n": 0})
        row["calls"] += 1
        row["inclusive_s"] += s[2] - s[1]
        row["self_s"] += s[2] - s[1] - child[i]
        row["n"] += s[6]
    return table


def _ancestor_names(spans, i: int):
    p = spans[i][3]
    while p >= 0:
        yield spans[p][0]
        p = spans[p][3]


def pass_split(spans, lo: float, hi: float) -> tuple[float, float]:
    """Inclusive encoder time inside the gradient cache, split into pass 1
    (recording off) and the pass-3 re-forwards (recording on)."""
    pass1 = pass3 = 0.0
    for i in _within(spans, lo, hi):
        s = spans[i]
        if s[0] in ("encoders.image_forward", "encoders.text_forward") and "trainer.grad_cache" in _ancestor_names(spans, i):
            if s[5]:
                pass3 += s[2] - s[1]
            else:
                pass1 += s[2] - s[1]
    return pass1, pass3


def command_overhead(spans, lo: float, hi: float) -> float:
    """Command wall time minus the outermost work spans inside each command."""
    total = 0.0
    for i in _within(spans, lo, hi):
        s = spans[i]
        if s[0] == "cli.command":
            total += s[2] - s[1]
        elif s[0] in WORK_SPANS:
            for name in _ancestor_names(spans, i):
                if name in WORK_SPANS:
                    break
                if name == "cli.command":
                    total -= s[2] - s[1]
                    break
    return total


def coverage(spans, lo: float, hi: float, root: str | None) -> float:
    """Seconds of layer self time in [lo, hi], glue spans excluded.

    With ``root`` set, only spans nested inside a ``root`` span count (the
    training step); with None, every span in the window counts.
    """
    inside = [root is None] * len(spans)
    child = [0.0] * len(spans)
    for i, s in enumerate(spans):
        if s[3] >= 0:
            inside[i] = inside[i] or inside[s[3]] or spans[s[3]][0] == root
            child[s[3]] += s[2] - s[1]
    return sum(
        s[2] - s[1] - child[i]
        for i, s in enumerate(spans)
        if inside[i] and s[0] not in GLUE_SPANS and lo <= s[1] and s[2] <= hi
    )
