"""The benchmark's three workloads: set-up, timed work and correctness checks.

Every input is generated here from the seed with `curation.generate_synthetic_dataset`
and `curation.curate`; the program only ever sees the files written below, and
runs through `cli.main` exactly as a user would run it.
"""

from __future__ import annotations

import inspect
import json
import math
import statistics
import time
from pathlib import Path

import numpy as np

from florence_mini import cli, curation
from florence_mini.curation import holdout_ids, load_image
from florence_mini.encoders import ModelConfig, TwoTowerModel, VideoTowerParams, build_vocabulary
import florence_mini.encoders as encoders
from florence_mini.evaluation import (
    Box,
    build_prompt_sets,
    read_reports_jsonl,
    write_boxes_jsonl,
    zero_shot_classify,
    zero_shot_classify_batch,
)
from florence_mini.numerics.container import load_checkpoint
from florence_mini.numerics.optim import init_optimizer_state
from florence_mini.numerics.tensor import activation_meter, no_grad
from florence_mini.trainer import TrainConfig, grad_cache, load_model_checkpoint, loop, save_train_checkpoint
from reference import Probes

# Acceptance-suite corpus and schedule (criterion 08): 8 classes x 128 images,
# peak lr 2e-3 with 50 warm-up steps over a 380-step schedule.
CLASSES, PER_CLASS = 8, 128
SCHEDULE = {"peak_lr": 0.002, "warmup_steps": 50, "total_steps": 380}
WARMUP_STEPS = 1
LOSS_WINDOW = 10
FEW_SHOT_EPISODES = 600
N_BOXES = 64
N_CLIPS, CLIP_FRAMES = 16, 4


class Check:
    """Named pass/fail results; a failed check is never skipped, only counted."""

    def __init__(self) -> None:
        self.results: list[tuple[str, bool, str]] = []

    def __call__(self, name: str, ok: bool, detail: str = "") -> bool:
        self.results.append((name, bool(ok), detail))
        return bool(ok)

    def run(self, name: str, fn) -> bool:
        """Record ``fn() -> (ok, detail)``; an exception is a failure, with its message."""
        try:
            ok, detail = fn()
        except Exception as exc:  # a check that cannot be evaluated has failed
            ok, detail = False, f"not evaluated: {type(exc).__name__}: {exc}"
        return self(name, ok, detail)

    @property
    def failed(self) -> int:
        return sum(not ok for _, ok, _ in self.results)


def tail(values: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, percentile)."""
    ordered = sorted(values)
    k = len(ordered) - 11
    if k < 0:
        raise ValueError(f"a tail needs at least 11 samples, got {len(ordered)}")
    return ordered[k], 100.0 * (k + 1) / len(ordered)


def make_corpus(root: Path, seed: int):
    """synth -> records.jsonl/classes.txt -> curate -> triplets.jsonl."""
    data = root / "data"
    records, names = curation.generate_synthetic_dataset(data, num_classes=CLASSES, per_class=PER_CLASS, seed=seed)
    curation.write_records_jsonl(data / "records.jsonl", records)
    (data / "classes.txt").write_text("\n".join(names) + "\n")
    result = curation.curate(records, seed=seed)
    (root / "cur").mkdir(parents=True, exist_ok=True)
    curation.write_triplets_jsonl(root / "cur" / "triplets.jsonl", result.triplets)
    return records, names, result


class TrainWorkload:
    """One `florence-mini train` run whose optimizer steps are the timed units."""

    def __init__(self, name: str, config: dict, step_s: float, min_steps: int, stage: str, uses_grad_cache: bool, probe: str):
        self.name = name
        self.probe = probe
        self.config = config
        self.step_s = step_s
        self.min_steps = min_steps
        self.stage = stage
        self.uses_grad_cache = uses_grad_cache

    def units(self, seconds: int) -> int:
        return max(self.min_steps, round(seconds / self.step_s))

    def _config(self, steps: int, seed: int) -> dict:
        key = "stage1_steps" if self.stage == "stage1" else "high_res_steps"
        return {"stage1_steps": 0, "stage2_steps": 0, "seed": seed, **SCHEDULE, **self.config, key: steps}

    def _train(self, root: Path, out: Path, steps: int, seed: int) -> int:
        cfg = root / f"{out.name}.json"
        cfg.write_text(json.dumps(self._config(steps, seed)))
        return cli.main(["train", "--triplets", str(root / "cur" / "triplets.jsonl"), "--config", str(cfg), "--out", str(out)])

    def setup(self, root: Path, seed: int) -> dict:
        _, _, result = make_corpus(root, seed)
        rc = self._train(root, root / "warmup", WARMUP_STEPS, seed)
        if rc != 0:
            raise RuntimeError(f"warm-up training exited with {rc}")
        return {"root": root, "seed": seed, "stats": result.stats()}

    def run(self, ctx: dict, units: int, tag: str) -> dict:
        """Train `units` steps; time each optimizer step around `loop.train_step`.

        A reference probe runs before each step, outside the step's timing; its time
        is taken out of the command's wall and CPU totals.
        """
        step_times: list[float] = []
        probes = Probes(self.probe)
        guard_overrides = [0, 0]  # [gradient-cache calls, calls that turned the drift guard off]
        timed_step, cached = loop.train_step, loop.gradient_cache_gradients

        def timed(*args, **kwargs):
            probes()
            t0 = time.perf_counter()
            try:
                return timed_step(*args, **kwargs)
            finally:
                step_times.append(time.perf_counter() - t0)

        def watched(*args, **kwargs):
            guard_overrides[0] += 1
            guard_overrides[1] += kwargs.get("debug_guard", True) is not True
            return cached(*args, **kwargs)

        loop.train_step, loop.gradient_cache_gradients = timed, watched
        out = ctx["root"] / f"run-{tag}"
        try:
            w0, c0 = time.perf_counter(), time.process_time()
            rc = self._train(ctx["root"], out, units, ctx["seed"])
            wall = time.perf_counter() - w0 - sum(probes.wall)
            cpu = time.process_time() - c0 - sum(probes.cpu)
        finally:
            loop.train_step, loop.gradient_cache_gradients = timed_step, cached
        metrics = [json.loads(line) for line in open(out / "metrics.jsonl")] if rc == 0 else []
        return {
            "rc": rc, "out": out, "units": units, "unit_times": step_times, "wall": wall, "cpu": cpu, "probes": probes,
            "samples": units * self.config["batch_size"], "metrics": metrics, "guard": guard_overrides,
            "losses": [m["loss"] for m in metrics],
            "failed_units": units - sum(math.isfinite(m["loss"]) for m in metrics),
        }

    def summary(self, res: dict) -> dict:
        """Pairs per second over the whole `train` command; step times from the benchmark's own timer."""
        tail_value, tail_pct = tail(res["unit_times"])
        return {
            "samples_per_s": res["samples"] / res["wall"],
            "step_s_p50": statistics.median(res["unit_times"]),
            "step_s_tail": tail_value,
            "tail_percentile": tail_pct,
            "units": len(res["unit_times"]),
            "cpu_s_per_step": res["cpu"] / res["units"],
        }

    def quality(self, res: dict) -> dict:
        losses = res["losses"][-LOSS_WINDOW:] or [math.nan]
        peaks = [m["peak_activation_scalars"] for m in res["metrics"]] or [0]
        return {"loss_final": float(np.mean(losses)), "peak_activation_scalars": max(peaks)}

    def check(self, ctx: dict, res: dict, check: Check) -> None:
        n = res["units"]
        check("train command exits 0", res["rc"] == 0, f"rc={res['rc']}")
        check("one metrics.jsonl record per step, in order", [m["step"] for m in res["metrics"]] == list(range(n)))
        check(f"every step is in stage {self.stage}", all(m["stage"] == self.stage for m in res["metrics"]))
        check("every loss is finite", len(res["losses"]) == n and all(math.isfinite(x) for x in res["losses"]))
        check("one benchmark-timed optimizer step per step", len(res["unit_times"]) == n, f"{len(res['unit_times'])} of {n}")
        default = inspect.signature(grad_cache.gradient_cache_gradients).parameters["debug_guard"].default
        calls, off = res["guard"]
        check("gradient-cache drift guard defaults to on and is never turned off", default is True and off == 0)
        expected_calls = n if self.uses_grad_cache else 0
        check(
            "gradient cache runs on every step" if self.uses_grad_cache else "gradient cache is bypassed",
            calls == expected_calls, f"{calls} calls over {n} steps",
        )
        every = self.config.get("checkpoint_every", 0)
        expected = [f"ckpt-step-{s}" for s in range(every, n + 1, every)] if every else []
        present = sorted(p.name for p in res["out"].glob("ckpt-step-*"))
        check("mid-run checkpoints written exactly as configured", present == sorted(expected), f"{present}")
        final = res["out"] / "ckpt-final"
        finite = final.is_dir() and all(np.isfinite(a).all() for a in load_model_checkpoint(final).param_arrays().values())
        check("final checkpoint loads with finite parameters", finite)


class EvalWorkload:
    """Every transfer protocol on a seeded, untrained checkpoint.

    Each command, and the clip encoding after it, is a timed unit; one suite pass is a
    "step". A pass is summed from each unit's median over the passes of the run, so one
    slow command does not move the whole pass.
    """

    name = "eval-transfer"
    pass_s = 8.0
    min_passes = 4

    def units(self, seconds: int) -> int:
        return max(self.min_passes, round(seconds / self.pass_s))

    def setup(self, root: Path, seed: int) -> dict:
        records, names, result = make_corpus(root, seed)
        config = TrainConfig(seed=seed)
        vocab = build_vocabulary([t.text for t in result.triplets], max_len=config.model.max_len)
        model = TwoTowerModel.create(config.model, vocab, seed=seed)
        state = init_optimizer_state(model.param_arrays(), lr=config.peak_lr)
        save_train_checkpoint(root / "ckpt", model, state, config, 0)

        rng = np.random.default_rng([seed, 0xB0C5])
        side = config.model.image_size
        boxes = []
        for _ in range(N_BOXES):
            x0, y0 = (int(v) for v in rng.integers(0, side - 4, size=2))
            x1, y1 = int(rng.integers(x0 + 4, side + 1)), int(rng.integers(y0 + 4, side + 1))
            boxes.append(Box(records[0].id, x0, y0, x1, y1))
        write_boxes_jsonl(root / "boxes.jsonl", boxes)

        held = holdout_ids([r.id for r in records], 0.2, seed)
        clip_records = [r for r in records if r.id in held][:N_CLIPS]
        images = np.stack([load_image(r.image_path) for r in clip_records])
        ctx = {
            "root": root, "seed": seed, "stats": result.stats(), "names": names, "n_records": len(records),
            "n_held": len(held), "image": records[0].image_path, "images": images,
            "clips": np.repeat(images[:, None], CLIP_FRAMES, axis=1),
        }
        rc = cli.main(["eval", "zero-shot", *self._common(ctx), "--out", str(root / "warmup")])
        if rc != 0:
            raise RuntimeError(f"warm-up zero-shot exited with {rc}")
        return ctx

    def _common(self, ctx: dict) -> list[str]:
        return ["--checkpoint", str(ctx["root"] / "ckpt"), "--data", str(ctx["root"] / "data"), "--seed", str(ctx["seed"])]

    def _commands(self, ctx: dict, out: Path):
        common = self._common(ctx)
        yield "zero-shot", ["eval", "zero-shot", *common, "--out", str(out / "zero-shot")]
        yield "retrieval", ["eval", "retrieval", *common, "--ks", "1,5,10", "--out", str(out / "retrieval")]
        yield "linear-probe", ["eval", "linear-probe", *common, "--out", str(out / "linear-probe")]
        yield "few-shot", [
            "eval", "few-shot", *common, "--way", "5", "--shot", "5",
            "--episodes", str(FEW_SHOT_EPISODES), "--out", str(out / "few-shot"),
        ]
        yield "regions", ["eval", "regions", *common, "--image", ctx["image"], "--boxes", str(ctx["root"] / "boxes.jsonl"), "--out", str(out / "regions")]
        yield "inflate", [
            "inflate", "--checkpoint", str(ctx["root"] / "ckpt"), "--temporal-kernel", "1",
            "--frames", str(CLIP_FRAMES), "--out", str(out / "inflate"),
        ]

    def _encode_clips(self, ctx: dict, out: Path) -> np.ndarray:
        """Load the tower `inflate` wrote and embed a batch of clips."""
        params, manifest = load_checkpoint(out / "inflate" / "video-tower")
        video = manifest["video"]
        tower = VideoTowerParams(ModelConfig.from_dict(manifest["model_config"]), video["temporal_kernel"], video["frames"], params)
        with no_grad():
            return encoders.encode_video(tower, ctx["clips"]).data

    def run(self, ctx: dict, passes: int, tag: str) -> dict:
        """Run the suite `passes` times; a reference probe runs before each unit, outside its timing."""
        units, rcs, outs, videos, peaks = [], [], [], [], []  # units: (pass, name, wall, cpu)
        probes = Probes("overhead")

        def unit(p, name, fn):
            probes()
            w0, c0 = time.perf_counter(), time.process_time()
            value = fn()
            units.append((p, name, time.perf_counter() - w0, time.process_time() - c0))
            return value

        for p in range(passes):
            out = ctx["root"] / f"{tag}-pass{p}"
            activation_meter.reset()
            for name, argv in self._commands(ctx, out):
                rcs.append(unit(p, name, lambda: cli.main(argv)))
            videos.append(unit(p, "encode-video", lambda: self._encode_clips(ctx, out)))
            peaks.append(activation_meter.peak)
            outs.append(out)
        per_pass = 2 * ctx["n_held"] + 2 * ctx["n_records"] + N_BOXES + N_CLIPS * CLIP_FRAMES
        return {
            "rcs": rcs, "outs": outs, "units": len(units), "passes": passes, "unit_log": units,
            "unit_times": [wall for _, _, wall, _ in units], "probes": probes,
            "samples": passes * per_pass, "videos": videos, "peaks": peaks,
            "failed_units": sum(rc != 0 for rc in rcs),
        }

    def summary(self, res: dict) -> dict:
        """Images per second and CPU time of a typical suite pass: the sum of each unit's median."""
        walls, cpus, pass_times = {}, {}, [0.0] * res["passes"]
        for p, name, wall, cpu in res["unit_log"]:
            walls.setdefault(name, []).append(wall)
            cpus.setdefault(name, []).append(cpu)
            pass_times[p] += wall
        pass_s = sum(statistics.median(v) for v in walls.values())
        # A tail needs 11 passes; a run at the usual length has 3-4, so its tail is the median pass.
        tail_value, tail_pct = tail(pass_times) if len(pass_times) >= 11 else (pass_s, 50.0)
        return {
            "samples_per_s": res["samples"] / res["passes"] / pass_s,
            "step_s_p50": pass_s,
            "step_s_tail": tail_value,
            "tail_percentile": tail_pct,
            "units": res["passes"],
            "cpu_s_per_step": sum(statistics.median(v) for v in cpus.values()),
        }

    def _reports(self, out: Path) -> dict:
        reports = {}
        for task in ("zero-shot", "retrieval", "linear-probe", "few-shot"):
            for rep in read_reports_jsonl(out / task / "reports.jsonl"):
                reports[rep.task] = rep
        return reports

    def quality(self, res: dict) -> dict:
        """Eval has no training loss; its quality number is the few-shot episode error."""
        acc = self._reports(res["outs"][-1])["few_shot"].metrics["episode_acc"]
        return {"loss_final": 1.0 - acc, "peak_activation_scalars": max(res["peaks"])}

    def check(self, ctx: dict, res: dict, check: Check) -> None:
        check("every eval and inflate command exits 0", all(r == 0 for r in res["rcs"]), f"{res['rcs']}")
        last = res["outs"][-1]

        def report_range():
            values = [v for rep in self._reports(last).values() for v in rep.metrics.values()]
            return len(values) > 0 and all(0.0 <= v <= 1.0 for v in values), f"{len(values)} metrics"

        def same_reports():
            first = {k: r.metrics for k, r in self._reports(res["outs"][0]).items()}
            return all({k: r.metrics for k, r in self._reports(out).items()} == first for out in res["outs"]), ""

        def recall_monotone():
            ret = self._reports(last)["retrieval"].metrics
            return all(ret[f"r_at_1_{d}"] <= ret[f"r_at_5_{d}"] <= ret[f"r_at_10_{d}"] for d in ("i2t", "t2i")), f"{ret}"

        def all_episodes():
            return self._reports(last)["few_shot"].n == FEW_SHOT_EPISODES, ""

        def region_rankings():
            lines = [json.loads(line) for line in open(last / "regions" / "region_labels.jsonl")]
            ranked = all(sorted(line["ranked_classes"]) == sorted(ctx["names"]) for line in lines)
            return len(lines) == N_BOXES and ranked, f"{len(lines)} boxes"

        model = load_model_checkpoint(ctx["root"] / "ckpt")
        images = ctx["images"]
        with no_grad():
            image_emb = model.encode_image(images).data

        def batched_zero_shot():
            prompt_sets = build_prompt_sets(model, ctx["names"])
            batched = zero_shot_classify_batch(model, images, prompt_sets)
            single = np.array([[c for c, _ in zero_shot_classify(model, img, prompt_sets)] for img in images])
            return np.array_equal(batched, single), f"{len(images)} images"

        def one_frame_clip():
            tower = encoders.build_video_tower(model.param_arrays(), model.config, 1, 1)
            with no_grad():
                return encoders.encode_video(tower, ctx["clips"][:, :1]).data.tobytes() == image_emb.tobytes(), ""

        def multi_frame_clip():
            dev = float(np.abs(res["videos"][-1] - image_emb).max())
            return dev <= 1e-12, f"max deviation {dev:.1e}"

        check.run("every report metric lies in [0, 1]", report_range)
        check.run("reports are identical on every pass", same_reports)
        check.run("retrieval R@k does not decrease as k grows", recall_monotone)
        check.run("few-shot ran every episode", all_episodes)
        check.run("regions: one full class ranking per box", region_rankings)
        check.run("batched zero-shot rankings equal per-image zero_shot_classify", batched_zero_shot)
        check.run("encode_video, kt=1, one-frame constant clip: byte-identical to the image embedding", one_frame_clip)
        check.run(f"encode_video, kt=1, {CLIP_FRAMES}-frame constant clip: within 1e-12 of the image embedding", multi_frame_clip)


WORKLOADS = {
    w.name: w
    for w in (
        TrainWorkload(
            "train-32px-gcache",
            {"batch_size": 64, "chunk_size": 16, "zero_workers": 1, "activation_checkpointing": False, "checkpoint_every": 0},
            step_s=0.33, min_steps=21, stage="stage1", uses_grad_cache=True, probe="overhead",
        ),
        TrainWorkload(
            "train-64px-memsave",
            {"batch_size": 64, "chunk_size": 64, "zero_workers": 4, "activation_checkpointing": True,
             "checkpoint_every": 10, "high_res_size": 64},
            step_s=1.25, min_steps=21, stage="high_res", uses_grad_cache=False, probe="array",
        ),
        EvalWorkload(),
    )
}
