"""CLI: config parsing, command pipeline, manifests, rerun determinism."""

import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

from florence_mini import cli
from florence_mini.cli import build_parser, main, parse_config
from florence_mini.encoders import TwoTowerModel
from florence_mini.numerics import load_checkpoint
from florence_mini.trainer import TrainConfig

README = Path(__file__).resolve().parents[1] / "README.md"
SRC = str(Path(cli.__file__).resolve().parents[1])


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


class TestParseConfig:
    def test_empty_config_file_gives_defaults(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text("{}")
        cfg = parse_config(str(p), {})
        assert cfg.batch_size == 64
        assert cfg.objective == "unicl"

    def test_flag_overrides_file_value(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"batch_size": 64}))
        cfg = parse_config(str(p), {"batch_size": 32})
        assert cfg.batch_size == 32

    def test_none_override_keeps_file_value(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"batch_size": 16, "chunk_size": 8}))
        cfg = parse_config(str(p), {"batch_size": None})
        assert cfg.batch_size == 16

    def test_indivisible_chunk_rejected(self):
        with pytest.raises(ValueError, match="divide"):
            parse_config(None, {"batch_size": 8, "chunk_size": 3})

    def test_unknown_keys_rejected_with_names(self, tmp_path):
        """A typo, and each setting TrainConfig no longer has, is named."""
        p = tmp_path / "cfg.json"
        for key in ("learning_rate_typo", "mean_reduction", "beta1", "beta2", "eps", "weight_decay"):
            p.write_text(json.dumps({key: 1.0}))
            with pytest.raises(ValueError, match=f"unknown train config keys: \\['{key}'\\]"):
                parse_config(str(p), {})

    def test_unknown_nested_model_key_rejected(self, tmp_path):
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps({"model": {"n_heads": 4}}))
        with pytest.raises(ValueError, match="n_heads"):
            parse_config(str(p), {})

    def test_readme_train_config_block_is_the_defaults(self):
        section = README.read_text().split("## Train config", 1)[1]
        block = re.search(r"```json\n(.*?)```", section, re.S).group(1)
        assert json.loads(block) == json.loads(json.dumps(TrainConfig().to_dict()))


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> curate -> short train, shared by the command tests."""
    root = tmp_path_factory.mktemp("cli")
    assert main(["synth", "--classes", "3", "--per-class", "8", "--out", str(root / "data"), "--seed", "3"]) == 0
    assert main(["curate", "--records", str(root / "data/records.jsonl"), "--out", str(root / "cur"), "--seed", "3"]) == 0
    assert (
        main(
            [
                "train",
                "--triplets", str(root / "cur/triplets.jsonl"),
                "--out", str(root / "run"),
                "--stage1-steps", "3", "--stage2-steps", "2",
                "--batch-size", "8", "--chunk-size", "4",
                "--warmup-steps", "1", "--seed", "3",
            ],
        )
        == 0
    )
    return root


class TestPipelineCommands:
    def test_artifacts_and_manifests_exist(self, pipeline):
        for sub in ("data", "cur", "run"):
            manifest = json.loads((pipeline / sub / "manifest.json").read_text())
            assert manifest["version"]
            assert "config" in manifest and "input_hashes" in manifest
        assert (pipeline / "run/metrics.jsonl").exists()
        assert (pipeline / "run/ckpt-final/manifest.json").exists()

    def test_eval_zero_shot_writes_report(self, pipeline):
        out = pipeline / "zs"
        code = main(
            ["eval", "zero-shot", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out), "--seed", "3"],
        )
        assert code == 0
        rep = json.loads((out / "reports.jsonl").read_text())
        assert 0.0 <= rep["metrics"]["top1_acc"] <= 1.0

    def test_eval_retrieval_emits_both_directions(self, pipeline):
        out = pipeline / "ret"
        code = main(
            ["eval", "retrieval", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out), "--ks", "1,5", "--seed", "3"],
        )
        assert code == 0
        rep = json.loads((out / "reports.jsonl").read_text())
        assert set(rep["metrics"]) == {"r_at_1_i2t", "r_at_5_i2t", "r_at_1_t2i", "r_at_5_t2i"}

    def test_eval_retrieval_rejects_k_below_one_and_leaves_no_out(self, pipeline, tmp_path, capsys):
        out = tmp_path / "ret"
        code = main(
            ["eval", "retrieval", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out), "--ks", "0,5"],
        )
        assert code == 2
        assert "k must be >= 1, got k=0" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_regions_full_image_box(self, pipeline):
        records = [json.loads(l) for l in open(pipeline / "data/records.jsonl")]
        boxes_path = pipeline / "boxes.jsonl"
        boxes_path.write_text(
            json.dumps({"image_id": records[0]["id"], "x0": 0, "y0": 0, "x1": 32, "y1": 32}) + "\n"
        )
        out = pipeline / "reg"
        code = main(
            ["eval", "regions", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out),
             "--image", str(pipeline / "data" / records[0]["image"]),
             "--boxes", str(boxes_path), "--seed", "3"],
        )
        assert code == 0
        labeled = json.loads((out / "region_labels.jsonl").read_text())
        assert len(labeled["ranked_classes"]) == 3

    def test_eval_linear_probe_writes_report(self, pipeline):
        out = pipeline / "probe"
        code = main(
            ["eval", "linear-probe", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out), "--probe-epochs", "20", "--seed", "3"],
        )
        assert code == 0
        rep = json.loads((out / "reports.jsonl").read_text())
        assert rep["task"] == "linear_probe" and rep["n"] == 24
        assert 0.0 <= rep["metrics"]["probe_acc"] <= 1.0

    def test_eval_few_shot_writes_report_with_ci(self, pipeline):
        out = pipeline / "fs"
        code = main(
            ["eval", "few-shot", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out),
             "--way", "3", "--shot", "2", "--episodes", "10", "--seed", "3"],
        )
        assert code == 0
        rep = json.loads((out / "reports.jsonl").read_text())
        assert rep["task"] == "few_shot" and rep["n"] == 10
        assert 0.0 <= rep["metrics"]["episode_acc"] <= 1.0
        assert rep["ci95"] >= 0.0

    @pytest.mark.parametrize("command", ["zero-shot", "retrieval", "linear-probe", "few-shot"])
    def test_eval_image_forwards_take_at_most_32_rows(self, pipeline, tmp_path, monkeypatch, command):
        """Every eval embeds its images 32 per forward, however many it reads."""
        data = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--per-class", "16", "--out", str(data), "--seed", "3"]) == 0
        rows = []
        encode = TwoTowerModel.encode_image

        def counted(self, images, *args, **kwargs):
            rows.append(len(images))
            return encode(self, images, *args, **kwargs)

        monkeypatch.setattr(TwoTowerModel, "encode_image", counted)
        extra = {
            "zero-shot": ["--holdout-fraction", "0.8"],
            "retrieval": ["--holdout-fraction", "0.8"],
            "linear-probe": ["--probe-epochs", "2"],
            "few-shot": ["--way", "3", "--shot", "2", "--episodes", "2"],
        }[command]
        code = main(
            ["eval", command, "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(data),
             "--out", str(tmp_path / "out"), "--seed", "3", *extra],
        )
        assert code == 0
        assert sum(rows) > 32 and max(rows) <= 32, rows

    def test_inflate_inherited_tensors_hash_match_source(self, pipeline):
        out = pipeline / "video"
        code = main(
            ["inflate", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--temporal-kernel", "2", "--frames", "4", "--out", str(out)],
        )
        assert code == 0
        src, _ = load_checkpoint(pipeline / "run/ckpt-final")
        dst, manifest = load_checkpoint(out / "video-tower")
        assert manifest["video"] == {"temporal_kernel": 2, "frames": 4}
        transformed = {"image.patch_embed.w"} | {k for k in src if k.startswith("image.merge") and k.endswith(".w")}
        for name, arr in src.items():
            if name.startswith("__opt_") or name in transformed:
                continue
            assert dst[name].shape == arr.shape and dst[name].tobytes() == arr.tobytes(), name

    @pytest.mark.parametrize(
        "command",
        ["synth", "curate", "train", "eval zero-shot", "eval retrieval",
         "eval linear-probe", "eval few-shot", "eval regions", "inflate", "memory-report",
         "duplicate-captions"],
    )
    def test_manifest_records_command_seed_inputs_and_artifacts(self, pipeline, tmp_path, command):
        data, ckpt, out = pipeline / "data", pipeline / "run/ckpt-final", tmp_path / "out"
        first = json.loads((data / "records.jsonl").read_text().splitlines()[0])
        boxes = tmp_path / "boxes.jsonl"
        boxes.write_text(json.dumps({"image_id": first["id"], "x0": 0, "y0": 0, "x1": 16, "y1": 16}) + "\n")
        image = data / first["image"]
        eval_args = ["--checkpoint", str(ckpt), "--data", str(data), "--out", str(out), "--seed", "3"]
        extra = {
            "eval linear-probe": ["--probe-epochs", "5"],
            "eval few-shot": ["--way", "3", "--shot", "2", "--episodes", "4"],
            "eval regions": ["--image", str(image), "--boxes", str(boxes)],
        }
        report = (out, 3, [data / "records.jsonl"], [out / "reports.jsonl"])
        expected = {  # command -> (out dir, seed, inputs, artifacts)
            "synth": (data, 3, [], [data / "records.jsonl", data / "classes.txt", data / "images"]),
            "curate": (
                pipeline / "cur", 3, [data / "records.jsonl"],
                [pipeline / "cur" / name for name in ("triplets.jsonl", "removals.jsonl", "stats.json")],
            ),
            "train": (
                pipeline / "run", 3, [pipeline / "cur/triplets.jsonl"],
                [pipeline / "run" / name for name in ("metrics.jsonl", "ckpt-stage1", "ckpt-stage2", "ckpt-final")],
            ),
            "eval zero-shot": report,
            "eval retrieval": report,
            "eval linear-probe": report,
            "eval few-shot": report,
            "eval regions": (out, 3, [boxes, image], [out / "region_labels.jsonl"]),
            "inflate": (out, 0, [ckpt / "manifest.json"], [out / "video-tower"]),
            "memory-report": (out, None, [pipeline / "cur/triplets.jsonl"], [out / "memory_report.json"]),
            "duplicate-captions": (out, [3], [], [out / "duplicate_caption_advantage.json"]),
        }
        argvs = {
            "inflate": ["--checkpoint", str(ckpt), "--temporal-kernel", "1", "--frames", "2", "--out", str(out)],
            "memory-report": [
                "--triplets", str(pipeline / "cur/triplets.jsonl"), "--batch-size", "8", "--chunks", "8,4,2",
                "--out", str(out),
            ],
            # one seed, and enough records per class for a stage-2 batch of 32
            "duplicate-captions": [
                "--seeds", "3", "--classes", "4", "--per-class", "32", "--stage1-steps", "8",
                "--stage2-steps", "3", "--out", str(out),
            ],
        }
        # synth, curate and train already ran in the `pipeline` fixture
        if command.startswith("eval"):
            assert main(["eval", command.split()[1], *eval_args, *extra.get(command, [])]) == 0
        elif command in argvs:
            assert main([command, *argvs[command]]) == 0
        out_dir, seed, inputs, artifacts = expected[command]
        manifest = json.loads((out_dir / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["seed"] == seed
        assert manifest["input_hashes"] == {str(p): _sha(p) for p in inputs}
        assert manifest["artifacts"] == [str(a) for a in artifacts]
        assert manifest["wall_clock_s"] > 0
        if command == "memory-report":
            # activation_profile's exact counts for the fixture's first 8 triplets
            # when it still chose monolithic vs gradient cache on its own; the
            # report must keep them now that it runs the trainer's dispatch
            assert json.loads((out / "memory_report.json").read_text())["peaks"] == [
                {"chunk": 8, "plain": 1309765, "checkpointed": 453829},
                {"chunk": 4, "plain": 737960, "checkpointed": 268328},
                {"chunk": 2, "plain": 452570, "checkpointed": 176090},
            ]

    @pytest.mark.parametrize(
        "flags, named",
        [(["--batch-size", "8", "--chunks", "3"], "chunk_size 3"), (["--batch-size", "100000"], "--batch-size 100000")],
    )
    def test_memory_report_rejects_bad_batch_or_chunk_by_value(self, pipeline, tmp_path, capsys, flags, named):
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), *flags, "--out", str(tmp_path / "mem")]
        assert main(["memory-report", *argv]) == 2
        assert named in capsys.readouterr().err

    def test_commands_do_not_mutate_inputs(self, pipeline, tmp_path):
        before = _sha(pipeline / "data/records.jsonl")
        main(["curate", "--records", str(pipeline / "data/records.jsonl"),
              "--out", str(tmp_path / "cur2"), "--seed", "9"])
        assert _sha(pipeline / "data/records.jsonl") == before

    def test_rerun_gives_identical_artifact_hashes(self, pipeline, tmp_path):
        for target in ("a", "b"):
            main(["synth", "--classes", "3", "--per-class", "8", "--out", str(tmp_path / target), "--seed", "3"])
            main(
                ["curate", "--records", str(tmp_path / target / "records.jsonl"),
                 "--out", str(tmp_path / target / "cur"), "--seed", "3"],
            )
        assert _sha(tmp_path / "a/records.jsonl") == _sha(tmp_path / "b/records.jsonl")
        assert _sha(tmp_path / "a/cur/triplets.jsonl") == _sha(tmp_path / "b/cur/triplets.jsonl")
        ref = json.loads((tmp_path / "a/records.jsonl").read_text().splitlines()[0])
        img_name = ref["image"].split("/")[-1]
        assert _sha(tmp_path / f"a/images/{img_name}") == _sha(tmp_path / f"b/images/{img_name}")

    @pytest.mark.parametrize("fraction", ["-0.5", "1.0"])
    def test_train_rejects_holdout_fraction_outside_unit_interval(self, pipeline, tmp_path, capsys, fraction):
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(tmp_path / "run"),
             "--stage1-steps", "1", "--stage2-steps", "0", "--batch-size", "8", "--chunk-size", "4",
             "--warmup-steps", "0", "--holdout-fraction", fraction],
        )
        assert code == 2
        assert "holdout fraction must be in [0, 1)" in capsys.readouterr().err

    def test_eval_on_empty_holdout_names_the_split(self, pipeline, tmp_path, capsys):
        code = main(
            ["eval", "zero-shot", "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(pipeline / "data"),
             "--out", str(tmp_path / "zs"), "--holdout-fraction", "0"],
        )
        assert code == 2
        assert "held-out split is empty" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--way", "--shot", "--episodes"])
    def test_few_shot_rejects_argument_below_one_by_name(self, pipeline, tmp_path, capsys, flag):
        args = {"--way": "3", "--shot": "2", "--episodes": "10"} | {flag: "0"}
        code = main(
            ["eval", "few-shot", "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(pipeline / "data"),
             "--out", str(tmp_path / "fs"), *[item for pair in args.items() for item in pair]],
        )
        assert code == 2
        assert f"{flag[2:]} must be >= 1, got 0" in capsys.readouterr().err

    def test_train_names_a_stage_pool_smaller_than_the_batch(self, pipeline, tmp_path, capsys):
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(tmp_path / "run"),
             "--stage1-steps", "2", "--stage2-steps", "0", "--batch-size", "64", "--chunk-size", "16",
             "--warmup-steps", "1"],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stage1 pool holds" in err and "triplets, fewer than batch_size 64" in err

    @pytest.mark.parametrize("size", [30, 48])
    def test_train_rejects_high_res_size_before_training(self, pipeline, tmp_path, capsys, size):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"high_res_steps": 1, "high_res_size": size}))
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(tmp_path / "run"),
             "--config", str(cfg), "--stage1-steps", "1", "--stage2-steps", "1",
             "--batch-size", "8", "--chunk-size", "4", "--warmup-steps", "1"],
        )
        assert code == 2
        assert f"high_res_size {size}" in capsys.readouterr().err
        assert not (tmp_path / "run/metrics.jsonl").exists()

    def test_train_rejects_a_resume_past_its_planned_steps(self, pipeline, tmp_path, capsys):
        """Resuming a 3/2/3-step run from ckpt-step-6 with no high-res phase
        (5 planned steps) exits 2 and leaves the run's files as they were."""
        run = tmp_path / "run"
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(run),
                "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4",
                "--warmup-steps", "1", "--checkpoint-every", "2", "--seed", "3"]
        assert main(["train", *argv, "--high-res-steps", "3"]) == 0
        kept = [run / "metrics.jsonl", *sorted((run / "ckpt-final").iterdir())]
        before = [p.read_bytes() for p in kept]
        capsys.readouterr()
        code = main(["train", *argv, "--high-res-steps", "0", "--resume", str(run / "ckpt-step-6")])
        assert code == 2
        assert "checkpoint step 6 is past the run's planned_steps 5" in capsys.readouterr().err
        assert [p.read_bytes() for p in kept] == before
        assert sorted((run / "ckpt-final").iterdir()) == kept[1:]

    def test_train_refuses_a_warmup_as_long_as_the_run_before_opening_out(self, pipeline, tmp_path, capsys):
        """The default 50 warm-up steps over a 5-step run: nothing is left behind."""
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(tmp_path / "run"),
             "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4"],
        )
        assert code == 2
        assert "warmup_steps 50 must be smaller than total_steps 5" in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_refused_in_place_resume_keeps_every_metrics_record(self, pipeline, tmp_path, capsys):
        """A resume whose --config shortens the schedule below its warm-up
        exits 2 before metrics.jsonl is reopened."""
        run = tmp_path / "run"
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(run),
                "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4",
                "--warmup-steps", "1", "--checkpoint-every", "2", "--seed", "3"]
        assert main(["train", *argv]) == 0
        before = (run / "metrics.jsonl").read_bytes()
        assert len(before.splitlines()) == 5
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"total_steps": 1}))
        capsys.readouterr()
        assert main(["train", *argv, "--config", str(cfg), "--resume", str(run / "ckpt-step-2")]) == 2
        assert "warmup_steps 1 must be smaller than total_steps 1" in capsys.readouterr().err
        assert (run / "metrics.jsonl").read_bytes() == before

    def test_in_place_resume_names_a_torn_metrics_line_and_keeps_the_file(self, pipeline, tmp_path, capsys):
        """A run cut while writing step 3's record: resuming from ckpt-step-2
        exits 2 naming the torn line before metrics.jsonl is reopened."""
        run = tmp_path / "run"
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(run),
                "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4",
                "--warmup-steps", "1", "--checkpoint-every", "2", "--seed", "3"]
        assert main(["train", *argv]) == 0
        lines = (run / "metrics.jsonl").read_bytes().splitlines(keepends=True)
        torn = b"".join(lines[:3]) + lines[3][:25]
        (run / "metrics.jsonl").write_bytes(torn)
        capsys.readouterr()
        assert main(["train", *argv, "--resume", str(run / "ckpt-step-2")]) == 2
        assert "metrics.jsonl line 4: invalid JSON" in capsys.readouterr().err
        assert (run / "metrics.jsonl").read_bytes() == torn

    def test_resume_on_another_zero_worker_count_matches_an_uninterrupted_run(self, pipeline, tmp_path):
        """A checkpoint holds the merged optimizer state, so a 1-worker run
        resumed in place on 3 workers ends byte-equal to a 3-worker run."""
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"),
                "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4",
                "--warmup-steps", "1", "--checkpoint-every", "2", "--seed", "3"]
        resumed, direct = tmp_path / "w1", tmp_path / "w3"
        assert main(["train", *argv, "--out", str(resumed), "--zero-workers", "1"]) == 0
        kept = (resumed / "metrics.jsonl").read_bytes().splitlines(keepends=True)[:2]
        code = main(
            ["train", *argv, "--out", str(resumed), "--zero-workers", "3", "--resume", str(resumed / "ckpt-step-2")]
        )
        assert code == 0
        # the records before the checkpoint's step are written back byte for byte
        assert (resumed / "metrics.jsonl").read_bytes().splitlines(keepends=True)[:2] == kept
        assert main(["train", *argv, "--out", str(direct), "--zero-workers", "3"]) == 0
        bins = sorted(p.name for p in (direct / "ckpt-final").glob("*.bin"))
        assert bins and bins == sorted(p.name for p in (resumed / "ckpt-final").glob("*.bin"))
        for name in bins:
            assert (resumed / "ckpt-final" / name).read_bytes() == (direct / "ckpt-final" / name).read_bytes(), name

        def masked(run):
            return [{**json.loads(line), "step_time_s": None} for line in open(run / "metrics.jsonl")]

        assert masked(resumed) == masked(direct)
        assert [row["step"] for row in masked(resumed)] == list(range(5))

    def test_refused_command_removes_only_the_out_it_created(self, pipeline, tmp_path):
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), "--resume", str(tmp_path / "no-such-ckpt")]
        assert main(["train", *argv, "--out", str(tmp_path / "new/sub")]) == 2
        assert not (tmp_path / "new").exists()
        (tmp_path / "old").mkdir()
        assert main(["train", *argv, "--out", str(tmp_path / "old")]) == 2
        assert (tmp_path / "old").is_dir()

    def test_resume_names_the_checkpoint_whose_train_config_is_stale(self, pipeline, tmp_path, capsys):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline / "run/ckpt-final", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["train_config"]["beta1"] = 0.9
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), "--resume", str(ckpt), "--out", str(tmp_path / "o")]
        assert main(["train", *argv]) == 2
        err = capsys.readouterr().err
        assert f"checkpoint {ckpt}: its stored train_config" in err and "['beta1']" in err

    def test_duplicate_captions_names_a_stage_with_no_full_batch(self, tmp_path, capsys):
        """Two classes of 32 leave stage 2 (augmented records excluded) short
        of one batch of 32."""
        code = main(
            ["duplicate-captions", "--classes", "2", "--per-class", "32", "--stage1-steps", "8", "--stage2-steps", "3",
             "--out", str(tmp_path / "dc")],
        )
        assert code == 2
        err = capsys.readouterr().err
        assert "stage2 pool holds" in err and "triplets, fewer than batch_size 32" in err

    def test_duplicate_captions_runs_shorter_than_its_warmup(self, tmp_path):
        argv = ["--seeds", "3", "--classes", "4", "--per-class", "32", "--stage1-steps", "1", "--stage2-steps", "1"]
        assert main(["duplicate-captions", *argv, "--out", str(tmp_path / "dc")]) == 0

    def test_holdout_fraction_only_on_evals_that_hold_out(self, capsys):
        """zero-shot and retrieval score a held-out split and linear-probe
        splits its fit; few-shot and regions take no such flag."""
        accepted = []
        for command, extra in (
            ("zero-shot", []), ("retrieval", []), ("linear-probe", []), ("few-shot", []),
            ("regions", ["--image", "image.bin", "--boxes", "boxes.jsonl"]),
        ):
            argv = ["eval", command, "--checkpoint", "ckpt", "--data", "data", "--out", "out", *extra]
            try:
                args = build_parser().parse_args([*argv, "--holdout-fraction", "0.3"])
            except SystemExit:
                assert "unrecognized arguments: --holdout-fraction" in capsys.readouterr().err
                continue
            assert args.holdout_fraction == 0.3
            accepted.append(command)
        assert accepted == ["zero-shot", "retrieval", "linear-probe"]

    def test_unknown_command_fails(self):
        with pytest.raises(SystemExit):
            main(["frobnicate"])

    def test_missing_input_reports_error(self, tmp_path):
        code = main(["curate", "--records", str(tmp_path / "missing.jsonl"), "--out", str(tmp_path / "o")])
        assert code == 2


def _python(*argv, threads="1"):
    """Start `python *argv` on this checkout's src with the given BLAS thread count."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_pipeline_writes_the_same_bytes_across_out_roots_and_blas_threads(tmp_path):
    """tests/digest.py's ten-command pipeline, run in two processes with
    different --out roots and BLAS thread counts, gives the same per-file
    sha256 table once wall times and the root prefix are masked."""
    digest = str(Path(__file__).with_name("digest.py"))
    procs = [_python(digest, str(tmp_path / "a"), threads="1"), _python(digest, str(tmp_path / "bb"), threads="2")]
    outs = [p.communicate(timeout=300) for p in procs]
    for p, (_, err) in zip(procs, outs):
        assert p.returncode == 0, err
    tables = [stdout.splitlines() for stdout, _ in outs]
    assert tables[0][-1].endswith("  <root>")
    assert any(line.endswith("  gcache/ckpt-final/manifest.json") for line in tables[0])
    assert tables[0] == tables[1]


_FAULT_PROBE = """
import sys
from florence_mini import cli
if not cli._keep_freed_memory():
    print("no mallopt")
    sys.exit(0)
import resource
import numpy as np
from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary, tokenize_batch
from florence_mini.trainer import TrainConfig
from florence_mini.trainer.loop import compute_gradients

texts = [f"a photo of class {i % 4}" for i in range(16)]
model_config = ModelConfig(image_size=64)
model = TwoTowerModel.create(model_config, build_vocabulary(texts, max_len=model_config.max_len), seed=0)
images = np.random.default_rng(0).random((16, 64, 64, 3))
ids, labels = tokenize_batch(texts, model.vocab), np.arange(16) % 4
config = TrainConfig(model=model_config, batch_size=16, chunk_size=16, activation_checkpointing=True)
compute_gradients(model, images, ids, labels, config)  # warm-up: the heap grows to its working size
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(2):
    compute_gradients(model, images, ids, labels, config)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 2)
"""


class TestAllocator:
    def test_freed_tape_memory_is_reused_without_page_faults(self):
        """With glibc's dynamic thresholds a 64 px, batch-16 checkpointed
        step faults about 32,000 pages back in; with the fixed thresholds
        the buffers a backward frees are reused."""
        proc = _python("-c", _FAULT_PROBE)
        stdout, stderr = proc.communicate(timeout=300)
        assert proc.returncode == 0, stderr
        if stdout.strip() == "no mallopt":
            pytest.skip("the C library has no mallopt")
        assert float(stdout) < 1000

    @pytest.mark.parametrize("error", [None, OSError, TypeError], ids=["no-mallopt", "cdll-oserror", "cdll-typeerror"])
    def test_without_mallopt_the_helper_does_nothing_and_commands_run(self, monkeypatch, tmp_path, error):
        """A C library without mallopt (macOS), or a CDLL(None) that raises
        (Windows gives TypeError), leaves the allocator as it is."""

        def cdll(name):
            if error:
                raise error("no C library")
            return types.SimpleNamespace()

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert cli._keep_freed_memory() is False
        assert main(["synth", "--classes", "2", "--per-class", "2", "--out", str(tmp_path / "data")]) == 0
