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
from florence_mini.curation import read_triplets_jsonl
from florence_mini.curation import records as record_io
from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary
from florence_mini.evaluation.embed import EVAL_CHUNK
from florence_mini.imaging import resize_bilinear
from florence_mini.numerics import (
    init_optimizer_state,
    load_checkpoint,
    read_tensor_file,
    save_checkpoint,
    write_tensor_file,
)
from florence_mini.trainer import TrainConfig, prepare_batch, train_step

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

    @pytest.mark.parametrize(
        "content, named",
        [
            ([1, 2], "config {cfg} must hold a JSON object, got list"),
            ({"model": [1]}, "train config key 'model' must be a JSON object, got list"),
            ({"model": {"window": 0}}, "window must be >= 1, got 0"),
            ({"model": {"patch_kernel": 0}}, "patch_kernel must be >= 1, got 0"),
            ({"model": {"stage_heads": [0, 2]}}, "stage_heads[0] must be >= 1, got 0"),
            ({"batch_size": 1}, "batch_size must be >= 2, got 1"),
            ({"peak_lr": float("inf")}, "peak_lr must be finite and > 0, got inf"),
        ],
    )
    def test_train_refuses_a_bad_config_file_and_leaves_no_out(self, tmp_path, capsys, content, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(content))
        out = tmp_path / "run"
        code = main(["train", "--triplets", str(tmp_path / "triplets.jsonl"), "--config", str(cfg), "--out", str(out)])
        assert code == 2 and not out.exists()
        assert named.format(cfg=cfg) in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, named",
        [
            ({"tau_init": 0}, "tau_init must be finite and > 0, got 0"),
            ({"tau_init": float("nan")}, "tau_init must be finite and > 0, got nan"),
            ({"dtype": "float16"}, "dtype must be 'float32' or 'float64', got 'float16'"),
            ({"stage_depths": [], "stage_widths": [], "stage_heads": []}, "must hold at least one stage"),
        ],
    )
    def test_train_refuses_a_model_it_cannot_run_and_leaves_no_out(self, tmp_path, capsys, model, named):
        """These used to start and fail later, with exit 1 and a traceback."""
        self.test_train_refuses_a_bad_config_file_and_leaves_no_out(tmp_path, capsys, {"model": model}, named)

    @pytest.mark.parametrize(
        "content, named",
        [
            ({"model": {"window": "4"}}, "window must be an integer, got '4'"),
            ({"model": {"tau_init": "x"}}, "tau_init must be a number, got 'x'"),
            ({"batch_size": "64"}, "batch_size must be an integer, got '64'"),
            ({"batch_size": True}, "batch_size must be an integer, got True"),
            ({"model": {"window": 4.0}}, "window must be an integer, got 4.0"),
            ({"model": {"stage_depths": 2}}, "stage_depths must be a list of integers, got 2"),
            ({"total_steps": "9"}, "total_steps must be an integer or null, got '9'"),
            ({"activation_checkpointing": 1}, "activation_checkpointing must be a boolean, got 1"),
        ],
    )
    def test_train_refuses_a_value_of_the_wrong_type_and_leaves_no_out(self, tmp_path, capsys, content, named):
        """These used to exit 1 with a ``TypeError`` traceback."""
        self.test_train_refuses_a_bad_config_file_and_leaves_no_out(tmp_path, capsys, content, named)

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

    def test_eval_retrieval_rejects_k_past_the_held_out_count_and_leaves_no_out(self, pipeline, tmp_path, capsys):
        """The fixture holds out 5 images, so R@10 would be 1.0 by construction."""
        out = tmp_path / "ret"
        code = main(
            ["eval", "retrieval", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(pipeline / "data"), "--out", str(out), "--ks", "1,5,10"],
        )
        assert code == 2
        assert "k=10 exceeds the 5 candidates" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage",
        ["oversized container header", "v1 manifest", "torn manifest", "list manifest", "manifest without tensors"],
    )
    def test_eval_exits_2_on_a_damaged_or_v1_checkpoint(self, pipeline, tmp_path, capsys, damage):
        ckpt, out = tmp_path / "ckpt", tmp_path / "zs"
        shutil.copytree(pipeline / "run/ckpt-final", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        if damage == "v1 manifest":
            (ckpt / "manifest.json").write_text(json.dumps({**manifest, "format": "florence-mini-checkpoint-v1"}))
            named = "checkpoint format 'florence-mini-checkpoint-v1'"
        elif damage == "torn manifest":
            raw = (ckpt / "manifest.json").read_text()
            (ckpt / "manifest.json").write_text(raw[: len(raw) // 2])
            named = f"{ckpt / 'manifest.json'}: not valid JSON"
        elif damage == "list manifest":
            (ckpt / "manifest.json").write_text("[1, 2]")
            named = f"{ckpt / 'manifest.json'}: holds a JSON list, not an object"
        elif damage == "manifest without tensors":
            del manifest["tensors"]
            (ckpt / "manifest.json").write_text(json.dumps(manifest))
            named = f'{ckpt / "manifest.json"}: no "tensors" object'
        else:
            header = b"FMT1" + bytes([1]) + (3).to_bytes(4, "little") + (2**32 - 1).to_bytes(4, "little") * 3
            (ckpt / "float64.bin").write_bytes(header + bytes(16))
            named = f"{ckpt / 'float64.bin'}: truncated payload"
        code = main(
            ["eval", "zero-shot", "--checkpoint", str(ckpt), "--data", str(pipeline / "data"), "--out", str(out)]
        )
        assert code == 2
        assert named in capsys.readouterr().err
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
        """Every eval reads its images from disk and embeds them 32 at a
        time, however many it scores: no load reads the whole split."""
        data = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--per-class", "16", "--out", str(data), "--seed", "3"]) == 0
        rows, loads = [], []
        encode, load = TwoTowerModel.encode_image, record_io.load_images

        def counted(self, images, *args, **kwargs):
            rows.append(len(images))
            return encode(self, images, *args, **kwargs)

        def counted_load(paths, *args, **kwargs):
            loads.append(len(paths))
            return load(paths, *args, **kwargs)

        monkeypatch.setattr(TwoTowerModel, "encode_image", counted)
        monkeypatch.setattr(record_io, "load_images", counted_load)
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
        assert sum(rows) > EVAL_CHUNK and max(rows) <= EVAL_CHUNK, rows
        assert sum(loads) == sum(rows) and max(loads) <= EVAL_CHUNK, loads

    def test_eval_exits_2_naming_a_truncated_image_past_the_first_chunk(self, pipeline, tmp_path, capsys):
        """The split's last image is read in its second chunk, after the
        first has been embedded; the command still fails by that file's
        name and leaves no --out."""
        data = tmp_path / "data"
        assert main(["synth", "--classes", "3", "--per-class", "16", "--out", str(data), "--seed", "3"]) == 0
        last = json.loads((data / "records.jsonl").read_text().splitlines()[-1])
        image = (data / last["image"]).resolve()
        raw = image.read_bytes()
        image.write_bytes(raw[: len(raw) - 7])
        out = tmp_path / "out"
        code = main(
            ["eval", "linear-probe", "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(data),
             "--out", str(out), "--seed", "3", "--probe-epochs", "2"],
        )
        assert code == 2
        assert f"{image}: truncated payload" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("extent", [(32, 48), (48, 32)], ids=["wide", "tall"])
    def test_eval_resizes_non_square_images_to_the_model_side(self, pipeline, tmp_path, extent):
        """Images stored 32 x 48 or 48 x 32 are scored as the model's 32 x
        32 input, as a square image of another side is."""
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        for line in (data / "records.jsonl").read_text().splitlines():
            image = data / json.loads(line)["image"]
            img = read_tensor_file(image)
            write_tensor_file(image, resize_bilinear(img, *extent))
        code = main(
            ["eval", "zero-shot", "--checkpoint", str(pipeline / "run/ckpt-final"),
             "--data", str(data), "--out", str(tmp_path / "out"), "--seed", "3"],
        )
        assert code == 0
        rep = json.loads((tmp_path / "out/reports.jsonl").read_text())
        assert 0.0 <= rep["metrics"]["top1_acc"] <= 1.0

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
        assert sorted(p.name for p in (out / "video-tower").iterdir()) == ["float64.bin", "manifest.json"]
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
            "eval regions": (out, 3, [data / "records.jsonl", boxes, image], [out / "region_labels.jsonl"]),
            "inflate": (out, None, [ckpt / "manifest.json"], [out / "video-tower"]),
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
            # exact counts for the fixture's first 8 triplets through the
            # trainer's dispatch, with each pre-norm sublayer one tape op
            # that saves the normalized input, not the norm's output, and
            # rebuilds the tanh, q, k, v and the merged heads in backward;
            # chunked, the gradient cache holds one tower's chunk tape at a
            # time; checkpointed, a stage's convolution runs inside its first
            # block's segment, which saves the stage input and no conv output
            assert json.loads((out / "memory_report.json").read_text())["peaks"] == [
                {"chunk": 8, "plain": 528197, "checkpointed": 218821},
                {"chunk": 4, "plain": 243204, "checkpointed": 104612},
                {"chunk": 2, "plain": 170594, "checkpointed": 87544},
            ]

    @pytest.mark.parametrize(
        "flags, named",
        [(["--batch-size", "8", "--chunks", "3"], "chunk_size 3"), (["--batch-size", "100000"], "--batch-size 100000")],
    )
    def test_memory_report_rejects_bad_batch_or_chunk_by_value(self, pipeline, tmp_path, capsys, flags, named):
        argv = ["--triplets", str(pipeline / "cur/triplets.jsonl"), *flags, "--out", str(tmp_path / "mem")]
        assert main(["memory-report", *argv]) == 2
        assert named in capsys.readouterr().err

    def test_memory_report_peaks_equal_the_train_step_peaks(self, pipeline, tmp_path):
        """The memory report measures the gradient step that `train` runs:
        for its model (default config, seed 0) and batch (the first
        --batch-size triplets), each peak it writes is `train_step`'s
        peak_activation_scalars, at chunk = batch and chunk < batch, plain
        and checkpointed."""
        triplets_path, out = pipeline / "cur/triplets.jsonl", tmp_path / "mem"
        argv = ["--triplets", str(triplets_path), "--batch-size", "8", "--chunks", "8,4", "--out", str(out)]
        assert main(["memory-report", *argv]) == 0
        rows = json.loads((out / "memory_report.json").read_text())["peaks"]
        assert [row["chunk"] for row in rows] == [8, 4]
        triplets = read_triplets_jsonl(triplets_path)
        vocab = build_vocabulary([t.text for t in triplets], max_len=ModelConfig().max_len)
        images, ids, labels, record_ids = prepare_batch(triplets[:8], vocab, ModelConfig().dtype)
        for row in rows:
            for column, checkpointing in (("plain", False), ("checkpointed", True)):
                model = TwoTowerModel.create(ModelConfig(), vocab, seed=0)
                config = TrainConfig(batch_size=8, chunk_size=row["chunk"], activation_checkpointing=checkpointing)
                state = init_optimizer_state(model.param_arrays(), lr=1e-3)
                _, metrics = train_step(model, images, ids, labels, record_ids, state, config, 1e-3)
                assert metrics["peak_activation_scalars"] == row[column], (row["chunk"], column)

    @pytest.mark.parametrize(
        "command, flag",
        [("eval retrieval", "--ks"), ("memory-report", "--chunks"), ("duplicate-captions", "--seeds")],
    )
    def test_a_comma_list_entry_that_is_no_integer_is_refused_naming_the_flag(
        self, pipeline, tmp_path, capsys, command, flag
    ):
        out = tmp_path / "out"
        argv = {
            "eval retrieval": ["eval", "retrieval", "--checkpoint", str(pipeline / "run/ckpt-final"),
                               "--data", str(pipeline / "data")],
            "memory-report": ["memory-report", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--batch-size", "8"],
            "duplicate-captions": ["duplicate-captions"],
        }[command]
        assert main([*argv, flag, "4,a", "--out", str(out)]) == 2
        assert f"error: {flag} takes comma-separated integers, got '4,a'" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize(
        "command, source",
        [
            *(pytest.param(command, None, id=command) for command in ("zero-shot", "linear-probe", "few-shot", "retrieval")),
            *(
                pytest.param(command, source, id=f"{command}-{source}")
                for command in ("zero-shot", "linear-probe", "few-shot")
                for source in ("index-past-end", "negative-index", "wrong-word", "word-index")
            ),
        ],
    )
    def test_labelled_evals_name_a_record_without_a_class(self, pipeline, tmp_path, capsys, command, source):
        """`source` is optional in records.jsonl, and only a synthetic
        record's names its class. An eval that scores by class refuses the
        first record it would score without one (or with an index that is
        not an integer), or whose ``class:i:word`` names no class of
        classes.txt: ``i`` outside it, or ``word`` not class ``i``'s name.
        Retrieval reads no labels."""
        data = tmp_path / "data"
        shutil.copytree(pipeline / "data", data)
        classes = (data / "classes.txt").read_text().split()
        sources = {
            None: None,
            "index-past-end": f"class:{len(classes)}:{classes[0]}",
            "negative-index": f"class:-1:{classes[-1]}",  # classes[-1] would be a name
            "wrong-word": f"class:0:{classes[1]}",
            "word-index": f"class:one:{classes[1]}",
        }
        records = [json.loads(line) for line in (data / "records.jsonl").read_text().splitlines()]
        for d in records:
            d.pop("source", None)
            if sources[source] is not None:
                d["source"] = sources[source]
        (data / "records.jsonl").write_text("".join(json.dumps(d) + "\n" for d in records))
        extra = {"few-shot": ["--way", "3", "--shot", "2", "--episodes", "2"], "linear-probe": ["--probe-epochs", "2"]}
        out = tmp_path / "out"
        code = main(
            ["eval", command, "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(data),
             "--out", str(out), "--seed", "3", *extra.get(command, [])],
        )
        if command == "retrieval":
            assert code == 0 and (out / "reports.jsonl").exists()
            return
        err = capsys.readouterr().err
        assert code == 2 and not out.exists()
        problem = (
            "has no class label" if source in (None, "word-index")
            else f"names class .* \\(source '{re.escape(sources[source])}'\\)"
        )
        named = re.search(rf"{re.escape(str(data / 'records.jsonl'))}: record '(\S+)' {problem}", err)
        assert named, err
        ids = [d["id"] for d in records]
        assert named[1] == ids[0] if command != "zero-shot" else named[1] in ids

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

    @pytest.mark.parametrize("workers", [0, 10**9])
    def test_train_refuses_a_zero_worker_count_outside_the_parameter_scalars_and_leaves_no_out(
        self, pipeline, tmp_path, capsys, workers
    ):
        out = tmp_path / "run"
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(out),
             "--stage1-steps", "1", "--stage2-steps", "0", "--batch-size", "8", "--chunk-size", "4",
             "--warmup-steps", "0", "--zero-workers", str(workers)],
        )
        assert code == 2 and not out.exists()
        assert re.search(rf"zero_workers {workers} must be between 1 and the \d+ parameter scalars", capsys.readouterr().err)

    @pytest.mark.parametrize("lr", ["nan", "0", "-1"])
    def test_train_refuses_a_peak_lr_that_is_not_finite_and_positive_and_leaves_no_out(
        self, pipeline, tmp_path, capsys, lr
    ):
        """A non-finite rate used to train one step and abort with exit 1; a
        non-positive one was refused as `lr must be positive`, naming no field."""
        out = tmp_path / "run"
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(out),
             "--stage1-steps", "1", "--stage2-steps", "0", "--batch-size", "8", "--chunk-size", "4",
             "--warmup-steps", "0", "--peak-lr", lr],
        )
        assert code == 2 and not out.exists()
        assert f"peak_lr must be finite and > 0, got {float(lr)}" in capsys.readouterr().err

    def test_train_refuses_a_negative_warmup_and_leaves_no_out(self, pipeline, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--out", str(out),
             "--stage1-steps", "3", "--stage2-steps", "0", "--batch-size", "4", "--chunk-size", "2",
             "--warmup-steps", "-2"],
        )
        assert code == 2 and not out.exists()
        assert "warmup_steps must be >= 0, got -2" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flag, value, named",
        [
            ("--image-side", "0", "image_side must be >= 1, got 0"),
            ("--per-class", "0", "per_class must be >= 1, got 0"),
            ("--noise-sigma", "-1", "noise_sigma must be >= 0, got -1.0"),
            ("--word-fraction", "2", "word_caption_fraction must be in [0, 1], got 2.0"),
        ],
    )
    def test_synth_refuses_unusable_data_and_leaves_no_out(self, tmp_path, capsys, flag, value, named):
        out = tmp_path / "data"
        assert main(["synth", "--classes", "2", "--per-class", "2", flag, value, "--out", str(out)]) == 2
        assert not out.exists()
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize(
        "model, named",
        [({"shared_dim": 0}, "shared_dim must be >= 1, got 0"), ({"stage_depths": [-1, 2]}, "stage_depths[0] must be >= 0, got -1")],
    )
    def test_train_refuses_a_model_size_below_its_bound_and_leaves_no_out(self, pipeline, tmp_path, capsys, model, named):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"model": model}))
        out = tmp_path / "run"
        code = main(
            ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--config", str(cfg), "--out", str(out),
             "--stage1-steps", "1", "--stage2-steps", "0", "--batch-size", "8", "--chunk-size", "4",
             "--warmup-steps", "0"],
        )
        assert code == 2 and not out.exists()
        assert named in capsys.readouterr().err

    def test_eval_linear_probe_refuses_a_holdout_fraction_outside_unit_interval(self, pipeline, tmp_path, capsys):
        out = tmp_path / "lp"
        code = main(
            ["eval", "linear-probe", "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(pipeline / "data"),
             "--out", str(out), "--holdout-fraction", "-0.5"],
        )
        assert code == 2 and not out.exists()
        assert "holdout_fraction must be in (0, 1), got -0.5" in capsys.readouterr().err

    def test_eval_linear_probe_refuses_zero_probe_epochs(self, pipeline, tmp_path, capsys):
        out = tmp_path / "lp"
        code = main(
            ["eval", "linear-probe", "--checkpoint", str(pipeline / "run/ckpt-final"), "--data", str(pipeline / "data"),
             "--out", str(out), "--probe-epochs", "0"],
        )
        assert code == 2 and not out.exists()
        assert "epochs must be >= 1, got 0" in capsys.readouterr().err

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

    @pytest.mark.parametrize("field", ["model_config", "train_config"])
    def test_a_stored_config_that_is_no_json_object_is_refused_naming_the_checkpoint(
        self, pipeline, tmp_path, capsys, field
    ):
        ckpt = tmp_path / "ckpt"
        shutil.copytree(pipeline / "run/ckpt-final", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest[field] = [1, 2]
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "o"
        if field == "model_config":
            argv = ["eval", "zero-shot", "--checkpoint", str(ckpt), "--data", str(pipeline / "data")]
            named = f"checkpoint {ckpt}: its stored model_config cannot be loaded: model config must be a JSON object"
        else:
            argv = ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--resume", str(ckpt)]
            named = f"checkpoint {ckpt}: its stored train_config cannot be resumed: train config must be a JSON object"
        assert main([*argv, "--out", str(out)]) == 2
        assert f"{named}, got list" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key, value, named",
        [
            ("step", "1", "its manifest's step must be a non-negative integer, got '1'"),
            ("step", 1.5, "its manifest's step must be a non-negative integer, got 1.5"),
            ("step", -3, "its manifest's step must be a non-negative integer, got -3"),
            ("step", True, "its manifest's step must be a non-negative integer, got True"),
            ("optimizer_step", "1", "its manifest's optimizer_step must be a non-negative integer, got '1'"),
            ("vocab", 5, "its manifest's vocab must be a list of distinct strings"),
            ("vocab", "repeated", "its manifest's vocab must be a list of distinct strings"),
            ("vocab", "unreserved", "its manifest's vocab cannot be loaded: ids 0..3 are reserved"),
            ("step", None, "its manifest has no 'step'"),
            ("optimizer_step", None, "its manifest has no 'optimizer_step'"),
            ("train_config", None, "its manifest has no 'train_config'"),
            ("model_config", None, "its manifest has no 'model_config'"),
            ("vocab", None, "its manifest has no 'vocab'"),
        ],
        ids=["step-string", "step-float", "step-negative", "step-bool", "optimizer-step-string", "vocab-int",
             "vocab-repeated", "vocab-unreserved", "no-step", "no-optimizer-step", "no-train-config", "no-model-config", "no-vocab"],
    )
    def test_a_bad_manifest_key_is_refused_naming_the_checkpoint_and_the_key(
        self, pipeline, tmp_path, capsys, key, value, named
    ):
        """`train --resume` reads the step keys and train_config, `eval` the
        model_config and vocab; None deletes the key. A repeated token would
        otherwise load and map to its later id; a vocab whose first ids are
        not the reserved markers is refused by Vocabulary."""
        ckpt, out = tmp_path / "ckpt", tmp_path / "o"
        shutil.copytree(pipeline / "run/ckpt-final", ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        if value is None:
            del manifest[key]
        elif value == "repeated":
            manifest["vocab"][-1] = manifest["vocab"][4]
        elif value == "unreserved":
            manifest["vocab"][0], manifest["vocab"][4] = manifest["vocab"][4], manifest["vocab"][0]
        else:
            manifest[key] = value
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        if key in ("model_config", "vocab"):
            argv = ["eval", "zero-shot", "--checkpoint", str(ckpt), "--data", str(pipeline / "data")]
        else:
            # the fixture's own run, so only the manifest can refuse the resume
            argv = ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--resume", str(ckpt),
                    "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4",
                    "--warmup-steps", "1", "--seed", "3"]
        assert main([*argv, "--out", str(out)]) == 2
        assert f"error: checkpoint {ckpt}: {named}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "damage, named",
        [
            ("renamed", "__opt_m__.image.merge0.w must be float64 (2, 2, 32, 64), got no tensor"),
            ("reshaped", "__opt_m__.image.merge0.w must be float64 (2, 2, 32, 64), got float64 (4, 32, 64)"),
            ("float32", "__opt_v__.image.merge0.w must be float64 (2, 2, 32, 64), got float32 (2, 2, 32, 64)"),
        ],
    )
    def test_resume_refuses_an_optimizer_moment_unlike_its_parameter_and_writes_nothing(
        self, pipeline, tmp_path, capsys, damage, named
    ):
        """A renamed moment used to print only its name, a reshaped one to
        exit 2 from the first update after metrics.jsonl was written, and a
        float32 one in a float64 run to train on."""
        ckpt, out = tmp_path / "ckpt", tmp_path / "o"
        tensors, manifest = load_checkpoint(pipeline / "run/ckpt-stage1")
        m, v = "__opt_m__.image.merge0.w", "__opt_v__.image.merge0.w"
        if damage == "renamed":
            tensors["__opt_m__.image.merge0.x"] = tensors.pop(m)
        elif damage == "reshaped":
            tensors[m] = tensors[m].reshape(4, 32, 64)
        else:
            tensors[v] = tensors[v].astype(np.float32)
        save_checkpoint(ckpt, tensors, metadata={k: x for k, x in manifest.items() if k not in ("format", "tensors")})
        # the fixture's own run, resumed with steps left, so only the moment can refuse it
        argv = ["train", "--triplets", str(pipeline / "cur/triplets.jsonl"), "--resume", str(ckpt),
                "--stage1-steps", "3", "--stage2-steps", "2", "--batch-size", "8", "--chunk-size", "4",
                "--warmup-steps", "1", "--seed", "3", "--out", str(out)]
        assert main(argv) == 2
        assert f"error: checkpoint {ckpt}: optimizer moment {named}" in capsys.readouterr().err
        assert not out.exists()

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

    @pytest.mark.parametrize("command", ["curate", "train", "synth"])
    def test_io_errors_exit_2_naming_the_path_and_leave_no_out(self, tmp_path, capsys, command):
        """A directory read as a file, and an --out under a file, exit 2 as
        a missing file does, not with a traceback."""
        (tmp_path / "file").write_text("")
        out = ["--out", str(tmp_path / "o")]
        argv, named = {
            "curate": (["--records", str(tmp_path), *out], tmp_path),
            "train": (["--triplets", str(tmp_path / "t.jsonl"), "--config", str(tmp_path), *out], tmp_path),
            "synth": (["--out", str(tmp_path / "file/x")], tmp_path / "file/x"),
        }[command]
        assert main([command, *argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and f"'{named}'" in err
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_curate_exits_2_on_a_uint8_image(self, tmp_path, capsys):
        image = tmp_path / "img.bin"
        write_tensor_file(image, np.full((32, 32, 3), 254, dtype=np.uint8))
        records = tmp_path / "records.jsonl"
        records.write_text(json.dumps({"id": "r0", "image": "img.bin", "text": "a photo", "source": "x"}) + "\n")
        assert main(["curate", "--records", str(records), "--out", str(tmp_path / "cur")]) == 2
        assert f"error: {image}: image container holds uint8, not float32 or float64" in capsys.readouterr().err
        assert not (tmp_path / "cur").exists()


def _python(*argv, threads="1"):
    """Start `python *argv` on this checkout's src with the given BLAS thread count."""
    env = {**os.environ, "PYTHONPATH": SRC, "OPENBLAS_NUM_THREADS": threads}
    return subprocess.Popen([sys.executable, *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def test_pipeline_writes_the_same_bytes_across_out_roots_and_blas_threads(tmp_path):
    """tests/digest.py's eleven-command pipeline and gradient grid, run in two
    processes with different --out roots and BLAS thread counts, give the
    same sha256 table once wall times and the root prefix are masked."""
    digest = str(Path(__file__).with_name("digest.py"))
    procs = [_python(digest, str(tmp_path / "a"), threads="1"), _python(digest, str(tmp_path / "bb"), threads="2")]
    outs = [p.communicate(timeout=300) for p in procs]
    for p, (_, err) in zip(procs, outs):
        assert p.returncode == 0, err
    tables = [stdout.splitlines() for stdout, _ in outs]
    assert tables[0][-1].endswith("  <root>")
    assert any(line.endswith("  gcache/ckpt-final/manifest.json") for line in tables[0])
    assert any(line.endswith("  regions/region_labels.jsonl") for line in tables[0])
    assert any(line.endswith("  tensors/inflate/video-tower/tau_param float64 []") for line in tables[0])
    assert sum("  gradients/" in line and line.endswith("/loss") for line in tables[0]) == 24
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
