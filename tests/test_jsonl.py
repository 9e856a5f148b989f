"""JSONL artifacts: every reader skips blank lines, reports append, and each
writer's bytes are `json.dumps(row) + "\\n"` per row, which pins key order."""

import json
import re
from pathlib import Path

import pytest

from florence_mini.cli import main
from florence_mini.curation import (
    RemovalReport,
    generate_synthetic_dataset,
    read_records_jsonl,
    read_triplets_jsonl,
    write_records_jsonl,
    write_removal_report_jsonl,
    write_triplets_jsonl,
)
from florence_mini.curation.records import Triplet
from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary
from florence_mini.evaluation import (
    Box,
    EvalReport,
    append_report_jsonl,
    read_boxes_jsonl,
    read_reports_jsonl,
    write_boxes_jsonl,
)
from florence_mini.jsonl import read_jsonl
from florence_mini.numerics.container import save_checkpoint


def _lines(rows) -> str:
    return "".join(json.dumps(row) + "\n" for row in rows)


@pytest.fixture
def corpus(tmp_path):
    """Four synthetic records; their images sit under tmp_path/images."""
    records, names = generate_synthetic_dataset(tmp_path, num_classes=2, per_class=2, seed=1)
    triplets = [
        Triplet(id=r.id, image_path=r.image_path, text=r.text, label=i % 2, augmented=i == 3)
        for i, r in enumerate(records)
    ]
    return records, names, triplets


REPORTS = [
    EvalReport(task="zero_shot", metrics={"top1_acc": 0.5, "top5_acc": 1.0}, n=10, seed=3),
    EvalReport(task="few_shot", metrics={"episode_acc": 0.25}, n=4, seed=0, ci95=0.125),
]
BOXES = [Box("img0", 0, 0, 4, 4), Box("img1", 2, 1, 8, 6)]


class TestWriterBytes:
    def test_records(self, tmp_path, corpus):
        records, _, _ = corpus
        write_records_jsonl(tmp_path / "records.jsonl", records)
        rows = [
            {"id": r.id, "image": f"images/{r.id}.bin", "text": r.text, "source": r.source} for r in records
        ]
        assert (tmp_path / "records.jsonl").read_text() == _lines(rows)

    def test_triplets(self, tmp_path, corpus):
        _, _, triplets = corpus
        write_triplets_jsonl(tmp_path / "triplets.jsonl", triplets)
        rows = [
            {"id": t.id, "image": f"images/{t.id}.bin", "text": t.text, "label": t.label, "augmented": t.augmented}
            for t in triplets
        ]
        assert (tmp_path / "triplets.jsonl").read_text() == _lines(rows)

    def test_removals(self, tmp_path):
        reports = [RemovalReport("b", "a", 3), RemovalReport("c", "a", 0)]
        write_removal_report_jsonl(tmp_path / "removals.jsonl", reports)
        rows = [
            {"removed_id": "b", "kept_id": "a", "hamming_distance": 3},
            {"removed_id": "c", "kept_id": "a", "hamming_distance": 0},
        ]
        assert (tmp_path / "removals.jsonl").read_text() == _lines(rows)

    def test_boxes(self, tmp_path):
        write_boxes_jsonl(tmp_path / "boxes.jsonl", BOXES)
        rows = [
            {"image_id": "img0", "x0": 0, "y0": 0, "x1": 4, "y1": 4},
            {"image_id": "img1", "x0": 2, "y0": 1, "x1": 8, "y1": 6},
        ]
        assert (tmp_path / "boxes.jsonl").read_text() == _lines(rows)

    def test_reports_append_to_an_existing_file(self, tmp_path):
        path = tmp_path / "reports.jsonl"
        append_report_jsonl(path, REPORTS[0])
        first = path.read_text()
        append_report_jsonl(path, REPORTS[1])
        rows = [
            {"task": "zero_shot", "metrics": {"top1_acc": 0.5, "top5_acc": 1.0}, "n": 10, "seed": 3, "ci95": None},
            {"task": "few_shot", "metrics": {"episode_acc": 0.25}, "n": 4, "seed": 0, "ci95": 0.125},
        ]
        assert first == _lines(rows[:1])
        assert path.read_text() == _lines(rows)
        assert read_reports_jsonl(path) == REPORTS

    def test_region_labels(self, tmp_path, corpus):
        records, names, _ = corpus
        (tmp_path / "classes.txt").write_text("\n".join(names) + "\n")
        write_records_jsonl(tmp_path / "records.jsonl", records)
        config = ModelConfig()
        model = TwoTowerModel.create(config, build_vocabulary([r.text for r in records]), seed=0)
        metadata = {"model_config": config.to_dict(), "vocab": model.vocab.to_list()}
        save_checkpoint(tmp_path / "ckpt", model.param_arrays(), metadata=metadata)
        boxes = [Box(records[0].id, 0, 0, 32, 32), Box(records[0].id, 4, 8, 20, 16)]
        write_boxes_jsonl(tmp_path / "boxes.jsonl", boxes)
        out = tmp_path / "reg"
        argv = ["regions", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path),
                "--image", records[0].image_path, "--boxes", str(tmp_path / "boxes.jsonl"), "--out", str(out)]
        assert main(["eval", *argv]) == 0
        text = (out / "region_labels.jsonl").read_text()
        rows = [json.loads(line) for line in text.splitlines()]
        assert [row["box"] for row in rows] == [[0, 0, 32, 32], [4, 8, 20, 16]]
        assert all(sorted(row["ranked_classes"]) == sorted(names) and len(row["scores"]) == 2 for row in rows)
        keyed = [
            {"image_id": r["image_id"], "box": r["box"], "ranked_classes": r["ranked_classes"], "scores": r["scores"]}
            for r in rows
        ]
        assert text == _lines(keyed)


class TestRegionBoxes:
    """A box's coordinates are JSON integers, and ``eval regions`` labels only
    boxes whose image_id is the record of --image."""

    @pytest.mark.parametrize("value", [0.5, 2.0, "0", True], ids=["float", "integral-float", "string", "bool"])
    def test_reader_refuses_a_coordinate_that_is_not_an_integer(self, tmp_path, value):
        path = tmp_path / "boxes.jsonl"
        bad = {"image_id": "img1", "x0": 2, "y0": value, "x1": 8, "y1": 6}
        path.write_text(_lines([{"image_id": "img0", "x0": 0, "y0": 0, "x1": 4, "y1": 4}]) + "\n" + _lines([bad]))
        message = f"{path} line 3: y0 must be a JSON integer, got {json.dumps(value)}"
        with pytest.raises(ValueError, match=re.escape(message) + "$"):
            read_boxes_jsonl(path)

    @pytest.fixture
    def regions_args(self, tmp_path, corpus):
        """A data dir, an untrained checkpoint and argv for `eval regions`
        on the first record's image, less --boxes and --out."""
        records, names, _ = corpus
        (tmp_path / "classes.txt").write_text("\n".join(names) + "\n")
        write_records_jsonl(tmp_path / "records.jsonl", records)
        config = ModelConfig()
        model = TwoTowerModel.create(config, build_vocabulary([r.text for r in records]), seed=0)
        metadata = {"model_config": config.to_dict(), "vocab": model.vocab.to_list()}
        save_checkpoint(tmp_path / "ckpt", model.param_arrays(), metadata=metadata)
        argv = ["eval", "regions", "--checkpoint", str(tmp_path / "ckpt"), "--data", str(tmp_path)]
        return records, argv

    @pytest.mark.parametrize(
        "edit, message",
        [
            (lambda records: {"x0": 0.5}, "line 2: x0 must be a JSON integer, got 0.5"),
            (lambda records: {"x1": "32"}, 'line 2: x1 must be a JSON integer, got "32"'),
            (lambda records: {"image_id": records[1].id}, "line 2: image_id '{1}' is not the image's record ({0})"),
            (lambda records: {"x1": 99}, "line 2: box (0, 0, 99, 32) outside image 32x32"),
            (lambda records: {"y0": 32}, "line 2: zero-area box (0, 32, 32, 32)"),
        ],
        ids=["float", "string", "another-record", "outside", "zero-area"],
    )
    def test_eval_regions_exits_2_naming_the_box_line(self, tmp_path, regions_args, capsys, edit, message):
        records, argv = regions_args
        rows = [{"image_id": records[0].id, "x0": 0, "y0": 0, "x1": 32, "y1": 32}] * 2
        rows[1] = rows[1] | edit(records)
        boxes, out = tmp_path / "boxes.jsonl", tmp_path / "reg"
        boxes.write_text(_lines(rows))
        assert main([*argv, "--image", records[0].image_path, "--boxes", str(boxes), "--out", str(out)]) == 2
        message = message.format(records[0].id, records[1].id)
        assert f"error: {boxes} {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_eval_regions_checks_boxes_against_the_image_before_the_checkpoint(self, tmp_path, regions_args, capsys):
        """The image's size bounds the boxes as they are read, so a box
        outside it is refused before the model loads: here there is none."""
        records, argv = regions_args
        argv[argv.index("--checkpoint") + 1] = str(tmp_path / "no-checkpoint")
        boxes, out = tmp_path / "boxes.jsonl", tmp_path / "reg"
        write_boxes_jsonl(boxes, [Box(records[0].id, 0, 0, 32, 32), Box(records[0].id, -1, 0, 8, 8)])
        assert main([*argv, "--image", records[0].image_path, "--boxes", str(boxes), "--out", str(out)]) == 2
        assert f"error: {boxes} line 2: box (-1, 0, 8, 8) outside image 32x32" in capsys.readouterr().err
        assert not out.exists()

    def test_reader_checks_boxes_only_against_a_given_image_size(self, tmp_path):
        path = tmp_path / "boxes.jsonl"
        write_boxes_jsonl(path, [Box("img0", 0, 0, 8, 4), Box("img0", 0, 0, 9, 4)])
        assert len(read_boxes_jsonl(path)) == 2
        assert read_boxes_jsonl(path, image_size=(4, 9))[1] == Box("img0", 0, 0, 9, 4)
        with pytest.raises(ValueError, match=re.escape(f"{path} line 2: box (0, 0, 9, 4) outside image 8x4") + "$"):
            read_boxes_jsonl(path, image_size=(4, 8))
        with pytest.raises(ValueError, match=re.escape(f"{path} line 1: box (0, 0, 8, 4) outside image 8x3") + "$"):
            read_boxes_jsonl(path, image_size=(3, 8))

    def test_eval_regions_refuses_an_image_of_no_record(self, tmp_path, regions_args, capsys):
        records, argv = regions_args
        image = tmp_path / "elsewhere.bin"
        image.write_bytes(Path(records[0].image_path).read_bytes())
        boxes, out = tmp_path / "boxes.jsonl", tmp_path / "reg"
        write_boxes_jsonl(boxes, [Box(records[0].id, 0, 0, 32, 32)])
        assert main([*argv, "--image", str(image), "--boxes", str(boxes), "--out", str(out)]) == 2
        refused = f"error: --image {image} is the image of no record of {tmp_path / 'records.jsonl'}"
        assert refused in capsys.readouterr().err
        assert not out.exists()


class TestReadersSkipBlankLines:
    @staticmethod
    def _with_blanks(path):
        """Copy of `path` with empty and whitespace-only lines between and after its rows."""
        lines = path.read_text().splitlines(keepends=True)
        padded = path.with_name("padded-" + path.name)
        padded.write_text("\n" + "  \n".join(lines) + "\t\n\n")
        return padded

    def test_read_jsonl(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text(_lines([{"a": 1}, {"b": [2]}]))
        assert read_jsonl(self._with_blanks(path)) == [{"a": 1}, {"b": [2]}]

    def test_records_and_triplets(self, tmp_path, corpus):
        records, _, triplets = corpus
        write_records_jsonl(tmp_path / "records.jsonl", records)
        write_triplets_jsonl(tmp_path / "triplets.jsonl", triplets)
        assert read_records_jsonl(self._with_blanks(tmp_path / "records.jsonl")) == records
        assert read_triplets_jsonl(self._with_blanks(tmp_path / "triplets.jsonl")) == triplets

    def test_boxes_and_reports(self, tmp_path):
        write_boxes_jsonl(tmp_path / "boxes.jsonl", BOXES)
        for report in REPORTS:
            append_report_jsonl(tmp_path / "reports.jsonl", report)
        assert read_boxes_jsonl(self._with_blanks(tmp_path / "boxes.jsonl")) == BOXES
        assert read_reports_jsonl(self._with_blanks(tmp_path / "reports.jsonl")) == REPORTS


class TestImagePaths:
    """Readers resolve each image directory once per file; every image_path
    must still be what one `Path.resolve()` per record gives."""

    @staticmethod
    def _one_resolve_per_record(path):
        """Oracle: the readers' image field, resolved image by image."""
        out = []
        for row in read_jsonl(path):
            image = Path(row["image"])
            out.append(str(image) if image.is_absolute() else str((Path(path).parent / image).resolve()))
        return out

    def _check(self, path, reader=read_records_jsonl):
        expected = self._one_resolve_per_record(path)
        assert [r.image_path for r in reader(path)] == expected
        return expected

    @pytest.fixture
    def tree(self, tmp_path):
        """data/records.jsonl with images/ beside it, cur/triplets.jsonl
        pointing at ../data/images/..., and a symlink `link` -> data."""
        records, _ = generate_synthetic_dataset(tmp_path / "data", num_classes=2, per_class=3, seed=1)
        write_records_jsonl(tmp_path / "data" / "records.jsonl", records)
        (tmp_path / "cur").mkdir()
        triplets = [Triplet(id=r.id, image_path=r.image_path, text=r.text, label=0) for r in records]
        write_triplets_jsonl(tmp_path / "cur" / "triplets.jsonl", triplets)
        (tmp_path / "link").symlink_to(tmp_path / "data", target_is_directory=True)
        return tmp_path

    def test_relative_records_path(self, tree, monkeypatch):
        monkeypatch.chdir(tree)
        assert all(Path(p).is_absolute() for p in self._check(Path("data") / "records.jsonl"))

    def test_triplets_reaching_up_a_directory(self, tree):
        assert read_jsonl(tree / "cur" / "triplets.jsonl")[0]["image"].startswith("../data/images/")
        expected = self._check(tree / "cur" / "triplets.jsonl", read_triplets_jsonl)
        assert all(".." not in Path(p).parts for p in expected)

    def test_symlinked_data_directory(self, tree):
        expected = self._check(tree / "link" / "records.jsonl")
        assert all(p.startswith(str((tree / "data").resolve())) for p in expected)

    def test_absolute_image_paths_pass_through(self, tree):
        rows = read_jsonl(tree / "data" / "records.jsonl")
        for row in rows:
            row["image"] = str(tree / "link" / row["image"])
        (tree / "abs.jsonl").write_text(_lines(rows))
        assert self._check(tree / "abs.jsonl") == [row["image"] for row in rows]

    def test_symlinked_image_file_and_dot_segments(self, tree):
        """A symlinked image resolves to its target, as `resolve()` does."""
        rows = read_jsonl(tree / "data" / "records.jsonl")
        target = (tree / "data" / rows[0]["image"]).resolve()
        (tree / "data" / "alias.bin").symlink_to(target)
        rows[0]["image"] = "alias.bin"
        rows[1]["image"] = "./images/../" + rows[1]["image"]
        (tree / "data" / "odd.jsonl").write_text(_lines(rows))
        assert self._check(tree / "data" / "odd.jsonl")[0] == str(target)


class TestMalformedLines:
    """A bad line is a ValueError naming the file and its line (blank lines
    counted), and a missing key or a value of the wrong JSON type is named
    too; the CLI exits 2 on each and leaves no --out. A records or triplets
    field is a string, except a triplet's non-negative integer label (a bool
    is not one) and its boolean ``augmented``; a record's text is not blank."""

    def test_invalid_json_names_path_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n\n{"b": 2\n')
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: invalid JSON: ")):
            read_jsonl(path)

    def test_non_object_line_names_path_and_line(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n[1, 2]\n')
        with pytest.raises(ValueError, match=re.escape(f"{path} line 2: expected a JSON object, got list") + "$"):
            read_jsonl(path)

    @pytest.mark.parametrize(
        "reader,row,key",
        [
            (read_records_jsonl, {"id": "a", "image": "a.bin", "text": "a cat"}, "image"),
            (
                read_triplets_jsonl,
                {"id": "a", "image": "a.bin", "text": "a cat", "label": 0, "augmented": False},
                "label",
            ),
            (read_boxes_jsonl, {"image_id": "a", "x0": 0, "y0": 0, "x1": 4, "y1": 4}, "x1"),
            (read_reports_jsonl, {"task": "zero_shot", "metrics": {"top1_acc": 0.5}, "n": 2}, "n"),
        ],
        ids=["records", "triplets", "boxes", "reports"],
    )
    def test_each_reader_names_a_missing_key(self, tmp_path, reader, row, key):
        path = tmp_path / "rows.jsonl"
        broken = {k: v for k, v in row.items() if k != key}
        path.write_text(_lines([row]) + "\n" + _lines([broken]))
        with pytest.raises(ValueError, match=re.escape(f"{path} line 3: missing key '{key}'") + "$"):
            reader(path)

    @pytest.mark.parametrize(
        "bad_line,message",
        [
            (lambda line: line[:-1], "line 2: invalid JSON: "),
            (lambda line: json.dumps({k: v for k, v in json.loads(line).items() if k != "image"}),
             "line 2: missing key 'image'"),
            (lambda line: "[1, 2]", "line 2: expected a JSON object, got list"),
            (lambda line: json.dumps(json.loads(line) | {"id": 3}), "line 2: id must be a JSON string, got 3"),
            (lambda line: json.dumps(json.loads(line) | {"image": 7}), "line 2: image must be a JSON string, got 7"),
            (lambda line: json.dumps(json.loads(line) | {"text": 5}), "line 2: text must be a JSON string, got 5"),
            (lambda line: json.dumps(json.loads(line) | {"source": None}), "line 2: source must be a JSON string, got null"),
            (lambda line: json.dumps(json.loads(line) | {"id": "r", "text": "  "}), "line 2: record 'r' has empty text"),
        ],
        ids=["unclosed", "no-image", "list", "int-id", "int-image", "int-text", "null-source", "blank-text"],
    )
    def test_curate_exits_2_naming_the_line(self, tmp_path, corpus, capsys, bad_line, message):
        records, _, _ = corpus
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, records)
        lines = path.read_text().splitlines()
        lines[1] = bad_line(lines[1])
        path.write_text("\n".join(lines) + "\n")
        assert main(["curate", "--records", str(path), "--out", str(tmp_path / "cur")]) == 2
        assert f"error: {path} {message}" in capsys.readouterr().err
        assert not (tmp_path / "cur").exists()

    def test_train_refuses_a_negative_label_naming_the_line(self, tmp_path, corpus, capsys):
        _, _, triplets = corpus
        path, out = tmp_path / "triplets.jsonl", tmp_path / "run"
        write_triplets_jsonl(path, triplets)
        rows = read_jsonl(path)
        rows[2]["label"] = -1
        path.write_text(_lines(rows))
        argv = ["--stage1-steps", "1", "--stage2-steps", "1", "--batch-size", "2", "--chunk-size", "2", "--warmup-steps", "0"]
        assert main(["train", "--triplets", str(path), "--out", str(out), *argv]) == 2
        assert f"error: {path} line 3: label must be non-negative, got -1" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key,value,kind",
        [
            ("id", 3, "string"),
            ("image", 7, "string"),
            ("text", None, "string"),
            ("label", "3", "integer"),
            ("label", True, "integer"),
            ("label", 1.0, "integer"),
            ("augmented", 1, "boolean"),
        ],
        ids=["id", "image", "text", "label-string", "label-bool", "label-float", "augmented"],
    )
    def test_train_refuses_a_triplets_field_of_the_wrong_type(self, tmp_path, corpus, capsys, key, value, kind):
        _, _, triplets = corpus
        path, out = tmp_path / "triplets.jsonl", tmp_path / "run"
        write_triplets_jsonl(path, triplets)
        rows = read_jsonl(path)
        rows[1][key] = value
        path.write_text(_lines(rows))
        argv = ["--stage1-steps", "1", "--stage2-steps", "1", "--batch-size", "2", "--chunk-size", "2", "--warmup-steps", "0"]
        assert main(["train", "--triplets", str(path), "--out", str(out), *argv]) == 2
        assert f"error: {path} line 2: {key} must be a JSON {kind}, got {json.dumps(value)}" in capsys.readouterr().err
        assert not out.exists()
