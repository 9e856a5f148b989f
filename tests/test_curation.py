"""Curation: dedup, size filter, label table, augmentation, streams, synth."""

import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from florence_mini.curation import (
    RawRecord,
    StageStream,
    average_hash,
    augment_prompt,
    build_text_hash_table,
    class_of_record,
    class_prototype,
    curate,
    dedup_near_duplicates,
    filter_small_images,
    generate_synthetic_dataset,
    holdout_ids,
    read_records_jsonl,
    write_records_jsonl,
)
from florence_mini.curation.records import ImageFiles, Triplet, load_image, load_images
from florence_mini.imaging import resize_bilinear
from florence_mini.numerics import write_tensor_file
from oracles import hamming_distance


def _write_image(path, arr):
    write_tensor_file(path, arr.astype(np.float32))
    return str(path)


def _record(tmp_path, rec_id, arr, text="some caption"):
    return RawRecord(id=rec_id, image_path=_write_image(tmp_path / f"{rec_id}.bin", arr), text=text)


class TestAverageHashDedup:
    def test_identical_images_removed_at_distance_zero(self, tmp_path):
        rng = np.random.default_rng(0)
        img = rng.uniform(size=(16, 16, 3))
        recs = [_record(tmp_path, "a", img), _record(tmp_path, "b", img.copy())]
        kept, reports = dedup_near_duplicates(recs, hamming_threshold=5)
        assert [r.id for r in kept] == ["a"]
        assert reports[0].removed_id == "b"
        assert reports[0].kept_id == "a"
        assert reports[0].hamming_distance == 0

    def test_inverted_image_is_distance_64(self, tmp_path):
        """Inversion flips every cell/mean comparison, so all 64 bits flip.

        Verified by direct computation of both hashes.
        """
        rng = np.random.default_rng(1)
        img = rng.uniform(0.05, 0.95, size=(24, 24, 3)).astype(np.float32)
        inverted = (1.0 - img).astype(np.float32)
        assert hamming_distance(average_hash(img), average_hash(inverted)) == 64
        recs = [_record(tmp_path, "a", img), _record(tmp_path, "inv", inverted)]
        kept, _ = dedup_near_duplicates(recs, hamming_threshold=63)
        assert len(kept) == 2

    def test_constructed_corpus_with_10_duplicate_pairs(self, tmp_path):
        """100 images containing exactly 10 exact-duplicate pairs -> 10 removals."""
        rng = np.random.default_rng(2)
        base = [rng.uniform(size=(16, 16, 3)) for _ in range(90)]
        images = base + [base[i].copy() for i in range(10)]
        recs = [_record(tmp_path, f"r{i:03d}", img) for i, img in enumerate(images)]
        kept, reports = dedup_near_duplicates(recs, hamming_threshold=5)
        assert len(reports) == 10
        assert len(kept) == 90
        assert {r.kept_id for r in reports} == {f"r{i:03d}" for i in range(10)}

    def test_idempotence(self, tmp_path):
        rng = np.random.default_rng(3)
        imgs = [rng.uniform(size=(16, 16, 3)) for _ in range(8)]
        imgs[4] = imgs[0].copy()
        recs = [_record(tmp_path, f"r{i}", img) for i, img in enumerate(imgs)]
        once, _ = dedup_near_duplicates(recs, hamming_threshold=5)
        twice, rep2 = dedup_near_duplicates(once, hamming_threshold=5)
        assert [r.id for r in twice] == [r.id for r in once]
        assert rep2 == []

    @pytest.mark.parametrize("threshold", [0, 1, 3, 5, 63, 64])
    def test_vectorized_match_equals_a_scalar_loop(self, monkeypatch, threshold):
        """Hashes flipped from earlier ones in exactly 0, 1, 3, 5, 63 and 64
        bits put a distance at every threshold tried, and the hashes 0 and
        2**64 - 1 sit at uint64's ends. At threshold 5, r3 lies within it of
        r0, r1 and r2, all kept, and the first wins over the nearest."""
        from florence_mini.curation import hashing

        rng = np.random.default_rng(5)
        a, b, c = (int.from_bytes(rng.bytes(8), "big") for _ in range(3))

        def flip(h, *bits):
            return h ^ sum(1 << i for i in bits)

        hashes = [
            a, flip(a, *range(6)), flip(a, 0, 1, 2, 6, 7, 8), flip(a, 0, 1, 2, 3),
            flip(a, 9), flip(a, 10, 11, 12), flip(a, *range(13, 18)), flip(a, *range(63)), flip(a, *range(64)),
            b, flip(b, 10, 20, 30, 40, 50), c, 0, 2**64 - 1, a,
        ]

        def oracle():
            kept, reports = [], []
            for i, h in enumerate(hashes):
                first = next(((j, d) for j in kept if (d := hamming_distance(h, hashes[j])) <= threshold), None)
                if first is None:
                    kept.append(i)
                else:
                    reports.append((f"r{i}", f"r{first[0]}", first[1]))
            return [f"r{i}" for i in kept], reports

        monkeypatch.setattr(hashing, "load_image", int)
        monkeypatch.setattr(hashing, "average_hash", hashes.__getitem__)
        recs = [RawRecord(id=f"r{i}", image_path=str(i), text="t") for i in range(len(hashes))]
        kept, reports = dedup_near_duplicates(recs, hamming_threshold=threshold)
        got = [(r.removed_id, r.kept_id, r.hamming_distance) for r in reports]
        want_kept, want_reports = oracle()
        assert [r.id for r in kept] == want_kept
        assert got == want_reports
        assert all(type(r.hamming_distance) is int for r in reports)
        if threshold == 5:
            assert {"r0", "r1", "r2"} <= set(want_kept) and ("r3", "r0", 4) in got

    def test_bad_threshold_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            dedup_near_duplicates([], hamming_threshold=65)

    def test_non_rank3_image_rejected(self, tmp_path):
        p = tmp_path / "flat.bin"
        write_tensor_file(p, np.zeros((8, 8), dtype=np.float32))
        with pytest.raises(ValueError, match="rank 3"):
            load_image(p)

    def test_uint8_image_refused_naming_path_and_dtype(self, tmp_path):
        """A uint8 container holds 0-255 values, not an image in [0, 1]."""
        p = tmp_path / "u8.bin"
        write_tensor_file(p, np.full((32, 32, 3), 254, dtype=np.uint8))
        with pytest.raises(ValueError, match=re.escape(f"{p}: image container holds uint8")):
            load_image(p)

    @pytest.mark.parametrize("side", [None, 16, 8])
    def test_load_images_equals_stacked_load_image(self, tmp_path, side):
        rng = np.random.default_rng(4)
        recs = [_record(tmp_path, f"r{i}", rng.uniform(size=(16, 16, 3))) for i in range(5)]
        paths = [r.image_path for r in recs]
        got = load_images(paths, side)
        want = np.stack([load_image(p, side) for p in paths])
        assert got.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("extent", [(32, 48), (48, 32)], ids=["wide", "tall"])
    def test_load_image_resizes_a_non_square_image_whose_other_extent_is_the_side(self, tmp_path, extent):
        img = np.random.default_rng(6).uniform(size=(*extent, 3)).astype(np.float32)
        rec = _record(tmp_path, "r", img)
        got = load_image(rec.image_path, 32)
        assert got.shape == (32, 32, 3)
        assert got.tobytes() == resize_bilinear(img, 32, 32).tobytes()
        assert load_image(rec.image_path).shape == (*extent, 3)

    def test_load_images_rejects_mixed_shapes_and_no_paths(self, tmp_path):
        a = _record(tmp_path, "rgb", np.zeros((8, 8, 3)))
        b = _record(tmp_path, "gray", np.zeros((8, 8, 1)))
        with pytest.raises(ValueError, match="differs"):
            load_images([a.image_path, b.image_path])
        with pytest.raises(ValueError, match="no images"):
            load_images([])


    def test_image_files_read_slices_and_refuse_a_later_slice_of_another_shape(self, tmp_path):
        rng = np.random.default_rng(5)
        recs = [_record(tmp_path, f"r{i}", rng.uniform(size=(16, 16, 3))) for i in range(4)]
        gray = _record(tmp_path, "gray", np.zeros((16, 16, 1)))
        files = ImageFiles([r.image_path for r in recs] + [gray.image_path], 8)
        assert len(files) == 5
        assert files[1:3].tobytes() == load_images([r.image_path for r in recs[1:3]], 8).tobytes()
        shapes = re.escape("image shape (8, 8, 1) differs from (8, 8, 3) of ")
        with pytest.raises(ValueError, match=re.escape(gray.image_path) + ": " + shapes + re.escape(recs[1].image_path)):
            files[4:]
        with pytest.raises(ValueError, match="no images"):
            ImageFiles([])


class TestSizeFilter:
    def test_boundary_is_inclusive(self, tmp_path):
        recs = [_record(tmp_path, "ok", np.zeros((64, 64, 3)))]
        assert len(filter_small_images(recs, min_side=64)) == 1

    def test_small_side_removed(self, tmp_path):
        recs = [_record(tmp_path, "thin", np.zeros((63, 128, 3)))]
        assert filter_small_images(recs, min_side=64) == []

    def test_empty_input(self):
        assert filter_small_images([], min_side=10) == []


class TestTextHashTable:
    def _recs(self, tmp_path, texts):
        img = np.zeros((8, 8, 3))
        return [_record(tmp_path, f"r{i}", img, text=t) for i, t in enumerate(texts)]

    def test_repeated_text_shares_label(self, tmp_path):
        table, triplets = build_text_hash_table(self._recs(tmp_path, ["a", "b", "a"]))
        assert [t.label for t in triplets] == [0, 1, 0]
        assert len(table) == 2

    def test_all_distinct_is_clip_style(self, tmp_path):
        texts = [f"caption {i}" for i in range(6)]
        table, triplets = build_text_hash_table(self._recs(tmp_path, texts))
        assert [t.label for t in triplets] == list(range(6))

    def test_shared_captions_desk_fixture(self, tmp_path):
        """8 images over 3 captions -> 3 unique labels (duplicate-caption corpus)."""
        texts = ["dog", "cat", "dog", "dog", "bird", "cat", "dog", "bird"]
        table, triplets = build_text_hash_table(self._recs(tmp_path, texts))
        assert len(table) == 3
        assert sum(t.label == 0 for t in triplets) == 4

    def test_inverse_map_reproduces_text(self, tmp_path):
        texts = ["  padded  ", "two words", "padded", "unique one"]
        table, triplets = build_text_hash_table(self._recs(tmp_path, texts))
        for t in triplets:
            assert list(table)[t.label] == t.text and table[t.text] == t.label

    def test_case_sensitivity_default_and_flag(self, tmp_path):
        recs = self._recs(tmp_path, ["Dog", "dog"])
        table, _ = build_text_hash_table(recs)
        assert len(table) == 2
        folded, _ = build_text_hash_table(recs, case_fold=True)
        assert len(folded) == 1

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=6), min_size=1, max_size=20))
    def test_unique_labels_bounded_by_records(self, texts):
        texts = [t if t.strip() else "x" for t in texts]
        recs = [RawRecord(id=str(i), image_path="unused.bin", text=t) for i, t in enumerate(texts)]
        table, triplets = build_text_hash_table(recs)
        assert len(table) <= len(recs)
        normalized = [t.strip() for t in texts]
        if len(set(normalized)) == len(normalized):
            assert len(table) == len(recs)


class TestPromptAugmentation:
    def test_template_zero_formats_word(self):
        class FixedRng:
            def integers(self, lo, hi):
                return 0

        assert augment_prompt("dog", FixedRng()) == "A photo of the dog."

    def test_two_template_frequencies_within_3_sigma(self):
        """Binomial bound: over n draws of 2 templates, each count is within
        3*sqrt(n*0.25) of n/2."""
        n = 10_000
        rng = np.random.default_rng(42)
        hits = sum(augment_prompt("dog", rng).startswith("A photo") for _ in range(n))
        sigma = (n * 0.25) ** 0.5
        assert abs(hits - n / 2) <= 3 * sigma

    def test_empty_inputs_rejected(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            augment_prompt("", rng)


class TestStageStreams:
    def _pool(self):
        mk = lambda i, aug: Triplet(id=f"t{i}", image_path="x.bin", text="w", label=i, augmented=aug)
        return [mk(i, i < 4) for i in range(10)]  # 4 augmented, 6 clean

    def test_stage2_filters_augmented_and_batch_count(self):
        stream = StageStream(stage=2, seed=0, batch_size=2, pool=self._pool())
        batches = stream.epoch_batches(0)
        assert len(batches) == 3
        assert all(not t.augmented for b in batches for t in b)

    def test_same_seed_same_order(self):
        s1 = StageStream(stage=1, seed=7, batch_size=2, pool=self._pool())
        s2 = StageStream(stage=1, seed=7, batch_size=2, pool=self._pool())
        ids1 = [[t.id for t in b] for b in s1.epoch_batches(3)]
        ids2 = [[t.id for t in b] for b in s2.epoch_batches(3)]
        assert ids1 == ids2

    def test_stage1_epoch_covers_pool_once(self):
        stream = StageStream(stage=1, seed=0, batch_size=2, pool=self._pool())
        batches = stream.epoch_batches(0)
        assert len(batches) == 5
        seen = [t.id for b in batches for t in b]
        assert sorted(seen) == sorted(t.id for t in self._pool())

    @pytest.mark.parametrize("stage", [1, 2])
    def test_stream_owns_a_copy_of_its_pool(self, stage):
        pool = self._pool()
        stream = StageStream(stage=stage, seed=0, batch_size=2, pool=pool)
        before = stream.epoch_batches(0)
        pool.reverse()
        del pool[:5]
        assert stream.epoch_batches(0) == before

    def test_all_augmented_pool_fails_stage2(self):
        pool = [Triplet(id="a", image_path="x", text="w", label=0, augmented=True)] * 4
        with pytest.raises(ValueError, match="stage-2"):
            StageStream(stage=2, seed=0, batch_size=2, pool=pool)

    def test_batch_size_one_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            StageStream(stage=1, seed=0, batch_size=1, pool=self._pool())


class TestSyntheticCorpus:
    def test_counts(self, tmp_path):
        records, names = generate_synthetic_dataset(tmp_path, num_classes=8, per_class=128)
        assert len(records) == 1024
        assert len(names) == 8

    def test_zero_noise_gives_identical_images(self, tmp_path):
        records, _ = generate_synthetic_dataset(
            tmp_path, num_classes=2, per_class=3, noise_sigma=0.0
        )
        a = load_image(records[0].image_path)
        b = load_image(records[1].image_path)
        assert a.tobytes() == b.tobytes()

    def test_nearest_prototype_classifier_on_raw_pixels(self, tmp_path):
        """Brute-force nearest-prototype oracle achieves >= 99% at sigma 0.05."""
        n_classes, per_class = 8, 16
        records, _ = generate_synthetic_dataset(
            tmp_path, num_classes=n_classes, per_class=per_class, noise_sigma=0.05, seed=3
        )
        protos = np.stack([class_prototype(c, 32, seed=3) for c in range(n_classes)])
        correct = 0
        for i, rec in enumerate(records):
            img = load_image(rec.image_path)
            dists = ((protos - img[None]) ** 2).sum(axis=(1, 2, 3))
            correct += int(np.argmin(dists) == i // per_class)
        assert correct / len(records) >= 0.99

    def test_caption_structure(self, tmp_path):
        records, names = generate_synthetic_dataset(
            tmp_path, num_classes=2, per_class=10, word_caption_fraction=0.5
        )
        word_caps = [r for r in records if r.text in names]
        assert len(word_caps) == 10  # exactly half
        for r in records:
            cls_word = r.source.split(":")[2]
            assert cls_word in r.text

    def test_class_of_record_checks_the_class_names(self, tmp_path):
        """Every synthetic record reads back its own class. A source of
        another form, or whose index is not an integer, has none; an index
        outside the names, or a word that is not that class's name, raises
        naming the record."""
        records, names = generate_synthetic_dataset(tmp_path, num_classes=3, per_class=2)
        assert [class_of_record(r, names) for r in records] == [0, 0, 1, 1, 2, 2]
        for source in ("", "web", "class:1", f"label:1:{names[1]}", f"class:one:{names[1]}"):
            assert class_of_record(RawRecord("r", "x", "t", source), names) is None
        for source, problem in (
            (f"class:3:{names[0]}", "but classes.txt has 3 classes"),
            (f"class:-1:{names[2]}", "but classes.txt has 3 classes"),
            (f"class:0:{names[1]}", f"which classes.txt names {names[0]!r}"),
        ):
            with pytest.raises(ValueError, match=f"record 'r' names class .*{re.escape(problem)}"):
                class_of_record(RawRecord("r", "x", "t", source), names)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"image_side": 0}, "image_side must be >= 1, got 0"),
            ({"per_class": 0}, "per_class must be >= 1, got 0"),
            ({"noise_sigma": -1.0}, "noise_sigma must be >= 0, got -1.0"),
            ({"noise_sigma": float("nan")}, "noise_sigma must be >= 0, got nan"),
            ({"word_caption_fraction": 2.0}, "word_caption_fraction must be in [0, 1], got 2.0"),
            ({"word_caption_fraction": -1.0}, "word_caption_fraction must be in [0, 1], got -1.0"),
        ],
    )
    def test_unusable_arguments_refused_before_images_exist(self, tmp_path, kwargs, message):
        args = {"num_classes": 2, "per_class": 2} | kwargs
        with pytest.raises(ValueError, match=re.escape(message)):
            generate_synthetic_dataset(tmp_path / "out", **args)
        assert not (tmp_path / "out").exists()

    def test_determinism(self, tmp_path):
        r1, _ = generate_synthetic_dataset(tmp_path / "a", num_classes=2, per_class=4, seed=9)
        r2, _ = generate_synthetic_dataset(tmp_path / "b", num_classes=2, per_class=4, seed=9)
        for a, b in zip(r1, r2):
            assert a.text == b.text
            assert load_image(a.image_path).tobytes() == load_image(b.image_path).tobytes()


class TestPipeline:
    def test_curate_output_is_pure_function_of_input_and_seed(self, tmp_path):
        records, _ = generate_synthetic_dataset(tmp_path, num_classes=3, per_class=8, seed=5)
        r1 = curate(records, seed=11)
        r2 = curate(records, seed=11)
        assert [(t.id, t.text, t.label, t.augmented) for t in r1.triplets] == [
            (t.id, t.text, t.label, t.augmented) for t in r2.triplets
        ]

    def test_stats_contract(self, tmp_path):
        records, _ = generate_synthetic_dataset(tmp_path, num_classes=3, per_class=8, seed=5)
        result = curate(records, seed=0)
        stats = result.stats()
        assert stats["records_in"] == 24
        assert stats["records_out"] == len(result.triplets)
        assert stats["unique_descriptions"] == len(result.hash_table)
        assert stats["augmented_records"] == sum(t.augmented for t in result.triplets)

    def test_records_jsonl_roundtrip(self, tmp_path):
        records, _ = generate_synthetic_dataset(tmp_path, num_classes=2, per_class=2)
        path = tmp_path / "records.jsonl"
        write_records_jsonl(path, records)
        back = read_records_jsonl(path)
        assert back == records

    def test_holdout_split_deterministic(self):
        ids = [f"r{i}" for i in range(100)]
        a = holdout_ids(ids, 0.2, seed=4)
        b = holdout_ids(ids, 0.2, seed=4)
        assert a == b
        assert len(a) == 20
        assert a != holdout_ids(ids, 0.2, seed=5)
