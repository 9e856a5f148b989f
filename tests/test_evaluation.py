"""Zero-shot, retrieval, probing, few-shot, and region evaluation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary, tokenize_batch
from florence_mini.evaluation import (
    Box,
    DEFAULT_EVAL_TEMPLATES,
    EvalReport,
    ProbeConfig,
    build_prompt_sets,
    classify_regions,
    embed_images,
    evaluate_topk,
    few_shot_episode_eval,
    linear_probe,
    rank_scores,
    retrieval_recall,
    zero_shot_classify,
)
from florence_mini.evaluation.fewshot import (
    ADAPTER_EPOCHS,
    ADAPTER_LR,
    ADAPTER_MOMENTUM,
    EPISODE_BLOCK,
    QUERY_PER_CLASS,
    _train_linear_heads,
)
from florence_mini.imaging import crop_box, resize_bilinear
from florence_mini.numerics import Tensor, no_grad

TINY = ModelConfig(
    image_size=8,
    patch_kernel=2,
    stage_depths=(1,),
    stage_widths=(8,),
    stage_heads=(2,),
    window=2,
    shared_dim=8,
    text_layers=1,
    text_width=8,
    text_heads=2,
    max_len=12,
)


class OracleModel:
    """Stub whose image embedding is read straight from the image corner,
    so class text embeddings can be made to coincide with image embeddings."""

    def __init__(self, dim):
        self.dim = dim
        self.config = ModelConfig()

    def encode_image(self, image, block_wrapper=None):
        image = np.asarray(image)
        if image.ndim == 3:
            image = image[None]
        rows = np.eye(self.dim)[image[:, 0, 0, 0].astype(int)]
        return Tensor(rows)


class TestZeroShot:
    def test_oracle_model_is_always_top1_correct(self):
        dim = 4
        model = OracleModel(dim)
        psets = np.eye(dim)  # class c's embedding is image c's
        for cls in range(dim):
            img = np.zeros((2, 2, 3))
            img[0, 0, 0] = cls
            ranked = zero_shot_classify(model, img, psets)
            assert ranked[0][0] == cls
            assert ranked[0][1] == pytest.approx(1.0)

    def test_single_template_equals_that_templates_embedding(self):
        vocab = build_vocabulary(["a heron", "a maple"])
        model = TwoTowerModel.create(TINY, vocab, seed=0)
        psets = build_prompt_sets(model, ["heron"], templates=("a photo of a {}.",))
        from florence_mini.encoders import tokenize_batch

        with no_grad():
            direct = model.encode_text(tokenize_batch(["a photo of a heron."], model.vocab)).data[0]
        np.testing.assert_allclose(psets[0], direct, atol=1e-12)

    def test_duplicated_templates_equal_single(self):
        vocab = build_vocabulary(["a heron"])
        model = TwoTowerModel.create(TINY, vocab, seed=1)
        single = build_prompt_sets(model, ["heron"], templates=("a photo of a {}.",))
        doubled = build_prompt_sets(
            model, ["heron"], templates=("a photo of a {}.", "a photo of a {}.")
        )
        np.testing.assert_allclose(single[0], doubled[0], atol=1e-12)

    def test_empty_class_list_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            zero_shot_classify(OracleModel(2), np.zeros((2, 2, 3)), [])

    def test_ranking_invariant_under_positive_scaling(self):
        rng = np.random.default_rng(0)
        scores = rng.normal(size=(5, 7))
        np.testing.assert_array_equal(rank_scores(scores), rank_scores(3.7 * scores))

    def test_tie_broken_by_ascending_class_index(self):
        scores = np.array([1.0, 3.0, 3.0, 0.5])
        assert list(rank_scores(scores)) == [1, 2, 0, 3]

    def test_prompt_sets_take_one_text_forward_byte_equal_to_per_class(self, monkeypatch):
        """All classes x templates embed in one encode_text call; each class's
        embedding is byte-equal to a forward of its own templates alone, even
        where the classes' prompts tokenize to different widths."""
        names = ["heron", "maple", "great blue heron"]
        model = TwoTowerModel.create(TINY, build_vocabulary([f"a {n}" for n in names]), seed=4)
        expected = []
        for name in names:
            ids = tokenize_batch([t.format(name) for t in DEFAULT_EVAL_TEMPLATES], model.vocab)
            with no_grad():
                v = model.encode_text(ids).data
            mean = v.mean(axis=0)
            expected.append(mean / np.linalg.norm(mean))
        calls = []
        encode = TwoTowerModel.encode_text

        def counted(self, ids, *args, **kwargs):
            calls.append(len(ids))
            return encode(self, ids, *args, **kwargs)

        monkeypatch.setattr(TwoTowerModel, "encode_text", counted)
        psets = build_prompt_sets(model, names)
        assert calls == [len(names) * len(DEFAULT_EVAL_TEMPLATES)]
        assert psets.shape == (len(names), TINY.shared_dim)
        for row, want in zip(psets, expected):
            assert row.tobytes() == want.tobytes()


class TestTopK:
    def test_perfect_ranker(self):
        ranked = np.tile(np.arange(5), (4, 1))
        labels = ranked[:, 0]
        for k in (1, 2, 5):
            assert evaluate_topk(ranked, labels, k) == 1.0

    def test_k_equals_class_count_is_exhaustive(self):
        rng = np.random.default_rng(1)
        ranked = np.stack([rng.permutation(6) for _ in range(10)])
        labels = rng.integers(0, 6, size=10)
        assert evaluate_topk(ranked, labels, 6) == 1.0

    def test_truth_at_rank_two(self):
        ranked = np.array([[3, 1, 0, 2, 4]])
        labels = np.array([1])
        assert evaluate_topk(ranked, labels, 1) == 0.0
        assert evaluate_topk(ranked, labels, 5) == 1.0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="align"):
            evaluate_topk(np.zeros((3, 4), dtype=int), np.zeros(2, dtype=int), 1)


def brute_force_recall(u, v, ks):
    """Exhaustive rank enumeration: count strictly-better candidates, ties
    resolved toward lower index."""
    n = u.shape[0]
    scores = u @ v.T
    out = {"i2t": {}, "t2i": {}}
    for direction, mat in (("i2t", scores), ("t2i", scores.T)):
        ranks = []
        for i in range(n):
            row = mat[i]
            better = sum(
                1 for j in range(n) if row[j] > row[i] or (row[j] == row[i] and j < i)
            )
            ranks.append(better)
        for k in ks:
            out[direction][k] = sum(r < k for r in ranks) / n
    return out


class TestRetrieval:
    def test_identity_gives_perfect_recall(self):
        rng = np.random.default_rng(2)
        u = rng.normal(size=(6, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rec = retrieval_recall(u, u.copy(), ks=[1, 5])
        assert rec["i2t"][1] == 1.0
        assert rec["t2i"][1] == 1.0

    def test_cyclic_shift_gives_zero_r1(self):
        rng = np.random.default_rng(3)
        u = rng.normal(size=(5, 4))
        u /= np.linalg.norm(u, axis=1, keepdims=True)
        rec = retrieval_recall(u, np.roll(u, 1, axis=0), ks=[1])
        assert rec["i2t"][1] == 0.0
        assert rec["t2i"][1] == 0.0

    def test_matches_brute_force_enumeration_exactly(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            u = rng.normal(size=(32, 16))
            v = rng.normal(size=(32, 16))
            fast = retrieval_recall(u, v, ks=[1, 5, 10])
            slow = brute_force_recall(u, v, [1, 5, 10])
            assert fast == slow

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), k1=st.integers(1, 5), k2=st.integers(5, 12))
    def test_monotone_in_k(self, seed, k1, k2):
        rng = np.random.default_rng(seed)
        u = rng.normal(size=(12, 6))
        v = rng.normal(size=(12, 6))
        rec = retrieval_recall(u, v, ks=[k1, k2])
        assert rec["i2t"][k1] <= rec["i2t"][k2]
        assert rec["t2i"][k1] <= rec["t2i"][k2]

    @pytest.mark.parametrize("ks, k", [([0, 1], 0), ([-3], -3)])
    def test_k_below_one_rejected_by_name(self, ks, k):
        u = np.eye(3)
        with pytest.raises(ValueError, match=f"k must be >= 1, got k={k}"):
            retrieval_recall(u, u, ks=ks)

    def test_too_few_rows_rejected(self):
        with pytest.raises(ValueError, match="2 rows"):
            retrieval_recall(np.ones((1, 3)), np.ones((1, 3)), ks=[1])


class TestLinearProbe:
    def test_linearly_separable_fixture_scores_one(self):
        """Separability verified by a brute-force mean-direction classifier."""
        rng = np.random.default_rng(5)
        a = rng.normal(size=(40, 8)) * 0.3 + 2.0
        b = rng.normal(size=(40, 8)) * 0.3 - 2.0
        x = np.concatenate([a, b])
        y = np.array([0] * 40 + [1] * 40)
        direction = a.mean(axis=0) - b.mean(axis=0)
        threshold = (a.mean(axis=0) + b.mean(axis=0)) @ direction / 2
        brute = ((x @ direction > threshold) == (y == 0)).mean()
        assert brute == 1.0  # fixture is separable
        res = linear_probe(x, y, ProbeConfig(epochs=120, lr=0.1))
        assert res.accuracy == 1.0
        assert not res.degenerate

    def test_single_class_flagged_degenerate(self):
        res = linear_probe(np.random.default_rng(6).normal(size=(10, 4)), np.zeros(10, dtype=int))
        assert res.accuracy == 1.0
        assert res.degenerate

    def test_backbone_untouched_by_probing(self):
        vocab = build_vocabulary(["a heron"])
        model = TwoTowerModel.create(TINY, vocab, seed=2)
        rng = np.random.default_rng(7)
        imgs = rng.uniform(size=(12, 8, 8, 3))
        before = {k: v.tobytes() for k, v in model.param_arrays().items()}
        with no_grad():
            feats = model.encode_image(imgs).data
        linear_probe(feats, rng.integers(0, 2, size=12), ProbeConfig(epochs=10))
        after = {k: v.tobytes() for k, v in model.param_arrays().items()}
        assert before == after


class TestFewShot:
    def test_one_way_is_always_perfect(self):
        rng = np.random.default_rng(8)
        feats = rng.normal(size=(20, 6))
        labels = np.zeros(20, dtype=int)
        res = few_shot_episode_eval(feats, labels, way=1, shot=3, episodes=10, seed=0)
        assert res.mean_accuracy == 1.0

    def test_random_features_are_chance_level(self):
        """Labels independent of features: 5-way accuracy within 3 sigma of 0.2."""
        rng = np.random.default_rng(9)
        feats = rng.normal(size=(150, 16))
        labels = np.repeat(np.arange(5), 30)
        res = few_shot_episode_eval(feats, labels, way=5, shot=5, episodes=200, seed=1)
        sigma = res.per_episode.std(ddof=1) / np.sqrt(200)
        assert abs(res.mean_accuracy - 0.2) <= 3 * sigma

    def test_reproducible_episode_draws(self):
        rng = np.random.default_rng(10)
        feats = rng.normal(size=(60, 4))
        labels = np.repeat(np.arange(6), 10)
        a = few_shot_episode_eval(feats, labels, way=3, shot=2, episodes=20, seed=7)
        b = few_shot_episode_eval(feats, labels, way=3, shot=2, episodes=20, seed=7)
        np.testing.assert_array_equal(a.per_episode, b.per_episode)

    def test_insufficient_samples_rejected(self):
        feats = np.zeros((6, 3))
        labels = np.array([0, 0, 1, 1, 2, 2])
        with pytest.raises(ValueError, match="shot"):
            few_shot_episode_eval(feats, labels, way=3, shot=2, episodes=5, seed=0)

    @pytest.mark.parametrize("name", ["way", "shot", "episodes"])
    @pytest.mark.parametrize("value", [0, -1])
    def test_arguments_below_one_rejected_by_name(self, name, value):
        feats = np.random.default_rng(5).normal(size=(30, 4))
        labels = np.repeat(np.arange(3), 10)
        kwargs = {"way": 3, "shot": 2, "episodes": 5} | {name: value}
        with pytest.raises(ValueError, match=f"{name} must be >= 1, got {value}"):
            few_shot_episode_eval(feats, labels, seed=0, **kwargs)


def _train_linear_head(x, y, n_classes, epochs, lr, momentum):
    """Reference: one episode's head, trained alone with 2-D arrays."""
    n, d = x.shape
    w = np.zeros((d, n_classes))
    b = np.zeros(n_classes)
    vw = np.zeros_like(w)
    vb = np.zeros_like(b)
    onehot = np.eye(n_classes)[y]
    for _ in range(epochs):
        logits = x @ w + b
        logits -= logits.max(axis=1, keepdims=True)
        p = np.exp(logits)
        p /= p.sum(axis=1, keepdims=True)
        g = (p - onehot) / n
        gw = x.T @ g
        gb = g.sum(axis=0)
        vw = momentum * vw + gw
        vb = momentum * vb + gb
        w -= lr * vw
        b -= lr * vb
    return w, b


def _lone_episode_accuracies(features, labels, way, shot, episodes, seed):
    """Reference: every episode drawn, trained and scored on its own."""
    classes = np.unique(labels)
    per_class = {int(c): np.flatnonzero(labels == c) for c in classes}
    accs = []
    for ep in range(episodes):
        rng = np.random.default_rng([seed, ep, 0xFE75])
        chosen = rng.choice(classes, size=way, replace=False)
        xs, ys, xq, yq = [], [], [], []
        for slot, c in enumerate(chosen):
            idx = per_class[int(c)]
            picked = rng.permutation(idx)
            n_query = min(QUERY_PER_CLASS, idx.size - shot)
            xs.append(features[picked[:shot]])
            ys.append(np.full(shot, slot))
            xq.append(features[picked[shot : shot + n_query]])
            yq.append(np.full(n_query, slot))
        w, b = _train_linear_head(
            np.concatenate(xs), np.concatenate(ys), way,
            ADAPTER_EPOCHS, ADAPTER_LR, ADAPTER_MOMENTUM,
        )
        pred = (np.concatenate(xq) @ w + b).argmax(axis=1)
        accs.append(float((pred == np.concatenate(yq)).mean()))
    return np.array(accs)


class TestStackedEpisodeHeads:
    @pytest.mark.parametrize("way,shot", [(5, 5), (5, 20), (3, 1)])
    def test_heads_byte_equal_to_lone_training(self, way, shot):
        rng = np.random.default_rng(way * 100 + shot)
        x = rng.normal(size=(7, way * shot, 16))
        y = np.repeat(np.arange(way), shot)
        w, b = _train_linear_heads(x, y, way, 100, 0.01, 0.99)
        assert w.shape == (7, 16, way) and b.shape == (7, 1, way)
        for i in range(7):
            ref_w, ref_b = _train_linear_head(x[i], y, way, 100, 0.01, 0.99)
            assert w[i].tobytes() == ref_w.tobytes()
            assert b[i, 0].tobytes() == ref_b.tobytes()

    def test_per_episode_equal_to_lone_runs_across_ragged_blocks(self):
        """250 episodes train in blocks of 100, 100 and 50. Class 0 holds
        shot + 6 samples, so its episodes score 6 queries, not 15."""
        assert EPISODE_BLOCK == 100
        rng = np.random.default_rng(13)
        labels = np.concatenate([np.zeros(11, dtype=int), np.repeat(np.arange(1, 7), 25)])
        feats = rng.normal(size=(labels.size, 12)) + 0.5 * np.eye(12)[labels]
        res = few_shot_episode_eval(feats, labels, way=5, shot=5, episodes=250, seed=2)
        expected = _lone_episode_accuracies(feats, labels, way=5, shot=5, episodes=250, seed=2)
        assert res.per_episode.tobytes() == expected.tobytes()
        assert res.mean_accuracy == float(expected.mean())


class TestEmbedImages:
    @pytest.mark.parametrize("n", [33, 40])
    def test_chunked_stack_byte_equal_to_one_forward(self, n):
        """33 leaves a one-image last chunk; 40 an eight-image one."""
        model = TwoTowerModel.create(TINY, build_vocabulary(["a heron"]), seed=3)
        images = np.random.default_rng(n).uniform(size=(n, 8, 8, 3))
        with no_grad():
            whole = model.encode_image(images).data
        assert embed_images(model, images).tobytes() == whole.tobytes()


class TestRegions:
    def _model_and_sets(self):
        vocab = build_vocabulary(["a heron", "a maple"])
        model = TwoTowerModel.create(TINY, vocab, seed=3)
        psets = build_prompt_sets(model, ["heron", "maple"])
        return model, psets

    def test_full_image_box_matches_whole_image_ranking(self):
        """Boxes embedded together rank exactly as zero_shot_classify ranks
        each crop alone; the full-image box ranks as the whole image."""
        model, psets = self._model_and_sets()
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(8, 8, 3))
        boxes = [(0, 0, 8, 8), (0, 0, 4, 4), (2, 1, 8, 6), (4, 4, 8, 8), (1, 3, 7, 5)]
        per_box = classify_regions(model, img, boxes, psets)
        assert per_box[0] == zero_shot_classify(model, img, psets)
        for box, got in zip(boxes[1:], per_box[1:]):
            crop = resize_bilinear(crop_box(img, *box), 8, 8)
            assert got == zero_shot_classify(model, crop, psets)

    def test_one_image_forward_per_32_boxes(self, monkeypatch):
        model, psets = self._model_and_sets()
        rows = []
        encode = TwoTowerModel.encode_image

        def counted(self, images, *args, **kwargs):
            rows.append(len(images))
            return encode(self, images, *args, **kwargs)

        monkeypatch.setattr(TwoTowerModel, "encode_image", counted)
        ranked = classify_regions(model, np.zeros((8, 8, 3)), [(0, 0, 4, 4)] * 40, psets)
        assert len(ranked) == 40 and rows == [32, 8]

    def test_empty_box_list(self):
        model, psets = self._model_and_sets()
        assert classify_regions(model, np.zeros((8, 8, 3)), [], psets) == []

    def test_zero_area_and_out_of_bounds_rejected(self):
        model, psets = self._model_and_sets()
        img = np.zeros((8, 8, 3))
        with pytest.raises(ValueError, match="zero-area"):
            classify_regions(model, img, [(2, 2, 2, 6)], psets)
        with pytest.raises(ValueError, match="outside"):
            classify_regions(model, img, [(0, 0, 9, 4)], psets)

    def test_box_jsonl_roundtrip(self, tmp_path):
        from florence_mini.evaluation import read_boxes_jsonl, write_boxes_jsonl

        boxes = [Box("img0", 0, 0, 4, 4), Box("img1", 2, 1, 8, 6)]
        write_boxes_jsonl(tmp_path / "boxes.jsonl", boxes)
        assert read_boxes_jsonl(tmp_path / "boxes.jsonl") == boxes


class TestEvalReport:
    def test_out_of_range_metric_rejected(self):
        with pytest.raises(ValueError):
            EvalReport(task="t", metrics={"top1_acc": 1.5}, n=10)

    def test_jsonl_roundtrip(self, tmp_path):
        from florence_mini.evaluation import append_report_jsonl, read_reports_jsonl

        rep = EvalReport(task="zero_shot", metrics={"top1_acc": 0.9}, n=100, seed=3)
        append_report_jsonl(tmp_path / "r.jsonl", rep)
        assert read_reports_jsonl(tmp_path / "r.jsonl") == [rep]
