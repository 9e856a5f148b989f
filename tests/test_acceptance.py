"""Acceptance criteria, one test per criterion, each printing a PASS line.

The expensive artifacts (the end-to-end toy run) are built once per session
through the CLI and shared; everything else runs on purpose-built fixtures
at the tolerances stated with each criterion.
"""

import json
import math
import time
from dataclasses import replace
import numpy as np
import pytest

from florence_mini.cli import build_parser, main
from florence_mini.curation import (
    class_prototype,
    curate,
    dedup_near_duplicates,
    generate_synthetic_dataset,
    read_triplets_jsonl,
)
from florence_mini.encoders import (
    ModelConfig,
    TwoTowerModel,
    build_video_tower,
    build_vocabulary,
    encode_video,
    inflate_conv_2d_to_3d,
    windowed_attention_block,
)
from florence_mini.encoders.model import _ATTENTION_PARAMS, _MLP_PARAMS
from florence_mini.evaluation import (
    build_prompt_sets,
    classify_regions,
    few_shot_episode_eval,
    retrieval_recall,
)
from florence_mini.experiments import duplicate_caption_advantage
from florence_mini.numerics import (
    Tensor,
    activation_meter,
    adamw_step,
    backward_from,
    init_optimizer_state,
    no_grad,
    ops,
)
from florence_mini.trainer import (
    TrainConfig,
    checkpointed,
    gradient_cache_gradients,
    load_model_checkpoint,
    monolithic_gradients,
    prepare_batch,
    train_step,
)
from florence_mini.trainer import loop
from florence_mini.unicl import unicl_loss_arrays, unicl_loss_op
from oracles import finite_difference_check, infonce_reference, matmul


def _pass(n: int, detail: str) -> None:
    # tests/conftest.py repeats these lines in the terminal summary
    print(f"\nACCEPTANCE {n:02d} PASS: {detail}")


def _unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


@pytest.fixture(scope="session")
def toy_run(tmp_path_factory):
    """synth(8x128) -> curate -> two-stage train + high-res phase via the CLI,
    stage shape 300/60/20."""
    root = tmp_path_factory.mktemp("toy")
    assert main(["synth", "--classes", "8", "--per-class", "128", "--seed", "0", "--out", str(root / "data")]) == 0
    assert main(["curate", "--records", str(root / "data/records.jsonl"), "--seed", "0", "--out", str(root / "cur")]) == 0
    t0 = time.perf_counter()
    assert (
        main(
            [
                "train",
                "--triplets", str(root / "cur/triplets.jsonl"),
                "--out", str(root / "run"),
                "--stage1-steps", "300", "--stage2-steps", "60", "--high-res-steps", "20",
                "--batch-size", "64", "--chunk-size", "16",
                "--peak-lr", "0.002", "--warmup-steps", "50", "--seed", "0",
            ],
        )
        == 0
    )
    train_wall = time.perf_counter() - t0
    return {"root": root, "train_wall": train_wall, "total_steps": 380}


def test_criterion_01_unicl_infonce_reduction():
    """All-distinct labels collapse UniCL to InfoNCE within 1e-12."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(0)
    worst = 0.0
    for trial in range(100):
        n = int(rng.integers(2, 17))
        u = _unit_rows(rng, n, 8)
        v = _unit_rows(rng, n, 8)
        s = float(rng.uniform(-1.0, 1.5))
        val = unicl_loss_arrays(u, v, np.arange(n), s).loss
        ref = infonce_reference(u, v, math.exp(s))
        worst = max(worst, abs(val - ref))
    elapsed = time.perf_counter() - t0
    assert worst < 1e-12
    assert elapsed < 5.0
    _pass(1, f"100 all-distinct batches, max |unicl - infonce| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_02_hand_values():
    u = np.array([[1.0, 0.0], [0.0, 1.0]])
    orthogonal = unicl_loss_arrays(u, u.copy(), np.array([0, 1]), 0.0).loss
    expected_orth = 4.0 * math.log(1.0 + math.exp(-1.0))
    assert abs(orthogonal - expected_orth) < 1e-9

    e = np.array([[1.0, 0.0], [1.0, 0.0]])
    identical = unicl_loss_arrays(e, e.copy(), np.array([7, 7]), 0.42).loss
    assert abs(identical - 4.0 * math.log(2.0)) < 1e-9
    _pass(2, f"orthogonal batch {orthogonal:.6f} ~ 4*log(1+1/e), identical batch ~ 4*log2")


def test_criterion_03_gradient_correctness():
    """Loss and encoder-primitive gradients vs central differences (eps 1e-5)."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(1)
    tol = 1e-4
    worst = {}

    u = _unit_rows(rng, 4, 5)
    v = _unit_rows(rng, 4, 5)
    y = np.array([0, 0, 1, 2])
    worst["unicl_dU"] = finite_difference_check(
        lambda x: unicl_loss_op(x, Tensor(v), Tensor(np.array(0.3)), y), u
    ).max_rel_error
    worst["unicl_dV"] = finite_difference_check(
        lambda x: unicl_loss_op(Tensor(u), x, Tensor(np.array(0.3)), y), v
    ).max_rel_error
    worst["unicl_dtau"] = finite_difference_check(
        lambda s: unicl_loss_op(Tensor(u), Tensor(v), s, y), np.array(0.3)
    ).max_rel_error

    probe2 = Tensor(rng.normal(size=(3, 4)))
    worst["matmul"] = finite_difference_check(
        lambda a: ops.tensor_sum(ops.mul(matmul(a, Tensor(rng.normal(size=(5, 4)))), probe2)),
        rng.normal(size=(3, 5)),
    ).max_rel_error
    worst["conv"] = finite_difference_check(
        lambda w: ops.tensor_sum(
            ops.conv(Tensor(rng.normal(size=(1, 6, 6, 2))), w, Tensor(rng.normal(size=3)), (2, 2))
        ),
        rng.normal(size=(2, 2, 2, 3)) * 0.5,
    ).max_rel_error

    tiny = ModelConfig(
        image_size=8, patch_kernel=2, stage_depths=(1,), stage_widths=(4,), stage_heads=(2,),
        window=2, shared_dim=4, text_layers=1, text_width=4, text_heads=2, max_len=8,
    )
    model = TwoTowerModel.create(tiny, build_vocabulary(["a heron"]), seed=2)
    xmap = Tensor(rng.normal(size=(1, 4, 4, 4)))
    probe_map = Tensor(rng.normal(size=(1, 4, 4, 4)))

    def through_block(name):
        """The block's probed output as a function of x or of one of its tensors."""

        def f(t):
            params = dict(model.params)
            if name != "x":
                params[f"image.s0.b0.{name}"] = t
            block = [params[f"image.s0.b0.{n}"] for n in ("attn.rel_bias", *_ATTENTION_PARAMS, *_MLP_PARAMS)]
            out = windowed_attention_block(t if name == "x" else xmap, *block, heads=2, window=2)
            return ops.tensor_sum(ops.mul(out, probe_map))

        return f

    block_tensors = [f"attn.{n}" for n in ("wq", "bq", "wk", "wv", "bv", "wo", "bo", "rel_bias")] + [
        f"{sub}.{n}" for sub, names in (("ln1", "gamma beta"), ("ln2", "gamma beta"), ("mlp", "w1 b1 w2 b2")) for n in names.split()
    ]
    worst["windowed_attention"] = max(
        finite_difference_check(
            through_block(name),
            (xmap if name == "x" else model.params[f"image.s0.b0.{name}"]).data.copy(),
        ).max_rel_error
        for name in ["x", *block_tensors]
    )

    gam = rng.normal(size=6)
    bet = rng.normal(size=6)
    probe_ln = Tensor(rng.normal(size=(3, 6)))
    worst["layer_norm"] = finite_difference_check(
        lambda x: ops.tensor_sum(ops.mul(ops.layer_norm(x, Tensor(gam), Tensor(bet)), probe_ln)),
        rng.normal(size=(3, 6)),
    ).max_rel_error
    probe_sm = Tensor(rng.normal(size=(2, 5)))
    worst["softmax"] = finite_difference_check(
        lambda x: ops.tensor_sum(ops.mul(ops.softmax(x), probe_sm)), rng.normal(size=(2, 5))
    ).max_rel_error
    worst["log"] = finite_difference_check(
        lambda x: ops.tensor_sum(ops.log(x)), rng.uniform(0.5, 2.0, size=8)
    ).max_rel_error
    probe_l2 = Tensor(rng.normal(size=(3, 4)))
    worst["l2_normalize"] = finite_difference_check(
        lambda x: ops.tensor_sum(ops.mul(ops.l2_normalize(x), probe_l2)),
        rng.normal(size=(3, 4)) + 0.4,
    ).max_rel_error

    elapsed = time.perf_counter() - t0
    assert all(err < tol for err in worst.values()), worst
    assert elapsed < 60.0
    _pass(3, f"max rel err {max(worst.values()):.2e} over {sorted(worst)} in {elapsed:.1f}s")


@pytest.fixture(scope="session")
def grad_cache_setup(tmp_path_factory):
    d = tmp_path_factory.mktemp("gc")
    records, _ = generate_synthetic_dataset(d, num_classes=4, per_class=8, seed=3)
    triplets = curate(records, seed=3).triplets
    vocab = build_vocabulary([t.text for t in triplets])
    model = TwoTowerModel.create(ModelConfig(), vocab, seed=3)
    images, ids, labels, _ = prepare_batch(triplets[:16], vocab, "float64")
    return model, images, ids, labels


def test_criterion_04_gradient_cache_theorem(grad_cache_setup):
    t0 = time.perf_counter()
    model, images, ids, labels = grad_cache_setup
    _, g_ref = monolithic_gradients(model, images, ids, labels)
    worst_by_chunk = {}
    for chunk in (2, 4, 8, 16):
        _, g = gradient_cache_gradients(model, images, ids, labels, chunk_size=chunk)
        assert set(g) == set(g_ref)
        worst_by_chunk[chunk] = max(np.abs(g_ref[k] - g[k]).max() for k in g_ref)
        assert worst_by_chunk[chunk] < 1e-9, (chunk, worst_by_chunk[chunk])
        if chunk == 16:
            assert all(g_ref[k].tobytes() == g[k].tobytes() for k in g_ref)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _pass(4, f"batch 16 deviations {[f'{v:.1e}' for v in worst_by_chunk.values()]}, chunk 16 bit-exact, {elapsed:.1f}s")


def test_criterion_05_zero_sim_equivalence(grad_cache_setup, tmp_path):
    """Bit-exact in float64 and in float32."""
    model_ref, images64, ids, labels, = (*grad_cache_setup,)
    vocab = model_ref.vocab
    config = TrainConfig(batch_size=16, chunk_size=16, peak_lr=1e-3, warmup_steps=1)

    for dtype in ("float64", "float32"):
        images = images64.astype(dtype)

        def run(workers):
            model = TwoTowerModel.create(ModelConfig(dtype=dtype), vocab, seed=3)
            cfg = replace(config, zero_workers=workers)
            state = init_optimizer_state(model.param_arrays(), lr=1e-3)
            for step in range(10):
                state, _ = train_step(model, images, ids, labels, ["r"] * 16, state, cfg, 1e-3)
            return model.param_arrays()

        def unsharded():
            # plain AdamW over the trainer's own gradients
            model = TwoTowerModel.create(ModelConfig(dtype=dtype), vocab, seed=3)
            state = init_optimizer_state(model.param_arrays(), lr=1e-3)
            for step in range(10):
                _, grads = loop.compute_gradients(model, images, ids, labels, config)
                params, state = adamw_step(model.param_arrays(), grads, state, lr=1e-3)
                model.load_arrays(params)
            return model.param_arrays()

        baseline = unsharded()
        assert all(v.dtype == dtype for v in baseline.values())
        for workers in (1, 2, 4):
            sharded = run(workers)
            for k in baseline:
                assert baseline[k].tobytes() == sharded[k].tobytes(), (dtype, workers, k)
    _pass(5, "W in {1,2,4}: 10-step parameters bit-equal to unsharded baseline in float64 and float32")


def test_criterion_06_activation_checkpointing(grad_cache_setup):
    model, images, ids, labels = grad_cache_setup
    model32 = TwoTowerModel.create(ModelConfig(dtype="float32"), model.vocab, seed=3)
    for m, x in ((model, images), (model32, images.astype(np.float32))):
        l1, g1 = monolithic_gradients(m, x, ids, labels)
        l2, g2 = monolithic_gradients(m, x, ids, labels, block_wrapper=checkpointed)
        assert l1 == l2
        assert set(g1) == set(g2)
        assert all(g1[k].dtype == x.dtype for k in g1)
        assert all(g1[k].tobytes() == g2[k].tobytes() for k in g1)

    rng = np.random.default_rng(4)
    seed_grad = rng.normal(size=(8, 64))
    imgs = images[:8]

    def tower_peak(wrapper):
        activation_meter.reset()
        u = model.encode_image(imgs, block_wrapper=wrapper)
        backward_from([u], [seed_grad])
        return activation_meter.peak

    plain = tower_peak(None)
    ckpt = tower_peak(checkpointed)
    reduction = 1.0 - ckpt / plain
    assert reduction >= 0.30, reduction
    _pass(6, f"gradients bit-equal in float64 and float32; tower peak activations {plain} -> {ckpt} (-{reduction:.0%})")


def test_criterion_07_inflation_fidelity():
    rng = np.random.default_rng(5)
    w2d = rng.normal(size=(4, 4, 3, 8)).astype(np.float32)
    w1 = inflate_conv_2d_to_3d(w2d, kt=1)
    assert w1[0].tobytes() == w2d.tobytes()

    config = ModelConfig(dtype="float32")
    model = TwoTowerModel.create(config, build_vocabulary(["a heron"]), seed=5)
    tower = build_video_tower(model.param_arrays(), config, kt=2, frames=4)
    for name, arr in model.param_arrays().items():
        if name == "image.patch_embed.w" or (name.startswith("image.merge") and name.endswith(".w")):
            continue
        assert tower.params[name].shape == arr.shape and tower.params[name].tobytes() == arr.tobytes(), name

    img = rng.uniform(size=(32, 32, 3)).astype(np.float32)
    clip = np.repeat(img[None], 4, axis=0)
    with no_grad():
        e_img = model.encode_image(img).data
        e_vid = encode_video(tower, clip).data
    dev = float(np.abs(e_img - e_vid).max())
    assert dev < 1e-6
    _pass(7, f"kt=1 byte-identical; constant-clip embedding deviation {dev:.1e} (float32)")


def test_criterion_08_end_to_end_toy_run(toy_run):
    root = toy_run["root"]
    assert toy_run["total_steps"] <= 500
    assert toy_run["train_wall"] < 300.0, toy_run["train_wall"]

    metrics = [json.loads(l) for l in open(root / "run/metrics.jsonl")]
    assert len(metrics) == toy_run["total_steps"]  # 300 + 60 + 20 = 380 optimizer steps
    assert [m["step"] for m in metrics] == list(range(toy_run["total_steps"]))
    stages = [m["stage"] for m in metrics]
    assert (stages.count("stage1"), stages.count("stage2"), stages.count("high_res")) == (300, 60, 20)

    # stage-2 batch purity over a full epoch
    pool = loop.stage_pool(read_triplets_jsonl(root / "cur/triplets.jsonl"), 2)
    assert all(not t.augmented for k in range(len(pool) // 64) for t in loop.stage_batch(pool, 0, 2, 64, k))

    out = root / "zs"
    assert (
        main(
            ["eval", "zero-shot", "--checkpoint", str(root / "run/ckpt-final"),
             "--data", str(root / "data"), "--out", str(out), "--seed", "0"],
        )
        == 0
    )
    report = json.loads((out / "reports.jsonl").read_text())
    top1 = report["metrics"]["top1_acc"]
    assert top1 >= 0.90, top1
    _pass(
        8,
        f"380 steps in {toy_run['train_wall']:.0f}s, zero-shot top-1 {top1:.3f} "
        f"on {report['n']} held-out images (chance 0.125), stage-2 epoch clean",
    )


def test_criterion_09_duplicate_caption_advantage(tmp_path):
    res = duplicate_caption_advantage(tmp_path)
    assert res["unicl_mean"] >= res["infonce_mean"], res
    for u, i in zip(res["unicl"], res["infonce"]):
        assert u >= i, res
    _pass(
        9,
        f"text->image R@1 unicl {res['unicl_mean']:.3f} >= infonce {res['infonce_mean']:.3f} "
        f"per-seed {res['unicl']} vs {res['infonce']}",
    )


def test_criterion_10_retrieval_metric_oracle():
    rng = np.random.default_rng(6)
    for _ in range(200):
        u = rng.normal(size=(32, 8))
        v = rng.normal(size=(32, 8))
        fast = retrieval_recall(u, v, ks=[1, 5])
        scores = u @ v.T
        for direction, mat in (("i2t", scores), ("t2i", scores.T)):
            for k in (1, 5):
                hits = 0
                for i in range(32):
                    row = mat[i]
                    rank = sum(
                        1 for j in range(32) if row[j] > row[i] or (row[j] == row[i] and j < i)
                    )
                    hits += rank < k
                assert fast[direction][k] == hits / 32
    _pass(10, "200 random 32-row batches equal exhaustive rank enumeration exactly")


def test_criterion_11_curation_determinism(tmp_path):
    rng = np.random.default_rng(7)
    from florence_mini.curation import RawRecord
    from florence_mini.numerics import write_tensor_file

    base = [rng.uniform(size=(16, 16, 3)).astype(np.float32) for _ in range(90)]
    images = base + [base[i].copy() for i in range(10)]
    records = []
    for i, img in enumerate(images):
        p = tmp_path / f"img{i:03d}.bin"
        write_tensor_file(p, img)
        records.append(RawRecord(id=f"r{i:03d}", image_path=str(p), text=f"caption {i}"))

    kept_once, reports = dedup_near_duplicates(records, hamming_threshold=5)
    assert len(reports) == 10
    kept_twice, reports2 = dedup_near_duplicates(kept_once, hamming_threshold=5)
    assert [r.id for r in kept_twice] == [r.id for r in kept_once]
    assert reports2 == []

    r1 = curate(records, seed=11)
    r2 = curate(records, seed=11)
    fingerprint = lambda res: [(t.id, t.text, t.label, t.augmented) for t in res.triplets]
    assert fingerprint(r1) == fingerprint(r2)
    _pass(11, "dedup idempotent, 10-duplicate fixture -> 10 removals, pipeline pure in (input, seed)")


def test_criterion_12_few_shot_protocol(toy_run):
    rng = np.random.default_rng(8)
    feats = rng.normal(size=(40, 6))
    ones = few_shot_episode_eval(feats, np.zeros(40, dtype=int), way=1, shot=5, episodes=20, seed=0)
    assert ones.mean_accuracy == 1.0

    # frozen random encoder on noise images: labels carry no signal
    encoder = TwoTowerModel.create(ModelConfig(), build_vocabulary(["x"]), seed=99)
    noise = rng.uniform(size=(150, 32, 32, 3))
    with no_grad():
        features = np.concatenate(
            [encoder.encode_image(noise[i : i + 50]).data for i in range(0, 150, 50)]
        )
    labels = np.repeat(np.arange(5), 30)
    res = few_shot_episode_eval(features, labels, way=5, shot=5, episodes=200, seed=1)
    sigma = res.per_episode.std(ddof=1) / np.sqrt(200)
    assert abs(res.mean_accuracy - 0.2) <= 3 * sigma, (res.mean_accuracy, sigma)

    for shot in (5, 20, 50):
        protocol = build_parser().parse_args(
            ["eval", "few-shot", "--checkpoint", "ckpt", "--data", "data", "--out", "out",
             "--way", "5", "--shot", str(shot), "--episodes", "600"]
        )
        assert (protocol.way, protocol.shot, protocol.episodes) == (5, shot, 600)
    _pass(
        12,
        f"1-way = 1.0; random encoder 5-way {res.mean_accuracy:.3f} within 3 sigma of 0.2; "
        "5/20/50-shot x 600-episode protocol expressible",
    )


def test_trained_model_labels_regions(toy_run):
    """Two prototypes side by side: each oracle box gets its own class."""
    root = toy_run["root"]
    model = load_model_checkpoint(root / "run/ckpt-final")
    class_names = (root / "data/classes.txt").read_text().splitlines()
    composite = np.concatenate(
        [class_prototype(0, 32, seed=0), class_prototype(1, 32, seed=0)], axis=1
    )
    prompt_sets = build_prompt_sets(model, class_names)
    rankings = classify_regions(
        model, composite, [(0, 0, 32, 32), (32, 0, 64, 32)], prompt_sets
    )
    assert rankings[0][0][0] == 0
    assert rankings[1][0][0] == 1
