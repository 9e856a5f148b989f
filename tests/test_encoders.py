"""Two-tower encoders, tokenization, and 2D->3D inflation."""

import re
import tracemalloc

import numpy as np
import pytest

from florence_mini.encoders import (
    BOS,
    EOS,
    ModelConfig,
    PAD,
    TwoTowerModel,
    UNK,
    build_video_tower,
    build_vocabulary,
    encode_video,
    inflate_conv_2d_to_3d,
    parameter_shapes,
    relative_index,
    tokenize,
    tokenize_batch,
    windowed_attention_block,
)
from florence_mini.encoders.model import _ATTENTION_PARAMS, _MLP_PARAMS, transformer_block
from florence_mini.numerics import Tensor, activation_meter, backward_from, no_grad, ops
from florence_mini.numerics.tensor import TapeNode, _toposort
from florence_mini.trainer import checkpointed
from florence_mini.unicl import unicl_loss_arrays
from oracles import finite_difference_check, parameter_count, reshape

TINY = ModelConfig(
    image_size=8,
    patch_kernel=2,
    stage_depths=(1,),
    stage_widths=(4,),
    stage_heads=(2,),
    window=2,
    shared_dim=4,
    text_layers=1,
    text_width=4,
    text_heads=2,
    max_len=8,
)


def block_tensors(params, windowed=False):
    """Block image.s0.b0's tensors in the order the block functions take
    them, led by its relative-position table when ``windowed``."""
    names = ("attn.rel_bias",) * windowed + _ATTENTION_PARAMS + _MLP_PARAMS
    return [params[f"image.s0.b0.{name}"] for name in names]


@pytest.fixture(scope="module")
def vocab():
    return build_vocabulary(["a photo of the heron", "maple field study", "cobalt pattern"])


@pytest.fixture(scope="module")
def mini_model(vocab):
    return TwoTowerModel.create(ModelConfig(), vocab, seed=0)


class TestTokenize:
    def test_empty_text(self, vocab):
        ids = tokenize("", vocab)
        assert len(ids) == vocab.max_len
        assert ids[0] == BOS and ids[1] == EOS
        assert (ids[2:] == PAD).all()

    def test_unknown_word_maps_to_unk(self, vocab):
        ids = tokenize("zyzzyva", vocab)
        assert ids[1] == UNK

    def test_truncation_at_76_ends_in_eos(self):
        v = build_vocabulary(["word"], max_len=76)
        ids = tokenize(" ".join(["word"] * 100), v)
        assert len(ids) == 76
        assert ids[-1] == EOS
        assert PAD not in ids

    def test_punctuation_split_and_lowercase(self, vocab):
        a = tokenize("A Photo, of the (heron).", vocab)
        b = tokenize("a photo of the heron", vocab)
        np.testing.assert_array_equal(a, b)


class TestTextTower:
    def test_unit_norm_output(self, mini_model, vocab):
        ids = tokenize_batch(["a photo of the heron", "maple pattern"], vocab)
        with no_grad():
            v = mini_model.encode_text(ids)
        np.testing.assert_allclose(np.linalg.norm(v.data, axis=1), 1.0, atol=1e-6)

    def test_determinism(self, mini_model, vocab):
        ids = tokenize_batch(["cobalt field study"], vocab)
        with no_grad():
            a = mini_model.encode_text(ids)
            b = mini_model.encode_text(ids)
        assert a.data.tobytes() == b.data.tobytes()

    def test_pad_invariance(self, mini_model, vocab):
        """Appending PAD tokens never changes the embedding (mask correctness)."""
        short = np.array([[BOS, 5, 6, EOS]])
        padded = np.concatenate([short, np.full((1, 20), PAD)], axis=1)
        with no_grad():
            a = mini_model.encode_text(short)
            b = mini_model.encode_text(padded)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_trailing_pad_columns_change_no_byte(self, mini_model, vocab):
        """The tower drops the columns that are PAD in every row itself, so a
        tokenizer's full-width batch embeds exactly as its trimmed copy."""
        ids = tokenize_batch(["a photo of the heron", "maple pattern"], vocab)
        used = int(np.flatnonzero((ids != PAD).any(axis=0))[-1]) + 1
        assert used < ids.shape[1]
        with no_grad():
            full = mini_model.encode_text(ids).data
            trimmed = mini_model.encode_text(ids[:, :used]).data
        assert full.tobytes() == trimmed.tobytes()

    def test_all_pad_rejected(self, mini_model):
        with pytest.raises(ValueError, match="all-PAD"):
            mini_model.encode_text(np.full((1, 4), PAD))


class TestImageTower:
    def test_unit_norm_and_determinism(self, mini_model):
        rng = np.random.default_rng(0)
        imgs = rng.uniform(size=(2, 32, 32, 3))
        with no_grad():
            a = mini_model.encode_image(imgs)
            b = mini_model.encode_image(imgs)
        np.testing.assert_allclose(np.linalg.norm(a.data, axis=1), 1.0, atol=1e-6)
        assert a.data.tobytes() == b.data.tobytes()

    def test_indivisible_extent_rejected(self, mini_model):
        with pytest.raises(ValueError, match="divisible"):
            with no_grad():
                mini_model.encode_image(np.zeros((1, 30, 30, 3)))

    def test_wrong_channel_count_rejected(self, mini_model):
        with pytest.raises(ValueError, match="channel"):
            with no_grad():
                mini_model.encode_image(np.zeros((1, 32, 32, 4)))

    def test_conv_kernel_gradient_matches_finite_differences(self, vocab):
        """d(embedding . probe)/d(patch kernel) vs central differences."""
        model = TwoTowerModel.create(TINY, vocab, seed=1)
        rng = np.random.default_rng(2)
        img = Tensor(rng.uniform(size=(1, 8, 8, 3)))
        probe = Tensor(rng.normal(size=(1, TINY.shared_dim)))
        w0 = model.params["image.patch_embed.w"].data.copy()

        def f(w):
            params = dict(model.params)
            params["image.patch_embed.w"] = w
            from florence_mini.encoders.model import image_tower

            emb = image_tower(params, TINY, img)
            return ops.tensor_sum(ops.mul(emb, probe))

        rep = finite_difference_check(f, w0, eps=1e-5)
        assert rep.max_rel_error < 1e-4

    def test_windowed_attention_gradient_matches_finite_differences(self, vocab):
        model = TwoTowerModel.create(TINY, vocab, seed=3)
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(1, 4, 4, 4)))
        probe = Tensor(rng.normal(size=(1, 4, 4, 4)))
        wq0 = model.params["image.s0.b0.attn.wq"].data.copy()

        def f(wq):
            params = dict(model.params)
            params["image.s0.b0.attn.wq"] = wq
            out = windowed_attention_block(x, *block_tensors(params, windowed=True), heads=2, window=2)
            return ops.tensor_sum(ops.mul(out, probe))

        rep = finite_difference_check(f, wq0, eps=1e-5)
        assert rep.max_rel_error < 1e-4

    def test_window_equal_to_extent_is_global_attention(self, vocab):
        """One window covering the whole map equals attention over all tokens."""
        model = TwoTowerModel.create(TINY, vocab, seed=5)
        rng = np.random.default_rng(6)
        x = Tensor(rng.normal(size=(1, 2, 2, 4)))
        with no_grad():
            windowed = windowed_attention_block(x, *block_tensors(model.params, windowed=True), heads=2, window=2)

            # global path: all four tokens as one stack, attended without windows
            table = ops.embedding(model.params["image.s0.b0.attn.rel_bias"], relative_index(2))
            tokens = reshape(x, (1, 4, 4))
            glob = transformer_block(tokens, ops.transpose(table, (2, 0, 1)), 2, None, *block_tensors(model.params))
            glob = reshape(glob, (1, 2, 2, 4))
        np.testing.assert_allclose(windowed.data, glob.data, atol=1e-12)

    @pytest.fixture(scope="class")
    def float32_grads(self, vocab):
        """Image-tower gradients of a float32 model, plain and checkpointed."""
        config = ModelConfig(dtype="float32")
        imgs = np.random.default_rng(7).uniform(size=(4, 32, 32, 3)).astype(np.float32)
        grads = []
        for wrapper in (None, checkpointed):
            model = TwoTowerModel.create(config, vocab, seed=7)
            emb = model.encode_image(imgs, block_wrapper=wrapper)
            seed = np.random.default_rng(8).normal(size=emb.shape).astype(np.float32)
            grads.append({t.name: g for t, g in backward_from([emb], [seed]).items()})
        return grads

    def test_float32_model_gets_float32_gradients(self, float32_grads):
        """The attention scale 1/sqrt(dh) must not promote gradients to float64."""
        dtypes = {g.dtype for grads in float32_grads for g in grads.values()}
        assert dtypes == {np.dtype(np.float32)}

    def test_float32_checkpointed_gradients_byte_equal_plain(self, float32_grads):
        plain, ckpt = float32_grads
        assert plain.keys() == ckpt.keys()
        assert [k for k in plain if plain[k].tobytes() != ckpt[k].tobytes()] == []


class TestTapeHoldsOnlyWhatRulesSave:
    """A recorded forward of both towers over 8 images at 32 px and 8
    captions keeps the graph's edges and the arrays backward rules saved,
    and no forward output for its own sake."""

    @staticmethod
    def _inputs(vocab):
        images = np.random.default_rng(5).uniform(size=(8, 32, 32, 3))
        ids = tokenize_batch(["a photo of the heron", "maple field study", "cobalt pattern", "maple"] * 2, vocab)
        return images, ids

    def test_every_edge_is_a_node_a_requires_grad_leaf_or_none(self, mini_model, vocab):
        images, ids = self._inputs(vocab)
        u, v = mini_model.encode_image(images), mini_model.encode_text(ids)
        nodes = [e for e in _toposort([u.node, v.node]) if isinstance(e, TapeNode)]
        assert {"conv", "attention", "mlp", "linear", "embedding"} <= {n.op for n in nodes}
        edges = [e for n in nodes for e in n.inputs]
        assert None in edges  # the pixels
        for e in edges:
            assert e is None or isinstance(e, TapeNode) or (isinstance(e, Tensor) and e.requires_grad and e.node is None)
        assert all(len(n.shapes) == len(n.inputs) for n in nodes)

    def test_a_recorded_forward_holds_no_more_than_the_meter_counts(self, mini_model, vocab):
        """The bytes left allocated after the forward, as tracemalloc counts
        them, are at most the saved bytes the meter counts, which include
        saved weights and pixels that were allocated before it. When each
        node held its input tensors, every intermediate output stayed too,
        and the forward held about 1.2x the metered bytes."""
        images, ids = self._inputs(vocab)
        before = activation_meter.current
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            u, v = mini_model.encode_image(images), mini_model.encode_text(ids)
            held = tracemalloc.get_traced_memory()[0] - start
        finally:
            tracemalloc.stop()
        metered = (activation_meter.current - before) * u.data.itemsize
        assert 0 < held <= metered


class TestDenseLayers:
    @staticmethod
    def _weight_products(root):
        """(op, weight name) of every node reached from ``root`` whose second
        input edge is a 2-D requires-grad leaf: the nodes that multiply by
        a dense weight of their own."""
        return [
            (e.op, e.inputs[1].name)
            for e in _toposort([root.node])
            if isinstance(e, TapeNode)
            and len(e.inputs) > 1
            and isinstance(e.inputs[1], Tensor)
            and e.inputs[1].data.ndim == 2
        ]

    def test_every_dense_layer_runs_through_linear(self, mini_model, vocab):
        """The only such nodes are the towers' ``linear`` projections: no
        weight product runs through ``matmul``, and the walk cannot pass by
        finding nothing."""
        emb = mini_model.encode_image(np.random.default_rng(0).uniform(size=(2, 32, 32, 3)))
        assert self._weight_products(emb) == [("linear", "image.proj.w")]
        emb = mini_model.encode_text(tokenize_batch(["a photo of the heron", "maple"], vocab))
        assert self._weight_products(emb) == [("linear", "text.proj.w")]

    def test_relative_index_is_shared_and_read_only(self):
        first = relative_index(4)
        assert relative_index(4) is first
        assert not first.flags.writeable
        with pytest.raises(ValueError):
            first[0, 0] = 1


class TestModelConfigValidation:
    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"image_size": 0}, "image_size must be >= 1, got 0"),
            ({"patch_kernel": 0}, "patch_kernel must be >= 1, got 0"),
            ({"window": 0}, "window must be >= 1, got 0"),
            ({"merge_kernel": -1}, "merge_kernel must be >= 1, got -1"),
            ({"text_heads": 0}, "text_heads must be >= 1, got 0"),
            ({"stage_heads": (0, 2)}, "stage_heads[0] must be >= 1, got 0"),
            ({"stage_heads": (2, 0)}, "stage_heads[1] must be >= 1, got 0"),
        ],
    )
    def test_size_below_one_refused_by_name(self, kwargs, message):
        """Each of these divides a size, so a zero would be a ZeroDivisionError."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"channels": 0}, "channels must be >= 1, got 0"),
            ({"shared_dim": 0}, "shared_dim must be >= 1, got 0"),
            ({"shared_dim": -1}, "shared_dim must be >= 1, got -1"),
            ({"mlp_ratio": 0}, "mlp_ratio must be >= 1, got 0"),
            ({"text_width": 0}, "text_width must be >= 1, got 0"),
            ({"stage_widths": (32, -64)}, "stage_widths[1] must be >= 1, got -64"),
            ({"stage_depths": (-1, 2)}, "stage_depths[0] must be >= 0, got -1"),
            ({"text_layers": -1}, "text_layers must be >= 0, got -1"),
        ],
    )
    def test_width_below_one_or_depth_below_zero_refused_by_name(self, kwargs, message):
        """These would build empty or negative-size tensors."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**kwargs)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"tau_init": 0.0}, "tau_init must be finite and > 0, got 0.0"),
            ({"tau_init": -1.0}, "tau_init must be finite and > 0, got -1.0"),
            ({"tau_init": float("nan")}, "tau_init must be finite and > 0, got nan"),
            ({"tau_init": float("inf")}, "tau_init must be finite and > 0, got inf"),
            ({"dtype": "float16"}, "dtype must be 'float32' or 'float64', got 'float16'"),
            ({"dtype": "int64"}, "dtype must be 'float32' or 'float64', got 'int64'"),
            (
                {"stage_depths": (), "stage_widths": (), "stage_heads": ()},
                "stage_depths, stage_widths and stage_heads must hold at least one stage",
            ),
        ],
    )
    def test_value_the_model_cannot_run_refused_by_name(self, kwargs, message):
        """log(tau_init) would be -inf or NaN, a Tensor holds float32 or
        float64 only, and the image tower indexes its first stage."""
        with pytest.raises(ValueError, match=re.escape(message)):
            ModelConfig(**kwargs)

    def test_zero_depth_means_no_blocks(self, vocab):
        config = ModelConfig(stage_depths=(0, 2), text_layers=0)
        assert not [name for name in parameter_shapes(config, len(vocab)) if name.startswith(("image.s0.", "text.b"))]
        model = TwoTowerModel.create(config, vocab, seed=0)
        with no_grad():
            u = model.encode_image(np.random.default_rng(0).uniform(size=(1, 32, 32, 3)))
            v = model.encode_text(tokenize_batch(["maple"], vocab))
        np.testing.assert_allclose(np.linalg.norm(u.data), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.linalg.norm(v.data), 1.0, atol=1e-12)


class TestParameterAccounting:
    def test_count_matches_instantiated_model(self, mini_model, vocab):
        total = sum(t.size for t in mini_model.params.values())
        assert parameter_count(ModelConfig(), len(vocab)) == total

    def test_large_config_counted_without_instantiation(self):
        """Paper-magnitude tower sizes are reported from config arithmetic only."""
        big = ModelConfig(
            image_size=384,
            patch_kernel=4,
            stage_depths=(2, 2, 18, 2),
            stage_widths=(352, 704, 1408, 2816),
            stage_heads=(11, 22, 44, 88),
            window=12,
            mlp_ratio=4,
            shared_dim=1024,
            text_layers=12,
            text_width=1024,
            text_heads=16,
        )
        n = parameter_count(big, vocab_size=50_000)
        assert n > 4e8  # hundreds of millions, matching the documented scale

    def test_shapes_are_pure_function_of_config(self, vocab):
        assert parameter_shapes(ModelConfig(), 100) == parameter_shapes(ModelConfig(), 100)

    def test_every_parameter_moves_the_loss(self, vocab):
        """No parameter is dead: N(0, 0.1²) noise on any one tensor moves
        the UniCL loss by more than 1e-10 relative. A tensor no output can
        see (as a softmax attention key bias is) would move it by
        round-off alone."""
        model = TwoTowerModel.create(ModelConfig(), vocab, seed=0)
        rng = np.random.default_rng(0)
        imgs = rng.uniform(size=(4, 32, 32, 3))
        ids = tokenize_batch(["a photo of the heron", "maple field study", "cobalt pattern", "the heron"], vocab)
        labels = np.array([0, 1, 2, 0])

        def loss() -> float:
            with no_grad():
                u, v = model.encode_image(imgs).data, model.encode_text(ids).data
            return unicl_loss_arrays(u, v, labels, float(model.tau_param.data)).loss

        base = loss()
        moves = {}
        for name, t in model.params.items():
            kept = t.data
            t.data = np.asarray(kept + rng.normal(0.0, 0.1, size=kept.shape))
            moves[name] = abs(loss() - base) / abs(base)
            t.data = kept
        dead = {name: m for name, m in moves.items() if not m > 1e-10}
        assert not dead, f"parameters that cannot move the loss: {dead}"


class TestInflation:
    def test_kt1_is_byte_identical(self):
        rng = np.random.default_rng(7)
        w = rng.normal(size=(4, 4, 3, 8))
        w3 = inflate_conv_2d_to_3d(w, kt=1)
        assert w3.shape == (1, 4, 4, 3, 8)
        assert w3[0].tobytes() == w.tobytes()

    def test_kt3_division_rule(self):
        w = np.ones((1, 1, 2, 2))
        w3 = inflate_conv_2d_to_3d(w, kt=3)
        assert w3.shape == (3, 1, 1, 2, 2)
        np.testing.assert_array_equal(w3, np.full((3, 1, 1, 2, 2), 1.0 / 3.0))

    def test_kt_below_one_rejected(self):
        with pytest.raises(ValueError):
            inflate_conv_2d_to_3d(np.ones((1, 1, 1, 1)), kt=0)

    def test_constant_video_through_inflated_tokenizer(self, mini_model):
        """Tube conv on a temporally constant clip equals the 2D tokenizer."""
        cfg = mini_model.config
        rng = np.random.default_rng(9)
        img = rng.uniform(size=(32, 32, 3)).astype(np.float64)
        w2d = mini_model.params["image.patch_embed.w"].data
        b = mini_model.params["image.patch_embed.b"]
        kt = 3
        clip = np.repeat(img[None], kt, axis=0)
        with no_grad():
            out2d = ops.conv(Tensor(img[None]), Tensor(w2d), b, (cfg.patch_kernel,) * 2)
            w3d = inflate_conv_2d_to_3d(w2d, kt)
            out3d = ops.conv(
                Tensor(clip[None]), Tensor(w3d), b, (kt, cfg.patch_kernel, cfg.patch_kernel)
            )
        np.testing.assert_allclose(out3d.data[0, 0], out2d.data[0], atol=1e-6)
        # per-output-channel mean response preserved (float64 closeness)
        np.testing.assert_allclose(
            out3d.data.mean(axis=(0, 1, 2, 3)), out2d.data.mean(axis=(0, 1, 2)), atol=1e-12
        )


class TestVideoTower:
    def test_non_tokenizer_weights_byte_equal(self, mini_model):
        arrays = mini_model.param_arrays()
        tower = build_video_tower(arrays, mini_model.config, kt=2, frames=4)
        transformed = {"image.patch_embed.w"}
        transformed |= {k for k in arrays if k.startswith("image.merge") and k.endswith(".w")}
        for name, arr in arrays.items():
            if name in transformed:
                continue
            assert tower.params[name].shape == arr.shape and tower.params[name].tobytes() == arr.tobytes(), name

    def test_kt1_t1_video_path_equals_image_path_exactly(self, mini_model):
        rng = np.random.default_rng(10)
        img = rng.uniform(size=(32, 32, 3))
        tower = build_video_tower(mini_model.param_arrays(), mini_model.config, kt=1, frames=1)
        with no_grad():
            e_img = mini_model.encode_image(img)
            e_vid = encode_video(tower, img[None])
        assert e_img.data.tobytes() == e_vid.data.tobytes()

    def test_constant_clip_matches_image_embedding(self, mini_model):
        rng = np.random.default_rng(11)
        img = rng.uniform(size=(32, 32, 3))
        tower = build_video_tower(mini_model.param_arrays(), mini_model.config, kt=2, frames=4)
        clip = np.repeat(img[None], 4, axis=0)
        with no_grad():
            e_img = mini_model.encode_image(img)
            e_vid = encode_video(tower, clip)
        np.testing.assert_allclose(e_vid.data, e_img.data, atol=1e-6)

    def test_clip_side_not_divisible_by_patch_kernel_rejected(self, mini_model):
        tower = build_video_tower(mini_model.param_arrays(), mini_model.config, kt=2, frames=4)
        with pytest.raises(ValueError, match="patch kernel"):
            with no_grad():
                encode_video(tower, np.zeros((4, 34, 34, 3)))

    @pytest.mark.parametrize("kt, frames, extents", [(1, 2, [1, 1]), (2, 4, [2, 1]), (2, 6, [2, 2]), (3, 3, [1, 1])])
    def test_merge_kernel_is_kt_capped_at_the_extent_its_stage_has_left(self, vocab, kt, frames, extents):
        """Three stages: each merge keeps temporal stride 1, so its kernel
        shrinks the time axis by kernel - 1, and a merge never reaches past
        the frames its stage still holds."""
        config = ModelConfig(image_size=64, stage_depths=(1, 1, 1), stage_widths=(8, 16, 32), stage_heads=(1, 1, 1))
        model = TwoTowerModel.create(config, vocab, seed=12)
        tower = build_video_tower(model.param_arrays(), config, kt=kt, frames=frames)
        assert tower.params["image.patch_embed.w"].shape[0] == kt
        assert [tower.params[f"image.merge{s}.w"].shape[0] for s in range(2)] == extents
        img = np.random.default_rng(13).uniform(size=(64, 64, 3))
        with no_grad():
            e_img = model.encode_image(img)
            e_vid = encode_video(tower, np.repeat(img[None], frames, axis=0))
        np.testing.assert_allclose(e_vid.data, e_img.data, rtol=0, atol=1e-12)

    def test_kt_exceeding_frames_rejected(self, mini_model):
        with pytest.raises(ValueError, match="exceeds"):
            build_video_tower(mini_model.param_arrays(), mini_model.config, kt=4, frames=2)
