"""Training loop, gradient cache, activation checkpointing, ZeRO simulation."""

import json
import re
import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from florence_mini.curation import StageStream, curate, generate_synthetic_dataset
from florence_mini.encoders import ModelConfig, TwoTowerModel, build_vocabulary
from florence_mini.numerics import (
    Tensor,
    activation_meter,
    adamw_step,
    backward_from,
    evaluate_and_backward,
    init_optimizer_state,
    load_checkpoint,
    no_grad,
    ops,
    precision_policy,
    TensorFormatError,
    save_checkpoint,
)
from florence_mini.trainer import (
    TrainConfig,
    TrainingAborted,
    checkpointed,
    gradient_cache_gradients,
    load_model_checkpoint,
    load_train_checkpoint,
    monolithic_gradients,
    prepare_batch,
    run_two_stage_training,
    save_train_checkpoint,
    train_step,
    zero_shard_update,
)
from florence_mini.curation import records
from florence_mini.numerics.tensor import record
from florence_mini.trainer import loop, zero
from florence_mini.unicl import unicl_loss_arrays
from oracles import gelu, matmul

# two quiet NaNs that differ only in their payload
_NAN_A, _NAN_B = np.array([0x7FF8000000000001, 0x7FF8000000000002], dtype=np.uint64).view(np.float64)

SMALL_MODEL = ModelConfig(image_size=16, stage_depths=(1, 1), stage_widths=(16, 32), shared_dim=32, text_layers=1, text_width=32)


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    d = tmp_path_factory.mktemp("corpus")
    records, names = generate_synthetic_dataset(d, num_classes=4, per_class=12, image_side=16, seed=0)
    result = curate(records, seed=0)
    return result.triplets, names


@pytest.fixture(scope="module")
def small_setup(corpus):
    triplets, _ = corpus
    vocab = build_vocabulary([t.text for t in triplets])
    model = TwoTowerModel.create(SMALL_MODEL, vocab, seed=1)
    images, ids, labels, rids = prepare_batch(triplets[:8], vocab, "float64")
    return model, images, ids, labels, rids


class TestGradientCache:
    def test_single_chunk_is_bit_identical_to_monolithic(self, small_setup):
        model, images, ids, labels, _ = small_setup
        l1, g1 = monolithic_gradients(model, images, ids, labels)
        l2, g2 = gradient_cache_gradients(model, images, ids, labels, chunk_size=8)
        assert l1 == l2
        assert set(g1) == set(g2)
        for k in g1:
            assert g1[k].tobytes() == g2[k].tobytes(), k

    def test_chunked_matches_monolithic_within_1e9(self, small_setup):
        model, images, ids, labels, _ = small_setup
        _, g_ref = monolithic_gradients(model, images, ids, labels)
        for chunk in (2, 4):
            _, g = gradient_cache_gradients(model, images, ids, labels, chunk_size=chunk)
            worst = max(np.abs(g_ref[k] - g[k]).max() for k in g_ref)
            assert worst < 1e-9, (chunk, worst)

    def test_chunking_lowers_peak_recorded_activations(self, small_setup):
        model, images, ids, labels, _ = small_setup
        activation_meter.reset()
        gradient_cache_gradients(model, images, ids, labels, chunk_size=8)
        peak_single = activation_meter.peak
        activation_meter.reset()
        gradient_cache_gradients(model, images, ids, labels, chunk_size=2)
        peak_chunked = activation_meter.peak
        assert peak_chunked < peak_single

    def test_chunk_misalignment_rejected(self, small_setup):
        model, images, ids, labels, _ = small_setup
        with pytest.raises(ValueError, match="divide"):
            gradient_cache_gradients(model, images, ids, labels, chunk_size=3)

    def test_float32_model_gets_float32_gradients(self, corpus):
        """Chunked, every gradient of a float32 model is float32, tau's too;
        at chunk = batch the gradient cache equals the monolithic bytes."""
        triplets, _ = corpus
        vocab = build_vocabulary([t.text for t in triplets])
        model = TwoTowerModel.create(replace(SMALL_MODEL, dtype="float32"), vocab, seed=1)
        images, ids, labels, _ = prepare_batch(triplets[:4], vocab, "float32")
        _, chunked = gradient_cache_gradients(model, images, ids, labels, chunk_size=2)
        assert {k: g.dtype.name for k, g in chunked.items()} == {k: "float32" for k in model.params}
        loss, ref = monolithic_gradients(model, images, ids, labels)
        loss_gc, grads = gradient_cache_gradients(model, images, ids, labels, chunk_size=4)
        assert loss_gc == loss
        assert set(grads) == set(ref)
        for k in ref:
            assert grads[k].tobytes() == ref[k].tobytes(), k

    def test_embedding_drift_guard(self, small_setup):
        """A non-deterministic encoder must trip the pass-1/pass-3 equality check."""
        model, images, ids, labels, _ = small_setup

        class DriftingModel:
            def __init__(self, inner):
                self.inner = inner
                self.params = inner.params
                self.tau_param = inner.tau_param
                self.calls = 0

            def encode_image(self, x, block_wrapper=None):
                out = self.inner.encode_image(x, block_wrapper=block_wrapper)
                self.calls += 1
                if self.calls > 4:  # drift only in pass 3
                    return ops.scale(out, 1.0 + 1e-12)
                return out

            def encode_text(self, x):
                return self.inner.encode_text(x)

        with pytest.raises(RuntimeError, match="drift"):
            gradient_cache_gradients(DriftingModel(model), images, ids, labels, chunk_size=2)


def three_pass_gradients(model, images, ids, labels, chunk_size, block_wrapper=None):
    """The gradient cache as three plain passes: every chunk forwards without
    a tape, the loss gradient is taken at the embeddings, then every chunk
    re-forwards with a tape and backpropagates its rows, folded in order."""
    n_chunks = images.shape[0] // chunk_size
    chunks = [slice(c * chunk_size, (c + 1) * chunk_size) for c in range(n_chunks)]
    with no_grad():
        u_full = np.concatenate([model.encode_image(images[r], block_wrapper=block_wrapper).data for r in chunks])
        v_full = np.concatenate([model.encode_text(ids[r]).data for r in chunks])
    res = unicl_loss_arrays(u_full, v_full, labels, float(model.tau_param.data))
    grads = {"tau_param": np.asarray(res.grad_tau_param)}
    for r in chunks:
        u_c = model.encode_image(images[r], block_wrapper=block_wrapper)
        v_c = model.encode_text(ids[r])
        chunk_grads = backward_from([u_c, v_c], [res.grad_u[r], res.grad_v[r]])
        for name, t in model.params.items():
            if t in chunk_grads:
                grads[name] = grads[name] + chunk_grads[t] if name in grads else chunk_grads[t]
    return float(res.loss), grads


def tower_three_pass_gradients(model, images, ids, labels, chunk_size, block_wrapper=None):
    """``three_pass_gradients`` with pass 3 walking one tower at a time:
    every image chunk re-forwards and backpropagates, then every text chunk,
    so no tape of one tower is alive beside the other's."""
    n_chunks = images.shape[0] // chunk_size
    chunks = [slice(c * chunk_size, (c + 1) * chunk_size) for c in range(n_chunks)]
    with no_grad():
        u_full = np.concatenate([model.encode_image(images[r], block_wrapper=block_wrapper).data for r in chunks])
        v_full = np.concatenate([model.encode_text(ids[r]).data for r in chunks])
    res = unicl_loss_arrays(u_full, v_full, labels, float(model.tau_param.data))
    towers = (
        (lambda x: model.encode_image(x, block_wrapper=block_wrapper), images, res.grad_u),
        (model.encode_text, ids, res.grad_v),
    )
    folded = {}
    for encode, inputs, seed in towers:
        for r in chunks:
            for t, g in backward_from([encode(inputs[r])], [seed[r]]).items():
                folded[t] = folded[t] + g if t in folded else g
    grads = {"tau_param": np.asarray(res.grad_tau_param)}
    grads.update((name, folded[t]) for name, t in model.params.items() if t in folded)
    return float(res.loss), grads


class CountingModel:
    """Forwards to a model, counting encoder calls; ``drift_on`` names the
    encode_image call and ``text_drift_on`` the encode_text call (1-based)
    whose output is nudged by one part in 1e12."""

    def __init__(self, inner, drift_on=None, text_drift_on=None):
        self.inner, self.drift_on, self.text_drift_on = inner, drift_on, text_drift_on
        self.params, self.tau_param = inner.params, inner.tau_param
        self.image_calls = self.text_calls = 0

    def encode_image(self, x, block_wrapper=None):
        self.image_calls += 1
        out = self.inner.encode_image(x, block_wrapper=block_wrapper)
        return ops.scale(out, 1.0 + 1e-12) if self.image_calls == self.drift_on else out

    def encode_text(self, x):
        self.text_calls += 1
        out = self.inner.encode_text(x)
        return ops.scale(out, 1.0 + 1e-12) if self.text_calls == self.text_drift_on else out


class ZeroSignModel(CountingModel):
    """Zeroes one embedding entry of every encode_image output, by a product
    with -0.0 on the ``drift_on`` call and with 0.0 on the others, so that
    call differs from the others only in the sign of that zero."""

    def encode_image(self, x, block_wrapper=None):
        self.image_calls += 1
        out = self.inner.encode_image(x, block_wrapper=block_wrapper)
        entries = np.ones(out.shape, out.dtype)
        entries[0, 0] = -0.0 if self.image_calls == self.drift_on else 0.0
        return ops.mul(out, Tensor(entries))


class TestGradientCacheLastChunkTape:
    """Pass 1 keeps the last chunk's image tape, so pass 3 re-forwards n - 1
    image chunks and every text chunk, one tower's tape at a time."""

    @pytest.mark.parametrize("chunk", [1, 2, 4, 8])
    def test_image_runs_2n_minus_1_and_text_2n_times(self, small_setup, chunk):
        model, images, ids, labels, _ = small_setup
        counting = CountingModel(model)
        gradient_cache_gradients(counting, images, ids, labels, chunk_size=chunk)
        n = images.shape[0] // chunk
        assert (counting.image_calls, counting.text_calls) == (2 * n - 1, 2 * n)

    @pytest.mark.parametrize("mode", ["full", "half-emulated"], ids=["full", "half"])
    @pytest.mark.parametrize("wrapper", [None, checkpointed], ids=["plain", "checkpointed"])
    @pytest.mark.parametrize("chunk", [1, 2, 4, 8])
    def test_bytes_equal_three_pass_oracles_and_peak_the_tower_walk(self, small_setup, chunk, wrapper, mode):
        """The joint walk of both towers and the tower-by-tower walk give the
        cache's loss, gradient bytes and key order; the cache's metered peak
        is the tower-by-tower walk's."""
        model, images, ids, labels, _ = small_setup
        runs = []
        for fn in (three_pass_gradients, tower_three_pass_gradients, gradient_cache_gradients):
            activation_meter.reset()
            with precision_policy(mode):
                loss, grads = fn(model, images, ids, labels, chunk_size=chunk, block_wrapper=wrapper)
            runs.append((loss, grads, activation_meter.peak))
        (l_ref, g_ref, _), (l_tower, g_tower, peak_tower), (loss, grads, peak) = runs
        assert loss == l_ref == l_tower
        assert peak == peak_tower
        assert list(grads) == list(g_ref) == list(g_tower)
        for k in g_ref:
            assert grads[k].tobytes() == g_ref[k].tobytes() == g_tower[k].tobytes(), k

    @pytest.mark.parametrize("chunk", [1, 2, 4, 8])
    def test_peak_is_the_largest_one_tower_chunk_tape(self, small_setup, chunk):
        """Each tower of each chunk is recorded alone; the cache's metered
        peak is the largest of those tapes, never two of them together."""
        model, images, ids, labels, _ = small_setup
        tapes = []
        for c in range(images.shape[0] // chunk):
            rows = slice(c * chunk, (c + 1) * chunk)
            for encode, x in ((model.encode_image, images[rows]), (model.encode_text, ids[rows])):
                activation_meter.reset()
                out = encode(x)
                tapes.append(activation_meter.current)
                del out
        activation_meter.reset()
        gradient_cache_gradients(model, images, ids, labels, chunk_size=chunk)
        assert activation_meter.peak == max(tapes)

    def test_drift_in_chunk_n_minus_2_trips_guard(self, small_setup):
        """Chunks 0..n-2 re-forward in order after pass 1's n calls, so with
        n = 4 the seventh encode_image call is chunk 2's re-forward."""
        model, images, ids, labels, _ = small_setup
        with pytest.raises(RuntimeError, match="drift between pass 1 and pass 3 in chunk 2"):
            gradient_cache_gradients(CountingModel(model, drift_on=7), images, ids, labels, chunk_size=2)

    def test_drift_in_last_chunk_text_trips_guard(self, small_setup):
        """Pass 1 runs n text forwards without a tape, so with n = 4 the
        eighth encode_text call is the last chunk's pass-3 re-forward."""
        model, images, ids, labels, _ = small_setup
        with pytest.raises(RuntimeError, match="drift between pass 1 and pass 3 in chunk 3"):
            gradient_cache_gradients(CountingModel(model, text_drift_on=8), images, ids, labels, chunk_size=2)

    def test_drift_in_a_zero_sign_trips_guard(self, small_setup):
        model, images, ids, labels, _ = small_setup
        with pytest.raises(RuntimeError, match="drift between pass 1 and pass 3 in chunk 2"):
            gradient_cache_gradients(ZeroSignModel(model, drift_on=7), images, ids, labels, chunk_size=2)
        gradient_cache_gradients(ZeroSignModel(model), images, ids, labels, chunk_size=2)


class TestActivationCheckpointing:
    def test_gradients_bit_equal_with_and_without(self, small_setup):
        model, images, ids, labels, _ = small_setup
        l1, g1 = monolithic_gradients(model, images, ids, labels)
        l2, g2 = monolithic_gradients(model, images, ids, labels, block_wrapper=checkpointed)
        assert l1 == l2
        assert set(g1) == set(g2)
        for k in g1:
            assert g1[k].tobytes() == g2[k].tobytes(), k

    def test_peak_activation_reduction_on_mini_tower(self):
        """>= 30% fewer peak live activation scalars on the default tower."""
        vocab = build_vocabulary(["heron maple"])
        model = TwoTowerModel.create(ModelConfig(), vocab, seed=0)
        rng = np.random.default_rng(0)
        imgs = rng.uniform(size=(4, 32, 32, 3))
        seed_grad = rng.normal(size=(4, 64))

        def peak(wrapper):
            activation_meter.reset()
            u = model.encode_image(imgs, block_wrapper=wrapper)
            backward_from([u], [seed_grad])
            return activation_meter.peak

        plain, ckpt = peak(None), peak(checkpointed)
        assert ckpt <= 0.7 * plain, (plain, ckpt)

    def test_nested_checkpoints_bit_equal(self):
        rng = np.random.default_rng(1)
        w1 = Tensor(rng.normal(size=(6, 6)), requires_grad=True, name="w1")
        w2 = Tensor(rng.normal(size=(6, 6)), requires_grad=True, name="w2")
        x = Tensor(rng.normal(size=(3, 6)))

        def inner(t, w):
            return gelu(matmul(t, w))

        def outer(t, wa, wb):
            return matmul(checkpointed(inner, t, wa), wb)

        def run(wrapped):
            y = checkpointed(outer, x, w1, w2) if wrapped else outer(x, w1, w2)
            return evaluate_and_backward(ops.tensor_sum(y))

        g_plain = run(False)
        g_ckpt = run(True)
        for w in (w1, w2):
            assert g_plain[w].tobytes() == g_ckpt[w].tobytes()

    def test_recomputed_output_is_dead_when_the_first_inner_rule_runs(self):
        """The backward keeps no reference to the block's recomputed output,
        so the inner walk frees it once it has seeded it."""
        outputs, dead = [], []

        def probe_backward(g, saved):
            dead.append(outputs[-1]() is None)
            return (g,)

        def block(t, w):
            h = matmul(t, w)
            out = record("probe", h.data * 2.0, (h,), (), probe_backward)
            outputs.append(weakref.ref(out.data))
            return out

        w = Tensor(np.full((2, 2), 0.5), requires_grad=True, name="w")
        y = checkpointed(block, Tensor(np.ones((2, 2))), w)
        g = evaluate_and_backward(ops.tensor_sum(y))
        assert len(outputs) == 2 and dead == [True]
        assert g[w].tobytes() == np.full((2, 2), 2.0).tobytes()

    def test_non_deterministic_block_detected(self):
        state = {"n": 0}
        w = Tensor(np.ones((2, 2)), requires_grad=True, name="w")

        def flaky(t, wt):
            state["n"] += 1
            return ops.scale(matmul(t, wt), 1.0 + state["n"] * 1e-9)

        x = Tensor(np.ones((2, 2)))
        y = checkpointed(flaky, x, w)
        with pytest.raises(RuntimeError, match="non-deterministic"):
            evaluate_and_backward(ops.tensor_sum(y))

    @pytest.mark.parametrize("x_grad", [True, False], ids=["live-x", "constant-x"])
    def test_recompute_reaching_an_ungiven_leaf_raises(self, x_grad):
        """Every gradient leaves the node through its inputs: a weight the
        block reads but was not given is refused by name, not dropped."""
        given = Tensor(np.full((2, 2), 0.5), requires_grad=True, name="given")
        hidden = Tensor(np.ones((2, 2)), requires_grad=True, name="hidden_w")

        def block(t, w):
            return matmul(matmul(t, w), hidden)

        y = checkpointed(block, Tensor(np.ones((2, 2)), requires_grad=x_grad), given)
        with pytest.raises(RuntimeError, match="hidden_w"):
            evaluate_and_backward(ops.tensor_sum(y))

    @pytest.mark.parametrize(
        "forward, recompute, raises",
        [(0.0, -0.0, True), (_NAN_A, _NAN_B, True), (_NAN_A, _NAN_A, False)],
        ids=["zero-sign", "nan-payload", "same-nan"],
    )
    def test_guard_compares_bit_patterns(self, forward, recompute, raises):
        """A float comparison takes -0.0 for 0.0 and, with ``equal_nan``, one
        NaN for another; without it, it takes no NaN for itself."""
        values = iter((forward, recompute))

        def block(t):
            entries = np.ones((2, 2))
            entries[0, 0] = next(values)
            return ops.mul(t, Tensor(entries))

        y = checkpointed(block, Tensor(np.ones((2, 2)), requires_grad=True))
        if raises:
            with pytest.raises(RuntimeError, match="non-deterministic"):
                evaluate_and_backward(ops.tensor_sum(y))
        else:
            evaluate_and_backward(ops.tensor_sum(y))

    @pytest.mark.parametrize(
        "recomputed",
        [lambda a: a.reshape(4, 3), lambda a: a.view(a.dtype.newbyteorder()), lambda a: a.view(np.float32)],
        ids=["other-shape", "other-byte-order", "float32-view"],
    )
    def test_same_bytes_under_another_shape_or_dtype_refused(self, recomputed):
        """The digest covers shape and dtype, so bytes alone do not pass."""
        base = np.arange(12.0).reshape(3, 4)
        results = iter((base, recomputed(base)))
        assert recomputed(base).tobytes() == base.tobytes()

        def block(t):
            return Tensor(next(results))

        y = checkpointed(block, Tensor(np.ones((2, 2)), requires_grad=True))
        with pytest.raises(RuntimeError, match="non-deterministic"):
            backward_from([y], [np.ones_like(base)])

    def test_transposed_output_guarded_in_both_directions(self):
        """A block whose output is a transposed view passes when recompute
        gives the same values, and is refused when recompute gives an array
        whose memory holds the view's bytes in another element order."""
        rng = np.random.default_rng(3)
        w = Tensor(rng.normal(size=(3, 3)), requires_grad=True, name="w")
        x = Tensor(rng.normal(size=(3, 3)))
        swap = iter((True, False))

        def transposed(t, wt):
            return ops.transpose(matmul(t, wt), (1, 0))

        def unswapped_on_recompute(t, wt):
            h = matmul(t, wt)
            return ops.transpose(h, (1, 0)) if next(swap) else h

        y = checkpointed(transposed, x, w)
        assert not y.data.flags.c_contiguous
        weights = Tensor(np.arange(9.0).reshape(3, 3))
        g = evaluate_and_backward(ops.tensor_sum(ops.mul(y, weights)))
        g_plain = evaluate_and_backward(ops.tensor_sum(ops.mul(transposed(x, w), weights)))
        assert g[w].tobytes() == g_plain[w].tobytes()

        y = checkpointed(unswapped_on_recompute, x, w)
        with pytest.raises(RuntimeError, match="non-deterministic"):
            evaluate_and_backward(ops.tensor_sum(y))


class TestCheckpointNodeHolds:
    """A checkpoint node saves its input only; its output's digest stands
    in for the output."""

    @staticmethod
    def _block(t, w):
        return gelu(matmul(t, w))

    def test_meters_exactly_x_size(self):
        x = Tensor(np.ones((4, 6)))
        w = Tensor(np.ones((6, 5)), requires_grad=True)
        before = activation_meter.current
        y = checkpointed(self._block, x, w)
        assert activation_meter.current - before == x.size
        assert len(y.node.saved) == 1 and y.node.saved[0] is x.data

    def test_output_dies_before_backward_once_the_caller_drops_it(self):
        w = Tensor(np.full((6, 6), 0.1), requires_grad=True, name="w")
        x = Tensor(np.ones((4, 6)))
        y = checkpointed(self._block, x, w)
        out = weakref.ref(y.data)
        # ``scale`` saves nothing, so only the caller held the output
        z = ops.scale(y, 2.0)
        del y
        assert out() is None
        g = evaluate_and_backward(ops.tensor_sum(z))
        assert g[w].tobytes() == evaluate_and_backward(ops.tensor_sum(ops.scale(self._block(x, w), 2.0)))[w].tobytes()

    def test_two_block_chain_peak_is_both_inputs_plus_one_recompute(self):
        rng = np.random.default_rng(4)
        x0 = Tensor(rng.normal(size=(4, 6)))
        w1 = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        w2 = Tensor(rng.normal(size=(6, 6)), requires_grad=True)
        activation_meter.reset()
        y1 = checkpointed(self._block, x0, w1)
        y2 = checkpointed(self._block, y1, w2)
        evaluate_and_backward(ops.tensor_sum(y2))
        # recomputing block 2 saves matmul's (y1, w2) and gelu's input and
        # tanh, while node 1 holds x0 and node 2 holds y1; no output is held
        recompute = y1.size + w2.size + 2 * y2.size
        assert activation_meter.peak == x0.size + y1.size + recompute
        assert activation_meter.current == 0


class TestZeroSharding:
    def _params(self):
        rng = np.random.default_rng(2)
        return {f"p{i}": rng.normal(size=(3 + i,)) for i in range(7)}

    def test_w1_identical_to_plain_adamw(self):
        params = self._params()
        grads = {k: np.ones_like(v) for k, v in params.items()}
        pu, _ = adamw_step(params, grads, init_optimizer_state(params, lr=0.01))
        pz, _ = zero_shard_update(params, grads, init_optimizer_state(params, lr=0.01), 1)
        for k in params:
            assert pu[k].tobytes() == pz[k].tobytes()

    def test_w4_ten_steps_bit_equal_on_mini_model(self, small_setup):
        model, images, ids, labels, _ = small_setup
        params = {k: v.copy() for k, v in model.param_arrays().items()}
        pu = {k: v.copy() for k, v in params.items()}
        pz = {k: v.copy() for k, v in params.items()}
        su = init_optimizer_state(params, lr=1e-3)
        sz = init_optimizer_state(params, lr=1e-3)
        rng = np.random.default_rng(3)
        for _ in range(10):
            grads = {k: rng.normal(size=v.shape) for k, v in params.items()}
            pu, su = adamw_step(pu, grads, su)
            pz, sz = zero_shard_update(pz, grads, sz, 4)
        assert sz.step == su.step == 10
        for k in params:
            assert pu[k].tobytes() == pz[k].tobytes(), k
            assert su.m[k].tobytes() == sz.m[k].tobytes() and su.v[k].tobytes() == sz.v[k].tobytes(), k

    def test_resident_state_counts_balanced(self):
        """On the default model each worker holds one contiguous slice of the
        parameters laid end to end: exactly total/W, to within one scalar."""
        vocab = build_vocabulary(["a cat", "a dog", "a red bird"])
        params = TwoTowerModel.create(ModelConfig(), vocab, seed=0).param_arrays()
        total = sum(p.size for p in params.values())
        assert total == 174_761
        expected = {1: [174_761], 2: [87_380, 87_381], 4: [43_690, 43_690, 43_690, 43_691]}
        for workers, sizes in expected.items():
            resident = [sum(stop - start for _, start, stop in parts) for parts in zero.zero_shards(params, workers)]
            assert resident == sizes, workers
            assert sum(resident) == total
            assert all(abs(r - total / workers) < 1 for r in resident)

    def test_worker_count_outside_one_to_the_scalar_count_refused(self):
        params = self._params()
        n = sum(p.size for p in params.values())
        assert len(zero.zero_shards(params, n)) == n
        for workers in (0, n + 1, 10**9):
            with pytest.raises(ValueError, match=f"zero_workers {workers} must be between 1 and the {n} parameter scalars"):
                zero.zero_shards(params, workers)


class TestNoFlatCopies:
    """The ZeRO update and the checkpoint write use each tensor where it lies."""

    def test_shard_parts_are_views_of_the_whole_tensors(self, monkeypatch):
        """Every part a worker's AdamW step receives is a view of its
        parameter, gradient or moment, holding that tensor's scalars
        [start, stop); a tensor one worker holds whole is returned as that
        worker's fresh arrays, not a copy."""
        rng = np.random.default_rng(4)
        params = {f"p{i}": rng.normal(size=(2, 3 + i)) for i in range(5)}
        grads = {k: rng.normal(size=p.shape) for k, p in params.items()}
        moments = {kind: {k: rng.uniform(size=p.shape) for k, p in params.items()} for kind in "mv"}
        state = replace(init_optimizer_state(params, lr=1e-3), **moments)
        received = []

        def recording(local_params, local_grads, local_state, lr=None):
            result = adamw_step(local_params, local_grads, local_state, lr=lr)
            received.append(((local_params, local_grads, local_state.m, local_state.v), result))
            return result

        monkeypatch.setattr(zero, "adamw_step", recording)
        for workers in (1, 3, 4):
            received.clear()
            new_params, new_state = zero_shard_update(params, grads, state, workers)
            assert len(received) == workers
            for parts, (updated, local_state) in received:
                for whole, local in zip((params, grads, moments["m"], moments["v"]), parts):
                    for (name, start, stop), part in local.items():
                        assert np.shares_memory(part, whole[name]), (workers, name)
                        assert part.tobytes() == whole[name].ravel()[start:stop].tobytes()
                for key in updated:
                    name, start, stop = key
                    if stop - start == params[name].size:
                        for new, fresh in zip((new_params, new_state.m, new_state.v), (updated, local_state.m, local_state.v)):
                            assert np.shares_memory(new[name], fresh[key]), (workers, name)

    def test_checkpoint_write_peaks_below_half_its_payload(self, tmp_path):
        """On the default model a training checkpoint's parameters and moments
        are 4.2 MB; writing them builds no payload-sized buffer, whether the
        state is fresh or the one a 4-worker update returns."""
        vocab = build_vocabulary(["a cat", "a dog", "a red bird"])
        model = TwoTowerModel.create(ModelConfig(), vocab, seed=0)
        params = model.param_arrays()
        fresh = init_optimizer_state(params, lr=1e-3)
        grads = {k: np.full_like(p, 0.5) for k, p in params.items()}
        _, stepped = zero_shard_update(params, grads, fresh, 4)
        payload = 3 * sum(a.nbytes for a in params.values())
        for label, state in (("fresh", fresh), ("4-worker update", stepped)):
            tracemalloc.start()
            try:
                start = tracemalloc.get_traced_memory()[0]
                save_train_checkpoint(tmp_path / label, model, state, TrainConfig(), 0)
                peak = tracemalloc.get_traced_memory()[1] - start
            finally:
                tracemalloc.stop()
            assert peak < payload / 2, (label, peak, payload)


class TestTrainStep:
    def test_first_step_loss_finite_positive(self, small_setup):
        model, images, ids, labels, rids = small_setup
        fresh = TwoTowerModel.create(SMALL_MODEL, model.vocab, seed=5)
        cfg = TrainConfig(model=SMALL_MODEL, batch_size=8, chunk_size=8)
        state = init_optimizer_state(fresh.param_arrays(), lr=1e-3)
        _, metrics = train_step(fresh, images, ids, labels, rids, state, cfg, 1e-3)
        assert np.isfinite(metrics["loss"]) and metrics["loss"] > 0

    def test_half_emulated_step_with_chunk_equal_to_batch(self, small_setup):
        """The monolithic path keeps the embeddings unit-norm under emulation."""
        model, images, ids, labels, rids = small_setup
        fresh = TwoTowerModel.create(SMALL_MODEL, model.vocab, seed=5)
        cfg = TrainConfig(model=SMALL_MODEL, batch_size=8, chunk_size=8, precision="half-emulated")
        state = init_optimizer_state(fresh.param_arrays(), lr=1e-3)
        _, metrics = train_step(fresh, images, ids, labels, rids, state, cfg, 1e-3)
        assert np.isfinite(metrics["loss"]) and metrics["loss"] > 0

    def test_nan_input_aborts_with_batch_ids(self, small_setup):
        model, images, ids, labels, rids = small_setup
        fresh = TwoTowerModel.create(SMALL_MODEL, model.vocab, seed=5)
        cfg = TrainConfig(model=SMALL_MODEL, batch_size=8, chunk_size=8)
        state = init_optimizer_state(fresh.param_arrays(), lr=1e-3)
        bad = images.copy()
        bad[0, 0, 0, 0] = np.nan
        with pytest.raises(TrainingAborted, match=rids[0]):
            train_step(fresh, bad, ids, labels, rids, state, cfg, 1e-3)


class TestTrainConfigValidation:
    @pytest.mark.parametrize("size, cause", [(30, "patch_kernel"), (48, "side 6 not divisible by window 4")])
    def test_high_res_size_checked_against_the_model_at_load(self, size, cause):
        with pytest.raises(ValueError, match=f"high_res_size {size}.*{cause}"):
            TrainConfig(high_res_steps=1, high_res_size=size)
        assert TrainConfig(high_res_steps=0, high_res_size=size).high_res_size == size

    def test_warmup_must_end_before_the_schedule_when_steps_run(self):
        with pytest.raises(ValueError, match="warmup_steps 5 must be smaller than total_steps 5"):
            TrainConfig(stage1_steps=3, stage2_steps=2, warmup_steps=5)
        with pytest.raises(ValueError, match="warmup_steps 4 must be smaller than total_steps 4"):
            TrainConfig(stage1_steps=30, stage2_steps=2, warmup_steps=4, total_steps=4)
        assert TrainConfig(stage1_steps=0, stage2_steps=0, warmup_steps=5).planned_steps == 0

    def test_negative_warmup_rejected_by_name(self):
        with pytest.raises(ValueError, match="warmup_steps must be >= 0, got -2"):
            TrainConfig(stage1_steps=3, stage2_steps=0, warmup_steps=-2)
        assert TrainConfig(stage1_steps=3, stage2_steps=0, warmup_steps=0).warmup_steps == 0

    def test_negative_checkpoint_every_rejected_by_name(self):
        with pytest.raises(ValueError, match="checkpoint_every must be >= 0, got -2"):
            TrainConfig(checkpoint_every=-2)


class TestTwoStageRun:
    def _config(self, **kw):
        base = dict(
            model=SMALL_MODEL,
            stage1_steps=3,
            stage2_steps=2,
            high_res_steps=1,
            high_res_size=32,
            batch_size=8,
            chunk_size=4,
            warmup_steps=1,
            peak_lr=1e-3,
            seed=0,
        )
        base.update(kw)
        return TrainConfig(**base)

    def test_step_arithmetic_and_metrics(self, corpus, tmp_path):
        triplets, _ = corpus
        out = run_two_stage_training(triplets, self._config(), tmp_path / "run")
        lines = [json.loads(l) for l in open(out["metrics_path"])]
        assert len(lines) == 6  # 3 + 2 + 1
        assert [l["step"] for l in lines] == list(range(6))
        assert [l["stage"] for l in lines] == ["stage1"] * 3 + ["stage2"] * 2 + ["high_res"]
        for l in lines:
            for key in ("loss", "lr", "tau", "peak_activation_scalars"):
                assert key in l

    def test_determinism_across_runs(self, corpus, tmp_path):
        triplets, _ = corpus
        out1 = run_two_stage_training(triplets, self._config(), tmp_path / "a")
        out2 = run_two_stage_training(triplets, self._config(), tmp_path / "b")
        p1 = out1["model"].param_arrays()
        p2 = out2["model"].param_arrays()
        for k in p1:
            assert p1[k].tobytes() == p2[k].tobytes(), k

    def test_resume_reproduces_uninterrupted_run_bit_exactly(self, corpus, tmp_path):
        """Resume from a checkpoint strictly inside stage 1 (step 2 of 3)."""
        triplets, _ = corpus
        cfg = self._config(checkpoint_every=2)
        full = run_two_stage_training(triplets, cfg, tmp_path / "full")
        resumed = run_two_stage_training(
            triplets, cfg, tmp_path / "resumed", resume_from=full["checkpoints"]["step-2"]
        )
        pf = full["model"].param_arrays()
        pr = resumed["model"].param_arrays()
        for k in pf:
            assert pf[k].tobytes() == pr[k].tobytes(), k

    def test_resume_into_own_out_keeps_one_record_per_step(self, corpus, tmp_path):
        triplets, _ = corpus
        cfg = self._config(checkpoint_every=2)
        full = run_two_stage_training(triplets, cfg, tmp_path / "full")
        pf = {k: v.copy() for k, v in full["model"].param_arrays().items()}
        resumed = run_two_stage_training(
            triplets, cfg, tmp_path / "full", resume_from=full["checkpoints"]["step-2"]
        )
        steps = [json.loads(l)["step"] for l in open(resumed["metrics_path"])]
        assert steps == list(range(cfg.planned_steps))
        pr = resumed["model"].param_arrays()
        for k in pf:
            assert pf[k].tobytes() == pr[k].tobytes(), k

    def test_stage_checkpoints_interleave_with_step_checkpoints(self, corpus, tmp_path):
        triplets, _ = corpus
        cfg = self._config(high_res_steps=3, checkpoint_every=2)
        out = run_two_stage_training(triplets, cfg, tmp_path / "run")
        assert list(out["checkpoints"]) == ["step-2", "stage1", "step-4", "stage2", "step-6", "step-8", "final"]

    @pytest.mark.parametrize("ckpt", ["stage1", "step-6"])
    def test_resume_at_stage_boundary_and_inside_high_res_bit_exact(self, corpus, tmp_path, ckpt):
        triplets, _ = corpus
        cfg = self._config(high_res_steps=3, checkpoint_every=2)
        full = run_two_stage_training(triplets, cfg, tmp_path / "full")
        resumed = run_two_stage_training(triplets, cfg, tmp_path / "resumed", resume_from=full["checkpoints"][ckpt])
        pf = full["model"].param_arrays()
        pr = resumed["model"].param_arrays()
        for k in pf:
            assert pf[k].tobytes() == pr[k].tobytes(), k

    def test_high_res_without_stage2_draws_the_stage2_stream_from_its_start(self, corpus, tmp_path, monkeypatch):
        triplets, _ = corpus
        drawn = []
        original = loop.prepare_batch

        def recording(batch, *args, image_size=None):
            drawn.append(([t.id for t in batch], image_size))
            return original(batch, *args, image_size=image_size)

        monkeypatch.setattr(loop, "prepare_batch", recording)
        cfg = self._config(stage2_steps=0, high_res_steps=4)
        out = run_two_stage_training(triplets, cfg, tmp_path / "run")
        assert "stage2" not in out["checkpoints"]
        stream = StageStream(stage=2, seed=cfg.seed, batch_size=cfg.batch_size, pool=triplets)
        assert stream.batches_per_epoch == 3  # so the fourth batch opens epoch 1
        expected = [stream.epoch_batches(i // 3)[i % 3] for i in range(4)]
        assert drawn[3:] == [([t.id for t in b], 32) for b in expected]

    def test_every_step_reads_its_batch_from_disk_once(self, corpus, tmp_path, monkeypatch):
        """Each step reads each image of its batch from its container once,
        the high-res phase included, and keeps no pixels for a later step:
        the second epochs of stage 1 and of the high-res phase read again
        the images their first epochs drew."""
        triplets, _ = corpus
        reads, per_step = [], []
        read, prepare = records.read_tensor_file, loop.prepare_batch

        def counted_read(path, *args, **kwargs):
            reads.append(path)
            return read(path, *args, **kwargs)

        def counted_prepare(batch, *args, **kwargs):
            before = len(reads)
            result = prepare(batch, *args, **kwargs)
            per_step.append((reads[before:], [t.image_path for t in batch]))
            return result

        monkeypatch.setattr(records, "read_tensor_file", counted_read)
        monkeypatch.setattr(loop, "prepare_batch", counted_prepare)
        s1 = StageStream(stage=1, seed=0, batch_size=8, pool=triplets).batches_per_epoch
        s2 = StageStream(stage=2, seed=0, batch_size=8, pool=triplets).batches_per_epoch
        cfg = self._config(stage1_steps=s1 + 1, stage2_steps=0, high_res_steps=2 * s2)
        run_two_stage_training(triplets, cfg, tmp_path / "run")
        assert len(per_step) == s1 + 1 + 2 * s2
        for got, batch in per_step:
            assert got == batch
        high_res = [p for got, _ in per_step[s1 + 1 :] for p in got]
        assert len(set(high_res)) < len(high_res)  # the second epoch redraws images the first read

    def test_resume_rejects_config_drift_but_allows_step_counts(self, corpus, tmp_path):
        triplets, _ = corpus
        cfg = self._config(checkpoint_every=2)
        full = run_two_stage_training(triplets, cfg, tmp_path / "full")
        ckpt = full["checkpoints"]["step-2"]
        drifted = self._config(checkpoint_every=2, batch_size=16, peak_lr=1e-2)
        with pytest.raises(ValueError) as err:
            load_train_checkpoint(ckpt, drifted)
        assert "batch_size (checkpoint 8, run 16)" in str(err.value)
        assert "peak_lr (checkpoint 0.001, run 0.01)" in str(err.value)
        with pytest.raises(ValueError, match=r"model\.dtype"):
            load_train_checkpoint(ckpt, self._config(model=replace(SMALL_MODEL, dtype="float32")))
        longer = self._config(stage1_steps=4, checkpoint_every=3, total_steps=10)
        _, _, step = load_train_checkpoint(ckpt, longer)
        assert step == 2

    def test_short_training_reduces_loss(self, corpus, tmp_path):
        triplets, _ = corpus
        cfg = self._config(stage1_steps=30, stage2_steps=0, high_res_steps=0, warmup_steps=3, peak_lr=2e-3)
        out = run_two_stage_training(triplets, cfg, tmp_path / "run")
        losses = [json.loads(l)["loss"] for l in open(out["metrics_path"])]
        assert np.mean(losses[-5:]) < np.mean(losses[:5])

    def test_zero_workers_training_matches_unsharded(self, corpus, tmp_path):
        triplets, _ = corpus
        base = run_two_stage_training(triplets, self._config(), tmp_path / "w1")
        sharded = run_two_stage_training(triplets, self._config(zero_workers=4), tmp_path / "w4")
        pb = base["model"].param_arrays()
        ps = sharded["model"].param_arrays()
        for k in pb:
            assert pb[k].tobytes() == ps[k].tobytes(), k
        # the 4-worker run's one state reaches the checkpoint byte for byte
        final_b, final_s = tmp_path / "w1/ckpt-final", tmp_path / "w4/ckpt-final"
        mb, ms = (json.loads((d / "manifest.json").read_text()) for d in (final_b, final_s))
        assert (mb["step"], mb["optimizer_step"]) == (ms["step"], ms["optimizer_step"]) == (6, 6)
        assert mb["tensors"] == ms["tensors"]
        assert {k.split(".")[0] for k in mb["tensors"]} >= {"__opt_m__", "__opt_v__"}
        assert sorted(p.name for p in final_b.iterdir()) == ["float64.bin", "manifest.json"]
        assert (final_b / "float64.bin").read_bytes() == (final_s / "float64.bin").read_bytes()

    def test_checkpoint_roundtrip_restores_step_and_params(self, corpus, tmp_path):
        triplets, _ = corpus
        cfg = self._config()
        out = run_two_stage_training(triplets, cfg, tmp_path / "run")
        model, state, step = load_train_checkpoint(out["checkpoints"]["final"], cfg)
        assert step == 6
        assert state.step == 6
        for k, v in out["model"].param_arrays().items():
            assert model.param_arrays()[k].tobytes() == v.tobytes()

    @pytest.mark.parametrize("damage, error, named", [
        ("missing", KeyError, "missing parameter 'text.proj.w'"),
        ("reshaped", ValueError, "shape mismatch for 'text.proj.w'"),
    ])
    def test_model_load_refuses_a_missing_or_misshapen_tensor_by_name(self, small_setup, tmp_path, damage, error, named):
        model = small_setup[0]
        metadata = {"model_config": model.config.to_dict(), "vocab": model.vocab.to_list()}
        tensors = dict(model.param_arrays())
        save_checkpoint(tmp_path / "good", tensors, metadata=metadata)
        loaded = load_model_checkpoint(tmp_path / "good")
        assert list(loaded.params) == list(model.params)
        for k, v in tensors.items():
            assert loaded.params[k].data.tobytes() == v.tobytes() and loaded.params[k].requires_grad, k
        w = tensors.pop("text.proj.w")
        if damage == "reshaped":
            tensors["text.proj.w"] = w[:-1]
        save_checkpoint(tmp_path / "bad", tensors, metadata=metadata)
        with pytest.raises(error, match=re.escape(named)):
            load_model_checkpoint(tmp_path / "bad")

    def test_model_load_refuses_a_manifest_size_below_one_by_name(self, small_setup, tmp_path):
        model = small_setup[0]
        metadata = {"model_config": {**model.config.to_dict(), "window": 0}, "vocab": model.vocab.to_list()}
        save_checkpoint(tmp_path / "ckpt", model.param_arrays(), metadata=metadata)
        with pytest.raises(ValueError, match="window must be >= 1, got 0"):
            load_model_checkpoint(tmp_path / "ckpt")

    def test_model_load_refuses_a_damaged_moment_entry(self, small_setup, tmp_path):
        """A training checkpoint loads as its model's parameters, and a
        shifted optimizer-moment entry is still refused."""
        model = small_setup[0]
        state = init_optimizer_state(model.param_arrays(), lr=1e-3)
        save_train_checkpoint(tmp_path / "ckpt", model, state, TrainConfig(model=SMALL_MODEL), 0)
        loaded = load_model_checkpoint(tmp_path / "ckpt")
        for k, v in model.param_arrays().items():
            assert loaded.params[k].data.tobytes() == v.tobytes(), k
        manifest = json.loads((tmp_path / "ckpt/manifest.json").read_text())
        manifest["tensors"]["__opt_m__.tau_param"]["offset"] += 1
        (tmp_path / "ckpt/manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(TensorFormatError, match=r"__opt_m__\.tau_param spans"):
            load_model_checkpoint(tmp_path / "ckpt")

    def test_a_checkpoint_with_attention_key_biases_loads_without_them(self, small_setup, tmp_path):
        """Checkpoints written while attention projected k with a bias hold
        a zero-initialized one per block, with its two moments. Both loaders
        take only the model's own names, so they drop them; the bias only
        shifted each score row by a constant, so the embeddings equal the
        ones of the same model saved without it."""
        model, images, ids = small_setup[:3]
        config = TrainConfig(model=SMALL_MODEL)
        save_train_checkpoint(tmp_path / "new", model, init_optimizer_state(model.param_arrays(), lr=1e-3), config, 0)
        tensors, manifest = load_checkpoint(tmp_path / "new")
        wqs = [name for name in model.params if name.endswith(".attn.wq")]
        key_biases = {f"{name.removesuffix('wq')}bk": np.zeros(len(model.params[name].data)) for name in wqs}
        assert len(key_biases) == 3
        moments = {f"__opt_{kind}__.{name}": a for kind in "mv" for name, a in key_biases.items()}
        metadata = {k: v for k, v in manifest.items() if k not in ("format", "tensors")}
        save_checkpoint(tmp_path / "old", {**tensors, **key_biases, **moments}, metadata=metadata)

        new = load_model_checkpoint(tmp_path / "new")
        old_model, old_state, step = load_train_checkpoint(tmp_path / "old", config)
        assert step == 0 and set(old_state.m) == set(old_state.v) == set(model.params)
        for old in (old_model, load_model_checkpoint(tmp_path / "old")):
            assert list(old.params) == list(new.params)
            for k, t in new.params.items():
                assert old.params[k].data.tobytes() == t.data.tobytes(), k
            with no_grad():
                assert old.encode_image(images).data.tobytes() == new.encode_image(images).data.tobytes()
                assert old.encode_text(ids).data.tobytes() == new.encode_text(ids).data.tobytes()

    def test_non_finite_gradient_aborts_before_the_update(self, corpus, tmp_path, monkeypatch):
        """A finite loss with one inf gradient stops the run at step 0 and
        names the parameter, in the error and in abort_diagnostic.json."""
        triplets, _ = corpus
        real = loop.compute_gradients

        def inf_gradient(*args):
            loss, grads = real(*args)
            grads["text.proj.w"] = np.full_like(grads["text.proj.w"], np.inf)
            return loss, grads

        monkeypatch.setattr(loop, "compute_gradients", inf_gradient)
        with pytest.raises(TrainingAborted, match=r"non-finite gradient for \['text.proj.w'\]"):
            run_two_stage_training(triplets, self._config(), tmp_path / "run")
        diagnostic = json.loads((tmp_path / "run/abort_diagnostic.json").read_text())
        assert diagnostic["step"] == 0
        assert "non-finite gradient for ['text.proj.w']" in diagnostic["error"]
        assert (tmp_path / "run/metrics.jsonl").read_text() == ""

    def test_precision_policy_toy_run_soft_bound(self, corpus, tmp_path):
        """End-of-run loss gap between full and half-emulated stays < 5e-2."""
        triplets, _ = corpus
        cfg_full = self._config(stage1_steps=10, stage2_steps=0, high_res_steps=0)
        cfg_half = self._config(stage1_steps=10, stage2_steps=0, high_res_steps=0, precision="half-emulated")
        out_f = run_two_stage_training(triplets, cfg_full, tmp_path / "full")
        out_h = run_two_stage_training(triplets, cfg_half, tmp_path / "half")
        last_f = json.loads(open(out_f["metrics_path"]).readlines()[-1])["loss"]
        last_h = json.loads(open(out_h["metrics_path"]).readlines()[-1])["loss"]
        assert abs(last_f - last_h) < 5e-2 * max(1.0, abs(last_f))
