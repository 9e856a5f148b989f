"""Tape engine: exactness of reverse-mode gradients and tape semantics."""

import math
import tracemalloc
import weakref

import numpy as np
import pytest

from florence_mini.numerics import (
    Tensor,
    activation_meter,
    backward_from,
    evaluate_and_backward,
    no_grad,
    ops,
    precision_policy,
)
from florence_mini.numerics.precision import PRECISION_MODES
from florence_mini.numerics.tensor import record
from oracles import finite_difference_check, gelu, matmul, reshape, unfold


def test_square_gradient_at_three():
    """d/dx (x*x) = 2x, so 6 at x = 3."""
    x = Tensor(np.array(3.0), requires_grad=True, name="x")
    g = evaluate_and_backward(ops.mul(x, x))
    assert g[x] == pytest.approx(6.0, abs=0)


def test_sum_of_softmax_has_zero_gradient():
    """sum(softmax(z)) is constant 1, so its gradient vanishes."""
    z = Tensor(np.random.default_rng(0).normal(size=7), requires_grad=True, name="z")
    g = evaluate_and_backward(ops.tensor_sum(ops.softmax(z)))
    np.testing.assert_allclose(g[z], 0.0, atol=1e-15)


def test_matmul_gradient_matches_finite_differences():
    rng = np.random.default_rng(1)
    b = Tensor(rng.normal(size=(4, 2)))
    rep = finite_difference_check(
        lambda a: ops.tensor_sum(matmul(a, b)), rng.normal(size=(3, 4)), eps=1e-5
    )
    assert rep.max_rel_error < 1e-6
    assert not rep.kinks


def test_non_scalar_root_rejected():
    x = Tensor(np.ones(3), requires_grad=True)
    with pytest.raises(ValueError, match="scalar"):
        evaluate_and_backward(ops.scale(x, 2.0))


def test_dtype_mismatch_between_connected_nodes_rejected():
    a = Tensor(np.ones(3, dtype=np.float32), requires_grad=True)
    b = Tensor(np.ones(3, dtype=np.float64))
    with pytest.raises(TypeError, match="dtype mismatch"):
        ops.add(a, b)


def _unfold_by_slices(x, kernel, stride):
    """Reference ``unfold``: one strided slice per kernel offset, written
    slot by slot; its backward scatter-adds each slot into zeros."""
    out = tuple((n - k) // s + 1 for n, k, s in zip(x.shape[1:-1], kernel, stride))
    views = [
        (slice(None),) + tuple(slice(o, o + s * n, s) for o, s, n in zip(offset, stride, out))
        for offset in np.ndindex(*kernel)
    ]
    c = x.shape[-1]

    def backward(g):
        gx = np.zeros(x.shape, dtype=g.dtype)
        for slot, view in enumerate(views):
            gx[view] += g[..., slot * c : (slot + 1) * c]
        return gx

    return np.concatenate([x[view] for view in views], axis=-1), backward


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "shape, kernel, stride",
    [
        ((3, 32, 32, 3), (4, 4), (4, 4)),  # patch embed, 32 px
        ((2, 64, 64, 3), (4, 4), (4, 4)),  # patch embed, 64 px
        ((3, 8, 8, 5), (2, 2), (2, 2)),  # a merge
        ((2, 2, 8, 8, 4), (1, 2, 2), (1, 2, 2)),  # a kt = 1 tube
        ((2, 4, 8, 8, 4), (2, 2, 2), (1, 2, 2)),  # a kt = 2 merge: overlapping frames
    ],
    ids=["image32", "image64", "map", "tube", "overlapping_tube"],
)
def test_unfold_bytes_equal_the_slice_loop(shape, kernel, stride, dtype):
    """Both directions, with -0.0 entries in the upstream gradient: a sum
    into zeros returns them as +0.0, and so must ``unfold``'s backward."""
    rng = np.random.default_rng(sum(shape))
    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    ref_cols, ref_backward = _unfold_by_slices(x.data, kernel, stride)
    cols = unfold(x, kernel, stride)
    assert cols.data.dtype == dtype and cols.data.tobytes() == ref_cols.tobytes()
    g = rng.normal(size=cols.shape).astype(dtype)
    g.reshape(-1)[:: max(1, g.size // 7)] = -0.0
    gx = backward_from([cols], [g])[x]
    assert gx.tobytes() == ref_backward(g).tobytes()


def test_unfold_kernel_rank_must_match_input():
    x = Tensor(np.zeros((1, 4, 4, 2)))
    with pytest.raises(ValueError, match="middle axes"):
        unfold(x, (2, 2, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="middle axes"):
        ops.conv(x, Tensor(np.zeros((2, 2, 2, 2, 3))), Tensor(np.zeros(3)), (1, 1, 1))


def _composed_conv(x, w, b, stride):
    """The composition ``conv`` replaces: unfold, the kernel reshaped to a
    dense weight, linear."""
    cols = unfold(x, w.shape[:-2], stride)
    return ops.linear(cols, reshape(w, (cols.shape[-1], w.shape[-1])), b)


@pytest.mark.parametrize("mode", PRECISION_MODES)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize(
    "shape, kernel, stride",
    [
        ((3, 8, 8, 3), (4, 4), (4, 4)),  # a patch embed: the kernel tiles its input
        ((2, 4, 4, 4, 3), (2, 2, 2), (1, 2, 2)),  # a kt = 2 merge: overlapping frames
    ],
    ids=["tiling", "overlapping"],
)
def test_conv_bytes_equal_unfold_reshape_linear(shape, kernel, stride, dtype, mode):
    """Value and input, weight and bias gradients, with the input on the
    tape and off it (the patch embed's pixels). The node saves the input
    itself, not a copy, and the kernel: as many scalars as the composition
    saved where the kernel tiles its input, fewer where kernels overlap."""
    rng = np.random.default_rng(len(shape))
    x0 = rng.normal(size=shape).astype(dtype)
    w0 = (rng.normal(size=(*kernel, shape[-1], 5)) * 0.3).astype(dtype)
    b0 = rng.normal(size=5).astype(dtype)
    out = (shape[0], *((n - k) // s + 1 for n, k, s in zip(shape[1:-1], kernel, stride)), 5)
    g = rng.normal(size=out).astype(dtype)
    cols = math.prod(out[:-1]) * math.prod(kernel) * shape[-1]
    for x_on_tape in (True, False):
        results = []
        for fn in (ops.conv, _composed_conv):
            x, w, b = Tensor(x0.copy(), requires_grad=x_on_tape), Tensor(w0, requires_grad=True), Tensor(b0, requires_grad=True)
            with precision_policy(mode):
                y = fn(x, w, b, stride)
            if fn is ops.conv:
                assert y.node.op == "conv" and np.shares_memory(y.node.saved[0], x.data)
                saved = y.node._saved_scalars
                assert saved == x0.size + w0.size
                assert saved == cols + w0.size if kernel == stride else saved < cols + w0.size
            grads = backward_from([y], [g])
            results.append([y.data] + [grads[t] for t in (x, w, b) if t.requires_grad])
        assert [len(r) for r in results] == [3 + x_on_tape] * 2
        for got, want in zip(*results):
            assert got.dtype == dtype and got.tobytes() == want.tobytes()


def test_scale_by_numpy_float64_keeps_float32_gradient():
    """1 / sqrt(4) is a numpy float64; the float32 leaf's gradient stays float32."""
    x = Tensor(np.ones(3, dtype=np.float32), requires_grad=True, name="x")
    g = evaluate_and_backward(ops.tensor_sum(ops.scale(x, 1.0 / np.sqrt(4))))[x]
    assert g.dtype == np.float32
    np.testing.assert_array_equal(g, np.float32(0.5))


def test_gradient_bearing_tensor_must_be_float():
    with pytest.raises(TypeError, match="floating"):
        Tensor(np.ones(3, dtype=np.uint8), requires_grad=True)


class TestPrimitiveGradients:
    """Central finite differences vs analytic, rel err < 1e-4 (eps 1e-5)."""

    TOL = 1e-4

    def _check(self, f, point):
        rep = finite_difference_check(f, point, eps=1e-5)
        assert rep.max_rel_error < self.TOL, rep.max_rel_error
        assert not rep.kinks

    def test_matmul_left_and_right(self):
        rng = np.random.default_rng(2)
        a0 = rng.normal(size=(3, 5))
        b0 = rng.normal(size=(5, 2))
        self._check(lambda a: ops.tensor_sum(matmul(a, Tensor(b0))), a0)
        self._check(lambda b: ops.tensor_sum(matmul(Tensor(a0), b)), b0)

    def test_linear_input_weight_and_bias(self):
        """Inputs of rank 2, 3 and 4, with and without bias."""
        rng = np.random.default_rng(13)
        for lead in ((3,), (2, 3), (2, 2, 3)):
            x0 = rng.normal(size=lead + (4,))
            w0 = rng.normal(size=(4, 5))
            b0 = rng.normal(size=5)
            probe = Tensor(rng.normal(size=lead + (5,)))

            def through(x, w, b):
                return ops.tensor_sum(ops.mul(ops.linear(x, w, b), probe))

            for b in (Tensor(b0), None):
                self._check(lambda x: through(x, Tensor(w0), b), x0)
                self._check(lambda w: through(Tensor(x0), w, b), w0)
            self._check(lambda b: through(Tensor(x0), Tensor(w0), b), b0)

    def test_stacked_matmul(self):
        rng = np.random.default_rng(3)
        b0 = rng.normal(size=(2, 4, 3))
        self._check(
            lambda a: ops.tensor_sum(matmul(a, Tensor(b0))), rng.normal(size=(2, 3, 4))
        )

    def test_conv2d_kernel_and_input(self):
        rng = np.random.default_rng(4)
        x0 = rng.normal(size=(1, 6, 6, 2))
        w0 = rng.normal(size=(2, 2, 2, 3)) * 0.5
        b0 = rng.normal(size=3)
        self._check(
            lambda w: ops.tensor_sum(ops.conv(Tensor(x0), w, Tensor(b0), stride=(2, 2))), w0
        )
        self._check(
            lambda x: ops.tensor_sum(ops.conv(x, Tensor(w0), Tensor(b0), stride=(2, 2))), x0
        )

    def test_conv3d_kernel(self):
        rng = np.random.default_rng(5)
        x0 = rng.normal(size=(1, 4, 4, 4, 2))
        b0 = rng.normal(size=2)
        self._check(
            lambda w: ops.tensor_sum(ops.conv(Tensor(x0), w, Tensor(b0), stride=(2, 2, 2))),
            rng.normal(size=(2, 2, 2, 2, 2)) * 0.5,
        )
        # stride (1, 2, 2) overlaps consecutive temporal windows, as the
        # inflated patch merges do
        w0 = rng.normal(size=(2, 2, 2, 2, 3)) * 0.5
        b1 = rng.normal(size=3)
        probe = Tensor(rng.normal(size=(1, 3, 2, 2, 3)))
        self._check(
            lambda x: ops.tensor_sum(
                ops.mul(ops.conv(x, Tensor(w0), Tensor(b1), stride=(1, 2, 2)), probe)
            ),
            x0,
        )

    def test_layer_norm_all_arguments(self):
        rng = np.random.default_rng(6)
        x0 = rng.normal(size=(3, 8))
        g0 = rng.normal(size=8)
        b0 = rng.normal(size=8)
        probe = Tensor(rng.normal(size=(3, 8)))

        def through(x):
            return ops.tensor_sum(ops.mul(ops.layer_norm(x, Tensor(g0), Tensor(b0)), probe))

        self._check(through, x0)
        self._check(
            lambda g: ops.tensor_sum(ops.mul(ops.layer_norm(Tensor(x0), g, Tensor(b0)), probe)),
            g0,
        )
        self._check(
            lambda b: ops.tensor_sum(ops.mul(ops.layer_norm(Tensor(x0), Tensor(g0), b), probe)),
            b0,
        )

    def test_softmax(self):
        rng = np.random.default_rng(7)
        probe = Tensor(rng.normal(size=(2, 6)))
        self._check(
            lambda x: ops.tensor_sum(ops.mul(ops.softmax(x), probe)), rng.normal(size=(2, 6))
        )

    def test_log(self):
        rng = np.random.default_rng(8)
        self._check(lambda x: ops.tensor_sum(ops.log(x)), rng.uniform(0.5, 2.0, size=10))

    def test_l2_normalize(self):
        rng = np.random.default_rng(9)
        probe = Tensor(rng.normal(size=(3, 5)))
        self._check(
            lambda x: ops.tensor_sum(ops.mul(ops.l2_normalize(x), probe)),
            rng.normal(size=(3, 5)) + 0.5,
        )

    def test_gelu_embedding_and_unfold(self):
        rng = np.random.default_rng(10)
        self._check(lambda x: ops.tensor_sum(gelu(x)), rng.normal(size=12) * 2.0)
        ids = np.array([[0, 2], [1, 1]])
        probe = Tensor(rng.normal(size=(2, 2, 4)))
        self._check(
            lambda t: ops.tensor_sum(ops.mul(ops.embedding(t, ids), probe)),
            rng.normal(size=(3, 4)),
        )
        self._check(
            lambda x: ops.tensor_sum(unfold(x, (2, 2), (1, 1))), rng.normal(size=(1, 4, 4, 2))
        )


class TestLinear:
    """``linear`` against the ``add(matmul(x, w), b)`` pair it replaces."""

    @staticmethod
    def _run(f, x0, w0, b0, seed):
        x = Tensor(x0, requires_grad=True, name="x")
        w = Tensor(w0, requires_grad=True, name="w")
        b = Tensor(b0, requires_grad=True, name="b")
        y = f(x, w, b)
        g = backward_from([y], [seed])
        return [y.data, g[x], g[w], g[b]]

    def _both(self, lead):
        rng = np.random.default_rng(14)
        x0 = rng.normal(size=lead + (6,)) * 3.0
        w0 = rng.normal(size=(6, 5))
        b0 = rng.normal(size=5) * 3.0
        seed = rng.normal(size=lead + (5,))
        fused = self._run(ops.linear, x0, w0, b0, seed)
        pair = self._run(lambda x, w, b: ops.add(matmul(x, w), b), x0, w0, b0, seed)
        return fused, pair

    def test_rank2_byte_equal_to_matmul_add_under_each_policy(self):
        for mode in PRECISION_MODES:
            with precision_policy(mode):
                fused, pair = self._both((7,))
            for a, b in zip(fused, pair):
                assert a.tobytes() == b.tobytes(), mode

    def test_one_row_byte_equal_to_its_row_in_a_batch(self):
        """A lone row (rank 2 or rank 1) gets the bytes it gets inside a
        stack of rows, so one image embeds as its row of a batch does."""
        rng = np.random.default_rng(0)
        x, w, b = rng.normal(size=(9, 64)), rng.normal(size=(64, 64)), rng.normal(size=64)
        batch = ops.linear(Tensor(x), Tensor(w), Tensor(b)).data
        for row in (x[:1], x[0]):
            one = ops.linear(Tensor(row), Tensor(w), Tensor(b)).data
            assert one.shape == row.shape[:-1] + (64,)
            assert one.tobytes() == batch[0].tobytes()

    def test_rank4_agrees_with_matmul_add(self):
        fused, pair = self._both((2, 3, 4))
        for a, b in zip(fused, pair):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=0, atol=1e-12)

    def test_input_off_the_tape_gets_no_gradient(self):
        """A constant input's gradient is not formed; the weight and bias
        get the bytes they get beside a live input."""
        rng = np.random.default_rng(15)
        x0, w0, b0, seed = rng.normal(size=(3, 4, 6)), rng.normal(size=(6, 5)), rng.normal(size=5), rng.normal(size=(3, 4, 5))
        runs = []
        for live in (True, False):
            x = Tensor(x0, requires_grad=live, name="x")
            w, b = Tensor(w0, requires_grad=True, name="w"), Tensor(b0, requires_grad=True, name="b")
            y = ops.linear(x, w, b)
            runs.append(y.node.backward_fn(seed, y.node.saved))
        (dx, dw, db), (dx_const, dw_const, db_const) = runs
        assert dx is not None and dx_const is None
        assert dw_const.tobytes() == dw.tobytes() and db_const.tobytes() == db.tobytes()

    def test_node_saves_input_and_weight_only(self):
        activation_meter.reset()
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True, name="x")
        w = Tensor(np.ones((4, 5)), requires_grad=True, name="w")
        y = ops.linear(x, w, Tensor(np.ones(5), requires_grad=True, name="b"))
        assert y.node.op == "linear"
        assert activation_meter.current == x.size + w.size
        backward_from([y], [np.ones(y.shape)])
        assert activation_meter.current == 0


def _reduce_max_softmax(x):
    """``softmax``'s forward as it was written before ``_row_max``."""
    m = x.max(axis=-1, keepdims=True)
    e = np.exp(x - m)
    return e / e.sum(axis=-1, keepdims=True)


def _rows_with_specials(n, dtype, seed):
    """(3, 12, n) rows: random, with signed-zero ties, infinities and NaN."""
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(3, 12, n)) * 3.0
    rows = x.reshape(-1, n)
    at = rng.integers(0, n, size=8)
    rows[0] = 0.0
    rows[1] = -0.0
    rows[2, ::2] = -0.0
    rows[2, 1::2] = 0.0
    rows[3, at[0]] = np.inf
    rows[4, at[1]] = -np.inf
    rows[5] = -np.inf
    rows[6, at[2]] = np.nan
    rows[7, at[3]] = np.nan
    rows[7, at[4]] = np.inf
    rows[8] = rows[8, at[5]]
    rows[9, at[6]] = -0.0
    rows[9, at[7]] = 0.0
    rows[9] = np.minimum(rows[9], 0.0)
    return x.astype(dtype)


class TestRowMax:
    """``_row_max`` against numpy's reduce, and ``softmax`` against the
    formula it had before, over every row length the models use."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_equals_the_reduce_max(self, n, dtype):
        x = _rows_with_specials(n, dtype, seed=n)
        before = x.copy()
        m = ops._row_max(x)
        assert m.shape == x.shape[:-1] + (1,) and m.dtype == dtype
        # values and NaN positions; a tie of +0 and -0 may keep either sign
        np.testing.assert_array_equal(m, x.max(axis=-1, keepdims=True))
        assert x.tobytes() == before.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("n", range(1, 18))
    def test_softmax_bytes_equal_the_reduce_max_formula(self, n, dtype):
        x = _rows_with_specials(n, dtype, seed=100 + n)
        with np.errstate(invalid="ignore"):
            ref = _reduce_max_softmax(x)
            out = ops.softmax(Tensor(x)).data
        assert out.dtype == dtype
        assert out.tobytes() == ref.tobytes()


def _composed_attention(x, p, heads, bias):
    """Multi-head attention over (B, N, C) token stacks from the primitive
    ops, as the model composed it before ``ops.attention``."""
    bsz, n, c = x.shape
    dh = c // heads

    def project(m, b):
        h = ops.linear(x, p[m], None if b is None else p[b])
        return ops.transpose(reshape(h, (bsz, n, heads, dh)), (0, 2, 1, 3))

    q, k, v = project("wq", "bq"), project("wk", None), project("wv", "bv")
    scores = ops.scale(matmul(q, ops.transpose(k, (0, 1, 3, 2))), 1.0 / np.sqrt(dh))
    attn = ops.softmax(ops.add(scores, bias))
    out = reshape(ops.transpose(matmul(attn, v), (0, 2, 1, 3)), (bsz, n, c))
    return ops.linear(out, p["wo"], p["bo"])


def _window_partition(x, window):
    """(..., H, W, C) -> (N*nWin, window*window, C), from shape ops."""
    h, w, c = x.shape[-3:]
    t = reshape(x, (-1, h // window, window, w // window, window, c))
    t = ops.transpose(t, (0, 1, 3, 2, 4, 5))
    return reshape(t, (-1, window * window, c))


def _window_merge(x, window, shape):
    """Inverse of ``_window_partition`` back to the map ``shape``."""
    h, w, c = shape[-3:]
    t = reshape(x, (-1, h // window, w // window, window, window, c))
    t = ops.transpose(t, (0, 1, 3, 2, 4, 5))
    return reshape(t, shape)


def _composed_sublayer(x, p, heads, bias, window):
    """Layer norm, window partition, attention and window merge from the
    primitive ops: the oracle ``ops.attention`` must equal."""
    t = ops.layer_norm(x, p["gamma"], p["beta"])
    if window is None:
        return _composed_attention(t, p, heads, bias)
    return _window_merge(_composed_attention(_window_partition(t, window), p, heads, bias), window, x.shape)


_ATTN_WEIGHTS = ("wq", "bq", "wk", "wv", "bv", "wo", "bo")


def _fused_attention(x, p, heads, bias, window):
    return ops.attention(x, p["gamma"], p["beta"], *(p[name] for name in _ATTN_WEIGHTS), bias, heads, window)


def _check_backward_leaves_everything_unwritten(y, g, inputs):
    """Run y's backward rule on ``g`` directly (backward_from would copy the
    seed): it writes neither ``g``, nor a saved array, nor any of ``inputs``
    (the Tensors y was computed from), and no gradient it returns shares
    memory with another or with any of those. Each gradient has its input's
    shape as the node records it. Returns the gradients."""
    assert y.node.shapes == tuple(t.shape for t in inputs)
    kept = [a.copy() for a in (g, *y.node.saved, *(t.data for t in inputs))]
    grads = y.node.backward_fn(g, y.node.saved)
    for a, before in zip((g, *y.node.saved, *(t.data for t in inputs)), kept):
        assert a.tobytes() == before.tobytes()
    assert all(gr is None or gr.shape == shape for shape, gr in zip(y.node.shapes, grads))
    live = [gr for gr in grads if gr is not None]
    for i, a in enumerate(live):
        assert not any(np.shares_memory(a, b) for b in (g, *y.node.saved)), i
        assert not any(np.shares_memory(a, b) for b in live[i + 1 :]), i
    return grads


class TestAttention:
    """``ops.attention`` against the composition it replaces, which stays
    in this file as its oracle. Width 6 over 2 heads makes the score scale
    1/sqrt(3), which a snap can round, unlike a power of two."""

    HEADS = 2
    WIDTH = 6

    def _weights(self, rng, dtype):
        c = self.WIDTH
        weights = {
            name: Tensor((rng.normal(size=(c, c) if name.startswith("w") else c) * 0.4).astype(dtype),
                         requires_grad=True, name=name)
            for name in _ATTN_WEIGHTS
        }
        weights["gamma"] = Tensor((1.0 + 0.3 * rng.normal(size=c)).astype(dtype), requires_grad=True, name="gamma")
        weights["beta"] = Tensor((0.3 * rng.normal(size=c)).astype(dtype), requires_grad=True, name="beta")
        return weights

    def _case(self, seed, shape, dtype):
        rng = np.random.default_rng(seed)
        x = Tensor((rng.normal(size=shape + (self.WIDTH,)) * 2.0 + 0.5).astype(dtype), requires_grad=True, name="x")
        grad_out = rng.normal(size=x.shape).astype(dtype)
        return rng, x, dict(self._weights(rng, dtype), x=x), grad_out

    def _window_case(self, dtype):
        """Clips of two frames of two 4x4 maps, as the video tower runs them:
        2x2 windows under two leading axes, rel-bias table on the tape."""
        from florence_mini.encoders.model import relative_index

        rng, x, leaves, grad_out = self._case(21, (2, 2, 4, 4), dtype)
        table = leaves["table"] = Tensor(rng.normal(size=(9, self.HEADS)).astype(dtype), requires_grad=True)
        return x, leaves, lambda: ops.transpose(ops.embedding(table, relative_index(2)), (2, 0, 1)), grad_out, 2

    def _text_case(self, dtype):
        """Three captions of width 5 with trailing PAD, a constant mask."""
        _, x, leaves, grad_out = self._case(22, (3, 5), dtype)
        valid = np.array([[1, 1, 1, 1, 1], [1, 1, 1, 0, 0], [1, 0, 0, 0, 0]], dtype=bool)
        mask = Tensor((~valid[:, None, None, :]).astype(dtype) * -1e9)
        return x, leaves, lambda: mask, grad_out, None

    def _full_case(self, dtype):
        """A bias leaf of the scores' own shape, whose gradient is the score
        gradient itself, before the scale."""
        rng, x, leaves, grad_out = self._case(23, (2, 4), dtype)
        bias = leaves["bias"] = Tensor(rng.normal(size=(2, self.HEADS, 4, 4)).astype(dtype), requires_grad=True)
        return x, leaves, lambda: bias, grad_out, None

    def _one_token_case(self, dtype):
        """One caption of one token: each dense layer sees one row, so it
        takes ``_dense``'s duplicated-row path, in the forward and in the
        backward's rebuilds."""
        _, x, leaves, grad_out = self._case(24, (1, 1), dtype)
        return x, leaves, lambda: Tensor(np.zeros((1, 1, 1, 1), dtype)), grad_out, None

    def _text13_case(self, dtype):
        """Two captions of 13 tokens, one with trailing PAD: each head's
        products run over 13 keys, an odd count the other cases miss."""
        _, x, leaves, grad_out = self._case(25, (2, 13), dtype)
        valid = np.arange(13) < np.array([[13], [9]])
        mask = Tensor((~valid[:, None, None, :]).astype(dtype) * -1e9)
        return x, leaves, lambda: mask, grad_out, None

    def _windows1024_case(self, dtype):
        """Sixty-four 16x16 maps in 4x4 windows: 1,024 windows of 16 tokens,
        the stack the 64 px tower's first stage runs at batch 64."""
        from florence_mini.encoders.model import relative_index

        rng, x, leaves, grad_out = self._case(26, (64, 16, 16), dtype)
        table = leaves["table"] = Tensor(rng.normal(size=(49, self.HEADS)).astype(dtype), requires_grad=True)
        return x, leaves, lambda: ops.transpose(ops.embedding(table, relative_index(4)), (2, 0, 1)), grad_out, 4

    def _run(self, attend, case):
        x, leaves, bias, grad_out, window = case
        y = attend(x, leaves, self.HEADS, bias(), window)
        g = backward_from([y], [grad_out])
        return y.data, {name: g.get(t) for name, t in leaves.items()}

    @pytest.mark.parametrize("mode", PRECISION_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("case", ["window", "text", "full", "one_token", "text13", "windows1024"])
    def test_bytes_equal_the_composed_ops(self, case, dtype, mode):
        make = getattr(self, f"_{case}_case")
        with precision_policy(mode):
            fused_y, fused_g = self._run(_fused_attention, make(dtype))
            ref_y, ref_g = self._run(_composed_sublayer, make(dtype))
        assert fused_y.dtype == dtype
        assert fused_y.tobytes() == ref_y.tobytes()
        assert set(fused_g) == set(ref_g)
        for name, grad in ref_g.items():
            assert grad is not None, name
            assert fused_g[name].dtype == dtype, name
            assert fused_g[name].tobytes() == grad.tobytes(), name

    @pytest.mark.parametrize("case", ["window", "text", "one_token"])
    def test_backward_rebuilds_under_the_forward_precision_mode(self, case):
        """The q, k, v and merged heads the backward rebuilds snap as the
        forward's did, whichever mode is active when the backward runs."""
        make = getattr(self, f"_{case}_case")
        with precision_policy("half-emulated"):
            ref_y, ref_g = self._run(_fused_attention, make(np.float64))
            x, leaves, bias, grad_out, window = make(np.float64)
            y = _fused_attention(x, leaves, self.HEADS, bias(), window)
        g = backward_from([y], [grad_out])
        assert y.data.tobytes() == ref_y.tobytes()
        for name, t in leaves.items():
            assert g[t].tobytes() == ref_g[name].tobytes(), name

    def test_node_saves_input_and_probabilities_once(self):
        for case in (self._text_case, self._window_case):
            x, leaves, bias, grad_out, window = case(np.float64)
            activation_meter.reset()
            bias = bias()
            base = activation_meter.current  # the rel-bias gather saves its index table
            y = _fused_attention(x, leaves, self.HEADS, bias, window)
            assert y.node.op == "attention"
            c = x.shape[-1]
            tokens, keys = x.size // c, x.shape[-2] if window is None else window * window
            # xhat; one inv_std per token; gamma, beta, the four weights and
            # the q and v biases; the probabilities
            assert activation_meter.current - base == x.size + tokens + 4 * c + 4 * c * c + tokens * self.HEADS * keys
            backward_from([y], [grad_out])
            assert activation_meter.current == 0

    def test_mask_off_the_tape_gets_no_gradient(self):
        x, leaves, bias, grad_out, window = self._text_case(np.float64)
        y = _fused_attention(x, leaves, self.HEADS, bias(), window)
        grads = y.node.backward_fn(grad_out, y.node.saved)
        assert len(grads) == 11 and grads[-1] is None

    def test_backward_writes_nothing_it_is_given_and_returns_no_aliases(self):
        """With a full-shape bias, ``add``'s backward handed one array to
        both the scores and the bias."""
        for case in (self._full_case, self._window_case, self._text_case):
            x, leaves, bias, g, window = case(np.float64)
            b = bias()
            inputs = (x, leaves["gamma"], leaves["beta"], *(leaves[name] for name in _ATTN_WEIGHTS), b)
            _check_backward_leaves_everything_unwritten(_fused_attention(x, leaves, self.HEADS, b, window), g, inputs)

    def test_map_not_divisible_by_the_window_is_refused(self):
        x, leaves, bias, _, _ = self._window_case(np.float64)
        with pytest.raises(ValueError, match="spatial extent 4x4 not divisible by window 3"):
            _fused_attention(x, leaves, self.HEADS, bias(), 3)


_MLP_PARAMS = ("gamma", "beta", "w1", "b1", "w2", "b2")


def _composed_mlp(x, p):
    """Layer norm, linear, gelu, linear from the primitive ops: the oracle
    ``ops.mlp`` must equal."""
    t = ops.layer_norm(x, p["gamma"], p["beta"])
    return ops.linear(gelu(ops.linear(t, p["w1"], p["b1"])), p["w2"], p["b2"])


def _fused_mlp(x, p):
    return ops.mlp(x, *(p[name] for name in _MLP_PARAMS))


class TestMlp:
    """``ops.mlp`` against the composition it replaces, on token stacks and
    on the clip maps the video tower runs (two leading axes)."""

    WIDTH, HIDDEN = 6, 12

    def _case(self, shape, dtype, seed=31):
        rng = np.random.default_rng(seed)
        c, hid = self.WIDTH, self.HIDDEN
        arrays = {
            "x": rng.normal(size=shape + (c,)) * 2.0 + 0.5,
            "gamma": 1.0 + 0.3 * rng.normal(size=c),
            "beta": 0.3 * rng.normal(size=c),
            "w1": rng.normal(size=(c, hid)) * 0.5,
            "b1": rng.normal(size=hid) * 0.3,
            "w2": rng.normal(size=(hid, c)) * 0.5,
            "b2": rng.normal(size=c) * 0.3,
        }
        leaves = {k: Tensor(a.astype(dtype), requires_grad=True, name=k) for k, a in arrays.items()}
        return leaves, rng.normal(size=shape + (c,)).astype(dtype)

    @staticmethod
    def _run(f, leaves, grad_out):
        y = f(leaves["x"], leaves)
        g = backward_from([y], [grad_out])
        return y.data, {name: g[t] for name, t in leaves.items()}

    @pytest.mark.parametrize("mode", PRECISION_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", [(3, 5), (2, 2, 4, 4), (1,)], ids=["tokens", "clip-map", "one-row"])
    def test_bytes_equal_the_composed_ops(self, shape, dtype, mode):
        with precision_policy(mode):
            fused_y, fused_g = self._run(_fused_mlp, *self._case(shape, dtype))
            ref_y, ref_g = self._run(_composed_mlp, *self._case(shape, dtype))
        assert fused_y.dtype == dtype
        assert fused_y.tobytes() == ref_y.tobytes()
        for name, grad in ref_g.items():
            assert fused_g[name].dtype == dtype, name
            assert fused_g[name].tobytes() == grad.tobytes(), name

    def test_backward_rebuilds_under_the_forward_precision_mode(self):
        """The gelu output the backward rebuilds snaps as the forward's did,
        whichever mode is active when the backward runs."""
        with precision_policy("half-emulated"):
            ref_y, ref_g = self._run(_fused_mlp, *self._case((3, 5), np.float64))
            leaves, grad_out = self._case((3, 5), np.float64)
            y = _fused_mlp(leaves["x"], leaves)
        g = backward_from([y], [grad_out])
        assert y.data.tobytes() == ref_y.tobytes()
        for name, t in leaves.items():
            assert g[t].tobytes() == ref_g[name].tobytes(), name

    @pytest.mark.parametrize("mode", PRECISION_MODES)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_row_tiles_with_a_short_last_one_keep_the_bytes(self, monkeypatch, dtype, mode):
        """Tiles of 6 rows split the clip map's 64 rows into ten full tiles
        and one of 4, and the token stack's 15 rows into two and one of 3."""
        monkeypatch.setattr(ops, "_GELU_TILE", 6 * self.HIDDEN)
        self.test_bytes_equal_the_composed_ops((2, 2, 4, 4), dtype, mode)
        self.test_backward_rebuilds_under_the_forward_precision_mode()

    def test_node_saves_normalized_input_and_pre_gelu_values(self):
        leaves, grad_out = self._case((3, 5), np.float64)
        activation_meter.reset()
        y = _fused_mlp(leaves["x"], leaves)
        assert y.node.op == "mlp"
        tokens, c, hid = 15, self.WIDTH, self.HIDDEN
        # xhat; one inv_std per token; gamma and beta; h; w1 and w2
        assert activation_meter.current == tokens * c + tokens + 2 * c + tokens * hid + 2 * c * hid
        backward_from([y], [grad_out])
        assert activation_meter.current == 0

    def test_backward_writes_nothing_it_is_given_and_returns_no_aliases(self):
        for mode in PRECISION_MODES:
            with precision_policy(mode):
                leaves, g = self._case((2, 2, 4, 4), np.float64)
                inputs = (leaves["x"], *(leaves[name] for name in _MLP_PARAMS))
                _check_backward_leaves_everything_unwritten(_fused_mlp(leaves["x"], leaves), g, inputs)


def test_fused_ops_keep_every_saved_array_visible_to_the_meter():
    """An array a backward rule captured in its closure instead of taking it
    from ``saved`` would be held without being metered."""
    att = TestAttention()
    nodes = []
    for case in (att._window_case, att._text_case, att._full_case):
        x, leaves, bias, _, window = case(np.float64)
        nodes.append(_fused_attention(x, leaves, att.HEADS, bias(), window).node)
    leaves, _ = TestMlp()._case((3, 5), np.float64)
    nodes.append(_fused_mlp(leaves["x"], leaves).node)
    for node in nodes:
        cells = node.backward_fn.__closure__ or ()
        assert not any(isinstance(cell.cell_contents, np.ndarray) for cell in cells), node.op


def _transient_over_input(y, g, x):
    """Run y's backward rule on ``g`` under tracemalloc; returns its
    gradients and the peak it allocated above its entry level, the
    gradients it returns included, in units of ``x``'s bytes."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grads = y.node.backward_fn(g, y.node.saved)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return grads, (peak - base) / x.data.nbytes


class TestFusedBackwardTransients:
    """The fused backward rules free each temporary at its last use. At
    the shapes of an (8, 16, 16, 32) map in 4 x 4 windows, 2 heads and a
    hidden width of 64, the bounds sit just above what they allocate; rules
    that held every temporary to the end allocated 15.1x (attention) and
    10.0x (mlp) the input's bytes."""

    SHAPE, HEADS, WINDOW, HIDDEN = (8, 16, 16, 32), 2, 4, 64

    def _leaves(self, seed, shapes):
        rng = np.random.default_rng(seed)
        leaves = {k: Tensor(rng.normal(size=s) * 0.3, requires_grad=True, name=k) for k, s in shapes.items()}
        return leaves, rng.normal(size=self.SHAPE)

    def _attention_case(self, bias_shape):
        c = self.SHAPE[-1]
        shapes = {name: (c, c) if name.startswith("w") else (c,) for name in _ATTN_WEIGHTS + ("gamma", "beta")}
        return self._leaves(41, {"x": self.SHAPE, "bias": bias_shape, **shapes})

    @pytest.mark.parametrize(
        "bias_shape, bound",
        [((2, 16, 16), 6.1), ((128, 2, 16, 16), 7.2)],
        ids=["rel-bias", "full-bias"],
    )
    def test_attention(self, bias_shape, bound):
        """With a bias of the scores' own shape, ``add``'s backward hands the
        bias the score gradient itself, before the scale: the rule scales a
        copy there, and the bias gradient stays the composition's."""
        p, g = self._attention_case(bias_shape)
        y = _fused_attention(p["x"], p, self.HEADS, p["bias"], self.WINDOW)
        grads, ratio = _transient_over_input(y, g, p["x"])
        assert ratio <= bound
        p, g = self._attention_case(bias_shape)
        ref = backward_from([_composed_sublayer(p["x"], p, self.HEADS, p["bias"], self.WINDOW)], [g])
        assert grads[-1].tobytes() == ref[p["bias"]].tobytes()

    def test_mlp(self):
        c, hid = self.SHAPE[-1], self.HIDDEN
        shapes = {"gamma": (c,), "beta": (c,), "w1": (c, hid), "b1": (hid,), "w2": (hid, c), "b2": (c,)}
        p, g = self._leaves(42, {"x": self.SHAPE, **shapes})
        _, ratio = _transient_over_input(_fused_mlp(p["x"], p), g, p["x"])
        assert ratio <= 6.1

    def test_mlp_holds_two_hidden_width_buffers(self, monkeypatch):
        """The backward frees the gelu value before it forms the second
        linear's input gradient, so it rises by at most two of ``h``'s
        buffers plus the gelu tiles' scratch (tiles of 64 rows here); a
        rule that held all three rose by 3.0x ``h``."""
        monkeypatch.setattr(ops, "_GELU_TILE", 64 * self.HIDDEN)
        c, hid = self.SHAPE[-1], self.HIDDEN
        shapes = {"gamma": (c,), "beta": (c,), "w1": (c, hid), "b1": (hid,), "w2": (hid, c), "b2": (c,)}
        p, g = self._leaves(42, {"x": self.SHAPE, **shapes})
        y = _fused_mlp(p["x"], p)
        h = y.node.saved[4]
        _, ratio = _transient_over_input(y, g, p["x"])
        scratch = 4 * ops._GELU_TILE * h.itemsize
        assert ratio * p["x"].data.nbytes <= 2 * h.nbytes + scratch


def _plain_layer_norm(xv, gam, bet, g, eps=1e-5):
    """layer_norm's forward and backward as plain whole-array formulas."""
    mu = xv.mean(axis=-1, keepdims=True)
    var = ((xv - mu) ** 2).mean(axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (xv - mu) * inv_std
    out = gam * xhat + bet
    lead = tuple(range(xv.ndim - 1))
    dxhat = g * gam
    dx = inv_std * (
        dxhat - dxhat.mean(axis=-1, keepdims=True) - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return out, dx, (g * xhat).sum(axis=lead), g.sum(axis=lead)


def _plain_gelu(x, g):
    """gelu's forward and backward as plain whole-array formulas."""
    k0, k1 = math.sqrt(2.0 / math.pi), 0.044715
    t = np.tanh(k0 * (x + k1 * (x * x * x)))
    out = 0.5 * x * (1.0 + t)
    inner = k0 * (1.0 + 3.0 * k1 * x * x)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * inner)


class TestNormAndGeluKernels:
    """The in-place ``layer_norm`` and ``gelu`` kernels give the plain
    formulas' bytes and write into none of the arrays they are handed."""

    SHAPES = ((5,), (3, 5), (2, 3, 5), (2, 2, 3, 5), (4, 1), (2, 3, 1))

    @staticmethod
    def _arrays(shape, dtype, seed):
        rng = np.random.default_rng(seed)
        x = (rng.normal(size=shape) * 3.0 + 0.5).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        return x, g

    @staticmethod
    def _backward(y, g):
        """Run y's backward rule on ``g`` directly (backward_from would copy
        the seed), checking that neither ``g`` nor the saved arrays change."""
        g_before = g.copy()
        saved_before = [a.copy() for a in y.node.saved]
        grads = y.node.backward_fn(g, y.node.saved)
        assert g.tobytes() == g_before.tobytes()
        for a, b in zip(y.node.saved, saved_before):
            assert a.tobytes() == b.tobytes()
        return grads

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_layer_norm_bytes_match_plain_formulas(self, shape, dtype):
        x0, g = self._arrays(shape, dtype, 20)
        rng = np.random.default_rng(21)
        gam0 = rng.normal(size=shape[-1:]).astype(dtype)
        bet0 = rng.normal(size=shape[-1:]).astype(dtype)
        x = Tensor(x0.copy(), requires_grad=True)
        y = ops.layer_norm(x, Tensor(gam0, requires_grad=True), Tensor(bet0, requires_grad=True))
        assert x.data.tobytes() == x0.tobytes()
        got = (y.data,) + tuple(self._backward(y, g))
        want = _plain_layer_norm(x0, gam0, bet0, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert a.shape == b.shape
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("shape", SHAPES)
    def test_gelu_bytes_match_plain_formulas(self, shape, dtype):
        x0, g = self._arrays(shape, dtype, 22)
        x = Tensor(x0.copy(), requires_grad=True)
        y = gelu(x)
        assert x.data.tobytes() == x0.tobytes()
        got = (y.data,) + tuple(self._backward(y, g))
        want = _plain_gelu(x0, g)
        for a, b in zip(got, want):
            assert a.dtype == b.dtype == dtype
            assert a.tobytes() == b.tobytes()

    def test_transposed_input_and_gradient(self):
        """Strided views of the input and gradient, as a transpose's backward
        hands on, still give the plain formulas' bytes."""
        x0, g = self._arrays((5, 3, 4), np.float64, 23)
        xt, gt = x0.transpose(2, 1, 0), g.transpose(2, 1, 0)
        gam, bet = np.linspace(0.5, 1.5, 5), np.linspace(-1.0, 1.0, 5)
        y = ops.layer_norm(Tensor(xt, requires_grad=True), Tensor(gam), Tensor(bet))
        got = (y.data,) + tuple(self._backward(y, gt))
        for a, b in zip(got, _plain_layer_norm(xt, gam, bet, gt)):
            assert a.tobytes() == b.tobytes()
        y = gelu(Tensor(xt, requires_grad=True))
        got = (y.data,) + tuple(self._backward(y, gt))
        for a, b in zip(got, _plain_gelu(xt, gt)):
            assert a.tobytes() == b.tobytes()


class TestTapeSemantics:
    def test_referential_transparency(self):
        """Same tape shape, same leaf values: bit-identical outputs and grads."""
        rng = np.random.default_rng(11)
        a0 = rng.normal(size=(4, 4))
        b0 = rng.normal(size=(4, 4))

        def run():
            a = Tensor(a0.copy(), requires_grad=True, name="a")
            b = Tensor(b0.copy(), requires_grad=True, name="b")
            out = ops.tensor_sum(gelu(matmul(ops.layer_norm(a, Tensor(np.ones(4)), Tensor(np.zeros(4))), b)))
            g = evaluate_and_backward(out)
            return out.data.copy(), g[a].copy(), g[b].copy()

        o1, ga1, gb1 = run()
        o2, ga2, gb2 = run()
        assert o1.tobytes() == o2.tobytes()
        assert ga1.tobytes() == ga2.tobytes()
        assert gb1.tobytes() == gb2.tobytes()

    def test_no_grad_records_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with no_grad():
            y = ops.mul(x, x)
        assert y.node is None

    def test_shared_subexpression_accumulates(self):
        """f = x*x + x*x has gradient 4x."""
        x = Tensor(np.array(2.0), requires_grad=True, name="x")
        sq = ops.mul(x, x)
        g = evaluate_and_backward(ops.add(sq, sq))
        assert g[x] == pytest.approx(8.0, abs=0)

    def test_leaves_sharing_a_name_get_their_own_gradients(self):
        """Gradients are keyed by the leaf, not its name: for sum(a * b) with
        a and b both named "w", a gets b and b gets a, not both their sum."""
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True, name="w")
        b = Tensor(np.array([10.0, 20.0]), requires_grad=True, name="w")
        g = evaluate_and_backward(ops.tensor_sum(ops.mul(a, b)))
        np.testing.assert_array_equal(g[a], [10.0, 20.0])
        np.testing.assert_array_equal(g[b], [1.0, 2.0])
        assert len(g) == 2

    def test_backward_from_injected_gradient(self):
        """Seeding a non-scalar output with J reproduces d(sum(J*y))/dx."""
        rng = np.random.default_rng(12)
        w0 = rng.normal(size=(3, 3))
        x0 = rng.normal(size=(2, 3))
        seed = rng.normal(size=(2, 3))

        x = Tensor(x0, requires_grad=True, name="x")
        y = matmul(x, Tensor(w0))
        g_inj = backward_from([y], [seed])[x]

        x2 = Tensor(x0, requires_grad=True, name="x2")
        y2 = matmul(x2, Tensor(w0))
        g_ref = evaluate_and_backward(ops.tensor_sum(ops.mul(y2, Tensor(seed))))[x2]
        assert g_inj.tobytes() == g_ref.tobytes()

    def test_seeds_are_not_copied_and_no_returned_gradient_aliases_them(self):
        """The first rule reads the caller's seed array itself. A leaf that
        is a root, or that a seed reaches only through views, gets a copy."""
        seen = []

        def probe_backward(g, saved):
            seen.append(g)
            return (g,)

        x = Tensor(np.arange(6.0).reshape(2, 3), requires_grad=True, name="x")
        y = record("probe", x.data * 2.0, (x,), (), probe_backward)
        seed = np.linspace(-1.0, 1.0, 6).reshape(2, 3)
        grads = backward_from([y], [seed])
        assert len(seen) == 1 and seen[0] is seed
        leaf = Tensor(np.ones(6), requires_grad=True, name="leaf")
        for root in (leaf, reshape(leaf, (2, 3))):
            seed = np.linspace(-1.0, 1.0, 6).reshape(root.shape)
            got = backward_from([root], [seed])[leaf]
            assert not np.shares_memory(got, seed)
            assert got.tobytes() == seed.tobytes()
        assert not np.shares_memory(grads[x], seen[0])

    def test_meter_counts_saved_then_freed(self):
        activation_meter.reset()
        x = Tensor(np.ones((8, 8)), requires_grad=True, name="x")
        y = ops.tensor_sum(ops.mul(x, x))
        assert activation_meter.current == 128  # mul saved both operands
        evaluate_and_backward(y)
        assert activation_meter.current == 0
        assert activation_meter.peak == 128

    def test_a_walked_tape_is_refused_by_name(self):
        """A second walk names the first node it reaches, whether from the
        same root or from a new root over a walked intermediate."""
        x = Tensor(np.arange(3.0), requires_grad=True, name="x")
        sq = ops.mul(x, x)
        y = ops.tensor_sum(sq)
        evaluate_and_backward(y)
        with pytest.raises(RuntimeError, match="backward of 'sum': its tape was already walked; rebuild the forward"):
            evaluate_and_backward(y)
        with pytest.raises(RuntimeError, match="backward of 'mul': its tape was already walked"):
            evaluate_and_backward(ops.tensor_sum(sq))

    def test_walk_frees_the_forward_outputs_it_has_consumed(self):
        """With only the root held, the outputs of a probe and of the
        linear/gelu/linear chain over it are dead by the time the probe runs
        its backward, its own output included, and stay dead after the walk
        while the root lives."""
        rng = np.random.default_rng(13)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True, name="x")
        w1, b1, w2 = (Tensor(rng.normal(size=s), requires_grad=True) for s in ((3, 5), (5,), (5, 2)))
        dead_at_probe = []

        def probe_backward(g, saved):
            dead_at_probe.append([ref() is None for ref in refs])
            return (g,)

        chain = [record("probe", x.data.copy(), (x,), (), probe_backward)]
        chain.append(ops.linear(chain[-1], w1, b1))
        chain.append(gelu(chain[-1]))
        chain.append(ops.linear(chain[-1], w2))
        root = ops.tensor_sum(chain[-1])
        refs = [weakref.ref(t.data) for t in chain]
        del chain
        g = evaluate_and_backward(root)
        assert dead_at_probe == [[True] * 4]
        assert [ref() for ref in refs] == [None] * 4
        assert root.data.shape == () and g[x].shape == (4, 3)

    @pytest.mark.parametrize("case", ["_text_case", "_window_case"])
    def test_an_output_no_rule_saved_dies_with_the_forward(self, case):
        """The tape links nodes, not tensors: an ``attention`` output fed
        only to ``add``, which saves nothing, is dead once the forward drops
        it, and the gradients are those of a run that kept it alive."""
        att = TestAttention()
        x, leaves, bias, grad_out, window = getattr(att, case)(np.float64)

        def forward(keep):
            a = _fused_attention(x, leaves, att.HEADS, bias(), window)
            return ops.add(a, x), weakref.ref(a.data), a if keep else None

        y, ref, _ = forward(keep=False)
        assert ref() is None
        freed = backward_from([y], [grad_out])
        y, ref, kept = forward(keep=True)
        assert ref() is kept.data
        alive = backward_from([y], [grad_out])
        assert freed.keys() == alive.keys() and x in freed
        assert [t.name for t in freed if freed[t].tobytes() != alive[t].tobytes()] == []
