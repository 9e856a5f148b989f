"""Tape engine: exactness of reverse-mode gradients and tape semantics."""

import math

import numpy as np
import pytest

from florence_mini.numerics import (
    Tensor,
    activation_meter,
    backward_from,
    evaluate_and_backward,
    finite_difference_check,
    no_grad,
    ops,
    precision_policy,
)
from florence_mini.numerics.precision import PRECISION_MODES


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
        lambda a: ops.tensor_sum(ops.matmul(a, b)), rng.normal(size=(3, 4)), eps=1e-5
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


def test_unfold_kernel_rank_must_match_input():
    x = Tensor(np.zeros((1, 4, 4, 2)))
    with pytest.raises(ValueError, match="middle axes"):
        ops.unfold(x, (2, 2, 2), (1, 1, 1))
    with pytest.raises(ValueError, match="middle axes"):
        ops.conv(x, Tensor(np.zeros((2, 2, 2, 2, 3))), Tensor(np.zeros(3)), (1, 1, 1))


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
        self._check(lambda a: ops.tensor_sum(ops.matmul(a, Tensor(b0))), a0)
        self._check(lambda b: ops.tensor_sum(ops.matmul(Tensor(a0), b)), b0)

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
            lambda a: ops.tensor_sum(ops.matmul(a, Tensor(b0))), rng.normal(size=(2, 3, 4))
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
        self._check(lambda x: ops.tensor_sum(ops.gelu(x)), rng.normal(size=12) * 2.0)
        ids = np.array([[0, 2], [1, 1]])
        probe = Tensor(rng.normal(size=(2, 2, 4)))
        self._check(
            lambda t: ops.tensor_sum(ops.mul(ops.embedding(t, ids), probe)),
            rng.normal(size=(3, 4)),
        )
        self._check(
            lambda x: ops.tensor_sum(ops.unfold(x, (2, 2), (1, 1))), rng.normal(size=(1, 4, 4, 2))
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
        pair = self._run(lambda x, w, b: ops.add(ops.matmul(x, w), b), x0, w0, b0, seed)
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

    def test_node_saves_input_and_weight_only(self):
        activation_meter.reset()
        x = Tensor(np.ones((2, 3, 4)), requires_grad=True, name="x")
        w = Tensor(np.ones((4, 5)), requires_grad=True, name="w")
        y = ops.linear(x, w, Tensor(np.ones(5), requires_grad=True, name="b"))
        assert y.node.op == "linear"
        assert activation_meter.current == x.size + w.size
        backward_from([y], [np.ones(y.shape)])
        assert activation_meter.current == 0


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
        y = ops.gelu(x)
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
        y = ops.gelu(Tensor(xt, requires_grad=True))
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
            out = ops.tensor_sum(ops.gelu(ops.matmul(ops.layer_norm(a, Tensor(np.ones(4)), Tensor(np.zeros(4))), b)))
            g = evaluate_and_backward(out)
            return out.data.copy(), g["a"].copy(), g["b"].copy()

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

    def test_backward_from_injected_gradient(self):
        """Seeding a non-scalar output with J reproduces d(sum(J*y))/dx."""
        rng = np.random.default_rng(12)
        w0 = rng.normal(size=(3, 3))
        x0 = rng.normal(size=(2, 3))
        seed = rng.normal(size=(2, 3))

        x = Tensor(x0, requires_grad=True, name="x")
        y = ops.matmul(x, Tensor(w0))
        g_inj = backward_from([y], [seed])["x"]

        x2 = Tensor(x0, requires_grad=True, name="x2")
        y2 = ops.matmul(x2, Tensor(w0))
        g_ref = evaluate_and_backward(ops.tensor_sum(ops.mul(y2, Tensor(seed))))["x2"]
        assert g_inj.tobytes() == g_ref.tobytes()

    def test_meter_counts_saved_then_freed(self):
        activation_meter.reset()
        x = Tensor(np.ones((8, 8)), requires_grad=True, name="x")
        y = ops.tensor_sum(ops.mul(x, x))
        assert activation_meter.current == 128  # mul saved both operands
        evaluate_and_backward(y)
        assert activation_meter.current == 0
        assert activation_meter.peak == 128
