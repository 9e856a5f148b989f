"""Binary16 value emulation and the stable-op policy."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from florence_mini.numerics import (
    EMULATED_HALF,
    FULL_PRECISION,
    PrecisionPolicy,
    Tensor,
    ops,
    precision_policy,
    quantize_to_half,
)


def test_exactly_representable_value_unchanged():
    q = quantize_to_half(Tensor(np.array([1.0])))
    assert q.tensor.data[0] == 1.0
    assert q.overflow_count == 0


def test_grid_spacing_at_2048():
    """binary16 spacing is 2 in [2048, 4096); 2049 ties to even 2048."""
    q = quantize_to_half(Tensor(np.array([2049.0])))
    assert q.tensor.data[0] == 2048.0


def test_overflow_saturates_and_is_reported():
    """binary16 max finite value is 65504; beyond it we saturate to inf."""
    q = quantize_to_half(Tensor(np.array([70000.0, 65504.0, -1e6])))
    assert np.isposinf(q.tensor.data[0])
    assert q.tensor.data[1] == 65504.0
    assert np.isneginf(q.tensor.data[2])
    assert list(q.overflow_indices) == [0, 2]


def test_non_float_rejected():
    with pytest.raises(TypeError):
        quantize_to_half(Tensor(np.array([1], dtype=np.uint8)))


@given(st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=50))
def test_idempotence(values):
    """q(q(x)) == q(x) for any float input."""
    once = quantize_to_half(Tensor(np.array(values, dtype=np.float64)))
    twice = quantize_to_half(once.tensor)
    np.testing.assert_array_equal(once.tensor.data, twice.tensor.data)


def test_dtype_preserved():
    q = quantize_to_half(Tensor(np.array([0.1], dtype=np.float32)))
    assert q.tensor.dtype == np.float32


class TestPolicy:
    def test_stable_ops_always_include_normalizations(self):
        p = PrecisionPolicy(mode="half-emulated", stable_ops=frozenset({"matmul"}))
        assert "layer_norm" in p.stable_ops
        assert "softmax" in p.stable_ops

    def test_stable_op_output_identical_under_both_policies(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 8))
        g = np.ones(8)
        b = np.zeros(8)
        with precision_policy(FULL_PRECISION):
            full = ops.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
            full_sm = ops.softmax(Tensor(x)).data
        with precision_policy(EMULATED_HALF):
            half = ops.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
            half_sm = ops.softmax(Tensor(x)).data
        assert full.tobytes() == half.tobytes()
        assert full_sm.tobytes() == half_sm.tobytes()

    def test_unstable_op_output_quantized(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        with precision_policy(FULL_PRECISION):
            full = ops.matmul(Tensor(a), Tensor(b)).data
        with precision_policy(EMULATED_HALF):
            half = ops.matmul(Tensor(a), Tensor(b)).data
        assert full.tobytes() != half.tobytes()
        np.testing.assert_array_equal(half, half.astype(np.float16).astype(np.float64))

    def test_shape_ops_pass_layer_norm_output_through_unquantized(self):
        """reshape and transpose move values without producing any, so under
        EMULATED_HALF a full-precision layer_norm output leaves them
        byte-unchanged (the windowed blocks reshape it before attention)."""
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 8)))
        with precision_policy(EMULATED_HALF):
            y = ops.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
            flat = ops.reshape(y, (2, 16))
            swapped = ops.transpose(y, (1, 0))
        assert not np.array_equal(y.data, y.data.astype(np.float16).astype(np.float64))
        assert flat.data.tobytes() == y.data.reshape(2, 16).tobytes()
        assert swapped.data.tobytes() == y.data.T.tobytes()

    def test_gathers_return_their_values_unquantized(self):
        """embedding and unfold only gather, so under EMULATED_HALF they hand
        back exactly the table rows and input patches they read."""
        values = np.array([[0.1, 1 / 3], [0.7, 0.9]])
        with precision_policy(EMULATED_HALF):
            rows = ops.embedding(Tensor(values), np.array([1, 0, 1]))
            patches = ops.unfold(Tensor(values.reshape(1, 2, 1, 2)), (1, 1), (1, 1))
        assert not np.array_equal(values, values.astype(np.float16).astype(np.float64))
        assert rows.data.tobytes() == values[[1, 0, 1]].tobytes()
        assert patches.data.tobytes() == values.reshape(1, 2, 1, 2).tobytes()

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PrecisionPolicy(mode="quarter")
