"""Binary16 value emulation and which ops snap to its grid."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import oracles
from florence_mini.numerics import Tensor, half_grid, ops, precision_policy
from oracles import exp, gelu, matmul, reshape, unfold


def test_exactly_representable_value_unchanged():
    assert half_grid(np.array([1.0]))[0] == 1.0


def test_grid_spacing_at_2048():
    """binary16 spacing is 2 in [2048, 4096); 2049 ties to even 2048."""
    assert half_grid(np.array([2049.0]))[0] == 2048.0


def test_overflow_saturates_to_infinity():
    """binary16 max finite value is 65504; beyond it we saturate to inf."""
    q = half_grid(np.array([70000.0, 65504.0, -1e6]))
    assert np.isposinf(q[0])
    assert q[1] == 65504.0
    assert np.isneginf(q[2])


@given(st.lists(st.floats(allow_nan=False, width=32), min_size=1, max_size=50))
def test_idempotence(values):
    """q(q(x)) == q(x) for any float input."""
    once = half_grid(np.array(values, dtype=np.float64))
    np.testing.assert_array_equal(once, half_grid(once))


def test_dtype_preserved():
    assert half_grid(np.array([0.1], dtype=np.float32)).dtype == np.float32


def _on_half_grid(values: np.ndarray) -> bool:
    return np.array_equal(values, half_grid(values))


_RNG = np.random.default_rng(3)
_X = _RNG.normal(size=(3, 4))
_POS = np.abs(_X) + 0.5
_W = _RNG.normal(size=(4, 5))
_B = _RNG.normal(size=5)
_IMG = _RNG.normal(size=(1, 4, 4, 2))
_KERNEL = _RNG.normal(size=(2, 2, 2, 3))
_TOKENS = _RNG.normal(size=(1, 3, 4))
# attention's weights and biases; the 4th draw, once a key bias, is dropped
# so every other draw keeps its value
_ATTN = [Tensor(_RNG.normal(size=(4, 4) if i % 2 == 0 else 4)) for i in range(8)]
_ATTN2 = [Tensor(_RNG.normal(size=(2, 2) if i % 2 == 0 else 2)) for i in range(8)]
del _ATTN[3], _ATTN2[3]

# Every public op of `ops` and every op among the test oracles, called on
# inputs off the binary16 grid, with whether its output snaps under
# "half-emulated". Ops that compute values snap; ops that only move values
# and the three normalizations never do.
OP_CASES = {
    "add": [(True, lambda: ops.add(Tensor(_X), Tensor(_X * 0.3)))],
    "mul": [(True, lambda: ops.mul(Tensor(_X), Tensor(_X * 0.3)))],
    "scale": [(True, lambda: ops.scale(Tensor(_X), 0.3))],
    "exp": [(True, lambda: exp(Tensor(_X)))],
    "log": [(True, lambda: ops.log(Tensor(_POS)))],
    "gelu": [(True, lambda: gelu(Tensor(_X)))],
    "tensor_sum": [(True, lambda: ops.tensor_sum(Tensor(_X), axis=1))],
    "mean": [(True, lambda: ops.mean(Tensor(_X), axis=0))],
    "matmul": [(True, lambda: matmul(Tensor(_X), Tensor(_W)))],
    "linear": [
        (True, lambda: ops.linear(Tensor(_X), Tensor(_W))),
        (True, lambda: ops.linear(Tensor(_X), Tensor(_W), Tensor(_B))),
    ],
    "attention": [
        (True, lambda: ops.attention(Tensor(_TOKENS), Tensor(_X[0]), Tensor(_X[1]), *_ATTN, Tensor(np.zeros((3, 3))), 2)),
        (True, lambda: ops.attention(Tensor(_IMG), Tensor(_B[:2]), Tensor(_B[2:4]), *_ATTN2, Tensor(np.zeros((4, 4))), 2, 2)),
    ],
    "mlp": [(True, lambda: ops.mlp(Tensor(_TOKENS), Tensor(_X[0]), Tensor(_X[1]), Tensor(_W), Tensor(_B), Tensor(_W.T), Tensor(_X[2])))],
    "conv": [(True, lambda: ops.conv(Tensor(_IMG), Tensor(_KERNEL), Tensor(_B[:3]), (2, 2)))],
    "reshape": [(False, lambda: reshape(Tensor(_X), (2, 6)))],
    "transpose": [(False, lambda: ops.transpose(Tensor(_X), (1, 0)))],
    "embedding": [(False, lambda: ops.embedding(Tensor(_X), np.array([2, 0, 2])))],
    "unfold": [(False, lambda: unfold(Tensor(_IMG), (2, 2), (1, 1)))],
    "layer_norm": [(False, lambda: ops.layer_norm(Tensor(_X), Tensor(_X[0]), Tensor(_X[1])))],
    "softmax": [(False, lambda: ops.softmax(Tensor(_X)))],
    "l2_normalize": [(False, lambda: ops.l2_normalize(Tensor(_X)))],
}


def _public_functions(module) -> dict:
    return {
        name: fn
        for name, fn in vars(module).items()
        if callable(fn) and not name.startswith("_") and getattr(fn, "__module__", None) == module.__name__
    }


# the oracles' ops are their functions that return a Tensor
ORACLE_OPS = [name for name, fn in _public_functions(oracles).items() if fn.__annotations__.get("return") == "Tensor"]
SNAP_OPS = sorted([*_public_functions(ops), *ORACLE_OPS])


def test_every_public_op_has_a_snap_entry():
    assert sorted(OP_CASES) == SNAP_OPS


@pytest.mark.parametrize(
    "snaps,call",
    [case for name in SNAP_OPS for case in OP_CASES.get(name, [])],
    ids=[f"{name}-{i}" for name in SNAP_OPS for i in range(len(OP_CASES.get(name, [])))],
)
def test_op_snaps_only_when_it_computes_values(snaps, call):
    with precision_policy("full"):
        full = call().data
    with precision_policy("half-emulated"):
        half = call().data
    assert not _on_half_grid(full)
    if snaps:
        assert _on_half_grid(half)
    else:
        assert half.tobytes() == full.tobytes()


class TestPolicy:
    def test_stable_op_output_identical_under_both_policies(self):
        rng = np.random.default_rng(0)
        x = rng.normal(size=(4, 8))
        g = np.ones(8)
        b = np.zeros(8)
        with precision_policy("full"):
            full = ops.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
            full_sm = ops.softmax(Tensor(x)).data
        with precision_policy("half-emulated"):
            half = ops.layer_norm(Tensor(x), Tensor(g), Tensor(b)).data
            half_sm = ops.softmax(Tensor(x)).data
        assert full.tobytes() == half.tobytes()
        assert full_sm.tobytes() == half_sm.tobytes()

    def test_unstable_op_output_quantized(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 4))
        b = rng.normal(size=(4, 4))
        with precision_policy("full"):
            full = matmul(Tensor(a), Tensor(b)).data
        with precision_policy("half-emulated"):
            half = matmul(Tensor(a), Tensor(b)).data
        assert full.tobytes() != half.tobytes()
        np.testing.assert_array_equal(half, half.astype(np.float16).astype(np.float64))

    def test_shape_ops_pass_layer_norm_output_through_unquantized(self):
        """reshape and transpose move values without producing any, so in
        half-emulated mode a full-precision layer_norm output leaves them
        byte-unchanged (as attention's window partition leaves its norm's)."""
        rng = np.random.default_rng(2)
        x = Tensor(rng.normal(size=(4, 8)))
        with precision_policy("half-emulated"):
            y = ops.layer_norm(x, Tensor(np.ones(8)), Tensor(np.zeros(8)))
            flat = reshape(y, (2, 16))
            swapped = ops.transpose(y, (1, 0))
        assert not np.array_equal(y.data, y.data.astype(np.float16).astype(np.float64))
        assert flat.data.tobytes() == y.data.reshape(2, 16).tobytes()
        assert swapped.data.tobytes() == y.data.T.tobytes()

    def test_gathers_return_their_values_unquantized(self):
        """embedding and unfold only gather, so in half-emulated mode they
        hand back exactly the table rows and input patches they read."""
        values = np.array([[0.1, 1 / 3], [0.7, 0.9]])
        with precision_policy("half-emulated"):
            rows = ops.embedding(Tensor(values), np.array([1, 0, 1]))
            patches = unfold(Tensor(values.reshape(1, 2, 1, 2)), (1, 1), (1, 1))
        assert not np.array_equal(values, values.astype(np.float16).astype(np.float64))
        assert rows.data.tobytes() == values[[1, 0, 1]].tobytes()
        assert patches.data.tobytes() == values.reshape(1, 2, 1, 2).tobytes()

    def test_mode_is_restored_after_the_block(self):
        a = Tensor(_X)
        with precision_policy("half-emulated"):
            with precision_policy("full"):
                assert not _on_half_grid(ops.scale(a, 0.3).data)
            assert _on_half_grid(ops.scale(a, 0.3).data)
        assert not _on_half_grid(ops.scale(a, 0.3).data)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown precision mode 'quarter'"):
            with precision_policy("quarter"):
                pass
