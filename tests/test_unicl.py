"""UniCL objective: hand values, term-enumeration oracle, gradients."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from florence_mini.numerics import Tensor
from florence_mini.unicl import unicl_loss_arrays, unicl_loss_op
from oracles import finite_difference_check, infonce_reference


def brute_force_unicl(u, v, y, tau):
    """Term-by-term enumeration of both directional sums (test oracle)."""
    n = len(y)
    total = 0.0
    for i in range(n):
        pos = [k for k in range(n) if y[k] == y[i]]
        for k in pos:
            den = sum(math.exp(tau * float(u[i] @ v[j])) for j in range(n))
            total -= math.log(math.exp(tau * float(u[i] @ v[k])) / den) / len(pos)
    for j in range(n):
        pos = [k for k in range(n) if y[k] == y[j]]
        for k in pos:
            den = sum(math.exp(tau * float(u[i] @ v[j])) for i in range(n))
            total -= math.log(math.exp(tau * float(u[k] @ v[j])) / den) / len(pos)
    return total


def random_unit_rows(rng, n, d):
    m = rng.normal(size=(n, d))
    return m / np.linalg.norm(m, axis=1, keepdims=True)


class TestHandValues:
    def test_orthogonal_identity_batch(self):
        """Two orthogonal pairs with distinct labels: loss = 4*log(1+e^-1)."""
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = 4.0 * math.log(1.0 + math.exp(-1.0))
        assert unicl_loss_arrays(u, u.copy(), np.array([0, 1]), 0.0).loss == pytest.approx(expected, abs=1e-12)

    def test_all_identical_batch(self):
        """Identical embeddings and labels force uniform softmax: 4*log 2."""
        e = np.array([[1.0, 0.0], [1.0, 0.0]])
        for s in (0.0, 1.3, -0.7):
            loss = unicl_loss_arrays(e, e.copy(), np.array([5, 5]), s).loss
            assert loss == pytest.approx(4.0 * math.log(2.0), abs=1e-12)


class TestOracleAgreement:
    def test_batch4_with_duplicate_labels(self):
        rng = np.random.default_rng(0)
        u = random_unit_rows(rng, 4, 6)
        v = random_unit_rows(rng, 4, 6)
        y = np.array([0, 0, 1, 2])
        s = 0.4
        res = unicl_loss_arrays(u, v, y, s)
        assert res.loss == pytest.approx(brute_force_unicl(u, v, y, math.exp(s)), abs=1e-12)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**31), n=st.integers(2, 8))
    def test_random_batches_match_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        u = random_unit_rows(rng, n, 5)
        v = random_unit_rows(rng, n, 5)
        y = rng.integers(0, max(1, n // 2), size=n)
        res = unicl_loss_arrays(u, v, y, 0.2)
        oracle = brute_force_unicl(u, v, y, math.exp(0.2))
        assert res.loss == pytest.approx(oracle, abs=1e-11)


class TestInfoNCEReduction:
    def test_equals_unicl_on_distinct_labels(self):
        rng = np.random.default_rng(1)
        for n in (2, 5, 9):
            u = random_unit_rows(rng, n, 8)
            v = random_unit_rows(rng, n, 8)
            res = unicl_loss_arrays(u, v, np.arange(n), 0.5)
            assert abs(res.loss - infonce_reference(u, v, math.exp(0.5))) < 1e-12

    def test_orthogonal_identity_same_hand_value(self):
        u = np.array([[1.0, 0.0], [0.0, 1.0]])
        expected = 4.0 * math.log(1.0 + math.exp(-1.0))
        assert infonce_reference(u, u, 1.0) == pytest.approx(expected, abs=1e-12)

    def test_differs_on_duplicated_labels(self):
        rng = np.random.default_rng(2)
        u = random_unit_rows(rng, 2, 4)
        v = random_unit_rows(rng, 2, 4)
        res = unicl_loss_arrays(u, v, np.array([0, 0]), 0.0)
        assert res.loss != infonce_reference(u, v, 1.0)


class TestProperties:
    def test_permutation_equivariance(self):
        rng = np.random.default_rng(3)
        u = random_unit_rows(rng, 6, 5)
        v = random_unit_rows(rng, 6, 5)
        y = np.array([0, 1, 0, 2, 1, 1])
        base = unicl_loss_arrays(u, v, y, 0.1).loss
        perm = rng.permutation(6)
        permuted = unicl_loss_arrays(u[perm], v[perm], y[perm], 0.1).loss
        assert permuted == pytest.approx(base, rel=1e-14)

    def test_positive_loss(self):
        rng = np.random.default_rng(4)
        for _ in range(10):
            n = int(rng.integers(2, 10))
            u = random_unit_rows(rng, n, 4)
            v = random_unit_rows(rng, n, 4)
            y = rng.integers(0, 3, size=n)
            assert unicl_loss_arrays(u, v, y, 0.3).loss > 0

    def test_raising_positive_similarity_lowers_loss(self):
        """Directional probe: move u_0 toward its positive v_0."""
        rng = np.random.default_rng(5)
        u = random_unit_rows(rng, 4, 6)
        v = random_unit_rows(rng, 4, 6)
        y = np.array([0, 1, 2, 3])
        before = unicl_loss_arrays(u, v, y, 0.0).loss
        u2 = u.copy()
        u2[0] = u2[0] + 0.2 * v[0]
        u2[0] /= np.linalg.norm(u2[0])
        after = unicl_loss_arrays(u2, v, y, 0.0).loss
        assert after < before

    def test_batch_of_one_rejected(self):
        with pytest.raises(ValueError, match="at least 2"):
            unicl_loss_arrays(np.array([[1.0]]), np.array([[1.0]]), np.array([0]), 0.0)

    def test_denormalized_rows_rejected(self):
        u = np.array([[2.0, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="unit-norm"):
            unicl_loss_op(Tensor(u), Tensor(u), Tensor(np.array(0.0)), np.array([0, 1]))


class TestGradients:
    """Closed-form gradients vs the finite-difference oracle (< 1e-4)."""

    def _setup(self):
        rng = np.random.default_rng(7)
        u = random_unit_rows(rng, 4, 5)
        v = random_unit_rows(rng, 4, 5)
        y = np.array([0, 0, 1, 2])
        return u, v, y

    def test_grad_u(self):
        u, v, y = self._setup()
        rep = finite_difference_check(
            lambda x: unicl_loss_op(x, Tensor(v), Tensor(np.array(0.3)), y), u, eps=1e-5
        )
        assert rep.max_rel_error < 1e-4

    def test_grad_v(self):
        u, v, y = self._setup()
        rep = finite_difference_check(
            lambda x: unicl_loss_op(Tensor(u), x, Tensor(np.array(0.3)), y), v, eps=1e-5
        )
        assert rep.max_rel_error < 1e-4

    def test_grad_u_through_normalization(self):
        """Composed with l2_normalize, as the training graph consumes it."""
        from florence_mini.numerics import ops

        u, v, y = self._setup()
        raw = u * 1.7  # arbitrary pre-normalization scale
        rep = finite_difference_check(
            lambda x: unicl_loss_op(ops.l2_normalize(x), Tensor(v), Tensor(np.array(0.3)), y),
            raw,
            eps=1e-5,
        )
        assert rep.max_rel_error < 1e-4

    def test_grad_tau_param(self):
        u, v, y = self._setup()
        rep = finite_difference_check(
            lambda s: unicl_loss_op(Tensor(u), Tensor(v), s, y), np.array(0.3), eps=1e-5
        )
        assert rep.max_rel_error < 1e-4
