"""The finite-difference gradient oracle itself."""

import numpy as np
import pytest

from florence_mini.numerics import Tensor, ops
from oracles import exp, finite_difference_check, gelu


def test_quadratic_is_exact_up_to_rounding():
    """Central differences are exact for quadratics; error is pure rounding."""
    rep = finite_difference_check(lambda x: ops.mul(x, x), np.array(1.0), eps=1e-5)
    assert rep.max_rel_error < 1e-8
    assert rep.differentiable


def test_absolute_value_kink_is_flagged_not_reported_large():
    def absval(x):
        # |x| via sqrt(x*x) has a genuine kink at 0
        sq = ops.mul(x, x)
        return ops.tensor_sum(exp(ops.scale(ops.log(ops.add(sq, Tensor(np.array([1e-30])))), 0.5)))

    rep = finite_difference_check(lambda x: _abs_scalar(x), np.array([0.0]), eps=1e-5)
    assert rep.kinks == [0]
    assert rep.max_rel_error == 0.0


def _abs_scalar(x):
    # relu(x) + relu(-x) built from gelu-free primitives: use piecewise via
    # maximum composition: |x| = x * sign(x); sign is constant w.r.t. tape.
    sign = Tensor(np.sign(x.data) + (x.data == 0))
    return ops.tensor_sum(ops.mul(x, sign))


def test_smooth_coordinates_not_flagged():
    rng = np.random.default_rng(0)
    rep = finite_difference_check(
        lambda x: ops.tensor_sum(gelu(x)), rng.normal(size=6), eps=1e-5
    )
    assert rep.differentiable


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # log(-1) NaN is the point
def test_non_finite_value_raises():
    with pytest.raises(ValueError, match="non-finite"):
        finite_difference_check(lambda x: ops.log(x), np.array(-1.0), eps=1e-5)
