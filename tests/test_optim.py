"""AdamW and the warmup-cosine schedule."""

import numpy as np
import pytest

from florence_mini.numerics import adamw_step, cosine_lr, init_optimizer_state


def _state(params, lr=0.01, **kw):
    return init_optimizer_state(params, lr=lr, **kw)


def test_zero_gradient_reduces_to_pure_decay():
    """With g = 0 the update is exactly p <- p - lr*wd*p."""
    params = {"p": np.array([1.0])}
    state = _state(params, lr=0.01, weight_decay=0.1)
    new, _ = adamw_step(params, {"p": np.array([0.0])}, state)
    assert new["p"][0] == pytest.approx(0.999, abs=1e-15)


def test_first_step_is_signed_lr():
    """Hand evaluation: fresh state, g = 2, eps ~ 0 gives update -lr*sign(g).

    m = (1-b1)g, v = (1-b2)g^2; bias correction restores m_hat = g and
    v_hat = g^2, so m_hat/sqrt(v_hat) = sign(g).
    """
    params = {"p": np.array([0.5])}
    state = _state(params, lr=0.01, weight_decay=0.0, eps=1e-16)
    new, _ = adamw_step(params, {"p": np.array([2.0])}, state)
    assert new["p"][0] == pytest.approx(0.5 - 0.01, abs=1e-12)


def test_determinism():
    rng = np.random.default_rng(0)
    params = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=4)}
    grads = {"a": rng.normal(size=(3, 3)), "b": rng.normal(size=4)}
    s1 = _state(params)
    p1, _ = adamw_step(params, grads, s1)
    s2 = _state(params)
    p2, _ = adamw_step(params, grads, s2)
    for k in params:
        assert p1[k].tobytes() == p2[k].tobytes()


def test_zero_decay_matches_classic_adam():
    """Independent classic-Adam oracle, evaluated step by step."""
    rng = np.random.default_rng(1)
    p = rng.normal(size=8)
    params = {"p": p.copy()}
    state = _state(params, lr=0.003, weight_decay=0.0)

    # oracle state
    m = np.zeros_like(p)
    v = np.zeros_like(p)
    ref = p.copy()
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.003
    for t in range(1, 6):
        g = rng.normal(size=8)
        params, state = adamw_step(params, {"p": g}, state)
        m = b1 * m + (1 - b1) * g
        v = b2 * v + (1 - b2) * g * g
        ref = ref - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
        np.testing.assert_array_equal(params["p"], ref)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_nan_gradient_reports_parameter_id(bad):
    params = {"tower.weight": np.ones(2)}
    state = _state(params)
    with pytest.raises(ValueError, match="tower.weight"):
        adamw_step(params, {"tower.weight": np.array([bad, 1.0])}, state)


def test_inputs_left_untouched():
    params = {"p": np.ones(3)}
    state = _state(params)
    adamw_step(params, {"p": np.ones(3)}, state)
    np.testing.assert_array_equal(params["p"], np.ones(3))
    np.testing.assert_array_equal(state.m["p"], np.zeros(3))
    assert state.step == 0


class TestCosineSchedule:
    def test_end_of_warmup_hits_peak(self):
        assert cosine_lr(500, 10_000, 500, 2e-5) == pytest.approx(2e-5, abs=0)

    def test_final_step_is_zero(self):
        assert cosine_lr(10_000, 10_000, 500, 2e-5) == pytest.approx(0.0, abs=1e-20)

    def test_midpoint_is_half_peak(self):
        total, warmup = 1000, 200
        mid = warmup + (total - warmup) // 2
        assert cosine_lr(mid, total, warmup, 4e-3) == pytest.approx(2e-3, rel=1e-12)

    def test_clamped_outside_range(self):
        assert cosine_lr(-5, 100, 10, 1.0) == 0.0
        assert cosine_lr(200, 100, 10, 1.0) == pytest.approx(0.0, abs=1e-15)

    def test_linear_ramp(self):
        assert cosine_lr(5, 100, 10, 1.0) == pytest.approx(0.5)

    def test_warmup_must_precede_total(self):
        with pytest.raises(ValueError):
            cosine_lr(0, 100, 100, 1.0)

    def test_negative_warmup_refused_by_value(self):
        """A negative warm-up would start the run part-way down the cosine."""
        with pytest.raises(ValueError, match="warmup_steps must be >= 0, got -2"):
            cosine_lr(0, 3, -2, 0.002)
        assert cosine_lr(0, 3, 0, 0.002) == 0.002
