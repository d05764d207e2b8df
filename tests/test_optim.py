"""Closed-form checks of the optimizer rules in titletag.optim."""

import math

import numpy as np
import pytest

from titletag.optim import ADAM_B1, ADAM_B2, ADAM_EPS, Adam, Sgd, adam_step, global_norm


@pytest.mark.parametrize("steps", [1, 3])
def test_adam_step_matches_closed_form_for_a_constant_gradient(steps):
    """From zero moments under a constant gradient g, Adam's moments after t
    steps are (1 - B1^t) g and (1 - B2^t) g^2, so each bias-corrected step
    moves the weights by lr * g / (|g| + eps)."""
    rng = np.random.default_rng(3)
    start, g, lr = rng.normal(size=(4, 3)), rng.normal(size=(4, 3)), 0.01
    param, m, v = start.copy(), np.zeros_like(start), np.zeros_like(start)
    for t in range(1, steps + 1):
        adam_step(param, g, m, v, t, lr)
    np.testing.assert_allclose(m, (1 - ADAM_B1**steps) * g, rtol=1e-12)
    np.testing.assert_allclose(v, (1 - ADAM_B2**steps) * g * g, rtol=1e-12)
    np.testing.assert_allclose(param, start - steps * lr * g / (np.abs(g) + ADAM_EPS),
                               rtol=1e-12)


@pytest.mark.parametrize("steps", [1, 3])
def test_dense_optimizers_match_the_unrolled_rules(steps):
    """Sgd.step and Adam.step on a parameter list, under changing
    gradients, equal the textbook rules written out of place, bit for bit."""
    rng = np.random.default_rng(5)
    shapes = [(3, 2), (2,)]
    start = [rng.normal(size=shape) for shape in shapes]
    grads = [[rng.normal(size=shape) for shape in shapes] for _ in range(steps)]
    lr = 0.05
    sgd_params = [p.copy() for p in start]
    adam_params = [p.copy() for p in start]
    sgd, adam = Sgd(lr), Adam(lr, adam_params)
    for step_grads in grads:
        sgd.step(sgd_params, step_grads)
        adam.step(adam_params, step_grads)
    assert adam.t == steps
    for k, p in enumerate(start):
        want_sgd, want_adam, m, v = p, p, 0.0, 0.0
        for t, g in enumerate((step_grads[k] for step_grads in grads), 1):
            want_sgd = want_sgd - lr * g
            m = ADAM_B1 * m + (1 - ADAM_B1) * g
            v = ADAM_B2 * v + (1 - ADAM_B2) * g * g
            want_adam = want_adam - lr * (m / (1 - ADAM_B1**t)) / (
                np.sqrt(v / (1 - ADAM_B2**t)) + ADAM_EPS)
        np.testing.assert_array_equal(sgd_params[k], want_sgd)
        np.testing.assert_array_equal(adam_params[k], want_adam)
        np.testing.assert_array_equal(adam.m[k], m)
        np.testing.assert_array_equal(adam.v[k], v)


def test_global_norm_of_an_overflowing_float32_sum_is_the_float64_norm():
    """Entries of 1e20 square past float32's 3.4e38: such a buffer is summed
    again in float64, so the norm stays finite."""
    grads = [np.full((3, 4), 1e20, np.float32), np.linspace(-2, 2, 5, dtype=np.float32)]
    want = math.sqrt(sum(float((g.astype(np.float64) ** 2).sum()) for g in grads))
    norm = global_norm(grads)
    assert math.isfinite(norm)
    assert norm == pytest.approx(want, rel=1e-6, abs=0)
