"""LstmCell against a step-by-step reference cell.

The reference concatenates [x_t, h_{t-1}] at every step, multiplies it by
the whole W, accumulates dW one step at a time and uses a sigmoid that
branches on the sign of its input. The cell under test hoists the input
projection and the weight gradients out of the time loop, so the two sum
in different orders and are compared at a tolerance, not for equality.
"""

import math
import warnings

import numpy as np
import pytest

from titletag.lstm import LstmCell, sigmoid


def masked_sigmoid(x):
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def reference_run(W, b, xs, mask):
    B, T, _ = xs.shape
    H = b.size // 4
    h = np.zeros((B, H))
    c = np.zeros((B, H))
    hs = np.empty((B, T, H))
    caches = []
    for t in range(T):
        h_in = h if mask is None else h * mask
        xh = np.concatenate([xs[:, t], h_in], axis=1)
        z = xh @ W.T + b
        i = masked_sigmoid(z[:, :H])
        f = masked_sigmoid(z[:, H : 2 * H])
        o = masked_sigmoid(z[:, 2 * H : 3 * H])
        g = np.tanh(z[:, 3 * H :])
        c_new = f * c + i * g
        tanh_c = np.tanh(c_new)
        h = o * tanh_c
        hs[:, t] = h
        caches.append((xh, i, f, o, g, c, tanh_c))
        c = c_new
    return hs, caches


def reference_backprop(W, b, caches, dhs, mask):
    B, T, H = dhs.shape
    D = W.shape[1] - H
    dW = np.zeros_like(W)
    db = np.zeros_like(b)
    dxs = np.empty((B, T, D))
    dh_next = np.zeros((B, H))
    dc_next = np.zeros((B, H))
    for t in range(T - 1, -1, -1):
        xh, i, f, o, g, c_prev, tanh_c = caches[t]
        dh = dhs[:, t] + dh_next
        dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
        di = dc * g
        dg = dc * i
        df = dc * c_prev
        do = dh * tanh_c
        dc_next = dc * f
        dz = np.concatenate(
            [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g * g)], axis=1
        )
        dW += dz.T @ xh
        db += dz.sum(axis=0)
        dxh = dz @ W
        dxs[:, t] = dxh[:, :D]
        dh_rec = dxh[:, D:]
        dh_next = dh_rec if mask is None else dh_rec * mask
    return dxs, dW, db


@pytest.mark.parametrize("B", [1, 3, 7])
@pytest.mark.parametrize("T", [1, 2, 5])
@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("reversed_view", [False, True])
def test_cell_matches_step_by_step_reference(B, T, masked, reversed_view):
    D, H = 5, 4
    rng = np.random.default_rng(100 * B + 10 * T + 2 * masked + reversed_view)
    cell = LstmCell(D, H, rng)
    # Large enough weights that some gates saturate.
    cell.W *= 3.0
    cell.b = rng.normal(size=4 * H)
    xs = rng.normal(size=(B, T, D))
    dhs = rng.normal(size=(B, T, H))
    if reversed_view:
        xs, dhs = xs[:, ::-1], dhs[:, ::-1]
    mask = rng.binomial(1, 0.7, size=(B, H)) / 0.7 if masked else None

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        hs, caches = cell.run(xs, mask=mask, want_cache=True)
        dxs, dW, db = cell.backprop(caches, dhs, mask=mask)
    ref_hs, ref_caches = reference_run(cell.W, cell.b, xs, mask)
    ref_dxs, ref_dW, ref_db = reference_backprop(cell.W, cell.b, ref_caches, dhs, mask)

    assert hs.shape == (B, T, H) and dxs.shape == (B, T, D)
    assert dW.shape == cell.W.shape and db.shape == cell.b.shape
    np.testing.assert_allclose(hs, ref_hs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dxs, ref_dxs, rtol=0, atol=1e-12)
    np.testing.assert_allclose(dW, ref_dW, rtol=0, atol=1e-12)
    np.testing.assert_allclose(db, ref_db, rtol=0, atol=1e-12)


def test_run_without_cache_gives_the_same_states():
    rng = np.random.default_rng(3)
    cell = LstmCell(6, 5, rng)
    xs = rng.normal(size=(4, 3, 6))
    hs, caches = cell.run(xs)
    assert caches is None
    np.testing.assert_array_equal(hs, cell.run(xs, want_cache=True)[0])


def reference_sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def test_sigmoid_tails_are_exact_and_quiet():
    xs = np.array([-800.0, -40.0, 0.0, 40.0, 800.0])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = sigmoid(xs)
    assert out[0] == 0.0
    assert out[-1] == 1.0
    assert out[2] == 0.5
    for x, y in zip(xs, out):
        ref = reference_sigmoid(float(x))
        assert abs(y - ref) <= 1e-15 * ref
