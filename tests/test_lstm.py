"""LstmCell against a step-by-step reference cell.

The reference concatenates [x_t, h_{t-1}] at every step, multiplies it by
the whole W, accumulates dW one step at a time and uses a sigmoid that
branches on the sign of its input. The cell under test hoists the input
projection and the weight gradients out of the time loop, so the two sum
in different orders and are compared at a tolerance, not for equality.
softmax_ce is compared with the full log-softmax form, for bit equality.
"""

import math
import warnings

import numpy as np
import pytest

from titletag.lstm import LstmCell, sigmoid, softmax_ce, stack_run


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
    cell = LstmCell(D, H, rng).astype(np.float64)
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


def row_counts(lengths):
    """Per-step active rows of sequences with these lengths, longest first."""
    return (np.asarray(lengths) > np.arange(max(lengths))[:, None]).sum(axis=1)


@pytest.mark.parametrize("masked", [False, True])
def test_run_with_counts_matches_each_row_run_alone(masked):
    D, H = 5, 4
    rng = np.random.default_rng(11 + masked)
    cell = LstmCell(D, H, rng)
    cell.W *= 3.0
    cell.b = rng.normal(size=4 * H)
    lengths = [7, 7, 5, 2, 2, 1]
    xs = rng.normal(size=(len(lengths), 7, D))
    mask = rng.binomial(1, 0.7, size=(len(lengths), H)) / 0.7 if masked else None
    hs, _ = cell.run(xs, mask=mask, counts=row_counts(lengths))
    assert hs.shape == (len(lengths), 7, H)
    for b, n in enumerate(lengths):
        alone, _ = cell.run(xs[b : b + 1, :n], mask=None if mask is None else mask[b : b + 1])
        np.testing.assert_allclose(hs[b, :n], alone[0], rtol=1e-12, atol=0)
        assert not hs[b, n:].any()


@pytest.mark.parametrize("want_cache", [False, True])
def test_run_with_every_row_counted_is_bit_equal_to_no_counts(want_cache):
    rng = np.random.default_rng(12)
    cell = LstmCell(6, 5, rng)
    xs = rng.normal(size=(4, 3, 6))
    hs, caches = cell.run(xs, want_cache=want_cache)
    hs_counted, caches_counted = cell.run(xs, want_cache=want_cache, counts=[4, 4, 4])
    np.testing.assert_array_equal(hs_counted, hs)
    for got, want in zip(caches_counted or (), caches or ()):
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("masked", [False, True])
@pytest.mark.parametrize("reversed_view", [False, True])
def test_backprop_with_counts_matches_each_row_backprop_alone(masked, reversed_view):
    D, H = 5, 4
    rng = np.random.default_rng(21 + 2 * masked + reversed_view)
    cell = LstmCell(D, H, rng)
    cell.W *= 3.0
    cell.b = rng.normal(size=4 * H)
    lengths = [7, 7, 5, 2, 2, 1]
    # Padded positions hold noise, which the packed run and backprop must not read.
    xs = rng.normal(size=(len(lengths), 7, D))
    dhs = rng.normal(size=(len(lengths), 7, H))
    if reversed_view:
        xs, dhs = xs[:, ::-1], dhs[:, ::-1]
    mask = rng.binomial(1, 0.7, size=(len(lengths), H)) / 0.7 if masked else None
    counts = row_counts(lengths)
    _, caches = cell.run(xs, mask=mask, want_cache=True, counts=counts)
    dxs, dW, db = cell.backprop(caches, dhs, mask=mask, counts=counts)
    assert dxs.shape == xs.shape
    sum_dW, sum_db = np.zeros_like(dW), np.zeros_like(db)
    for b, n in enumerate(lengths):
        row_mask = None if mask is None else mask[b : b + 1]
        _, alone = cell.run(xs[b : b + 1, :n], mask=row_mask, want_cache=True)
        dx_b, dW_b, db_b = cell.backprop(alone, dhs[b : b + 1, :n], mask=row_mask)
        np.testing.assert_allclose(dxs[b, :n], dx_b[0], rtol=0, atol=1e-12)
        assert not dxs[b, n:].any()
        sum_dW += dW_b
        sum_db += db_b
    np.testing.assert_allclose(dW, sum_dW, rtol=0, atol=1e-12)
    np.testing.assert_allclose(db, sum_db, rtol=0, atol=1e-12)


@pytest.mark.parametrize("masked", [False, True])
def test_backprop_with_every_row_counted_is_bit_equal_to_no_counts(masked):
    rng = np.random.default_rng(22)
    cell = LstmCell(6, 5, rng)
    xs = rng.normal(size=(4, 3, 6))
    dhs = rng.normal(size=(4, 3, 5))
    mask = rng.binomial(1, 0.7, size=(4, 5)) / 0.7 if masked else None
    _, caches = cell.run(xs, mask=mask, want_cache=True)
    _, caches_counted = cell.run(xs, mask=mask, want_cache=True, counts=[4, 4, 4])
    for got, want in zip(cell.backprop(caches_counted, dhs, mask=mask, counts=[4, 4, 4]),
                         cell.backprop(caches, dhs, mask=mask)):
        np.testing.assert_array_equal(got, want)


def test_stack_run_with_counts_reads_each_row_backward_within_its_length():
    rng = np.random.default_rng(13)
    stack = [(LstmCell(3, 4, rng), LstmCell(3, 4, rng)), (LstmCell(8, 4, rng), LstmCell(8, 4, rng))]
    lengths = [6, 4, 4, 1]
    xs = rng.normal(size=(len(lengths), 6, 3))
    outputs, _ = stack_run(stack, xs, counts=row_counts(lengths))
    for b, n in enumerate(lengths):
        alone, _ = stack_run(stack, xs[b : b + 1, :n])
        for got, want in zip(outputs, alone):
            np.testing.assert_allclose(got[b, :n], want[0], rtol=1e-12, atol=0)
            assert not got[b, n:].any()


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


# A float32 cell's outputs stay within this share of the largest float64
# magnitude: about 80 float32 ulps (eps 1.19e-7). The largest measured
# deviation over the cases below is about 9e-7.
FLOAT32_RTOL = 1e-5


def assert_close_in_float32(got, want):
    assert got.dtype == np.float32 and want.dtype == np.float64
    np.testing.assert_allclose(got, want, rtol=0, atol=FLOAT32_RTOL * np.abs(want).max())


@pytest.mark.parametrize("B", [1, 21, 128])
@pytest.mark.parametrize("T", [1, 6])
@pytest.mark.parametrize("masked", [False, True])
def test_float32_cell_matches_float64_cell(B, T, masked):
    D, H = 64, 256
    rng = np.random.default_rng(1000 * B + 10 * T + masked)
    cell = LstmCell(D, H, rng).astype(np.float64)
    cell32 = cell.astype(np.float32)
    assert cell32.W.dtype == cell32.b.dtype == np.float32
    np.testing.assert_array_equal(cell32.W, cell.W.astype(np.float32))
    xs = rng.normal(size=(B, T, D))
    dhs = rng.normal(size=(B, T, H))
    mask = rng.binomial(1, 0.5, size=(B, H)) / 0.5 if masked else None

    hs, caches = cell.run(xs, mask=mask, want_cache=True)
    hs32, caches32 = cell32.run(xs.astype(np.float32), mask=mask, want_cache=True)
    assert all(c.dtype == np.float32 for c in caches32)
    assert_close_in_float32(hs32, hs)
    # dhs and mask arrive float64, as the BiLSTM's output head sends them.
    for got, want in zip(cell32.backprop(caches32, dhs, mask=mask),
                         cell.backprop(caches, dhs, mask=mask)):
        assert_close_in_float32(got, want)


def reference_softmax_ce(logits, targets):
    """The full (N, V) log-softmax form that softmax_ce reads at the targets only."""
    m = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(axis=-1, keepdims=True)
    logp = logits - m - np.log(z)
    rows = np.arange(len(targets))
    dlogits = ex / z
    dlogits[rows, targets] -= 1.0
    return float(-logp[rows, targets].sum()), dlogits


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("N,V", [(1, 3), (7, 13), (500, 2000)])
def test_softmax_ce_is_bit_equal_to_the_full_log_softmax(dtype, N, V):
    rng = np.random.default_rng(N * V)
    targets = rng.integers(0, V, size=N)
    for scale in (1.0, 1e2, 1e4):
        logits = (scale * rng.normal(size=(N, V))).astype(dtype)
        loss, dlogits = softmax_ce(logits, targets)
        want_loss, want_dlogits = reference_softmax_ce(logits, targets)
        assert loss == want_loss
        assert dlogits.dtype == want_dlogits.dtype == dtype
        np.testing.assert_array_equal(dlogits, want_dlogits)
