"""Recurrent core shared by the taggers and the language model.

A single LSTM layer with gates packed row-wise as [input; forget; output;
candidate], run over whole batches of equal-length sequences, with
hand-derived backpropagation through time. An optional per-sequence mask
multiplies the recurrent hidden state at every step (variational dropout).
Layers stack into a multi-layer network with one or two directions per
layer, and batches are formed from groups of equal-length sequences.
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed cross-entropy and dloss/dlogits for (B, T, V) logits with
    integer targets (B, T)."""
    m = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(axis=-1, keepdims=True)
    logp = logits - m - np.log(z)
    gold = np.take_along_axis(logp, targets[..., None], axis=-1)[..., 0]
    dlogits = ex / z
    b_idx, t_idx = np.ogrid[: targets.shape[0], : targets.shape[1]]
    dlogits[b_idx, t_idx, targets] -= 1.0
    return float(-gold.sum()), dlogits


class LstmCell:
    """One LSTM layer; W maps [x_t, h_{t-1}] (input_dim + hidden) to 4*hidden."""

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator | None = None):
        self.input_dim = input_dim
        self.hidden = hidden
        if rng is None:
            self.W = np.zeros((4 * hidden, input_dim + hidden))
        else:
            bound = 1.0 / np.sqrt(hidden)
            self.W = rng.uniform(-bound, bound, size=(4 * hidden, input_dim + hidden))
        self.b = np.zeros(4 * hidden)
        # Forget-gate bias starts at 1 so early training keeps memory open.
        self.b[hidden : 2 * hidden] = 1.0

    def run(
        self, xs: np.ndarray, mask: np.ndarray | None = None, want_cache: bool = False
    ) -> tuple[np.ndarray, list | None]:
        """Run over xs of shape (B, T, input_dim); mask (B, hidden) scales h_{t-1}.

        Returns hidden states (B, T, hidden) and, when requested, the
        per-step caches needed by backprop.
        """
        B, T, _ = xs.shape
        H = self.hidden
        h = np.zeros((B, H))
        c = np.zeros((B, H))
        hs = np.empty((B, T, H))
        caches: list | None = [] if want_cache else None
        for t in range(T):
            h_in = h if mask is None else h * mask
            xh = np.concatenate([xs[:, t], h_in], axis=1)
            z = xh @ self.W.T + self.b
            i = sigmoid(z[:, :H])
            f = sigmoid(z[:, H : 2 * H])
            o = sigmoid(z[:, 2 * H : 3 * H])
            g = np.tanh(z[:, 3 * H :])
            c_new = f * c + i * g
            tanh_c = np.tanh(c_new)
            h = o * tanh_c
            hs[:, t] = h
            if caches is not None:
                caches.append((xh, i, f, o, g, c, tanh_c))
            c = c_new
        return hs, caches

    def backprop(
        self, caches: list, dhs: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backpropagate dhs (B, T, hidden); returns (dxs, dW, db)."""
        B, T, H = dhs.shape
        dW = np.zeros_like(self.W)
        db = np.zeros_like(self.b)
        dxs = np.empty((B, T, self.input_dim))
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            xh, i, f, o, g, c_prev, tanh_c = caches[t]
            dh = dhs[:, t] + dh_next
            dc = dc_next + dh * o * (1.0 - tanh_c * tanh_c)
            do = dh * tanh_c
            di = dc * g
            dg = dc * i
            df = dc * c_prev
            dc_next = dc * f
            dz = np.concatenate(
                [di * i * (1 - i), df * f * (1 - f), do * o * (1 - o), dg * (1 - g * g)],
                axis=1,
            )
            dW += dz.T @ xh
            db += dz.sum(axis=0)
            dxh = dz @ self.W
            dxs[:, t] = dxh[:, : self.input_dim]
            dh_rec = dxh[:, self.input_dim :]
            dh_next = dh_rec if mask is None else dh_rec * mask
        return dxs, dW, db


def _directed(a: np.ndarray, direction: int) -> np.ndarray:
    return a if direction == 0 else a[:, ::-1]


def stack_run(layers: list[tuple], xs: np.ndarray, masks=None, want_cache: bool = False):
    """Run a stacked LSTM over xs (B, T, dim).

    layers[l] holds one cell per direction: the first reads left to right, a
    second one right to left, and the layer's output concatenates their
    states along the last axis. masks[l], when given, holds the matching
    per-direction recurrent masks. Returns every layer's output and the
    caches that stack_backprop needs.
    """
    masks = masks or [(None,) * len(cells) for cells in layers]
    outputs, caches = [], []
    inp = xs
    for cells, layer_masks in zip(layers, masks):
        hs, layer_caches = [], []
        for k, (cell, mask) in enumerate(zip(cells, layer_masks)):
            h, cache = cell.run(_directed(inp, k), mask=mask, want_cache=want_cache)
            hs.append(_directed(h, k))
            layer_caches.append(cache)
        inp = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=2)
        outputs.append(inp)
        caches.append(layer_caches)
    return outputs, caches


def stack_backprop(layers: list[tuple], caches, d_top: np.ndarray, grad_of: dict, masks=None):
    """Backpropagate d_top (the top layer's output gradient) through the stack.

    Adds each cell's weight gradients into grad_of[id(cell.W)] and
    grad_of[id(cell.b)]; returns the gradient on the stack's inputs.
    """
    masks = masks or [(None,) * len(cells) for cells in layers]
    d_out = d_top
    for l in range(len(layers) - 1, -1, -1):
        d_in = None
        lo = 0
        for k, (cell, cache, mask) in enumerate(zip(layers[l], caches[l], masks[l])):
            dh = _directed(d_out[..., lo : lo + cell.hidden], k)
            lo += cell.hidden
            dxs, dW, db = cell.backprop(cache, dh, mask=mask)
            grad_of[id(cell.W)] += dW
            grad_of[id(cell.b)] += db
            d_in = _directed(dxs, k) if d_in is None else d_in + _directed(dxs, k)
        d_out = d_in
    return d_out


def direction_cells(
    input_dim: int, upper_dim: int, hidden: int, layers: int, rng: np.random.Generator
) -> list[LstmCell]:
    """One direction's cells; layers above the first read upper_dim inputs."""
    return [LstmCell(input_dim if l == 0 else upper_dim, hidden, rng) for l in range(layers)]


def cell_arrays(fwd_cells: list[LstmCell], bwd_cells: list[LstmCell]) -> dict[str, np.ndarray]:
    """Saved arrays of paired direction stacks: fwd{l}.W, fwd{l}.b, bwd{l}.W,
    bwd{l}.b for each layer l, in that order."""
    arrays: dict[str, np.ndarray] = {}
    for l, (fwd, bwd) in enumerate(zip(fwd_cells, bwd_cells)):
        for prefix, cell in (("fwd", fwd), ("bwd", bwd)):
            arrays[f"{prefix}{l}.W"] = cell.W
            arrays[f"{prefix}{l}.b"] = cell.b
    return arrays


def cell_shapes(input_dim: int, upper_dim: int, hidden: int, layers: int):
    """(name, shape) of each cell_arrays entry of two direction_cells stacks
    with these dimensions, in the same order; computed lazily, per layer."""
    for l in range(layers):
        for prefix in ("fwd", "bwd"):
            yield f"{prefix}{l}.W", (4 * hidden, (input_dim if l == 0 else upper_dim) + hidden)
            yield f"{prefix}{l}.b", (4 * hidden,)


def length_groups(seqs: list) -> list[list[int]]:
    """Positions of seqs grouped by length, ascending, stable within a group."""
    groups: dict[int, list[int]] = {}
    for pos, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(pos)
    return [groups[length] for length in sorted(groups)]
