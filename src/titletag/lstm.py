"""Recurrent core shared by the taggers and the language model.

A single LSTM layer with gates packed row-wise as [input; forget; output;
candidate], run over whole batches of equal-length sequences, with
hand-derived backpropagation through time. An optional per-sequence mask
multiplies the recurrent hidden state at every step (variational dropout).
Layers stack into a multi-layer network with one or two directions per
layer, and batches are formed from groups of equal-length sequences.

The cell follows the restructuring of Appleyard et al. 2016
(arXiv:1604.01946): only work that depends on the previous step stays in
the time loop. The input projection of all steps (plus the bias) is one
GEMM before the loop, so a step multiplies only h_{t-1} by the recurrent
block of W. Backprop stores each step's pre-activation gradient in a
(T, B, 4H) buffer and after the loop forms dW as one GEMM per column block
(input, recurrent), db as one sum and the input gradients as one GEMM.
Caches are time-major arrays of shape (T, B, .), filled in place.

The sigmoid is the plain 1 / (1 + exp(-x)) with overflow ignored: for
x < -709 exp(-x) overflows to inf and the result is the exact limit 0, and
elsewhere its relative error stays at a few ulp. It needs no branch or
mask, so one call covers the packed [input; forget; output] block. The
0.5 * (1 + tanh(x / 2)) form is no faster with numpy and loses all
relative precision in the far negative tail (error 1.0 at x = -40).
"""

from __future__ import annotations

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


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
    ) -> tuple[np.ndarray, tuple | None]:
        """Run over xs of shape (B, T, input_dim); mask (B, hidden) scales h_{t-1}.

        xs may be any strided view (stack_run passes reversed ones). Returns
        hidden states (B, T, hidden) and, when requested, the time-major
        caches needed by backprop: the inputs (T*B, input_dim), h_{t-1} as
        steps 1..T-1 read it (T-1, B, hidden), and the activated gates, c_t
        and tanh(c_t), each (T, B, .).
        """
        B, T, D = xs.shape
        H = self.hidden
        x = xs.transpose(1, 0, 2).reshape(T * B, D)
        gates = (x @ self.W[:, :D].T).reshape(T, B, 4 * H)
        gates += self.b
        W_h = self.W[:, D:].T
        hs = np.empty((T, B, H))
        # h_in[t - 1] is h_{t-1} as step t reads it; step 0 reads zeros.
        h_in = hs[:-1] if mask is None else np.empty((T - 1, B, H))
        cs = np.empty((T, B, H))
        tanh_cs = np.empty((T, B, H))
        for t in range(T):
            z = gates[t]
            if t:
                if mask is not None:
                    np.multiply(hs[t - 1], mask, out=h_in[t - 1])
                z += h_in[t - 1] @ W_h
            z[:, : 3 * H] = sigmoid(z[:, : 3 * H])
            np.tanh(z[:, 3 * H :], out=z[:, 3 * H :])
            i, f, o, g = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
            np.multiply(i, g, out=cs[t])
            if t:
                cs[t] += f * cs[t - 1]
            np.tanh(cs[t], out=tanh_cs[t])
            np.multiply(o, tanh_cs[t], out=hs[t])
        caches = (x, h_in, gates, cs, tanh_cs) if want_cache else None
        return np.ascontiguousarray(hs.transpose(1, 0, 2)), caches

    def backprop(
        self, caches: tuple, dhs: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backpropagate dhs (B, T, hidden); returns (dxs, dW, db)."""
        x, h_in, gates, cs, tanh_cs = caches
        B, T, H = dhs.shape
        D = self.input_dim
        W_h = self.W[:, D:]
        i, f, o, g = (gates[..., k * H : (k + 1) * H] for k in range(4))
        # Local derivatives of every step, computed before the loop: a step's
        # pre-activation gradient is dc times these on the input, forget and
        # candidate blocks and dh times them on the output block.
        dz_all = np.empty_like(gates)
        dz_all[..., : 3 * H] = gates[..., : 3 * H] * (1.0 - gates[..., : 3 * H])
        dz_all[..., :H] *= g
        dz_all[0, :, H : 2 * H] = 0.0
        dz_all[1:, :, H : 2 * H] *= cs[:-1]
        dz_all[..., 2 * H : 3 * H] *= tanh_cs
        dz_all[..., 3 * H :] = i * (1.0 - g * g)
        dc_dh = o * (1.0 - tanh_cs * tanh_cs)
        dh_next = np.zeros((B, H))
        dc_next = np.zeros((B, H))
        for t in range(T - 1, -1, -1):
            dh = dhs[:, t] + dh_next
            dc = dc_next + dh * dc_dh[t]
            dz = dz_all[t].reshape(B, 4, H)
            dz[:, :2] *= dc[:, None]
            dz[:, 2] *= dh
            dz[:, 3] *= dc
            dc_next = dc * f[t]
            if t:
                dh_next = dz_all[t] @ W_h
                if mask is not None:
                    dh_next *= mask
        dz_flat = dz_all.reshape(T * B, 4 * H)
        dW = np.empty_like(self.W)
        np.matmul(dz_flat.T, x, out=dW[:, :D])
        np.matmul(dz_flat[B:].T, h_in.reshape(-1, H), out=dW[:, D:])
        db = dz_flat.sum(axis=0)
        dxs = (dz_flat @ self.W[:, :D]).reshape(T, B, D).transpose(1, 0, 2)
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
