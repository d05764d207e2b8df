"""Recurrent core shared by the taggers and the language model.

A single LSTM layer with gates packed row-wise as [input; forget; output;
candidate], run over whole batches of equal-length sequences, with
hand-derived backpropagation through time. An optional per-sequence mask
multiplies the recurrent hidden state at every step (variational dropout).
Layers stack into a multi-layer network with one or two directions per
layer, and batches are formed from groups of equal-length sequences.

Inference can also run a packed batch, as cuDNN and PyTorch's
PackedSequence run variable-length RNNs: right-padded sequences sorted by
length, longest first, with the number of rows still inside their
sequence at each step. Step t then multiplies only its first counts[t]
rows, padded states stay zero, and the backward direction reads each row
right to left within its own length.

The cell follows the restructuring of Appleyard et al. 2016
(arXiv:1604.01946): only work that depends on the previous step stays in
the time loop. The input projection of all steps (plus the bias) is one
GEMM before the loop, so a step multiplies only h_{t-1} by the recurrent
block of W. Backprop stores each step's pre-activation gradient in a
(T, B, 4H) buffer and after the loop forms dW as one GEMM per column block
(input, recurrent), db as one sum and the input gradients as one GEMM.
Caches are time-major arrays of shape (T, B, .), filled in place; a run
without caches keeps only the previous step's cell state.

A cell computes in the dtype of the inputs it is given: run's buffers and
caches take the dtype of xs, and backprop's that of the caches, with masks
and incoming gradients cast to it. Give a cell weights of the same dtype
(LstmCell.astype) so its products run in that precision too. A copy whose
W is column-major makes the recurrent block W[:, D:].T a C-contiguous
matrix; with OpenBLAS a product of a few rows by it runs several times
faster than by the transposed row-major block, for example 31 against
252 us at 2 rows and 216 against 307 us at 34 rows (float32, H = 256,
one thread of a 2-CPU x86-64 host with AVX-512).

The sigmoid is the plain 1 / (1 + exp(-x)) with overflow ignored: for
x < -709 exp(-x) overflows to inf and the result is the exact limit 0, and
elsewhere its relative error stays at a few ulp. It needs no branch or
mask, so one call covers the packed [input; forget; output] block. The
0.5 * (1 + tanh(x / 2)) form is no faster with numpy and loses all
relative precision in the far negative tail (error 1.0 at x = -40).
"""

from __future__ import annotations

import copy

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

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden = hidden
        bound = 1.0 / np.sqrt(hidden)
        self.W = rng.uniform(-bound, bound, size=(4 * hidden, input_dim + hidden))
        self.b = np.zeros(4 * hidden)
        # Forget-gate bias starts at 1 so early training keeps memory open.
        self.b[hidden : 2 * hidden] = 1.0

    def astype(self, dtype, order: str = "K") -> "LstmCell":
        """A cell of the same shape holding dtype copies of this cell's W and
        b, W in the given memory order (numpy's astype)."""
        # A shallow copy, not a new LstmCell, which would allocate a float64
        # W only to free it: freeing a block that large raises glibc's mmap
        # threshold, and the peak RSS of later tagging in the same process
        # rose by 1.4 MB.
        cast = copy.copy(self)
        cast.W, cast.b = self.W.astype(dtype, order=order), self.b.astype(dtype)
        return cast

    def run(
        self, xs: np.ndarray, mask: np.ndarray | None = None, want_cache: bool = False,
        counts=None,
    ) -> tuple[np.ndarray, tuple | None]:
        """Run over xs of shape (B, T, input_dim); mask (B, hidden) scales h_{t-1}.

        xs may be any strided view (stack_run passes reversed ones). counts,
        when given, holds the number of active rows of each step: the rows
        of xs are right-padded sequences sorted by length, longest first,
        step t updates only its first counts[t] rows, and the states of the
        other rows stay zero. Without counts every step runs all B rows.
        Returns hidden states (B, T, hidden) and, when requested, the
        time-major caches needed by backprop: the inputs (T*B, input_dim),
        h_{t-1} as steps 1..T-1 read it (T-1, B, hidden), and the activated
        gates, c_t and tanh(c_t), each (T, B, .). With counts, the caches
        hold values only in each step's active rows. Without caches, only
        the previous step's c_t is kept.
        """
        B, T, D = xs.shape
        H = self.hidden
        dtype = xs.dtype
        x = xs.transpose(1, 0, 2).reshape(T * B, D)
        gates = (x @ self.W[:, :D].T).reshape(T, B, 4 * H)
        gates += self.b
        W_h = self.W[:, D:].T
        hs = np.empty((T, B, H), dtype)
        if mask is not None:
            mask = mask.astype(dtype, copy=False)
        # h_in[t - 1] is h_{t-1} as step t reads it; step 0 reads zeros.
        h_in = hs[:-1] if mask is None else np.empty((T - 1, B, H), dtype)
        # Step t writes c_t to cs[t % len(cs)] and tanh(c_t) likewise.
        cs = np.empty((T if want_cache else 2, B, H), dtype)
        tanh_cs = np.empty((T if want_cache else 1, B, H), dtype)
        for t in range(T):
            n = B if counts is None else counts[t]
            z = gates[t, :n]
            if t:
                if mask is not None:
                    np.multiply(hs[t - 1, :n], mask[:n], out=h_in[t - 1, :n])
                z += h_in[t - 1, :n] @ W_h
            z[:, : 3 * H] = sigmoid(z[:, : 3 * H])
            np.tanh(z[:, 3 * H :], out=z[:, 3 * H :])
            i, f, o, g = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
            c, tanh_c = cs[t % len(cs), :n], tanh_cs[t % len(tanh_cs), :n]
            np.multiply(i, g, out=c)
            if t:
                c += f * cs[(t - 1) % len(cs), :n]
            np.tanh(c, out=tanh_c)
            np.multiply(o, tanh_c, out=hs[t, :n])
            hs[t, n:] = 0.0
        caches = (x, h_in, gates, cs, tanh_cs) if want_cache else None
        return np.ascontiguousarray(hs.transpose(1, 0, 2)), caches

    def backprop(
        self, caches: tuple, dhs: np.ndarray, mask: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backpropagate dhs (B, T, hidden); returns (dxs, dW, db)."""
        x, h_in, gates, cs, tanh_cs = caches
        B, T, H = dhs.shape
        D = self.input_dim
        dtype = x.dtype
        dhs = dhs.astype(dtype, copy=False)
        if mask is not None:
            mask = mask.astype(dtype, copy=False)
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
        dh_next = np.zeros((B, H), dtype)
        dc_next = np.zeros((B, H), dtype)
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
        dW = np.empty(self.W.shape, dtype)
        np.matmul(dz_flat.T, x, out=dW[:, :D])
        np.matmul(dz_flat[B:].T, h_in.reshape(-1, H), out=dW[:, D:])
        db = dz_flat.sum(axis=0)
        dxs = (dz_flat @ self.W[:, :D]).reshape(T, B, D).transpose(1, 0, 2)
        return dxs, dW, db


def _flip(a: np.ndarray) -> np.ndarray:
    return a[:, ::-1]


def _directed(a: np.ndarray, direction: int, flip=_flip) -> np.ndarray:
    return a if direction == 0 else flip(a)


def _flip_within(counts, batch: int, steps: int):
    """The time reversal of (B, T, .) rows that run with these per-step row
    counts: each row is reversed within its own length, its padding stays
    in place, and reversing twice gives the row back. Without counts every
    row is reversed whole (_flip)."""
    if counts is None:
        return _flip
    lengths = (np.asarray(counts)[:, None] > np.arange(batch)).sum(axis=0)[:, None]
    t = np.arange(steps)
    index = np.where(t < lengths, lengths - 1 - t, t)
    rows = np.arange(batch)[:, None]
    return lambda a: a[rows, index]


def stack_run(layers: list[tuple], xs: np.ndarray, masks=None, want_cache: bool = False,
              counts=None):
    """Run a stacked LSTM over xs (B, T, dim).

    layers[l] holds one cell per direction: the first reads left to right, a
    second one right to left, and the layer's output concatenates their
    states along the last axis. masks[l], when given, holds the matching
    per-direction recurrent masks. counts, when given, are the per-step row
    counts of right-padded rows sorted by length, longest first (see
    LstmCell.run); the second direction then reads each row right to left
    within its own length. Returns every layer's output and the caches that
    stack_backprop needs.
    """
    masks = masks or [(None,) * len(cells) for cells in layers]
    flip = _flip_within(counts, *xs.shape[:2])
    outputs, caches = [], []
    inp = xs
    for cells, layer_masks in zip(layers, masks):
        hs, layer_caches = [], []
        for k, (cell, mask) in enumerate(zip(cells, layer_masks)):
            h, cache = cell.run(_directed(inp, k, flip), mask, want_cache, counts)
            hs.append(_directed(h, k, flip))
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


def cast_stack(stack: list[tuple], dtype, order: str = "K") -> list[tuple]:
    """Copies of a stack's cells holding dtype weights in the given memory
    order (LstmCell.astype), in the layout of stack."""
    return [tuple(cell.astype(dtype, order) for cell in cells) for cells in stack]


def mixed_precision(stack: list[tuple], grad_of: dict, update):
    """Float32 copies of a stack's cells, and the optimizer step that keeps
    them current (Micikevicius et al. 2018, arXiv:1710.03740).

    The copies, in the layout of stack, run the recurrent compute, while the
    parameters, the optimizer state and the gradient sums stay float64: a
    copy's weight gradients add into the float64 buffers of the cell it
    copies (grad_of gains aliases for the copies). The returned step runs
    update(scale), then refreshes every copy from its cell, and returns what
    update returned.
    """
    copies = cast_stack(stack, np.float32)
    pairs = [pair for cells, casts in zip(stack, copies) for pair in zip(cells, casts)]
    for cell, cast in pairs:
        grad_of[id(cast.W)], grad_of[id(cast.b)] = grad_of[id(cell.W)], grad_of[id(cell.b)]

    def step(scale: float):
        result = update(scale)
        for cell, cast in pairs:
            cast.W[...] = cell.W
            cast.b[...] = cell.b
        return result

    return copies, step


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


def length_groups(seqs: list, max_size: int | None = None) -> list[list[int]]:
    """Positions of seqs grouped by length, ascending, stable within a group.

    With max_size, a larger group is split into consecutive runs of at most
    max_size positions.
    """
    groups: dict[int, list[int]] = {}
    for pos, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(pos)
    ordered = [groups[length] for length in sorted(groups)]
    if max_size is None:
        return ordered
    return [group[lo : lo + max_size] for group in ordered
            for lo in range(0, len(group), max_size)]


def right_padded(seqs: list[np.ndarray]) -> np.ndarray:
    """Arrays of shape (T_i, ...) stacked into one (B, max T_i, ...) array,
    each row zero after its own length."""
    out = np.zeros((len(seqs), max(map(len, seqs))) + seqs[0].shape[1:], seqs[0].dtype)
    for row, seq in zip(out, seqs):
        row[: len(seq)] = seq
    return out


def padded_blocks(seqs: list[np.ndarray], rows: int, fill: int):
    """Equal-length chunks of the integer sequences seqs, each stacked into a
    block of exactly rows rows, the last ones filled with fill.

    Yields (positions, block (rows, T)) per length_groups(seqs, rows) chunk.
    Running every block at one row count keeps each GEMM of an LSTM at the
    same shape for a given length, and at a fixed shape a product row does
    not depend on the other rows (He et al. 2025, "Defeating Nondeterminism
    in LLM Inference"), so a sequence's states are the same in any block.
    """
    for group in length_groups(seqs, rows):
        block = np.full((rows, len(seqs[group[0]])), fill, dtype=np.int64)
        block[: len(group)] = [seqs[pos] for pos in group]
        yield group, block
