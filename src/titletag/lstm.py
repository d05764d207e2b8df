"""Recurrent core shared by the taggers and the language model.

A single LSTM layer with gates packed row-wise as [input; forget; output;
candidate], run over a batch of sequences, with hand-derived
backpropagation through time. An optional per-sequence mask multiplies the
recurrent hidden state at every step (variational dropout). Layers stack
into a multi-layer network with one or two directions per layer.

Every batch is packed, as cuDNN and PyTorch's PackedSequence run
variable-length RNNs: right-padded sequences sorted by length, longest
first, with the number of rows still inside their sequence at each step.
Step t runs only its first counts[t] rows, padded states stay zero, and
the backward direction reads each row right to left within its own
length. Without counts every row is inside its sequence at every step.
The BiLSTM taggers and the biLM train this way, and the taggers decode
this way; the layout's helpers (sorted_chunks, padded_layout, to_padded)
live here too, for the CRF and the taggers.

The cell follows the restructuring of Appleyard et al. 2016
(arXiv:1604.01946): only work that depends on the previous step stays in
the time loop. The input projection of all steps (plus the bias) is one
GEMM before the loop, so a step multiplies only h_{t-1} by the recurrent
block of W. Caches hold the active rows of every step, packed in
time-major order, so a step is one contiguous slice of rows and no padded
row is multiplied. Backprop forms the local derivatives of every step in
place of the cached gates before its loop, fills them with each step's
pre-activation gradient, and after the loop forms dW as one GEMM per
column block (input, recurrent), db as one sum and the input gradients as
one GEMM. tanh(c_t) is recomputed there rather than cached. A run without
caches keeps only the previous step's cell state.

A cell's weights are float32 from construction (uniform32), and training
updates them in place: master weights (Micikevicius et al. 2018,
arXiv:1710.03740) keep fp16 updates from underflowing, and float32 ones do
not underflow at these learning rates. A cell computes in the dtype of the
inputs it is given: run's buffers and caches take the dtype of xs, and
backprop's that of the caches, with masks and incoming gradients cast to
it. LstmCell.astype gives a copy of other dtype or memory order, such as
the float64 cells that finite-difference checks need. A copy whose W is
column-major makes the recurrent block W[:, D:].T a C-contiguous matrix;
with OpenBLAS a product of a few rows by it runs several times faster than
by the transposed row-major block, for example 31 against 252 us at 2 rows
and 216 against 307 us at 34 rows (float32, H = 256, one thread of a 2-CPU
x86-64 host with AVX-512).

The sigmoid is the plain 1 / (1 + exp(-x)) with overflow ignored: for
x < -709 exp(-x) overflows to inf and the result is the exact limit 0, and
elsewhere its relative error stays at a few ulp. It needs no branch or
mask, so one call covers the packed [input; forget; output] block. The
0.5 * (1 + tanh(x / 2)) form is no faster with numpy and loses all
relative precision in the far negative tail (error 1.0 at x = -40).
"""

from __future__ import annotations

import copy
import itertools
import math
from typing import Sequence

import numpy as np


def sigmoid(x: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(-x))


def softmax_ce(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Summed cross-entropy and dloss/dlogits for (N, V) logits with
    integer targets (N,)."""
    m = logits.max(axis=-1, keepdims=True)
    ex = np.exp(logits - m)
    z = ex.sum(axis=-1, keepdims=True)
    rows = np.arange(len(targets))
    loss = -(logits[rows, targets] - m[:, 0] - np.log(z[:, 0])).sum()
    ex /= z
    ex[rows, targets] -= 1.0
    return float(loss), ex


def uniform32(rng, bound: float, shape) -> np.ndarray:
    """rng's uniform(-bound, bound) draws of the given shape, cast to float32:
    the draws, and so the generator's state after them, are those of a
    float64 array."""
    return rng.uniform(-bound, bound, size=shape).astype(np.float32, copy=False)


class LstmCell:
    """One LSTM layer; W maps [x_t, h_{t-1}] (input_dim + hidden) to 4*hidden.
    W and b are float32."""

    def __init__(self, input_dim: int, hidden: int, rng: np.random.Generator):
        self.input_dim = input_dim
        self.hidden = hidden
        # math.sqrt rounds as np.sqrt does, and it also takes an int beyond
        # int64, as a hostile model file's metadata may hold.
        bound = 1.0 / math.sqrt(hidden)
        self.W = uniform32(rng, bound, (4 * hidden, input_dim + hidden))
        self.b = np.zeros(4 * hidden, np.float32)
        # Forget-gate bias starts at 1 so early training keeps memory open.
        self.b[hidden : 2 * hidden] = 1.0

    def astype(self, dtype, order: str = "K") -> "LstmCell":
        """A cell of the same shape holding dtype copies of this cell's W and
        b, W in the given memory order (numpy's astype)."""
        # A shallow copy, not a new LstmCell, which would allocate a W only
        # to free it: freeing a block that large raises glibc's mmap
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

        xs may be any strided view. counts holds the number of active rows
        of each step: the rows of xs are right-padded sequences sorted by
        length, longest first, step t updates only its first counts[t]
        rows, and the states of the other rows stay zero. counts=None
        stands for all B rows at every step.
        Returns hidden states (B, T, hidden) and, when requested, the caches
        that backprop needs, each holding only the active rows of every
        step, packed in time-major order (step t is one contiguous slice of
        counts[t] rows): the inputs, h_{t-1} as steps 1..T-1 read it, the
        activated gates and c_t. Without caches, only the previous step's
        c_t is kept.
        """
        B, T, D = xs.shape
        H = self.hidden
        dtype = xs.dtype
        rows, starts = packed_steps(counts, B, T)
        x = xs.transpose(1, 0, 2)[valid_mask(rows, B).T]
        gates = x @ self.W[:, :D].T
        gates += self.b
        N = len(gates)
        W_h = self.W[:, D:].T
        hs = np.empty((T, B, H), dtype)
        if mask is not None:
            mask = mask.astype(dtype, copy=False)
        # h_in[lo - B : lo - B + n] is h_{t-1} as step t (rows lo..lo+n of
        # the gates) reads it; an unmasked run without caches reads hs.
        h_in = np.empty((N - B, H), dtype) if want_cache or mask is not None else None
        # Step t writes c_t to cs[c_at[t] : c_at[t] + counts[t]].
        c_at = starts if want_cache else [(t % 2) * B for t in range(T)]
        cs = np.empty((N if want_cache else 2 * B, H), dtype)
        tanh_c = np.empty((B, H), dtype)
        for t, (n, lo) in enumerate(zip(rows, starts)):
            z = gates[lo : lo + n]
            if t:
                prev = hs[t - 1, :n]
                if h_in is not None:
                    r = h_in[lo - B : lo - B + n]
                    if mask is None:
                        r[...] = prev
                    else:
                        np.multiply(prev, mask[:n], out=r)
                    prev = r
                z += prev @ W_h
            z[:, : 3 * H] = sigmoid(z[:, : 3 * H])
            np.tanh(z[:, 3 * H :], out=z[:, 3 * H :])
            i, f, o, g = z[:, :H], z[:, H : 2 * H], z[:, 2 * H : 3 * H], z[:, 3 * H :]
            c = cs[c_at[t] : c_at[t] + n]
            np.multiply(i, g, out=c)
            if t:
                c += f * cs[c_at[t - 1] : c_at[t - 1] + n]
            np.tanh(c, out=tanh_c[:n])
            np.multiply(o, tanh_c[:n], out=hs[t, :n])
            hs[t, n:] = 0.0
        caches = (x, h_in, gates, cs) if want_cache else None
        return np.ascontiguousarray(hs.transpose(1, 0, 2)), caches

    def backprop(
        self, caches: tuple, dhs: np.ndarray, mask: np.ndarray | None = None, counts=None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Backpropagate dhs (B, T, hidden) through the run that made caches,
        with the same mask and counts; returns (dxs, dW, db).

        Only the active rows of each step are read from dhs, and the padded
        positions of dxs are zero. The gates in caches are overwritten with
        the pre-activation gradients, so caches serve one backprop.
        """
        x, h_in, gates, cs = caches
        B, T, H = dhs.shape
        D = self.input_dim
        dtype = x.dtype
        dhs = dhs.astype(dtype, copy=False)
        if mask is not None:
            mask = mask.astype(dtype, copy=False)
        rows, starts = packed_steps(counts, B, T)
        W_h = self.W[:, D:]
        i, f, o, g = (gates[:, k * H : (k + 1) * H] for k in range(4))
        # Local derivatives of every step, formed in place of the gates
        # before the loop: a step's pre-activation gradient is dc times these
        # on the input, forget and candidate blocks and dh times them on the
        # output block. The loop also reads the forget gate itself.
        tanh_cs = np.tanh(cs)
        dc_dh = o * (1.0 - tanh_cs * tanh_cs)
        forget = f.copy()
        candidate = i * (1.0 - g * g)
        for sig in i, f, o:
            sig *= 1.0 - sig
        i *= g
        # The forget block also takes c_{t-1}: none at step 0, and for a row
        # of step t >= 1 the packed row rows[t - 1] places before it.
        f[:B] = 0.0
        f[B:] *= cs[np.arange(B, len(cs)) - np.repeat(np.array(rows[:-1], int), rows[1:])]
        o *= tanh_cs
        g[...] = candidate
        del tanh_cs, candidate
        dz_all = gates
        dh_next = np.zeros((B, H), dtype)
        dc_next = np.zeros((B, H), dtype)
        for t in range(T - 1, -1, -1):
            n, lo = rows[t], starts[t]
            dh = dhs[:n, t] + dh_next[:n]
            dc = dc_next[:n] + dh * dc_dh[lo : lo + n]
            dz = dz_all[lo : lo + n].reshape(n, 4, H)
            dz[:, :2] *= dc[:, None]
            dz[:, 2] *= dh
            dz[:, 3] *= dc
            np.multiply(dc, forget[lo : lo + n], out=dc_next[:n])
            if t:
                np.matmul(dz_all[lo : lo + n], W_h, out=dh_next[:n])
                if mask is not None:
                    dh_next[:n] *= mask[:n]
        del dc_dh, forget
        dW = np.empty(self.W.shape, dtype)
        np.matmul(dz_all.T, x, out=dW[:, :D])
        np.matmul(dz_all[B:].T, h_in, out=dW[:, D:])
        db = dz_all.sum(axis=0)
        dxs = np.zeros((T, B, D), dtype)
        dxs[valid_mask(rows, B).T] = dz_all @ self.W[:, :D]
        return dxs.transpose(1, 0, 2), dW, db


def packed_steps(counts, batch: int, steps: int) -> tuple[list[int], list[int]]:
    """The rows each step runs, counts[t] (every batch row when counts is
    None), and the row where each step starts in the packed time-major
    layout."""
    rows = [batch] * steps if counts is None else np.asarray(counts).tolist()
    return rows, list(itertools.accumulate(rows[:-1], initial=0))


def valid_mask(rows: list[int], batch: int) -> np.ndarray:
    """(B, T) mask of the positions inside their sequence, from the rows
    of each step (packed_steps)."""
    return np.arange(batch)[:, None] < np.array(rows)


def _flip_within(counts, batch: int, steps: int):
    """The time reversal of (B, T, .) rows that run with these per-step row
    counts: each row is reversed within its own length, its padding stays
    in place, and reversing twice gives the row back."""
    lengths = valid_mask(packed_steps(counts, batch, steps)[0], batch).sum(axis=1)[:, None]
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
    # Only a second direction reverses its rows.
    flip = _flip_within(counts, *xs.shape[:2]) if len(layers[0]) > 1 else None
    outputs, caches = [], []
    inp = xs
    for cells, layer_masks in zip(layers, masks):
        hs, layer_caches = [], []
        for k, (cell, mask) in enumerate(zip(cells, layer_masks)):
            h, cache = cell.run(flip(inp) if k else inp, mask, want_cache, counts)
            hs.append(flip(h) if k else h)
            layer_caches.append(cache)
        inp = hs[0] if len(hs) == 1 else np.concatenate(hs, axis=2)
        outputs.append(inp)
        caches.append(layer_caches)
    return outputs, caches


def stack_backprop(layers: list[tuple], caches, d_top: np.ndarray, grad_of: dict, masks=None,
                   counts=None):
    """Backpropagate d_top (the top layer's output gradient) through the
    stack that stack_run ran with these masks and counts.

    Adds each cell's weight gradients into grad_of[id(cell.W)] and
    grad_of[id(cell.b)]; returns the gradient on the stack's inputs. Each
    cell's caches serve one backprop, so this drops them from caches once
    used.
    """
    masks = masks or [(None,) * len(cells) for cells in layers]
    flip = _flip_within(counts, *d_top.shape[:2]) if len(layers[0]) > 1 else None
    d_out = d_top
    for l in range(len(layers) - 1, -1, -1):
        d_in = None
        lo = 0
        for k, (cell, mask) in enumerate(zip(layers[l], masks[l])):
            dh = d_out[..., lo : lo + cell.hidden]
            dh = flip(dh) if k else dh
            lo += cell.hidden
            cache, caches[l][k] = caches[l][k], None
            dxs, dW, db = cell.backprop(cache, dh, mask, counts)
            grad_of[id(cell.W)] += dW
            grad_of[id(cell.b)] += db
            del dW  # before the next backprop, which makes its own
            dxs = flip(dxs) if k else dxs
            d_in = dxs if d_in is None else d_in + dxs
        d_out = d_in
    return d_out


def cast_stack(stack: list[tuple], dtype, order: str = "K") -> list[tuple]:
    """Copies of a stack's cells holding dtype weights in the given memory
    order (LstmCell.astype), in the layout of stack."""
    return [tuple(cell.astype(dtype, order) for cell in cells) for cells in stack]


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


def sorted_chunks(seqs: Sequence[Sequence], positions: int):
    """Positions of seqs sorted by length, longest first (stable), cut into
    consecutive chunks that hold at most the given number of positions when
    padded to their longest sequence (so at most that many tokens); a
    longer sequence is a chunk of its own."""
    chunk: list[int] = []
    for j in sorted(range(len(seqs)), key=lambda j: -len(seqs[j])):
        if chunk and (len(chunk) + 1) * len(seqs[chunk[0]]) > positions:
            yield chunk
            chunk = []
        chunk.append(j)
    if chunk:
        yield chunk


def padded_layout(seqs: Sequence[Sequence]) -> tuple[np.ndarray, np.ndarray]:
    """(valid, counts) of seqs, sorted by length, longest first, and
    right-padded to the longest: valid[b, t] tells whether position t is
    inside sequence b, and counts[t] how many sequences reach position t."""
    lengths = np.array([len(seq) for seq in seqs])
    if np.any(lengths[1:] > lengths[:-1]):
        raise ValueError("sequences must be sorted by length, longest first")
    valid = np.arange(lengths[0]) < lengths[:, None]
    return valid, valid.sum(axis=0)


def to_padded(flat: np.ndarray, valid: np.ndarray) -> np.ndarray:
    """The rows of flat, which lists the valid positions of the (B, T) mask
    in row-major order, placed at those positions of a zero (B, T, ...)
    array."""
    out = np.zeros(valid.shape + flat.shape[1:], flat.dtype)
    out[valid] = flat
    return out


def padded_blocks(seqs: list[np.ndarray], rows: int, fill: int):
    """Equal-length chunks of the integer sequences seqs, each stacked into a
    block of exactly rows rows, the last ones filled with fill.

    Yields (positions, block (rows, T)) per chunk: the positions of seqs
    grouped by length, ascending, stable within a length, and each group
    cut into consecutive runs of at most rows positions. Running every
    block at one row count keeps each GEMM of an LSTM at the same shape for
    a given length, and at a fixed shape a product row does not depend on
    the other rows (He et al. 2025, "Defeating Nondeterminism in LLM
    Inference"), so a sequence's states are the same in any block.
    """
    groups: dict[int, list[int]] = {}
    for pos, seq in enumerate(seqs):
        groups.setdefault(len(seq), []).append(pos)
    for length in sorted(groups):
        group = groups[length]
        for lo in range(0, len(group), rows):
            chunk = group[lo : lo + rows]
            block = np.full((rows, length), fill, dtype=np.int64)
            block[: len(chunk)] = [seqs[pos] for pos in chunk]
            yield chunk, block
