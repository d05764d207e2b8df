"""Bidirectional LSTM taggers trained with hand-derived backpropagation.

Both kinds put a CRF on the encoder and decode it with Viterbi: "lstm-crf"
trains its transition, start and stop weights, and "lstm" pins them at zero,
which makes its loss the per-token softmax cross-entropy and its decoding a
per-position argmax (the BiLSTM baseline of Lample et al. 2016). The
encoder stacks bidirectional layers; each layer above the first consumes
the concatenated forward and backward states of the layer below. Embeddings
come from a trainable lookup table or a frozen bidirectional-LM provider.
Training and decoding both cut their titles into chunks of length-sorted
titles (lstm.sorted_chunks) and run each chunk as a packed batch: each
direction of each layer is one LSTM call over the right-padded chunk, each
step on the rows still inside their title (lstm.stack_run and
lstm.stack_backprop with counts), and the head sees only the valid
positions. The CRF loss and Viterbi run once per chunk, on the
emissions right-padded with the same per-step row counts.

The embedding table and the encoder's cells are float32, and training
updates them in place. The 13-label head (proj, trans, start, stop) is
float64, as is the CRF it feeds: the float32 encoding widens at the
projection.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from . import model_io, optim
from .crf import apply_word_dropout, crf_nll, decode_in_chunks
# Unused here since crf_nll calls it, but perfbench/tests asserts that its
# span tracer wraps this by-name binding.
from .crf import sequence_marginals  # noqa: F401
from .errors import FormatError
from .labeling import LABEL_STRINGS, N_LABELS, BioesLabel, LabeledSequence
from .lstm import (
    cast_stack, cell_arrays, cell_shapes, direction_cells, padded_layout, sorted_chunks,
    stack_backprop, stack_run, to_padded, uniform32,
)
from .title2vec import BiLmEmbeddings, Vocab, stored_vocab

# Most positions in one training chunk (lstm.sorted_chunks), each title
# counted as padded to the longest in its chunk; it bounds the memory of a
# training pass. On the neural-train benchmark's inputs (seed 5, h=256,
# batch 128, dropout masks on) a pass over one batch peaked at 7.5, 6.4 and
# 5.3 MB traced at 512, 384 and 256 positions, and a whole `train lstm-crf`
# at 63.1, 61.5 and 59.1 MB RSS; an epoch took the same CPU time at each,
# within 2 % (12 alternating rounds, one OpenBLAS thread of a 2-CPU x86-64
# host).
TRAIN_POSITIONS = 256


class TrainableEmbeddings:
    """Token lookup table trained with the tagger: float32 rows that start
    uniform(-0.1, 0.1)."""

    trainable = True

    def __init__(self, vocab: Vocab, dim: int, rng: np.random.Generator):
        self.vocab = vocab
        self._dim = dim
        self.table = uniform32(rng, 0.1, (vocab.size, dim))

    @property
    def dim(self) -> int:
        return self._dim

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        return self.vocab.ids(tokens)


class LstmCrfModel:
    """Stacked BiLSTM encoder with a CRF output head; kind "lstm" pins its
    transitions at zero."""

    def __init__(
        self,
        provider,
        hidden_size: int = 256,
        layers: int = 1,
        kind: str = "lstm-crf",
        rng: np.random.Generator | None = None,
    ):
        if kind not in ("lstm-crf", "lstm"):
            raise ValueError(f"kind must be 'lstm-crf' or 'lstm', got {kind!r}")
        if hidden_size < 1 or layers < 1 or provider.dim < 1:
            raise ValueError(f"bad dimensions: hidden_size={hidden_size} layers={layers} "
                             f"embedding dim={provider.dim}")
        self.provider = provider
        self.hidden_size = hidden_size
        self.layers = layers
        self.kind = kind
        if rng is None:
            rng = np.random.default_rng(0)
        self.fwd_cells = direction_cells(provider.dim, 2 * hidden_size, hidden_size, layers, rng)
        self.bwd_cells = direction_cells(provider.dim, 2 * hidden_size, hidden_size, layers, rng)
        bound = 1.0 / np.sqrt(2 * hidden_size)
        # float64 also when rng is model_io.UNFILLED, whose arrays are float32.
        self.proj_W = rng.uniform(-bound, bound, size=(2 * hidden_size, N_LABELS)).astype(
            np.float64, copy=False)
        self.proj_b = np.zeros(N_LABELS)
        self.trans = np.zeros((N_LABELS, N_LABELS))
        self.start = np.zeros(N_LABELS)
        self.stop = np.zeros(N_LABELS)
        self.history: list[float] = []

    def parameters(self) -> list[np.ndarray]:
        """The trained arrays: exactly those the model file stores."""
        return list(self._arrays().values())

    def _stack(self) -> list[tuple]:
        return list(zip(self.fwd_cells, self.bwd_cells))

    def _decode_stack(self) -> list[tuple]:
        """Float32 copies of the cells, W column-major (see lstm), the stack
        every decode runs on. A model's cells are float32 already, so the
        copy exists only to make W column-major.

        Built per call, not cached: a cache would go stale when the cells are
        replaced or their weights edited in place.
        """
        return cast_stack(self._stack(), np.float32, order="F")

    def encode(self, xs: np.ndarray, masks=None, want_cache: bool = False, stack=None,
               counts=None):
        """Encode (B, T, dim) inputs into (B, T, 2*hidden) states.

        masks is a per-layer list of (forward, backward) recurrent dropout
        masks of shape (B, hidden), or None in eval mode. stack, when given,
        stands in for the model's own (forward, backward) cells per layer,
        and the inputs are cast to the dtype of its weights. counts, when
        given, are the per-step row counts of right-padded inputs sorted by
        length, longest first (lstm.stack_run).
        """
        stack = stack or self._stack()
        xs = xs.astype(stack[0][0].W.dtype, copy=False)
        outputs, caches = stack_run(stack, xs, masks, want_cache, counts)
        return outputs[-1], caches

    def _embed_group(
        self, token_group: list, valid: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray | None]:
        """Inputs (B, T, dim) of sequences right-padded to the positions of
        the (B, T) mask valid (padded_layout), and the (B, T) table rows they
        were read from, which a trainable table's gradient needs (None for a
        frozen provider). Padded positions read table row 0, or zeros from a
        frozen provider."""
        if self.provider.trainable:
            ids = to_padded(np.concatenate([self.provider.ids(toks) for toks in token_group]),
                            valid)
            return self.provider.table[ids], ids
        return to_padded(self.provider.embed_group(token_group), valid), None

    def _chunk_emissions(self, token_group: list, stack) -> np.ndarray:
        """Label scores (total length, n_labels) of sequences sorted by
        length, longest first, in order. They are encoded as one right-padded
        batch on stack's cells, each step on the rows still inside their
        sequence; the float64 head computes on the valid positions."""
        valid, counts = padded_layout(token_group)
        enc, _ = self.encode(self._embed_group(token_group, valid)[0], stack=stack,
                             counts=counts)
        return enc[valid] @ self.proj_W + self.proj_b

    def predict(self, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
        return self.predict_many([tokens])[0]

    def predict_many(self, seqs: Sequence[Sequence[str]]) -> list[tuple[BioesLabel, ...]]:
        """Decode each sequence, in input order.

        The encoder runs on one copy of the float32 cells per call, shared by
        every chunk; the copy exists only to make W column-major. The output
        head and Viterbi compute in float64. Each chunk of length-sorted sequences
        (crf.decode_in_chunks) is encoded as one padded batch, each
        direction in one LSTM call per layer. A sequence's encoding does not
        depend on the others in its chunk up to float32 rounding (its
        emissions move by about 1e-7 of their magnitude), so its labels
        equal those of decoding it alone unless two paths tie that closely.
        """
        stack = self._decode_stack()
        return decode_in_chunks(seqs, lambda chunk: self._chunk_emissions(chunk, stack),
                                self.trans, self.start, self.stop)

    def _batch_pass(self, token_seqs, label_seqs, masks, grad_of) -> float:
        """Loss summed over a batch of sequences of any lengths and, when
        grad_of is given, its gradients added into grad_of (keyed by
        parameter id).

        label_seqs holds each sequence's label ids, and masks, when given,
        the per-layer (forward, backward) recurrent dropout masks with one
        row per sequence, both in batch order. The batch runs in the chunks
        of lstm.sorted_chunks, of at most TRAIN_POSITIONS positions each.
        Each chunk is encoded as one right-padded batch, each direction of
        each layer in one LSTM call whose steps run only the rows still
        inside their sequence (encode with counts), and backpropagated the
        same way. The head runs on the valid positions only, and crf_nll
        once per chunk, on the emissions right-padded with the chunk's
        per-step row counts.
        """
        want_grads = grad_of is not None
        transitions = want_grads and self.kind == "lstm-crf"
        stack = self._stack()
        loss = 0.0
        for chunk in sorted_chunks(token_seqs, TRAIN_POSITIONS):
            tokens = [token_seqs[j] for j in chunk]
            chunk_masks = masks and [tuple(m[chunk] for m in pair) for pair in masks]
            valid, counts = padded_layout(tokens)
            xs, ids = self._embed_group(tokens, valid)
            enc, caches = self.encode(xs, chunk_masks, want_grads, stack, counts)
            h = enc[valid]
            ys = to_padded(np.concatenate([label_seqs[j] for j in chunk]), valid)
            chunk_loss, grads = crf_nll(to_padded(h @ self.proj_W + self.proj_b, valid), ys,
                                        self.trans, self.start, self.stop, transitions, counts)
            loss += chunk_loss
            demis = grads.pop("emissions")[valid]
            for name, grad in grads.items():
                grad_of[id(getattr(self, name))] += grad
            if not want_grads:
                continue
            grad_of[id(self.proj_W)] += h.T @ demis
            grad_of[id(self.proj_b)] += demis.sum(axis=0)
            # The encoding, zero at padded positions, takes its own gradient,
            # and h goes before backprop, which is where memory peaks.
            enc[valid] = demis @ self.proj_W.T
            del h
            dx = stack_backprop(stack, caches, enc, grad_of, chunk_masks, counts)
            if ids is not None:
                # Valid positions only: padded ones read table row 0.
                np.add.at(grad_of[id(self.provider.table)], ids[valid], dx[valid])
        return loss

    def _arrays(self) -> dict[str, np.ndarray]:
        arrays = {"embed": self.provider.table} if self.provider.trainable else {}
        arrays.update(cell_arrays(self.fwd_cells, self.bwd_cells))
        arrays.update({"proj.W": self.proj_W, "proj.b": self.proj_b})
        if self.kind == "lstm-crf":
            arrays.update(trans=self.trans, start=self.start, stop=self.stop)
        return arrays

    def save(self, path) -> None:
        meta: dict = {
            "labels": list(LABEL_STRINGS),
            "hidden": self.hidden_size,
            "layers": self.layers,
        }
        if self.provider.trainable:
            meta["provider"] = {
                "type": "table",
                "dim": self.provider.dim,
                "vocab": list(self.provider.vocab.tokens),
                "min_count": self.provider.vocab.min_count,
            }
        else:
            meta["provider"] = {
                "type": "bilm",
                "dim": self.provider.dim,
                "content_hash": getattr(self.provider, "content_hash", None),
            }
        model_io.save_model(path, self.kind, meta, self._arrays())

    @classmethod
    def load(cls, path, provider: BiLmEmbeddings | None = None) -> "LstmCrfModel":
        return cls.from_parsed(path, *model_io.load_model(path), provider=provider)

    @classmethod
    def from_parsed(
        cls, path, kind: str, meta: dict, arrays: dict, provider: BiLmEmbeddings | None = None
    ) -> "LstmCrfModel":
        """Build the model from an already parsed container (see model_io.load_model)."""
        if kind not in ("lstm-crf", "lstm"):
            raise ValueError(f"{path}: expected an lstm or lstm-crf model, found {kind!r}")
        model_io.check_meta(path, meta, {"labels": list, "hidden": int, "layers": int,
                                         "provider": dict})
        if list(meta["labels"]) != list(LABEL_STRINGS):
            raise ValueError(f"{path}: label set does not match this build")
        spec = meta["provider"]
        model_io.check_meta(path, spec, {"type": str, "dim": int})
        model_io.check_positive(path, {"hidden": meta["hidden"], "layers": meta["layers"],
                                       "provider.dim": spec["dim"]})
        if spec["type"] == "table":
            model_io.check_meta(path, spec, {"vocab": list, "min_count": int})
            vocab = stored_vocab(path, spec["vocab"], spec["min_count"])
        elif spec["type"] == "bilm":
            if provider is None:
                raise ValueError(
                    f"{path}: model uses frozen embeddings from the language model with content "
                    f"hash {spec.get('content_hash')}; pass that language-model file"
                )
            if provider.dim != spec["dim"]:
                raise ValueError(
                    f"{path}: provider dimension {provider.dim} != stored {spec['dim']}"
                )
            stored_hash = spec.get("content_hash")
            given_hash = getattr(provider, "content_hash", None)
            if stored_hash and given_hash and stored_hash != given_hash:
                raise ValueError(
                    f"{path}: embedding provider hash mismatch: model expects {stored_hash}"
                )
        else:
            raise FormatError(f"unknown embedding provider type {spec['type']!r}", path=str(path))
        table_rows = vocab.size if spec["type"] == "table" else None
        model_io.check_shapes(path, arrays, cls._array_shapes(
            kind, meta["hidden"], meta["layers"], spec["dim"], table_rows))
        if table_rows is not None:
            provider = TrainableEmbeddings(vocab, spec["dim"], model_io.UNFILLED)
        model = cls(provider, hidden_size=meta["hidden"], layers=meta["layers"], kind=kind,
                    rng=model_io.UNFILLED)
        model_io.fill_arrays(path, arrays, model._arrays())
        return model

    @staticmethod
    def _array_shapes(kind: str, hidden: int, layers: int, dim: int, table_rows: int | None):
        """(name, shape) of each _arrays entry of a model with these
        dimensions, in the same order, without building it."""
        if table_rows is not None:
            yield "embed", (table_rows, dim)
        yield from cell_shapes(dim, 2 * hidden, hidden, layers)
        yield "proj.W", (2 * hidden, N_LABELS)
        yield "proj.b", (N_LABELS,)
        if kind == "lstm-crf":
            yield from (("trans", (N_LABELS, N_LABELS)), ("start", (N_LABELS,)),
                        ("stop", (N_LABELS,)))


def _sample_masks(model: LstmCrfModel, batch_size: int, p: float, rng: np.random.Generator):
    """One inverted-dropout mask per sequence per direction per layer."""
    if p <= 0.0:
        return None
    H = model.hidden_size
    masks = []
    for _ in range(model.layers):
        mf = (rng.random((batch_size, H)) >= p) / (1.0 - p)
        mb = (rng.random((batch_size, H)) >= p) / (1.0 - p)
        masks.append((mf, mb))
    return masks


def _train_bilstm(
    kind: str,
    data: Sequence[LabeledSequence],
    cfg,
    hidden_size: int,
    layers: int,
    embedding_dim: int,
    provider=None,
) -> LstmCrfModel:
    data = list(data)
    if not data:
        raise ValueError("no training data")
    rng = np.random.default_rng(cfg.seed)
    if provider is None:
        counts = Counter(tok for ex in data for tok in ex.tokens)
        provider = TrainableEmbeddings(Vocab.from_counts(counts), embedding_dim, rng)
    model = LstmCrfModel(provider, hidden_size=hidden_size, layers=layers, kind=kind, rng=rng)
    grad_of, update = optim.dense_update(cfg, model.parameters())

    labels = [np.array(ex.label_ids()) for ex in data]

    def batch(indices: list[int]) -> tuple[float, int]:
        dropped = apply_word_dropout([data[j].tokens for j in indices], cfg.word_dropout, rng)
        masks = _sample_masks(model, len(indices), cfg.variational_dropout, rng)
        return (model._batch_pass(dropped, [labels[j] for j in indices], masks, grad_of),
                len(indices))

    optim.fit(kind, len(data), cfg, rng, batch, update, model.history)
    return model


def train_lstm_crf(
    data: Sequence[LabeledSequence],
    cfg,
    hidden_size: int = 256,
    layers: int = 1,
    embedding_dim: int = 64,
    provider=None,
) -> LstmCrfModel:
    """Train the BiLSTM-CRF tagger with word and variational dropout."""
    return _train_bilstm("lstm-crf", data, cfg, hidden_size, layers, embedding_dim, provider)


def train_lstm(
    data: Sequence[LabeledSequence],
    cfg,
    hidden_size: int = 256,
    layers: int = 1,
    embedding_dim: int = 64,
    provider=None,
) -> LstmCrfModel:
    """Train the plain BiLSTM tagger: the BiLSTM-CRF with its transitions
    pinned at zero, a per-token softmax."""
    return _train_bilstm("lstm", data, cfg, hidden_size, layers, embedding_dim, provider)
