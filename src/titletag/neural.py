"""Bidirectional LSTM taggers trained with hand-derived backpropagation.

Two output heads share the encoder: a CRF transition block decoded with
Viterbi ("lstm-crf") and an independent per-token softmax ("lstm"). The
encoder stacks bidirectional layers; each layer above the first consumes
the concatenated forward and backward states of the layer below. Embeddings
come from a trainable lookup table or a frozen bidirectional-LM provider.
"""

from __future__ import annotations

from collections import Counter
from typing import Sequence

import numpy as np

from . import model_io, optim
from .crf import apply_word_dropout, crf_nll, decode_in_chunks, viterbi_path
# Unused here since crf_nll calls it, but perfbench/tests asserts that its
# span tracer wraps this by-name binding.
from .crf import sequence_marginals  # noqa: F401
from .errors import FormatError
from .labeling import LABEL_STRINGS, N_LABELS, BioesLabel, LabeledSequence
from .lstm import (
    cell_arrays, cell_shapes, direction_cells, length_groups, softmax_ce, stack_backprop, stack_run,
)
from .title2vec import BiLmEmbeddings, Vocab, stored_vocab


class TrainableEmbeddings:
    """Token lookup table trained with the tagger; rows start uniform(-0.1, 0.1)."""

    trainable = True

    def __init__(self, vocab: Vocab, dim: int, rng: np.random.Generator | None = None):
        self.vocab = vocab
        self._dim = dim
        if rng is None:
            self.table = np.zeros((vocab.size, dim))
        else:
            self.table = rng.uniform(-0.1, 0.1, size=(vocab.size, dim))

    @property
    def dim(self) -> int:
        return self._dim

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        return self.vocab.ids(tokens)

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        return self.table[self.vocab.ids(tokens)]


class LstmCrfModel:
    """Stacked BiLSTM encoder with a CRF or softmax output head."""

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
        if hidden_size < 1 or layers < 1:
            raise ValueError(f"bad dimensions: hidden_size={hidden_size} layers={layers}")
        self.provider = provider
        self.hidden_size = hidden_size
        self.layers = layers
        self.kind = kind
        if rng is None:
            rng = np.random.default_rng(0)
        self.fwd_cells = direction_cells(provider.dim, 2 * hidden_size, hidden_size, layers, rng)
        self.bwd_cells = direction_cells(provider.dim, 2 * hidden_size, hidden_size, layers, rng)
        bound = 1.0 / np.sqrt(2 * hidden_size)
        self.proj_W = rng.uniform(-bound, bound, size=(2 * hidden_size, N_LABELS))
        self.proj_b = np.zeros(N_LABELS)
        if kind == "lstm-crf":
            self.trans = np.zeros((N_LABELS, N_LABELS))
            self.start = np.zeros(N_LABELS)
            self.stop = np.zeros(N_LABELS)
        else:
            self.trans = self.start = self.stop = None
        self.history: list[float] = []

    def parameters(self) -> list[np.ndarray]:
        params: list[np.ndarray] = []
        for cell in self.fwd_cells + self.bwd_cells:
            params.extend([cell.W, cell.b])
        params.extend([self.proj_W, self.proj_b])
        if self.kind == "lstm-crf":
            params.extend([self.trans, self.start, self.stop])
        if self.provider.trainable:
            params.append(self.provider.table)
        return params

    def _stack(self) -> list[tuple]:
        return list(zip(self.fwd_cells, self.bwd_cells))

    def encode(self, xs: np.ndarray, masks=None, want_cache: bool = False):
        """Encode (B, T, dim) inputs into (B, T, 2*hidden) states.

        masks is a per-layer list of (forward, backward) recurrent dropout
        masks of shape (B, hidden), or None in eval mode.
        """
        outputs, caches = stack_run(self._stack(), xs, masks, want_cache)
        return outputs[-1], caches

    def _embed_group(self, token_group: list) -> tuple[np.ndarray, np.ndarray | None]:
        """Inputs (B, T, dim) of equal-length sequences, and the (B, T) table
        rows they were read from, which a trainable table's gradient needs
        (None for a frozen provider)."""
        if self.provider.trainable:
            ids = np.stack([self.provider.ids(toks) for toks in token_group])
            return self.provider.table[ids], ids
        return np.stack([self.provider.embed(toks) for toks in token_group]), None

    def _chunk_emissions(self, token_group: list) -> np.ndarray:
        """Label scores (B, T, n_labels) of equal-length sequences, one batch."""
        enc, _ = self.encode(self._embed_group(token_group)[0])
        return enc @ self.proj_W + self.proj_b

    def emissions(self, tokens: Sequence[str]) -> np.ndarray:
        """Per-position label scores (T, n_labels) for one sequence."""
        if not tokens:
            raise ValueError("empty token sequence")
        return self._chunk_emissions([tokens])[0]

    def predict(self, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
        return self.predict_many([tokens])[0]

    def predict_many(self, seqs: Sequence[Sequence[str]]) -> list[tuple[BioesLabel, ...]]:
        """Decode each sequence, in input order.

        Each chunk of equal-length sequences (crf.decode_in_chunks) is
        encoded as one batch. A sequence's encoding does not depend on the
        others in its chunk up to float rounding (about 1e-16), so its labels
        equal those of decoding it alone unless two paths tie that closely.
        """
        def paths(chunk: list[int]) -> np.ndarray:
            emis = self._chunk_emissions([seqs[j] for j in chunk])
            if self.kind == "lstm-crf":
                return viterbi_path(emis, self.trans, self.start, self.stop)
            return np.argmax(emis, axis=-1)

        return decode_in_chunks(seqs, paths)

    def _group_pass(self, token_group, label_ids, masks, grad_of) -> float:
        """Loss (summed over the group) and, when grad_of is given, gradients."""
        want_grads = grad_of is not None
        xs, ids = self._embed_group(token_group)
        enc, caches = self.encode(xs, masks, want_cache=want_grads)
        emis = enc @ self.proj_W + self.proj_b
        if self.kind == "lstm-crf":
            loss, grads = crf_nll(emis, label_ids, self.trans, self.start, self.stop)
            demis = grads.pop("emissions")
        else:
            loss, demis = softmax_ce(emis, label_ids)
            grads = {}
        if not want_grads:
            return loss
        for name, grad in grads.items():
            grad_of[id(getattr(self, name))] += grad
        grad_of[id(self.proj_W)] += enc.reshape(-1, 2 * self.hidden_size).T @ demis.reshape(-1, N_LABELS)
        grad_of[id(self.proj_b)] += demis.sum(axis=(0, 1))
        d_enc = demis @ self.proj_W.T
        dx = stack_backprop(self._stack(), caches, d_enc, grad_of, masks)
        if ids is not None:
            np.add.at(grad_of[id(self.provider.table)], ids, dx)
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
        if spec["type"] == "table":
            model_io.check_meta(path, spec, {"vocab": list, "min_count": int})
            vocab = stored_vocab(path, spec["vocab"], spec["min_count"])
        elif spec["type"] == "bilm":
            if provider is None:
                raise ValueError(
                    f"{path}: model uses frozen language-model embeddings; pass the provider"
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
            provider = TrainableEmbeddings(vocab, spec["dim"])
        model = cls(provider, hidden_size=meta["hidden"], layers=meta["layers"], kind=kind)
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


def batch_nll(model: LstmCrfModel, examples: Sequence[LabeledSequence]) -> float:
    """Eval-mode mean loss per sequence (no dropout, no gradients)."""
    if not examples:
        raise ValueError("no examples")
    total = 0.0
    for group in length_groups([ex.tokens for ex in examples]):
        toks = [examples[j].tokens for j in group]
        ys = np.array([examples[j].label_ids() for j in group], dtype=np.int64)
        total += model._group_pass(toks, ys, None, None)
    return total / len(examples)


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
    params = model.parameters()
    grads, update = optim.dense_update(cfg, params)
    grad_of = {id(p): g for p, g in zip(params, grads)}

    def batch(indices: list[int]) -> tuple[float, int]:
        dropped = [apply_word_dropout(data[j].tokens, cfg.word_dropout, rng) for j in indices]
        batch_loss = 0.0
        for group in length_groups(dropped):
            ys = np.array([data[indices[pos]].label_ids() for pos in group], dtype=np.int64)
            masks = _sample_masks(model, len(group), cfg.variational_dropout, rng)
            batch_loss += model._group_pass([dropped[pos] for pos in group], ys, masks, grad_of)
        return batch_loss, len(indices)

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


def train_lstm_softmax(
    data: Sequence[LabeledSequence],
    cfg,
    hidden_size: int = 256,
    layers: int = 1,
    embedding_dim: int = 64,
    provider=None,
) -> LstmCrfModel:
    """Train the plain BiLSTM tagger (per-token softmax, argmax decoding)."""
    return _train_bilstm("lstm", data, cfg, hidden_size, layers, embedding_dim, provider)
