"""Contextual title embeddings from a from-scratch bidirectional language model.

Two independent stacked LSTM language models (one per direction) share a
token embedding table. A token's contextual vector concatenates its input
embedding with every layer's hidden state from both directions, giving
dimension D + 2*H*L. The table, the cells and the output layers are
float32, and so are the vectors computed from them. Vectors serialize to
`.emb` files: a text header and record table, then one little-endian
float64 block (the float32 values widened exactly), under one hash that
covers all three.
"""

from __future__ import annotations

import hashlib
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import model_io, optim
from .corpus import BOS, EOS, UNK, Corpus
from .errors import FormatError
from .lstm import (
    cell_arrays, direction_cells, padded_blocks, softmax_ce, stack_backprop, stack_run,
    uniform32,
)

_SENTINELS = (UNK, BOS, EOS)


def check_min_count(min_count: int) -> None:
    """ValueError unless min_count, the fewest occurrences that keep a token
    in a vocabulary, is at least 1."""
    if min_count < 1:
        raise ValueError(f"min_count must be >= 1, got {min_count}")


class Vocab:
    """Token ids with fixed sentinels: <unk>=0, <s>=1, </s>=2.

    Remaining ids follow descending corpus count with lexicographic
    tie-breaks, so the mapping is deterministic for a given corpus.
    """

    def __init__(self, tokens: Sequence[str], min_count: int = 1):
        tokens = tuple(tokens)
        if tokens[:3] != _SENTINELS:
            raise ValueError(f"vocab must start with the sentinels {_SENTINELS}")
        if len(set(tokens)) != len(tokens):
            raise ValueError("vocab contains duplicate tokens")
        self.tokens = tokens
        self.min_count = min_count
        self._index = {tok: i for i, tok in enumerate(tokens)}

    @property
    def size(self) -> int:
        return len(self.tokens)

    def id(self, token: str) -> int:
        return self._index.get(token, 0)

    def ids(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.id(t) for t in tokens], dtype=np.int64)

    @classmethod
    def from_counts(cls, counts: Mapping[str, int], min_count: int = 1) -> "Vocab":
        check_min_count(min_count)
        kept = [
            (c, t) for t, c in counts.items() if c >= min_count and t not in _SENTINELS
        ]
        ordered = tuple(t for _, t in sorted(kept, key=lambda ct: (-ct[0], ct[1])))
        return cls(_SENTINELS + ordered, min_count=min_count)


def build_vocab(corpus: Corpus, min_count: int = 1) -> Vocab:
    """Vocabulary over a corpus; tokens below min_count fall back to <unk>."""
    counts: Counter[str] = Counter()
    for title in corpus.titles:
        counts.update(title.tokens)
    return Vocab.from_counts(counts, min_count=min_count)


def check_dims(dim: int, hidden: int, layers: int) -> None:
    """ValueError unless each size of a language model is at least 1."""
    if min(dim, hidden, layers) < 1:
        raise ValueError(f"dims must be positive, got dim={dim} hidden={hidden} layers={layers}")


class BiLmModel:
    """Forward and backward LSTM language models over a shared embedding table."""

    def __init__(
        self,
        vocab: Vocab,
        dim: int,
        hidden: int,
        layers: int,
        rng: np.random.Generator | None = None,
    ):
        check_dims(dim, hidden, layers)
        self.vocab = vocab
        self.dim = dim
        self.hidden = hidden
        self.layers = layers
        if rng is None:
            rng = np.random.default_rng(0)
        self.embed = uniform32(rng, 0.1, (vocab.size, dim))
        self.fwd_cells = direction_cells(dim, hidden, hidden, layers, rng)
        self.bwd_cells = direction_cells(dim, hidden, hidden, layers, rng)
        bound = 1.0 / np.sqrt(hidden)
        self.fwd_out_W = uniform32(rng, bound, (hidden, vocab.size))
        self.fwd_out_b = np.zeros(vocab.size, np.float32)
        self.bwd_out_W = uniform32(rng, bound, (hidden, vocab.size))
        self.bwd_out_b = np.zeros(vocab.size, np.float32)
        self.history: list[float] = []

    @property
    def contextual_dim(self) -> int:
        return self.dim + 2 * self.hidden * self.layers

    def parameters(self) -> list[np.ndarray]:
        """The trained arrays: exactly those the model file stores."""
        return list(self._arrays().values())

    def _direction(self, reverse: bool) -> tuple[list[tuple], np.ndarray, np.ndarray]:
        """One-direction stack and output layer of the backward (reverse) or forward LM."""
        if reverse:
            return [(cell,) for cell in self.bwd_cells], self.bwd_out_W, self.bwd_out_b
        return [(cell,) for cell in self.fwd_cells], self.fwd_out_W, self.fwd_out_b

    def _arrays(self) -> dict[str, np.ndarray]:
        return {"embed": self.embed, **cell_arrays(self.fwd_cells, self.bwd_cells),
                "fwd_out.W": self.fwd_out_W, "fwd_out.b": self.fwd_out_b,
                "bwd_out.W": self.bwd_out_W, "bwd_out.b": self.bwd_out_b}

    def save(self, path) -> None:
        meta = {
            "vocab": list(self.vocab.tokens),
            "min_count": self.vocab.min_count,
            "dim": self.dim,
            "hidden": self.hidden,
            "layers": self.layers,
        }
        model_io.save_model(path, "bilm", meta, self._arrays())

    @classmethod
    def load(cls, path) -> "BiLmModel":
        kind, meta, arrays = model_io.load_model(path)
        if kind != "bilm":
            raise ValueError(f"{path}: expected a bilm model, found {kind!r}")
        model_io.check_meta(path, meta, {"vocab": list, "min_count": int, "dim": int,
                                         "hidden": int, "layers": int})
        vocab = model_io.checked(path, Vocab, meta["vocab"], meta["min_count"])
        model = model_io.checked(path, cls, vocab, meta["dim"], meta["hidden"], meta["layers"],
                                 rng=model_io.Unfilled(path, arrays))
        model_io.fill_arrays(path, arrays, model._arrays())
        return model


def _direction_batches(seqs, bos: int, eos: int, reverse: bool):
    """Inputs, targets and valid positions (each (B, T+1), T the longest
    length) for one LM direction over B id sequences of any lengths.

    The backward direction reads each sequence right to left within its own
    length, so in both directions a row's padding comes after its last step.
    Padded positions hold the closing sentinel.
    """
    lengths = np.array([len(seq) for seq in seqs])
    first, last = (eos, bos) if reverse else (bos, eos)
    inputs = np.full((len(seqs), lengths.max() + 1), last, dtype=np.int64)
    inputs[:, 0] = first
    for row, seq in zip(inputs, seqs):
        row[1 : len(seq) + 1] = seq[::-1] if reverse else seq
    targets = np.full(inputs.shape, last, dtype=np.int64)
    targets[:, :-1] = inputs[:, 1:]
    return inputs, targets, np.arange(inputs.shape[1]) <= lengths[:, None]


def train_bilm(corpus: Corpus, dims: tuple[int, int, int], cfg, min_count: int = 1) -> BiLmModel:
    """Train the bidirectional LM; dims is (embedding, hidden, layers).

    Loss is mean cross-entropy per prediction over both directions; the
    per-epoch mean is logged and recorded in model.history (perplexity is
    its exp). Each mini-batch runs as one packed batch per direction
    (_bilm_batch), in float32 on the model's own arrays, which the
    optimizer updates in place. The dropout fields of the training config
    are not read.
    """
    dim, hidden, layers = dims
    if not corpus.titles:
        raise ValueError("cannot train a language model on an empty corpus")
    vocab = build_vocab(corpus, min_count=min_count)
    rng = np.random.default_rng(cfg.seed)
    model = BiLmModel(vocab, dim, hidden, layers, rng=rng)
    sequences = [vocab.ids(title.tokens) for title in corpus.titles]
    grad_of, update = optim.dense_update(cfg, model.parameters())

    def batch(indices: list[int]) -> tuple[float, int]:
        return _bilm_batch(model, [sequences[j] for j in indices], grad_of)

    optim.fit("bilm", len(sequences), cfg, rng, batch, update, model.history)
    return model


def _bilm_batch(model: BiLmModel, batch: list[np.ndarray], grad_of: dict | None):
    """Summed CE over one batch of id sequences of any lengths; adds the
    gradients into grad_of (keyed by parameter id) when given.

    The batch is sorted by length, longest first (stable), and each
    direction runs it once, right-padded (_direction_batches) and packed
    as lstm.LstmCell.run takes it: step t runs only the counts[t] rows
    still inside their sequence, so no padded position is multiplied. The
    output layer sees only valid positions, so the result is the sum over
    the batch's length groups up to rounding. Returns (ce_sum,
    prediction_count).
    """
    bos, eos = model.vocab.id(BOS), model.vocab.id(EOS)
    batch = sorted(batch, key=len, reverse=True)
    total_ce = 0.0
    total_preds = 0
    for reverse in (False, True):
        stack, out_W, out_b = model._direction(reverse)
        inputs, targets, valid = _direction_batches(batch, bos, eos, reverse)
        counts = valid.sum(axis=0)
        outputs, caches = stack_run(stack, model.embed[inputs], want_cache=grad_of is not None,
                                    counts=counts)
        top = outputs[-1]
        h = top[valid]
        ce, dlogits = softmax_ce(h @ out_W + out_b, targets[valid])
        total_ce += ce
        total_preds += len(h)
        if grad_of is None:
            continue
        grad_of[id(out_W)] += h.T @ dlogits
        grad_of[id(out_b)] += dlogits.sum(axis=0)
        d_top = np.zeros_like(top)
        d_top[valid] = dlogits @ out_W.T
        dxs = stack_backprop(stack, caches, d_top, grad_of, counts=counts)
        np.add.at(grad_of[id(model.embed)], inputs[valid], dxs[valid])
    return total_ce, total_preds


# Rows of every block the biLM runs at inference (embed_titles).
# One fixed row count makes a title's vectors independent of the titles it
# is batched with (see lstm.padded_blocks). Embedding the benchmark's 400
# tag-embed titles took 0.06-0.08 s at 4 to 32 rows against 0.13-0.22 s one
# title at a time (2-CPU x86-64 host, OpenBLAS on one thread); more rows pad
# more, fewer make more calls.
EMBED_BLOCK = 16


def _blocks(model: BiLmModel, titles: Sequence[Sequence[str]]):
    """(positions, id block (EMBED_BLOCK, T)) per equal-length chunk of titles."""
    if not all(titles):
        raise ValueError("cannot run the language model on an empty title")
    return padded_blocks([model.vocab.ids(tokens) for tokens in titles], EMBED_BLOCK,
                         model.vocab.id(UNK))


def _block_states(model: BiLmModel, ids: np.ndarray, reverse: bool) -> list[np.ndarray]:
    """Per-layer hidden states (EMBED_BLOCK, T+1, hidden) of one direction
    over an id block, in input order for that direction (position 0
    consumed only the boundary sentinel)."""
    inputs, _, _ = _direction_batches(ids, model.vocab.id(BOS), model.vocab.id(EOS), reverse)
    outputs, _ = stack_run(model._direction(reverse)[0], model.embed[inputs])
    return outputs


def embed_titles(model: BiLmModel, titles: Sequence[Sequence[str]]) -> list[np.ndarray]:
    """Contextual vectors (T, D + 2*H*L) of each title, in input order:
    embedding, then forward hidden states per layer, then backward hidden
    states per layer.

    Titles run in blocks of EMBED_BLOCK equal-length titles, so a title's
    vectors are bit-equal to embed_title's whatever else is in the list.
    """
    vectors: list = [None] * len(titles)
    for group, ids in _blocks(model, titles):
        n = len(group)
        parts = [model.embed[ids[:n]]]
        # Token t was consumed at forward input position t+1 and at backward
        # input position T-t (the backward pass reads the title right to left).
        parts += [hs[:n, 1:] for hs in _block_states(model, ids, reverse=False)]
        parts += [hs[:n, :0:-1] for hs in _block_states(model, ids, reverse=True)]
        for pos, title_vectors in zip(group, np.concatenate(parts, axis=2)):
            vectors[pos] = title_vectors
    return vectors


def embed_title(model: BiLmModel, tokens: Sequence[str]) -> np.ndarray:
    """Contextual vectors (T, D + 2*H*L) of one title; see embed_titles."""
    return embed_titles(model, [tokens])[0]


class BiLmEmbeddings:
    """Adapter exposing a trained biLM as a frozen embedding provider."""

    trainable = False

    def __init__(self, model: BiLmModel, content_hash: str | None = None):
        self.model = model
        self.content_hash = content_hash

    @property
    def dim(self) -> int:
        return self.model.contextual_dim

    def embed_group(self, token_group: Sequence[Sequence[str]]) -> np.ndarray:
        """Vectors (total length, dim) of the titles' tokens, title by title."""
        return np.concatenate(embed_titles(self.model, token_group))


@dataclass(frozen=True, eq=False)
class TitleVectors:
    title_id: str
    vectors: np.ndarray  # (n_tokens, dim)


class EmbeddingStore:
    """In-memory set of per-title contextual vectors with a fixed dimension."""

    def __init__(self, dim: int, records: Sequence[TitleVectors]):
        if dim < 1:
            raise ValueError(f"dimension must be >= 1, got {dim}")
        self.dim = dim
        self.records = list(records)
        for rec in self.records:
            if rec.vectors.ndim != 2 or rec.vectors.shape[1] != dim or not len(rec.vectors):
                raise ValueError(
                    f"record {rec.title_id!r} has shape {rec.vectors.shape}, "
                    f"expected (n >= 1, {dim})"
                )
            # One whitespace-free word, so the id fits on its `{id} {n}` line.
            if rec.title_id.split() != [rec.title_id]:
                raise ValueError(f"bad title id {rec.title_id!r}")


# Longest first line read_embeddings takes as a header.
_HEADER_LIMIT = 256


def write_embeddings(store: EmbeddingStore, path) -> None:
    """Write the store as `.emb` v3.

    Line 1 is `ipod-emb v3 {dim} {records} {hash}`. One `{id} {n}` line per
    record follows, then all vectors as one little-endian float64 block:
    records in table order, rows in token order. The hash is the first 16
    hex digits of the sha256 of the header up to and including the space
    before the hash, then the table bytes, then the block bytes.
    """
    table = "".join(f"{rec.title_id} {len(rec.vectors)}\n" for rec in store.records).encode("utf-8")
    # Every record widened to float64 at once; the (0, dim) head keeps an empty store valid.
    block = np.concatenate([np.empty((0, store.dim)), *(rec.vectors for rec in store.records)],
                           dtype="<f8")
    prefix = f"ipod-emb v3 {store.dim} {len(store.records)} ".encode("ascii")
    digest = hashlib.sha256(prefix + table)
    digest.update(block)
    with Path(path).open("wb") as fh:
        fh.write(prefix + digest.hexdigest()[:16].encode("ascii") + b"\n")
        fh.write(table)
        fh.write(block)


def read_embeddings(path) -> EmbeddingStore:
    """Read a `.emb` file, v3 (see write_embeddings) or v2.

    v2 has the v3 layout, but its hash covers only the table and the
    block, not the header. Any other version, v1 included, and any
    malformed file raise FormatError naming the path. The block's size is
    checked against the file's before it is allocated, so the file must
    be a regular file.
    """
    path = Path(path)
    with path.open("rb") as fh:
        return _read_table_and_block(path, fh, fh.readline(_HEADER_LIMIT))


def _read_table_and_block(path: Path, fh, first: bytes) -> EmbeddingStore:
    """Check the header, the table and the block size before allocating,
    then read the block into one array and check the hash."""
    header = first[:-1].split(b" ") if first.endswith(b"\n") else []
    if (len(header) != 5 or header[0] != b"ipod-emb" or header[1] not in (b"v2", b"v3")
            or not header[2].isdigit() or not header[3].isdigit() or int(header[2]) < 1):
        raise FormatError(f"bad header {first[:80]!r}", path=str(path))
    dim, n_records = int(header[2]), int(header[3])
    pos = len(first)
    # v3 hashes its header up to the hash; v2 hashes only what follows it.
    digest = hashlib.sha256(first[: first.rindex(b" ") + 1] if header[1] == b"v3" else b"")
    ids: list[str] = []
    counts: list[int] = []
    for line_no in range(2, n_records + 2):
        line = fh.readline()
        if not line.endswith(b"\n"):
            raise FormatError("record table is truncated", path=str(path), line=line_no)
        pos += len(line)
        digest.update(line)
        fields = line[:-1].split(b" ")
        try:
            title_id = fields[0].decode("utf-8")
        except UnicodeDecodeError:
            raise FormatError("record id is not UTF-8", path=str(path), line=line_no) from None
        if (len(fields) != 2 or title_id.split() != [title_id] or not fields[1].isdigit()
                or int(fields[1]) < 1):
            raise FormatError(f"bad record line {line[:80]!r}", path=str(path), line=line_no)
        ids.append(title_id)
        counts.append(int(fields[1]))
    rows = sum(counts)
    size = os.fstat(fh.fileno()).st_size - pos
    if size != 8 * dim * rows:
        raise FormatError(
            f"expected {8 * dim * rows} bytes of vectors after the table, found {size}",
            path=str(path),
        )
    block = np.empty(rows * dim, dtype="<f8")
    if fh.readinto(block) != size:
        raise FormatError("vector block is truncated", path=str(path))
    digest.update(block)
    if digest.hexdigest()[:16].encode("ascii") != header[4]:
        raise FormatError(
            f"content hash mismatch: header says {header[4].decode('ascii', 'replace')}, "
            f"content hashes to {digest.hexdigest()[:16]}",
            path=str(path),
        )
    block = block.reshape(rows, dim)
    records = []
    start = 0
    for title_id, n in zip(ids, counts):
        records.append(TitleVectors(title_id, block[start : start + n]))
        start += n
    return EmbeddingStore(dim=dim, records=records)
