"""Contextual title embeddings from a from-scratch bidirectional language model.

Two independent stacked LSTM language models (one per direction) share a
token embedding table. A token's contextual vector concatenates its input
embedding with every layer's hidden state from both directions, giving
dimension D + 2*H*L. Vectors serialize to `.emb` files: a hashed text
header and record table, then one little-endian float64 block.
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
from .corpus import Corpus
from .errors import FormatError
from .lstm import (
    cell_arrays, cell_shapes, direction_cells, length_groups, softmax_ce, stack_backprop, stack_run,
)

UNK = "<unk>"
BOS = "<s>"
EOS = "</s>"
_SENTINELS = (UNK, BOS, EOS)


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
        if min_count < 1:
            raise ValueError(f"min_count must be >= 1, got {min_count}")
        kept = [
            (c, t) for t, c in counts.items() if c >= min_count and t not in _SENTINELS
        ]
        ordered = tuple(t for _, t in sorted(kept, key=lambda ct: (-ct[0], ct[1])))
        return cls(_SENTINELS + ordered, min_count=min_count)


def stored_vocab(path, tokens: Sequence[str], min_count: int) -> Vocab:
    """The vocabulary a model file stores; FormatError if it is malformed."""
    try:
        return Vocab(tokens, min_count=min_count)
    except ValueError as exc:
        raise FormatError(f"bad vocabulary: {exc}", path=str(path)) from None


def build_vocab(corpus: Corpus, min_count: int = 1) -> Vocab:
    """Vocabulary over a corpus; tokens below min_count fall back to <unk>."""
    counts: Counter[str] = Counter()
    for title in corpus.titles:
        counts.update(title.tokens)
    return Vocab.from_counts(counts, min_count=min_count)


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
        if dim < 1 or hidden < 1 or layers < 1:
            raise ValueError(f"dims must be positive, got dim={dim} hidden={hidden} layers={layers}")
        self.vocab = vocab
        self.dim = dim
        self.hidden = hidden
        self.layers = layers
        if rng is None:
            rng = np.random.default_rng(0)
        self.embed = rng.uniform(-0.1, 0.1, size=(vocab.size, dim))
        self.fwd_cells = direction_cells(dim, hidden, hidden, layers, rng)
        self.bwd_cells = direction_cells(dim, hidden, hidden, layers, rng)
        bound = 1.0 / np.sqrt(hidden)
        self.fwd_out_W = rng.uniform(-bound, bound, size=(hidden, vocab.size))
        self.fwd_out_b = np.zeros(vocab.size)
        self.bwd_out_W = rng.uniform(-bound, bound, size=(hidden, vocab.size))
        self.bwd_out_b = np.zeros(vocab.size)
        self.history: list[float] = []

    @property
    def contextual_dim(self) -> int:
        return self.dim + 2 * self.hidden * self.layers

    def parameters(self) -> list[np.ndarray]:
        params = [self.embed]
        for cell in self.fwd_cells + self.bwd_cells:
            params.extend([cell.W, cell.b])
        params.extend([self.fwd_out_W, self.fwd_out_b, self.bwd_out_W, self.bwd_out_b])
        return params

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
        vocab = stored_vocab(path, meta["vocab"], meta["min_count"])
        model_io.check_shapes(path, arrays, cls._array_shapes(
            vocab.size, meta["dim"], meta["hidden"], meta["layers"]))
        model = cls(vocab, meta["dim"], meta["hidden"], meta["layers"])
        model_io.fill_arrays(path, arrays, model._arrays())
        return model

    @staticmethod
    def _array_shapes(vocab_size: int, dim: int, hidden: int, layers: int):
        """(name, shape) of each _arrays entry of a model with these
        dimensions, in the same order, without building it."""
        yield "embed", (vocab_size, dim)
        yield from cell_shapes(dim, hidden, hidden, layers)
        for prefix in ("fwd_out", "bwd_out"):
            yield f"{prefix}.W", (hidden, vocab_size)
            yield f"{prefix}.b", (vocab_size,)


def _direction_batches(ids: np.ndarray, bos: int, eos: int, reverse: bool):
    """Inputs and targets for one LM direction over an id batch (B, T)."""
    if reverse:
        ids = ids[:, ::-1]
    B, T = ids.shape
    inputs = np.empty((B, T + 1), dtype=np.int64)
    targets = np.empty((B, T + 1), dtype=np.int64)
    inputs[:, 0] = bos if not reverse else eos
    inputs[:, 1:] = ids
    targets[:, :T] = ids
    targets[:, T] = eos if not reverse else bos
    return inputs, targets


def train_bilm(corpus: Corpus, dims: tuple[int, int, int], cfg, min_count: int = 1) -> BiLmModel:
    """Train the bidirectional LM; dims is (embedding, hidden, layers).

    Loss is mean cross-entropy per prediction over both directions; the
    per-epoch mean is logged and recorded in model.history (perplexity is
    its exp). The dropout fields of the training config do not apply here.
    """
    dim, hidden, layers = dims
    if not corpus.titles:
        raise ValueError("cannot train a language model on an empty corpus")
    vocab = build_vocab(corpus, min_count=min_count)
    rng = np.random.default_rng(cfg.seed)
    model = BiLmModel(vocab, dim, hidden, layers, rng=rng)
    sequences = [vocab.ids(title.tokens) for title in corpus.titles]
    grads, update = optim.dense_update(cfg, model.parameters())

    def batch(indices: list[int]) -> tuple[float, int]:
        return _bilm_batch(model, [sequences[j] for j in indices], grads)

    optim.fit("bilm", len(sequences), cfg, rng, batch, update, model.history)
    return model


def _bilm_batch(model: BiLmModel, batch: list[np.ndarray], grads: list[np.ndarray] | None):
    """Summed CE over one batch; accumulates gradients in place when given.

    Returns (ce_sum, prediction_count).
    """
    if grads is not None:
        grad_of = {id(p): g for p, g in zip(model.parameters(), grads)}
    bos, eos = model.vocab.id(BOS), model.vocab.id(EOS)
    total_ce = 0.0
    total_preds = 0
    for group in length_groups(batch):
        ids = np.stack([batch[j] for j in group])
        for reverse in (False, True):
            stack, out_W, out_b = model._direction(reverse)
            inputs, targets = _direction_batches(ids, bos, eos, reverse)
            outputs, caches = stack_run(stack, model.embed[inputs], want_cache=grads is not None)
            top = outputs[-1]
            logits = top @ out_W + out_b
            ce, dlogits = softmax_ce(logits, targets)
            total_ce += ce
            total_preds += targets.size
            if grads is None:
                continue
            flat_h = top.reshape(-1, model.hidden)
            flat_d = dlogits.reshape(-1, model.vocab.size)
            grad_of[id(out_W)] += flat_h.T @ flat_d
            grad_of[id(out_b)] += flat_d.sum(axis=0)
            dxs = stack_backprop(stack, caches, dlogits @ out_W.T, grad_of)
            np.add.at(grad_of[id(model.embed)], inputs, dxs)
    return total_ce, total_preds


def batch_ce(model: BiLmModel, token_sequences: Sequence[Sequence[str]]) -> float:
    """Mean cross-entropy per prediction over both directions (no gradients)."""
    seqs = [model.vocab.ids(toks) for toks in token_sequences if len(toks)]
    if not seqs:
        raise ValueError("no non-empty sequences to score")
    total_ce = 0.0
    total_preds = 0
    for seq in seqs:
        ce, preds = _bilm_batch(model, [seq], None)
        total_ce += ce
        total_preds += preds
    return total_ce / total_preds


def perplexity(model: BiLmModel, corpus: Corpus) -> float:
    """exp(mean per-prediction cross-entropy) over a corpus, both directions."""
    return float(np.exp(batch_ce(model, [t.tokens for t in corpus.titles])))


def _direction_states(model: BiLmModel, tokens: Sequence[str], reverse: bool):
    """Per-layer hidden states for one direction, single sequence.

    Returns a list of (T+1, hidden) arrays, one per layer, in input order
    for that direction (position 0 consumed only the boundary sentinel).
    """
    ids = model.vocab.ids(tokens)
    inputs, _ = _direction_batches(ids[None, :], model.vocab.id(BOS), model.vocab.id(EOS), reverse)
    outputs, _ = stack_run(model._direction(reverse)[0], model.embed[inputs])
    return [hs[0] for hs in outputs]


def _logprobs(model: BiLmModel, tokens: Sequence[str], reverse: bool) -> np.ndarray:
    if not tokens:
        raise ValueError("empty token sequence")
    _, out_W, out_b = model._direction(reverse)
    logits = _direction_states(model, tokens, reverse)[-1] @ out_W + out_b
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def forward_logprobs(model: BiLmModel, tokens: Sequence[str]) -> np.ndarray:
    """(T+1, V) log-probabilities: row t predicts token t (row T predicts </s>)."""
    return _logprobs(model, tokens, reverse=False)


def backward_logprobs(model: BiLmModel, tokens: Sequence[str]) -> np.ndarray:
    """(T+1, V) log-probabilities in right-to-left order: row r predicts
    token T-1-r (row T predicts <s>)."""
    return _logprobs(model, tokens, reverse=True)


def embed_title(model: BiLmModel, tokens: Sequence[str]) -> np.ndarray:
    """Contextual vectors (T, D + 2*H*L): embedding, then forward hidden
    states per layer, then backward hidden states per layer."""
    if not tokens:
        raise ValueError("cannot embed an empty title")
    T = len(tokens)
    ids = model.vocab.ids(tokens)
    fwd_states = _direction_states(model, tokens, reverse=False)
    bwd_states = _direction_states(model, tokens, reverse=True)
    parts = [model.embed[ids]]
    # Token t was consumed at forward input position t+1 and at backward
    # input position T-t (the backward pass reads the title right to left).
    for hs in fwd_states:
        parts.append(hs[1 : T + 1])
    for hs in bwd_states:
        parts.append(hs[1 : T + 1][::-1])
    return np.concatenate(parts, axis=1)


class BiLmEmbeddings:
    """Adapter exposing a trained biLM as a frozen embedding provider."""

    trainable = False

    def __init__(self, model: BiLmModel, content_hash: str | None = None):
        self.model = model
        self.content_hash = content_hash

    @property
    def dim(self) -> int:
        return self.model.contextual_dim

    def embed(self, tokens: Sequence[str]) -> np.ndarray:
        return embed_title(self.model, tokens)


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
        self._pooled: np.ndarray | None = None

    def pooled(self) -> np.ndarray:
        """Mean-pooled title vectors, (n_records, dim)."""
        if self._pooled is None:
            if self.records:
                self._pooled = np.stack([r.vectors.mean(axis=0) for r in self.records])
            else:
                self._pooled = np.zeros((0, self.dim))
        return self._pooled


# Longest first line read_embeddings takes as a v2 header.
_HEADER_LIMIT = 256


def write_embeddings(store: EmbeddingStore, path) -> None:
    """Write the store as `.emb` v2.

    Line 1 is `ipod-emb v2 {dim} {records} {hash}`. One `{id} {n}` line per
    record follows, then all vectors as one little-endian float64 block:
    records in table order, rows in token order. The hash is the first 16
    hex digits of the sha256 of the table bytes followed by the block bytes.
    """
    table = "".join(f"{rec.title_id} {len(rec.vectors)}\n" for rec in store.records).encode("utf-8")
    blocks = [np.ascontiguousarray(rec.vectors, dtype="<f8") for rec in store.records]
    digest = hashlib.sha256(table)
    for block in blocks:
        digest.update(block)
    header = f"ipod-emb v2 {store.dim} {len(blocks)} {digest.hexdigest()[:16]}\n"
    with Path(path).open("wb") as fh:
        fh.write(header.encode("ascii"))
        fh.write(table)
        for block in blocks:
            fh.write(block)


def read_embeddings(path) -> EmbeddingStore:
    """Read a `.emb` file, v2 (see write_embeddings) or the older v1 text.

    Any malformed file, including bytes that are not UTF-8 where text is
    expected, raises FormatError naming the path. The v2 reader checks the
    block's size against the file's before it allocates, so a v2 file must
    be a regular file; a v1 file may also be a pipe.
    """
    path = Path(path)
    with path.open("rb") as fh:
        first = fh.readline(_HEADER_LIMIT)
        if first.startswith(b"ipod-emb v2 "):
            return _read_v2(path, fh, first)
        text = _decode(path, first + fh.read())
    return _read_v1(path, text)


def _decode(path: Path, data: bytes) -> str:
    """UTF-8 text with universal newlines, as Path.read_text returns it."""
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise FormatError(f"not UTF-8 text: {exc.reason}", path=str(path), line=line) from None
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_v2(path: Path, fh, first: bytes) -> EmbeddingStore:
    """Check the header, the table and the block size before allocating,
    then read the block into one array and check the hash."""
    header = first[:-1].split(b" ") if first.endswith(b"\n") else []
    if (len(header) != 5 or not header[2].isdigit() or not header[3].isdigit()
            or int(header[2]) < 1):
        raise FormatError(f"bad header {first[:80]!r}", path=str(path))
    dim, n_records = int(header[2]), int(header[3])
    pos = len(first)
    digest = hashlib.sha256()
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


def _read_v1(path: Path, text: str) -> EmbeddingStore:
    """The v1 text store: header `ipod-emb v1 {dim} {hash}`, then per record
    a line `{id} {n}` and n lines of dim repr() floats; the hash covers
    everything after the header."""
    newline = text.find("\n")
    if newline < 0:
        raise FormatError("missing header line", path=str(path))
    header = text[:newline].split(" ")
    if len(header) != 4 or header[0] != "ipod-emb" or header[1] != "v1":
        raise FormatError(f"bad header {text[:newline]!r}", path=str(path))
    try:
        dim = int(header[2])
    except ValueError:
        dim = 0
    if dim < 1:
        raise FormatError(f"bad dimension {header[2]!r}", path=str(path))
    body = text[newline + 1 :]
    digest = hashlib.sha256(body.encode("utf-8")).hexdigest()[:16]
    if digest != header[3]:
        raise FormatError(
            f"content hash mismatch: header says {header[3]}, body hashes to {digest}",
            path=str(path),
        )
    records: list[TitleVectors] = []
    lines = body.splitlines()
    pos = 0
    while pos < len(lines):
        head = lines[pos].split(" ")
        if len(head) != 2:
            raise FormatError(f"bad record header {lines[pos]!r}", path=str(path), line=pos + 2)
        title_id, count_text = head
        try:
            count = int(count_text)
        except ValueError:
            count = 0
        if count < 1:
            raise FormatError(f"bad token count {count_text!r}", path=str(path), line=pos + 2)
        if pos + count >= len(lines):
            raise FormatError(f"record {title_id!r} is truncated", path=str(path), line=pos + 2)
        rows = []
        for k in range(count):
            values = lines[pos + 1 + k].split(" ")
            if len(values) != dim:
                raise FormatError(
                    f"expected {dim} values, got {len(values)}", path=str(path), line=pos + 3 + k
                )
            try:
                rows.append([float(v) for v in values])
            except ValueError as exc:
                raise FormatError(f"bad value: {exc}", path=str(path), line=pos + 3 + k) from None
        records.append(TitleVectors(title_id=title_id, vectors=np.array(rows)))
        pos += 1 + count
    return EmbeddingStore(dim=dim, records=records)


def nearest_titles(
    store: EmbeddingStore, query: np.ndarray, k: int
) -> list[tuple[str, float]]:
    """Top-k titles by cosine similarity of mean-pooled vectors.

    The query may be a single vector or per-token vectors (mean-pooled
    here). Ties keep insertion order; asking for more neighbors than the
    store holds returns everything.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim == 2:
        query = query.mean(axis=0)
    if query.shape != (store.dim,):
        raise ValueError(f"query has shape {query.shape}, store dimension is {store.dim}")
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    pooled = store.pooled()
    if len(store.records) == 0:
        return []
    qnorm = float(np.linalg.norm(query))
    norms = np.linalg.norm(pooled, axis=1)
    sims = np.zeros(len(store.records))
    valid = (norms > 0) & (qnorm > 0)
    if qnorm > 0:
        sims[valid] = (pooled[valid] @ query) / (norms[valid] * qnorm)
    ranked = np.argsort(-sims, kind="stable")[: min(k, len(store.records))]
    return [(store.records[int(i)].title_id, float(sims[int(i)])) for i in ranked]
