"""Linear-chain CRF tagger with template features, exact inference and SGD.

Scores decompose into per-position emission features times label weights
plus label-transition, start and stop weights. The partition function uses
the forward recursion, each step one small matrix product in exp space with
per-row rescaling; gradients come from forward-backward marginals. The same
class doubles as the logistic-regression baseline: with the transition block
pinned at zero the path score factorizes per token and Viterbi degenerates
to a per-position argmax. The recursions take titles of any lengths in one
packed batch, as lstm.LstmCell.run does: right-padded, sorted by length,
longest first, so the rows still inside their title at step t are the
first counts[t] (Appleyard et al. 2016, arXiv:1604.01946). Training runs
each mini-batch as one such batch, one objective call over feature ids
cached per post-dropout title, and updates only the emission rows it
touches. Decoding cuts the length-sorted titles into chunks of bounded
padded size (lstm.sorted_chunks, decode_in_chunks): each chunk gets its
emissions in one call and its Viterbi paths in one packed call. The
layout's helpers (packed_steps, valid_mask, padded_layout, to_padded) live
in lstm, which the BiLSTM taggers and the biLM run on the same layout.
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from . import model_io
from .gazetteer import Gazetteer
from .labeling import ALL_LABELS, LABEL_STRINGS, N_LABELS, BioesLabel, LabeledSequence
from .lstm import packed_steps, padded_layout, sorted_chunks, to_padded, valid_mask
from .optim import TrainConfig, adam_step, fit

UNK_TOKEN = "<unk>"
_BOS = "<s>"
_EOS = "</s>"

# Most positions decoded in one chunk (lstm.sorted_chunks), each title counted as
# padded to the longest in its chunk. It bounds the memory of a batched
# decode: at 512 the largest buffer of an h=256 BiLSTM, its (T, B, 4h)
# float32 gates, takes 2 MB. Tagging the 400 titles of the tag-embed
# benchmark (seed 17) with such a model took 67-70 ms at 512, 70-73 ms at
# 384 and 68-69 ms at 640 (best of 25, one OpenBLAS thread of a 2-CPU
# x86-64 host), and chunks of up to 1024 tokens raised the benchmark's peak
# RSS by 6 MB.
DECODE_POSITIONS = 512


class FeatureVocab:
    """Dense feature-string -> id mapping; freezing rejects new features."""

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._features: list[str] = []
        self.frozen = False

    def __len__(self) -> int:
        return len(self._features)

    def add(self, feature: str) -> int | None:
        """Id of the feature, registering it unless the vocab is frozen."""
        fid = self._index.get(feature)
        if fid is None:
            if self.frozen:
                return None
            fid = len(self._features)
            self._index[feature] = fid
            self._features.append(feature)
        return fid

    def get(self, feature: str) -> int | None:
        return self._index.get(feature)

    def freeze(self) -> None:
        self.frozen = True

    @property
    def features(self) -> tuple[str, ...]:
        return tuple(self._features)

    @classmethod
    def from_features(cls, features: Sequence[str]) -> "FeatureVocab":
        vocab = cls()
        for feature in features:
            vocab.add(feature)
        return vocab


def extract_features(tokens: Sequence[str], i: int, gazetteer: Gazetteer | None = None) -> list[str]:
    """Feature strings for position i, deduplicated in a deterministic order.

    Window tokens use "<s>"/"</s>" sentinels beyond the boundaries; the
    normalizer strips angle brackets so real tokens can never collide with
    them. The gazetteer feature appears only when a gazetteer is given.
    """
    n = len(tokens)
    if not 0 <= i < n:
        raise IndexError(f"position {i} out of range for {n} tokens")
    tok = tokens[i]
    prev1 = tokens[i - 1] if i >= 1 else _BOS
    prev2 = tokens[i - 2] if i >= 2 else _BOS
    next1 = tokens[i + 1] if i + 1 < n else _EOS
    next2 = tokens[i + 2] if i + 2 < n else _EOS
    feats = [
        f"w0={tok}",
        f"w-1={prev1}",
        f"w+1={next1}",
        f"w-2={prev2}",
        f"w+2={next2}",
    ]
    for k in (1, 2, 3):
        if len(tok) >= k:
            feats.append(f"p{k}={tok[:k]}")
            feats.append(f"s{k}={tok[-k:]}")
    feats.append(f"w-1|w0={prev1}|{tok}")
    if i == 0:
        feats.append("first")
    if i == n - 1:
        feats.append("last")
    if gazetteer is not None:
        feats.append(f"gaz={gazetteer.lookup(tok).value}")
    return list(dict.fromkeys(feats))


# Floor of a row max used as a shift: subtracting it from a row that is all
# -inf then gives -inf, never NaN.
_LOWEST = np.finfo(np.float64).min


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis; a row that is all -inf gives -inf."""
    top = np.maximum(x.max(axis=axis, keepdims=True), _LOWEST)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis=axis)


def _log_matmul(scores: np.ndarray, exp_trans: np.ndarray, shift: float) -> np.ndarray:
    """log(exp(scores) @ exp(trans)) for exp_trans = exp(trans - shift): one
    small GEMM, each row rescaled by its max before leaving log space. A label
    no finite path reaches gets log(0) = -inf; callers silence that warning."""
    top = np.maximum(scores.max(axis=-1, keepdims=True), _LOWEST)
    return np.log(np.exp(scores - top) @ exp_trans) + (top + shift)


def _forward(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, rows: list[int]
) -> tuple[np.ndarray, np.ndarray, float]:
    """Log forward scores alphas[b, t, y] of (B, T, L) emissions, step t on
    its first rows[t] rows (padded cells hold log 0 = -inf), plus
    exp(trans - shift) and the shift (the largest transition weight if
    finite, else 0) for the backward pass."""
    shift = float(trans.max())
    shift = shift if np.isfinite(shift) else 0.0
    exp_trans = np.exp(trans - shift)
    alphas = np.full_like(emissions, -np.inf)
    alphas[:, 0] = start + emissions[:, 0]
    for t in range(1, emissions.shape[1]):
        r = rows[t]
        alphas[:r, t] = _log_matmul(alphas[:r, t - 1], exp_trans, shift) + emissions[:r, t]
    return alphas, exp_trans, shift


def _batched(emissions: np.ndarray) -> np.ndarray:
    """emissions (..., T, L) with its leading axes folded into one batch axis.
    Results unfold with .reshape(leading axes)[()], a scalar for one sequence."""
    return emissions.reshape((-1,) + emissions.shape[-2:])


def log_partition_scores(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """Log-sum over all label paths; emissions may carry leading batch axes."""
    emis = _batched(emissions)
    with np.errstate(divide="ignore"):
        alphas, _, _ = _forward(emis, trans, start, [len(emis)] * emis.shape[1])
    return _logsumexp(alphas[:, -1] + stop, axis=-1).reshape(emissions.shape[:-2])[()]


def sequence_marginals(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray,
    pairwise: bool = True, counts=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Forward-backward pass.

    Returns (logZ, unary, pairwise) where unary[..., t, y] is the posterior
    of label y at position t and pairwise[..., t, y, y'] the posterior of
    the transition y -> y' between positions t and t+1, or None when
    pairwise is false.

    counts, when given, are the per-step row counts of (B, T, L) emissions
    of sequences sorted by length, longest first, and right-padded (as
    lstm.LstmCell.run takes them): step t of each recursion runs only the
    first counts[t] rows, a row's backward scores start from stop at its
    own last position, and logZ reads its forward scores there. Padded
    emission cells must be finite; every posterior of a padded position is
    exactly 0. Without counts every step runs all rows.
    """
    lead, (T, L) = emissions.shape[:-2], emissions.shape[-2:]
    emissions = _batched(emissions)
    B = len(emissions)
    rows, _ = packed_steps(counts, B, T)
    with np.errstate(divide="ignore"):
        alphas, exp_trans, shift = _forward(emissions, trans, start, rows)
        betas = np.full_like(emissions, -np.inf)
        betas[: rows[-1], T - 1] = stop
        for t in range(T - 2, -1, -1):
            r = rows[t + 1]
            betas[:r, t] = _log_matmul(
                emissions[:r, t + 1] + betas[:r, t + 1], exp_trans.T, shift
            )
            # the rows whose last position is t
            betas[r : rows[t], t] = stop
    last = valid_mask(rows, B).sum(axis=1) - 1
    z = _logsumexp(alphas[np.arange(B), last] + stop, axis=-1)
    logz = z.reshape(lead)[()]
    unary = np.exp(alphas + betas - z[:, None, None]).reshape(lead + (T, L))
    if not pairwise:
        return logz, unary, None
    # in place: one (B, T-1, L, L) buffer
    pairwise = alphas[:, :-1, :, None] + trans
    pairwise += (emissions[:, 1:] + betas[:, 1:])[..., None, :]
    pairwise -= z[:, None, None, None]
    return logz, unary, np.exp(pairwise, out=pairwise).reshape(lead + (T - 1, L, L))


def crf_nll(
    emissions: np.ndarray, ys: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray,
    transitions: bool = True, counts=None,
) -> tuple[float, dict[str, np.ndarray]]:
    """Negative log-likelihood of the gold paths ys (B, T) under the
    emissions (B, T, L), summed over the batch.

    Without counts the B sequences have length T. With counts they are
    sorted by length, longest first, and right-padded, with counts[t] rows
    inside their sequence at step t (sequence_marginals); the padded cells
    of ys must hold label ids, and they add nothing.

    Returns (loss, grads): expected minus gold counts, grads["emissions"]
    per position (exactly 0 at padded ones) and, when transitions is true
    (for callers that train them), grads["trans"], grads["start"] and
    grads["stop"] summed over the batch.
    """
    B, T, _ = emissions.shape
    logz, unary, pairwise = sequence_marginals(emissions, trans, start, stop, transitions, counts)
    valid = valid_mask(packed_steps(counts, B, T)[0], B)
    pairs = valid[:, 1:]  # transitions inside a sequence
    b_idx = np.arange(B)
    last = valid.sum(axis=1) - 1
    y_last = ys[b_idx, last]
    gold = (start[ys[:, 0]] + stop[y_last]
            + np.where(valid, emissions[b_idx[:, None], np.arange(T), ys], 0.0).sum(axis=1))
    if T > 1:
        gold += np.where(pairs, trans[ys[:, :-1], ys[:, 1:]], 0.0).sum(axis=1)
    loss = float((logz - gold).sum())
    grads = {}
    if transitions:
        dtrans = pairwise.sum(axis=(0, 1))
        if T > 1:
            np.subtract.at(dtrans, (ys[:, :-1][pairs], ys[:, 1:][pairs]), 1.0)
        dstart = unary[:, 0, :].sum(axis=0)
        np.subtract.at(dstart, ys[:, 0], 1.0)
        dstop = unary[b_idx, last].sum(axis=0)
        np.subtract.at(dstop, y_last, 1.0)
        grads.update(trans=dtrans, start=dstart, stop=dstop)
    # reuse the posterior buffer for the emission gradient
    demis = unary
    b_at, t_at = np.nonzero(valid)
    demis[b_at, t_at, ys[b_at, t_at]] -= 1.0
    grads["emissions"] = demis
    return loss, grads


def viterbi_path(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray, counts=None
) -> list[int] | np.ndarray:
    """Highest-scoring label path; ties resolve toward the lowest label index.

    emissions is (T, L) for one sequence, which gives a list of label ids, or
    (B, T, L) for a batch, which gives a (B, T) id array. Without counts the
    batch holds equal-length sequences. With counts it holds sequences
    sorted by length, longest first, and right-padded, with counts[t] rows
    inside their sequence at step t: a finished row keeps its score and
    gets identity backpointers, so its path repeats its last label over the
    padding. A batch row does the same adds and argmaxes as the
    one-sequence call on that row, so the two give equal paths.
    """
    single = emissions.ndim == 2
    emis = emissions[None] if single else emissions
    B, T, L = emis.shape
    rows, _ = packed_steps(counts, B, T)
    batch, labels = np.arange(B), np.arange(L)
    back = np.empty((T, B, L), dtype=np.int64)
    score = start + emis[:, 0]
    for t in range(1, T):
        r = rows[t]
        cand = score[:r, :, None] + trans
        back[t, :r] = np.argmax(cand, axis=1)
        back[t, r:] = labels
        score[:r] = cand[batch[:r, None], back[t, :r], labels] + emis[:r, t]
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(score + stop, axis=1)
    for t in range(T - 1, 0, -1):
        path[:, t - 1] = back[t, batch, path[:, t]]
    return path[0].tolist() if single else path


def decode_in_chunks(
    seqs: Sequence[Sequence[str]], chunk_emissions, trans: np.ndarray, start: np.ndarray,
    stop: np.ndarray,
) -> list[tuple[BioesLabel, ...]]:
    """Viterbi labels of each sequence, in input order, decoded in chunks.

    chunk_emissions(chunk) gets the token sequences of one chunk of
    sorted_chunks(seqs, DECODE_POSITIONS) and returns their emissions as
    one (total length, L) array in chunk order. Each chunk is decoded with
    one viterbi_path call under trans, start and stop, on its emissions
    right-padded with the chunk's per-step row counts.
    """
    if not all(seqs):
        raise ValueError("empty token sequence")
    out: list = [None] * len(seqs)
    for chunk in sorted_chunks(seqs, DECODE_POSITIONS):
        tokens = [seqs[j] for j in chunk]
        valid, counts = padded_layout(tokens)
        paths = viterbi_path(to_padded(chunk_emissions(tokens), valid), trans, start, stop, counts)
        for j, toks, path in zip(chunk, tokens, paths.tolist()):
            out[j] = tuple(ALL_LABELS[i] for i in path[: len(toks)])
    return out


def _pad_rows(a: np.ndarray, rows: int) -> np.ndarray:
    """a with zero rows appended up to the given row count."""
    grown = np.zeros((rows,) + a.shape[1:])
    grown[: len(a)] = a
    return grown


class CrfModel:
    """Feature-based linear-chain tagger; kind "logreg" pins transitions at zero."""

    def __init__(
        self,
        kind: str = "crf",
        gazetteer: Gazetteer | None = None,
        vocab: FeatureVocab | None = None,
        capacity: int = 1024,
    ):
        if kind not in ("crf", "logreg"):
            raise ValueError(f"kind must be 'crf' or 'logreg', got {kind!r}")
        self.kind = kind
        self.gazetteer = gazetteer
        self.vocab = vocab if vocab is not None else FeatureVocab()
        rows = max(capacity, len(self.vocab), 1)
        self._emit = np.zeros((rows, N_LABELS))
        self.trans = np.zeros((N_LABELS, N_LABELS))
        self.start = np.zeros(N_LABELS)
        self.stop = np.zeros(N_LABELS)
        self.history: list[float] = []

    @property
    def emission_weights(self) -> np.ndarray:
        return self._emit[: len(self.vocab)]

    def _ensure_capacity(self, n: int) -> None:
        cap = self._emit.shape[0]
        if n <= cap:
            return
        while cap < n:
            cap *= 2
        self._emit = _pad_rows(self._emit, cap)

    def featurize(
        self, tokens: Sequence[str], extend: bool = False
    ) -> tuple[np.ndarray, np.ndarray]:
        """Feature ids as (ids, counts): the ids of every position in one flat
        int32 array, in position order, and how many of them each position
        has. extend=True registers unseen features.

        On a frozen vocab unseen features are silently ignored either way,
        which is the documented inference behavior.
        """
        lookup = self.vocab.add if extend else self.vocab.get
        rows = [[fid for fid in map(lookup, extract_features(tokens, i, self.gazetteer))
                 if fid is not None] for i in range(len(tokens))]
        if extend:
            self._ensure_capacity(len(self.vocab))
        ids = np.array([fid for row in rows for fid in row], dtype=np.int32)
        return ids, np.array([len(row) for row in rows], dtype=np.int32)

    def emission_rows(self, ids: np.ndarray, counts: np.ndarray) -> np.ndarray:
        """(len(counts), L) emissions of the positions featurized as (ids,
        counts), possibly several titles concatenated: each position's weight
        rows summed in the order featurize lists its ids."""
        n = len(counts)
        return _sum_by(np.repeat(np.arange(n), counts), self._emit[ids], n)

    def emissions(self, tokens: Sequence[str]) -> np.ndarray:
        return self.emission_rows(*self.featurize(tokens))

    def predict(self, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
        return self.predict_many([tokens])[0]

    def predict_many(self, seqs: Sequence[Sequence[str]]) -> list[tuple[BioesLabel, ...]]:
        """Most probable labeling of each sequence, in input order.

        Each chunk (decode_in_chunks) is featurized title by title, then
        gets its emissions in one call per title length in it and its
        Viterbi paths in one call.
        """
        def chunk_emissions(chunk: list) -> np.ndarray:
            # One emission_rows call per title length: its (features, L)
            # temporaries then stay as small as when chunks held one length.
            runs = itertools.groupby(map(self.featurize, chunk), key=lambda f: len(f[1]))
            return np.concatenate([self.emission_rows(*map(np.concatenate, zip(*run)))
                                   for _, run in runs])

        return decode_in_chunks(seqs, chunk_emissions, self.trans, self.start, self.stop)

    def _arrays(self) -> dict[str, np.ndarray]:
        return {
            "emit": self.emission_weights,
            "trans": self.trans,
            "start": self.start,
            "stop": self.stop,
        }

    def save(self, path) -> None:
        meta = {
            "labels": list(LABEL_STRINGS),
            "features": list(self.vocab.features),
            "uses_gazetteer": self.gazetteer is not None,
        }
        model_io.save_model(path, self.kind, meta, self._arrays())

    @classmethod
    def load(cls, path, gazetteer: Gazetteer | None = None) -> "CrfModel":
        return cls.from_parsed(path, *model_io.load_model(path), gazetteer=gazetteer)

    @classmethod
    def from_parsed(
        cls, path, kind: str, meta: dict, arrays: dict, gazetteer: Gazetteer | None = None
    ) -> "CrfModel":
        """Build the model from an already parsed container (see model_io.load_model)."""
        if kind not in ("crf", "logreg"):
            raise ValueError(f"{path}: expected a crf or logreg model, found {kind!r}")
        model_io.check_meta(path, meta, {"labels": list, "features": list, "uses_gazetteer": bool})
        if list(meta["labels"]) != list(LABEL_STRINGS):
            raise ValueError(f"{path}: label set does not match this build")
        if meta["uses_gazetteer"] and gazetteer is None:
            raise ValueError(
                f"{path}: model was trained with gazetteer features; pass the gazetteer"
            )
        vocab = FeatureVocab.from_features(meta["features"])
        model = cls(kind=kind, gazetteer=gazetteer if meta["uses_gazetteer"] else None,
                    vocab=vocab, capacity=max(len(vocab), 1))
        model_io.fill_arrays(path, arrays, model._arrays())
        model.vocab.freeze()
        return model


def _sum_by(index: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    """(n, L) sums of the (N, L) rows by their index in [0, n), each sum
    added in input order: one bincount over (index, column) pairs."""
    L = rows.shape[1]
    pairs = (index * L)[:, None] + np.arange(L)
    return np.bincount(pairs.ravel(), weights=rows.ravel(), minlength=n * L).reshape(n, L)


def _sum_rows(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct ids, ascending, and for each the sum of its rows."""
    slot = np.bincount(ids)
    touched = np.flatnonzero(slot)
    slot[touched] = np.arange(len(touched))
    return touched, _sum_by(slot[ids], rows, len(touched))


def nll_and_gradient(
    model: CrfModel, examples: Sequence[LabeledSequence], ids: np.ndarray, counts: np.ndarray
) -> tuple[float, dict]:
    """Negative log-likelihood of examples of any lengths, sorted by length,
    longest first, summed, and its exact gradient: one crf_nll call on
    their right-padded emissions with per-step row counts.

    The examples are featurized as (ids, counts) (featurize of every
    example, concatenated in order). grads["emit"] is (touched, rows): the
    distinct feature ids, ascending, and the gradient row of each; a "crf"
    model also gets grads["trans"], grads["start"] and grads["stop"].
    """
    valid, steps = padded_layout([ex.tokens for ex in examples])
    emis = to_padded(model.emission_rows(ids, counts), valid)
    ys = to_padded(np.concatenate([ex.label_ids() for ex in examples]), valid)
    loss, grad = crf_nll(emis, ys, model.trans, model.start, model.stop,
                         transitions=model.kind == "crf", counts=steps)
    demis = grad.pop("emissions")[valid]
    grad["emit"] = _sum_rows(ids, np.repeat(demis, counts, axis=0))
    return loss, grad


def viterbi_decode(model: CrfModel, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
    """Most probable BIOES labeling of a token sequence (model.predict)."""
    return model.predict(tokens)


def apply_word_dropout(tokens: Sequence[str], p: float, rng: np.random.Generator) -> tuple[str, ...]:
    """Replace each token with the unknown sentinel with probability p."""
    if p <= 0.0:
        return tuple(tokens)
    return tuple(UNK_TOKEN if rng.random() < p else tok for tok in tokens)


def _apply_step(model: CrfModel, grads: dict, scale: float, cfg: TrainConfig,
                moments: dict, t: int) -> None:
    """Step number t of cfg's optimizer on the parameters of model that
    grads names, each entry (idx, grad) the summed gradient of param[idx],
    applied times scale.

    moments holds Adam's (m, v) of each parameter, made at its first step
    and grown with it. Adam is lazy on the emission rows: only the rows in a
    step's idx change, moments included, since a dense step would decay the
    moments and weights of untouched rows.
    """
    for name, (idx, grad) in grads.items():
        param = getattr(model, name)
        if cfg.optimizer == "sgd":
            param[idx] -= cfg.learning_rate * scale * grad
            continue
        m, v = moments.get(name, (param[:0], param[:0]))
        if len(m) < len(param):
            m, v = moments[name] = _pad_rows(m, len(param)), _pad_rows(v, len(param))
        p, m_rows, v_rows = param[idx], m[idx], v[idx]
        adam_step(p, grad * scale, m_rows, v_rows, t, cfg.learning_rate)
        param[idx], m[idx], v[idx] = p, m_rows, v_rows


def _run_training(model: CrfModel, data: list[LabeledSequence], cfg: TrainConfig) -> CrfModel:
    if not data:
        raise ValueError("no training data")
    rng = np.random.default_rng(cfg.seed)
    # logreg pins trans/start/stop at zero, so only the CRF accumulates and updates them
    dense = ("trans", "start", "stop") if model.kind == "crf" else ()
    # (ids, counts) of each post-dropout token tuple seen in this run; only a
    # tuple's first featurizing can register features, so the vocab order is
    # the one that featurizing every title in every epoch gives
    cache: dict[tuple[str, ...], tuple[np.ndarray, np.ndarray]] = {}
    # the batch's gradients as _apply_step takes them
    acc: dict = {}
    moments: dict = {}
    steps = 0

    def features(tokens: tuple[str, ...]) -> tuple[np.ndarray, np.ndarray]:
        hit = cache.get(tokens)
        if hit is None:
            hit = cache[tokens] = model.featurize(tokens, extend=True)
        return hit

    def batch(indices: list[int]) -> tuple[float, int]:
        # draw dropout and featurize in batch order: it fixes the rng stream and vocab order
        feats = [features(apply_word_dropout(data[j].tokens, cfg.word_dropout, rng))
                 for j in indices]
        # then run the batch longest first (stable), as nll_and_gradient takes it
        order = sorted(range(len(indices)), key=lambda k: -len(feats[k][1]))
        ids, counts = map(np.concatenate, zip(*(feats[k] for k in order)))
        loss, grad = nll_and_gradient(model, [data[indices[k]] for k in order], ids, counts)
        acc["_emit"] = grad["emit"]
        acc.update({name: (..., grad[name]) for name in dense})
        return loss, len(indices)

    def update(scale: float) -> None:
        nonlocal steps
        steps += 1
        _apply_step(model, acc, scale, cfg, moments, steps)

    fit(model.kind, len(data), cfg, rng, batch, update, model.history)
    model.vocab.freeze()
    return model


def train_crf(
    data: Sequence[LabeledSequence],
    cfg: TrainConfig = TrainConfig(),
    gazetteer: Gazetteer | None = None,
) -> CrfModel:
    """Train the full CRF with seeded mini-batch updates and word dropout."""
    model = CrfModel(kind="crf", gazetteer=gazetteer)
    return _run_training(model, list(data), cfg)


def train_logreg(
    data: Sequence[LabeledSequence],
    cfg: TrainConfig = TrainConfig(),
    gazetteer: Gazetteer | None = None,
) -> CrfModel:
    """Train the per-token baseline: identical features, transitions stay zero."""
    model = CrfModel(kind="logreg", gazetteer=gazetteer)
    return _run_training(model, list(data), cfg)
