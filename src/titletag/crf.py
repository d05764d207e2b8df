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
first counts[t] (Appleyard et al. 2016, arXiv:1604.01946). Feature ids come
from per-slot caches kept in the FeatureVocab they index: one entry per
template that reads a token, per (previous, current) token pair, per
first/last position and per gazetteer tag value, so that a title whose
slots all have entries gets its ids without building a feature string.
Training runs each mini-batch as one such batch: one word-dropout draw for
the whole batch (the numbers one scalar draw per token would give), one
objective call over feature ids cached per post-dropout title and label
ids computed once per example, and an update of only the emission rows it
touches. Decoding cuts the length-sorted titles into chunks of bounded
padded size (lstm.sorted_chunks, decode_in_chunks): each chunk gets its
emissions in one call and its Viterbi paths in one packed call. The
layout's helpers (packed_steps, valid_mask, padded_layout, to_padded) live
in lstm, which the BiLSTM taggers and the biLM run on the same layout.
"""

from __future__ import annotations

import itertools
import struct
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


# The feature templates, in the order featurize lists a position's ids. Each
# of these reads one token at an offset from the position, with "<s>"/"</s>"
# sentinels past the title's ends (the normalizer strips angle brackets, so
# real tokens never collide with them), and gives its feature strings. The
# templates that follow them read the (previous, current) token pair, the
# first and the last position, and, when a gazetteer is given, the token's
# gazetteer tag. Each template's strings start with its own name, so no two
# templates give a position the same feature and its ids need no dedup.
_TOKEN_TEMPLATES = (
    (0, lambda tok: (f"w0={tok}",)),
    (-1, lambda tok: (f"w-1={tok}",)),
    (1, lambda tok: (f"w+1={tok}",)),
    (-2, lambda tok: (f"w-2={tok}",)),
    (2, lambda tok: (f"w+2={tok}",)),
    (0, lambda tok: tuple(f"{side}{k}={affix}" for k in (1, 2, 3) if len(tok) >= k
                          for side, affix in (("p", tok[:k]), ("s", tok[-k:])))),
)


def _pair_features(pair: tuple[str, str]) -> tuple[str, ...]:
    return ("w-1|w0={}|{}".format(*pair),)


def _edge_features(edge: str) -> tuple[str, ...]:
    return (edge,)  # "first" or "last"


def _tag_features(tag: str) -> tuple[str, ...]:
    return (f"gaz={tag}",)


# The slot entries of a token that has none yet.
_NO_SLOTS: dict = {}

# Packers of n native int32 ids, for every slot size n (at most the six affixes).
_INT32S = tuple(struct.Struct(f"={n}i") for n in range(7))


class FeatureVocab:
    """Dense feature-string -> id mapping; freezing rejects new features.

    It also caches the ids each feature template gives each key it reads,
    so that a title whose keys are all cached gets its ids without building
    a feature string (CRFsuite's attribute-id precomputation, Okazaki 2007).
    There is one cache per slot: per token, one entry for each template that
    reads it; one per (previous, current) token pair; one for each of the
    first and last positions; one per gazetteer tag value, so a model whose
    gazetteer is swapped reads no stale id. An entry holds, as int32 bytes,
    the ids of the slot's features that the vocab knows. It is stored only
    once final: when each of them is registered, or once the vocab is
    frozen.
    """

    def __init__(self) -> None:
        self._index: dict[str, int] = {}
        self._features: list[str] = []
        self.frozen = False
        self._token_slots: dict[str, dict[int, bytes]] = {}
        self._pair_slots: dict[tuple[str, str], bytes] = {}
        self._position_slots: dict[str, bytes] = {}
        self._tag_slots: dict[str, bytes] = {}

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

    def title_ids(
        self, tokens: Sequence[str], gazetteer: Gazetteer | None, extend: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """(ids, counts) of a title as CrfModel.featurize returns them.

        Each position's ids are its slots' entries joined in template order.
        A slot with no entry gets one from its feature strings (_entry),
        slot by slot in that order, so that the vocab registers features in
        the order in which featurizing one position after another names
        them: extend=True registers unseen features, and a slot's hits are
        features registered before.
        """
        lookup = self.add if extend else self.get
        pad = (_BOS, _BOS, *tokens, _EOS, _EOS)
        tags = None if gazetteer is None else [gazetteer.lookup(tok).value for tok in tokens]
        last = len(tokens) - 1
        pairs, edges, tag_slots = self._pair_slots, self._position_slots, self._tag_slots
        at = [self._token_slots.get(tok, _NO_SLOTS) for tok in pad]
        rows = []
        for i, (p2, p1, w, n1, n2, pair) in enumerate(
            zip(at, at[1:], at[2:], at[3:], at[4:], zip(pad[1:], pad[2:]))
        ):
            try:
                # the entries of _TOKEN_TEMPLATES, in order: offsets 0, -1, +1, -2, +2, 0
                row = w[0] + p1[1] + n1[2] + p2[3] + n2[4] + w[5]
            except KeyError:
                row = b""
                for r, (offset, features) in enumerate(_TOKEN_TEMPLATES):
                    tok = pad[i + 2 + offset]
                    row += self._entry(self._token_slots.setdefault(tok, {}), r, features, tok,
                                       lookup)
            hit = pairs.get(pair)
            row += self._entry(pairs, pair, _pair_features, pair, lookup) if hit is None else hit
            if i == 0:
                row += self._entry(edges, "first", _edge_features, "first", lookup)
            if i == last:
                row += self._entry(edges, "last", _edge_features, "last", lookup)
            if tags is not None:
                hit = tag_slots.get(tags[i])
                row += (self._entry(tag_slots, tags[i], _tag_features, tags[i], lookup)
                        if hit is None else hit)
            rows.append(row)
        return (np.frombuffer(b"".join(rows), np.int32).copy(),
                np.array([len(row) >> 2 for row in rows], np.int32))

    def _entry(self, slots: dict, key, features, source, lookup) -> bytes:
        """slots[key]; if it has none, the ids that lookup (add or get) gives
        the strings features(source), unknown ones left out, stored there
        once final."""
        hit = slots.get(key)
        if hit is None:
            found = list(map(lookup, features(source)))
            known = [fid for fid in found if fid is not None]
            hit = _INT32S[len(known)].pack(*known)
            if self.frozen or len(known) == len(found):
                slots[key] = hit
        return hit


# Floor of a row max used as a shift: subtracting it from a row that is all
# -inf then gives -inf, never NaN.
_LOWEST = np.finfo(np.float64).min


def _logsumexp(x: np.ndarray, axis: int) -> np.ndarray:
    """log(sum(exp(x))) along axis; a row that is all -inf gives -inf."""
    top = x.max(axis=axis, keepdims=True, initial=_LOWEST)
    with np.errstate(divide="ignore"):
        return np.log(np.exp(x - top).sum(axis=axis)) + np.squeeze(top, axis=axis)


def _log_matmul(scores: np.ndarray, exp_trans: np.ndarray, shift: float) -> np.ndarray:
    """log(exp(scores) @ exp(trans)) for exp_trans = exp(trans - shift): one
    small GEMM, each row rescaled by its max before leaving log space. A label
    no finite path reaches gets log(0) = -inf; callers silence that warning."""
    top = scores.max(axis=-1, keepdims=True, initial=_LOWEST)
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


def sequence_marginals(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray,
    pairwise: bool = True, counts=None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Forward-backward pass over (B, T, L) emissions.

    Returns (logZ, unary, pairwise): logZ[b] is the log-sum over all label
    paths of row b, unary[b, t, y] the posterior of label y at position t
    and pairwise[b, t, y, y'] the posterior of the transition y -> y'
    between positions t and t+1, or None when pairwise is false.

    counts, when given, are the per-step row counts of sequences sorted by
    length, longest first, and right-padded (as lstm.LstmCell.run takes
    them): step t of each recursion runs only the first counts[t] rows, a
    row's backward scores start from stop at its own last position, and
    logZ reads its forward scores there. Padded emission cells must be
    finite; every posterior of a padded position is exactly 0. Without
    counts every step runs all rows.
    """
    B, T, L = emissions.shape
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
    valid = valid_mask(rows, B)
    last = valid.sum(axis=1) - 1
    logz = _logsumexp(alphas[np.arange(B), last] + stop, axis=-1)
    unary = np.exp(alphas + betas - logz[:, None, None])
    if not pairwise:
        return logz, unary, None
    # the transitions inside a sequence, in place in one (N, L, L) buffer,
    # scattered into zeros: the padded ones stay exactly 0
    b_at, t_at = np.nonzero(valid[:, 1:])
    cells = alphas[b_at, t_at][:, :, None] + trans
    cells += (emissions[b_at, t_at + 1] + betas[b_at, t_at + 1])[:, None, :]
    cells -= logz[b_at, None, None]
    pairwise = np.zeros((B, T - 1, L, L))
    pairwise[b_at, t_at] = np.exp(cells, out=cells)
    return logz, unary, pairwise


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
) -> np.ndarray:
    """(B, T) highest-scoring label paths of (B, T, L) emissions; ties
    resolve toward the lowest label index.

    Without counts the batch holds equal-length sequences. With counts it
    holds sequences sorted by length, longest first, and right-padded, with
    counts[t] rows inside their sequence at step t: a finished row keeps its
    score and gets identity backpointers, so its path repeats its last label
    over the padding. A row does the same adds and argmaxes in any batch, so
    its path does not depend on the other rows.
    """
    B, T, L = emissions.shape
    rows, _ = packed_steps(counts, B, T)
    batch, labels = np.arange(B), np.arange(L)
    back = np.empty((T, B, L), dtype=np.int64)
    score = start + emissions[:, 0]
    for t in range(1, T):
        r = rows[t]
        cand = score[:r, :, None] + trans
        back[t, :r] = np.argmax(cand, axis=1)
        back[t, r:] = labels
        score[:r] = cand[batch[:r, None], back[t, :r], labels] + emissions[:r, t]
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(score + stop, axis=1)
    for t in range(T - 1, 0, -1):
        path[:, t - 1] = back[t, batch, path[:, t]]
    return path


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
    ):
        if kind not in ("crf", "logreg"):
            raise ValueError(f"kind must be 'crf' or 'logreg', got {kind!r}")
        self.kind = kind
        self.gazetteer = gazetteer
        self.vocab = vocab if vocab is not None else FeatureVocab()
        # grown by doubling as featurize registers features (_ensure_capacity)
        self._emit = np.zeros((max(len(self.vocab), 1), N_LABELS))
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
        has, read from the vocab's slot caches (FeatureVocab.title_ids).
        extend=True registers unseen features.

        On a frozen vocab unseen features are silently ignored either way,
        which is the documented inference behavior.
        """
        ids, counts = self.vocab.title_ids(tokens, self.gazetteer, extend)
        if extend:
            self._ensure_capacity(len(self.vocab))
        return ids, counts

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
                    vocab=vocab)
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
    model: CrfModel, labels: Sequence[np.ndarray], ids: np.ndarray, counts: np.ndarray
) -> tuple[float, dict]:
    """Negative log-likelihood of examples of any lengths, sorted by length,
    longest first, summed, and its exact gradient: one crf_nll call on
    their right-padded emissions with per-step row counts.

    labels holds each example's label ids (LabeledSequence.label_ids), and
    (ids, counts) its feature ids (featurize of every example, concatenated
    in order). grads["emit"] is (touched, rows): the distinct feature ids,
    ascending, and the gradient row of each; a "crf" model also gets
    grads["trans"], grads["start"] and grads["stop"].
    """
    valid, steps = padded_layout(labels)
    emis = to_padded(model.emission_rows(ids, counts), valid)
    ys = to_padded(np.concatenate(labels), valid)
    loss, grad = crf_nll(emis, ys, model.trans, model.start, model.stop,
                         transitions=model.kind == "crf", counts=steps)
    demis = grad.pop("emissions")[valid]
    grad["emit"] = _sum_rows(ids, np.repeat(demis, counts, axis=0))
    return loss, grad


def viterbi_decode(model: CrfModel, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
    """Most probable BIOES labeling of a token sequence (model.predict)."""
    return model.predict(tokens)


def apply_word_dropout(
    token_seqs: Sequence[Sequence[str]], p: float, rng: np.random.Generator
) -> list[tuple[str, ...]]:
    """Each token sequence with each token replaced by the unknown sentinel
    with probability p: one rng.random call draws one number per token, in
    order, the same numbers that one scalar draw per token gives."""
    if p <= 0.0:
        return [tuple(tokens) for tokens in token_seqs]
    drops = (rng.random(sum(map(len, token_seqs))) < p).tolist()
    out, end = [], 0
    for tokens in token_seqs:
        start, end = end, end + len(tokens)
        out.append(tuple(UNK_TOKEN if drops[k] else tok for k, tok in enumerate(tokens, start))
                   if True in drops[start:end] else tuple(tokens))
    return out


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
    labels = [np.array(ex.label_ids()) for ex in data]
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
        dropped = apply_word_dropout([data[j].tokens for j in indices], cfg.word_dropout, rng)
        feats = [features(tokens) for tokens in dropped]
        # then run the batch longest first (stable), as nll_and_gradient takes it
        order = sorted(range(len(indices)), key=lambda k: -len(feats[k][1]))
        ids, counts = map(np.concatenate, zip(*(feats[k] for k in order)))
        loss, grad = nll_and_gradient(model, [labels[indices[k]] for k in order], ids, counts)
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
