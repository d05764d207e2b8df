"""Linear-chain CRF tagger with template features, exact inference and SGD.

Scores decompose into per-position emission features times label weights
plus label-transition, start and stop weights. The partition function uses
the forward recursion, each step one small matrix product in exp space with
per-row rescaling; gradients come from forward-backward marginals. The same
class doubles as the logistic-regression baseline: with the transition block
pinned at zero the path score factorizes per token and Viterbi degenerates
to a per-position argmax.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from . import model_io
from .gazetteer import Gazetteer
from .labeling import ALL_LABELS, LABEL_STRINGS, N_LABELS, BioesLabel, LabeledSequence
from .lstm import length_groups
from .optim import TrainConfig, fit

UNK_TOKEN = "<unk>"
_BOS = "<s>"
_EOS = "</s>"

# Most sequences decoded in one batch: bounds the memory of a batched decode
# when many sequences share a length.
DECODE_CHUNK = 128


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
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray
) -> tuple[np.ndarray, np.ndarray, float]:
    """Log forward scores alphas[..., t, y], plus exp(trans - shift) and the
    shift (the largest transition weight if finite, else 0) for the backward pass."""
    shift = float(trans.max())
    shift = shift if np.isfinite(shift) else 0.0
    exp_trans = np.exp(trans - shift)
    alphas = np.empty_like(emissions)
    alphas[..., 0, :] = start + emissions[..., 0, :]
    for t in range(1, emissions.shape[-2]):
        alphas[..., t, :] = (
            _log_matmul(alphas[..., t - 1, :], exp_trans, shift) + emissions[..., t, :]
        )
    return alphas, exp_trans, shift


def log_partition_scores(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> np.ndarray:
    """Log-sum over all label paths; emissions may carry leading batch axes."""
    with np.errstate(divide="ignore"):
        alphas, _, _ = _forward(emissions, trans, start)
    return _logsumexp(alphas[..., -1, :] + stop, axis=-1)


def sequence_marginals(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Forward-backward pass.

    Returns (logZ, unary, pairwise) where unary[..., t, y] is the posterior
    of label y at position t and pairwise[..., t, y, y'] the posterior of
    the transition y -> y' between positions t and t+1.
    """
    T = emissions.shape[-2]
    with np.errstate(divide="ignore"):
        alphas, exp_trans, shift = _forward(emissions, trans, start)
        betas = np.empty_like(emissions)
        betas[..., T - 1, :] = stop
        for t in range(T - 2, -1, -1):
            betas[..., t, :] = _log_matmul(
                emissions[..., t + 1, :] + betas[..., t + 1, :], exp_trans.T, shift
            )
    logz = _logsumexp(alphas[..., T - 1, :] + stop, axis=-1)
    unary = np.exp(alphas + betas - np.asarray(logz)[..., None, None])
    pairwise = np.exp(
        alphas[..., :-1, :, None]
        + trans
        + (emissions[..., 1:, :] + betas[..., 1:, :])[..., None, :]
        - np.asarray(logz)[..., None, None, None]
    )
    return logz, unary, pairwise


def crf_nll(
    emissions: np.ndarray, ys: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> tuple[float, dict[str, np.ndarray]]:
    """Negative log-likelihood of the gold paths ys (B, T) under the
    emissions (B, T, L) of equal-length sequences, summed over the batch.

    Returns (loss, grads) with grads keyed "emissions", "trans", "start" and
    "stop": expected minus gold counts, the transition, start and stop ones
    summed over the batch.
    """
    B, T, _ = emissions.shape
    logz, unary, pairwise = sequence_marginals(emissions, trans, start, stop)
    b_idx = np.arange(B)[:, None]
    t_idx = np.arange(T)[None, :]
    gold = start[ys[:, 0]] + stop[ys[:, -1]] + emissions[b_idx, t_idx, ys].sum(axis=1)
    if T > 1:
        gold += trans[ys[:, :-1], ys[:, 1:]].sum(axis=1)
    loss = float((logz - gold).sum())
    dtrans = pairwise.sum(axis=(0, 1))
    if T > 1:
        np.subtract.at(dtrans, (ys[:, :-1].ravel(), ys[:, 1:].ravel()), 1.0)
    dstart = unary[:, 0, :].sum(axis=0)
    np.subtract.at(dstart, ys[:, 0], 1.0)
    dstop = unary[:, -1, :].sum(axis=0)
    np.subtract.at(dstop, ys[:, -1], 1.0)
    # reuse the posterior buffer for the emission gradient
    demis = unary
    demis[b_idx, t_idx, ys] -= 1.0
    return loss, {"emissions": demis, "trans": dtrans, "start": dstart, "stop": dstop}


def path_score(
    emissions: np.ndarray,
    trans: np.ndarray,
    start: np.ndarray,
    stop: np.ndarray,
    path: Sequence[int],
) -> float:
    """Unnormalized log score of one label path for a single sequence."""
    idx = np.asarray(path, dtype=np.int64)
    score = float(start[idx[0]] + stop[idx[-1]])
    score += float(emissions[np.arange(len(idx)), idx].sum())
    if len(idx) > 1:
        score += float(trans[idx[:-1], idx[1:]].sum())
    return score


def viterbi_path(
    emissions: np.ndarray, trans: np.ndarray, start: np.ndarray, stop: np.ndarray
) -> list[int] | np.ndarray:
    """Highest-scoring label path; ties resolve toward the lowest label index.

    emissions is (T, L) for one sequence, which gives a list of label ids, or
    (B, T, L) for a batch of equal-length sequences, which gives a (B, T) id
    array. A batch row does the same adds and argmaxes as the one-sequence
    call on that row, so the two give equal paths.
    """
    single = emissions.ndim == 2
    emis = emissions[None] if single else emissions
    B, T, L = emis.shape
    rows = np.arange(B)
    back = np.empty((T, B, L), dtype=np.int64)
    score = start + emis[:, 0]
    for t in range(1, T):
        cand = score[:, :, None] + trans
        back[t] = np.argmax(cand, axis=1)
        score = cand[rows[:, None], back[t], np.arange(L)] + emis[:, t]
    path = np.empty((B, T), dtype=np.int64)
    path[:, -1] = np.argmax(score + stop, axis=1)
    for t in range(T - 1, 0, -1):
        path[:, t - 1] = back[t, rows, path[:, t]]
    return path[0].tolist() if single else path


def decode_in_chunks(seqs: Sequence[Sequence[str]], chunk_paths) -> list[tuple[BioesLabel, ...]]:
    """Labels of each sequence, in input order, decoded in chunks.

    seqs is split into chunks of at most DECODE_CHUNK equal-length sequences;
    chunk_paths(chunk) gets the positions of one chunk in seqs and returns
    their label ids as a (len(chunk), T) array.
    """
    if not all(seqs):
        raise ValueError("empty token sequence")
    out: list = [None] * len(seqs)
    for chunk in length_groups(seqs, DECODE_CHUNK):
        for j, path in zip(chunk, chunk_paths(chunk).tolist()):
            out[j] = tuple(ALL_LABELS[i] for i in path)
    return out


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
        grown = np.zeros((cap, N_LABELS))
        grown[: self._emit.shape[0]] = self._emit
        self._emit = grown

    def featurize(self, tokens: Sequence[str], extend: bool = False) -> list[list[int]]:
        """Feature ids per position; extend=True registers unseen features.

        On a frozen vocab unseen features are silently ignored either way,
        which is the documented inference behavior.
        """
        rows = []
        for i in range(len(tokens)):
            ids = []
            for feature in extract_features(tokens, i, self.gazetteer):
                fid = self.vocab.add(feature) if extend else self.vocab.get(feature)
                if fid is not None:
                    ids.append(fid)
            rows.append(ids)
        if extend:
            self._ensure_capacity(len(self.vocab))
        return rows

    def emissions(self, tokens: Sequence[str], feature_ids: list[list[int]] | None = None) -> np.ndarray:
        rows = feature_ids if feature_ids is not None else self.featurize(tokens)
        emis = np.zeros((len(rows), N_LABELS))
        for t, ids in enumerate(rows):
            if ids:
                emis[t] = self._emit[ids].sum(axis=0)
        return emis

    def predict(self, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
        return self.predict_many([tokens])[0]

    def predict_many(self, seqs: Sequence[Sequence[str]]) -> list[tuple[BioesLabel, ...]]:
        """Most probable labeling of each sequence, in input order.

        Emissions come per sequence (features are per sequence); Viterbi
        runs once per chunk of equal-length sequences.
        """
        def paths(chunk: list[int]) -> np.ndarray:
            emis = np.stack([self.emissions(seqs[j]) for j in chunk])
            return viterbi_path(emis, self.trans, self.start, self.stop)

        return decode_in_chunks(seqs, paths)

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


def log_partition(model: CrfModel, tokens: Sequence[str]) -> float:
    """Log partition function of the label lattice for one token sequence."""
    if not tokens:
        raise ValueError("empty token sequence")
    emis = model.emissions(tokens)
    return float(log_partition_scores(emis, model.trans, model.start, model.stop))


def nll_and_gradient(
    model: CrfModel, example: LabeledSequence, feature_ids: list[list[int]]
) -> tuple[float, dict]:
    """Negative log-likelihood of one example, featurized as feature_ids, and
    its exact gradient (crf_nll); emission rows come back sparse as
    {feature id: vector over labels}."""
    emis = model.emissions(example.tokens, feature_ids=feature_ids)
    ys = np.array([example.label_ids()], dtype=np.int64)
    loss, grad = crf_nll(emis[None], ys, model.trans, model.start, model.stop)
    demis = grad.pop("emissions")[0]
    emit_grad: dict[int, np.ndarray] = {}
    for ids, row in zip(feature_ids, demis):
        for fid in ids:
            seen = emit_grad.get(fid)
            if seen is None:
                emit_grad[fid] = row.copy()
            else:
                seen += row
    grad["emit"] = emit_grad
    return loss, grad


def viterbi_decode(model: CrfModel, tokens: Sequence[str]) -> tuple[BioesLabel, ...]:
    """Most probable BIOES labeling of a token sequence (model.predict)."""
    return model.predict(tokens)


def apply_word_dropout(tokens: Sequence[str], p: float, rng: np.random.Generator) -> tuple[str, ...]:
    """Replace each token with the unknown sentinel with probability p."""
    if p <= 0.0:
        return tuple(tokens)
    return tuple(UNK_TOKEN if rng.random() < p else tok for tok in tokens)


_DENSE = ("trans", "start", "stop")


class _Sgd:
    def __init__(self, lr: float):
        self.lr = lr

    def apply(self, model: CrfModel, grad: dict, scale: float, update_transitions: bool):
        step = self.lr * scale
        for fid, g in grad["emit"].items():
            model._emit[fid] -= step * g
        if update_transitions:
            for name in _DENSE:
                param = getattr(model, name)
                param -= step * grad[name]


class _Adam:
    """Adam with lazy state updates on the sparse emission rows."""

    B1, B2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, lr: float, model: CrfModel):
        self.lr = lr
        self.t = 0
        self.m_emit = np.zeros_like(model._emit)
        self.v_emit = np.zeros_like(model._emit)
        self.dense = {
            name: (np.zeros_like(getattr(model, name)), np.zeros_like(getattr(model, name)))
            for name in _DENSE
        }

    def _grow(self, model: CrfModel) -> None:
        if self.m_emit.shape[0] < model._emit.shape[0]:
            for name in ("m_emit", "v_emit"):
                old = getattr(self, name)
                grown = np.zeros_like(model._emit)
                grown[: old.shape[0]] = old
                setattr(self, name, grown)

    def _step(self, param, grad, m, v, idx=None):
        b1, b2 = self.B1, self.B2
        bias1 = 1.0 - b1**self.t
        bias2 = 1.0 - b2**self.t
        if idx is None:
            m *= b1
            m += (1 - b1) * grad
            v *= b2
            v += (1 - b2) * grad * grad
            param -= self.lr * (m / bias1) / (np.sqrt(v / bias2) + self.EPS)
        else:
            m[idx] = b1 * m[idx] + (1 - b1) * grad
            v[idx] = b2 * v[idx] + (1 - b2) * grad * grad
            param[idx] -= self.lr * (m[idx] / bias1) / (np.sqrt(v[idx] / bias2) + self.EPS)

    def apply(self, model: CrfModel, grad: dict, scale: float, update_transitions: bool):
        self._grow(model)
        self.t += 1
        for fid, g in grad["emit"].items():
            self._step(model._emit, g * scale, self.m_emit, self.v_emit, idx=fid)
        if update_transitions:
            for name in _DENSE:
                self._step(getattr(model, name), grad[name] * scale, *self.dense[name])


def _run_training(
    model: CrfModel, data: list[LabeledSequence], cfg: TrainConfig, update_transitions: bool
) -> CrfModel:
    if not data:
        raise ValueError("no training data")
    rng = np.random.default_rng(cfg.seed)
    opt = _Adam(cfg.learning_rate, model) if cfg.optimizer == "adam" else _Sgd(cfg.learning_rate)
    acc: dict = {}

    def batch(indices: list[int]) -> tuple[float, int]:
        acc.update(emit={}, **{name: np.zeros_like(getattr(model, name)) for name in _DENSE})
        batch_loss = 0.0
        for j in indices:
            tokens = apply_word_dropout(data[j].tokens, cfg.word_dropout, rng)
            rows = model.featurize(tokens, extend=True)
            loss, grad = nll_and_gradient(model, data[j], feature_ids=rows)
            batch_loss += loss
            for fid, g in grad["emit"].items():
                seen = acc["emit"].get(fid)
                if seen is None:
                    acc["emit"][fid] = g
                else:
                    seen += g
            for name in _DENSE:
                acc[name] += grad[name]
        return batch_loss, len(indices)

    def update(scale: float) -> None:
        opt.apply(model, acc, scale, update_transitions)

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
    return _run_training(model, list(data), cfg, update_transitions=True)


def train_logreg(
    data: Sequence[LabeledSequence],
    cfg: TrainConfig = TrainConfig(),
    gazetteer: Gazetteer | None = None,
) -> CrfModel:
    """Train the per-token baseline: identical features, transitions stay zero."""
    model = CrfModel(kind="logreg", gazetteer=gazetteer)
    return _run_training(model, list(data), cfg, update_transitions=False)
