"""Shared fixtures and independent reference implementations.

The reference helpers here deliberately avoid the library's own dynamic
programming and calculus: exact quantities come from exhaustive path
enumeration and central finite differences, so the fast implementations
are checked against something that cannot share their bugs.
"""

import itertools

import numpy as np
import pytest
from hypothesis import settings

from titletag.gazetteer import sample_annotation_sets, sample_gazetteer
from titletag.title2vec import EMBED_BLOCK, BiLmModel, _bilm_batch

settings.register_profile("suite", deadline=None, max_examples=60)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def sample_sets():
    return sample_annotation_sets()


@pytest.fixture(scope="session")
def sample_gaz():
    return sample_gazetteer()


def enumerate_paths(n_positions: int, n_labels: int):
    return itertools.product(range(n_labels), repeat=n_positions)


def score_path(emissions, trans, start, stop, path) -> float:
    """Plain sum-of-terms score of one label path."""
    total = start[path[0]] + stop[path[-1]]
    for t, y in enumerate(path):
        total += emissions[t, y]
    for t in range(len(path) - 1):
        total += trans[path[t], path[t + 1]]
    return float(total)


def path_scores(emissions, trans, start, stop) -> np.ndarray:
    """score_path of every label path, in enumerate_paths (itertools.product)
    order, as one array: the paths are the rows of one int array, scored by
    fancy indexing with score_path's terms added in score_path's order."""
    T, L = emissions.shape
    index = np.arange(L ** T)
    paths = [index // L ** (T - 1 - t) % L for t in range(T)]  # position t of every path
    total = start[paths[0]] + stop[paths[-1]]
    for t in range(T):
        total += emissions[t, paths[t]]
    for t in range(T - 1):
        total += trans[paths[t], paths[t + 1]]
    return total


def brute_force_logz(emissions, trans, start, stop) -> float:
    """Partition function by summing exp(score) over every label path."""
    scores = path_scores(emissions, trans, start, stop)
    m = scores.max()
    return float(m + np.log(np.exp(scores - m).sum()))


def brute_force_best_path(emissions, trans, start, stop):
    """Argmax path by enumeration; ties resolve to the first (lowest) path.

    Paths are scored in itertools.product order, which is lexicographic, and
    argmax returns the first maximum, so the lowest-index rule holds.
    """
    T, L = emissions.shape
    scores = path_scores(emissions, trans, start, stop)
    best = int(np.argmax(scores))
    return [best // L ** (T - 1 - t) % L for t in range(T)], float(scores[best])


def extract_features(tokens, i: int, gazetteer=None) -> list:
    """Feature strings of position i, built template by template: the string
    path that CrfModel.featurize's cached ids must match.

    Window tokens use "<s>"/"</s>" sentinels beyond the boundaries. The
    gazetteer feature appears only when a gazetteer is given.
    """
    n = len(tokens)
    if not 0 <= i < n:
        raise IndexError(f"position {i} out of range for {n} tokens")
    tok = tokens[i]
    prev1 = tokens[i - 1] if i >= 1 else "<s>"
    prev2 = tokens[i - 2] if i >= 2 else "<s>"
    next1 = tokens[i + 1] if i + 1 < n else "</s>"
    next2 = tokens[i + 2] if i + 2 < n else "</s>"
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


def batch_nll(model, examples) -> float:
    """Eval-mode mean loss per sequence of an LstmCrfModel (no dropout, no gradients)."""
    if not examples:
        raise ValueError("no examples")
    total = model._batch_pass([ex.tokens for ex in examples],
                              [ex.label_ids() for ex in examples], None, None)
    return total / len(examples)


def batch_ce(model, token_sequences) -> float:
    """Mean cross-entropy per prediction of a BiLmModel over both directions
    (no gradients), scoring EMBED_BLOCK sequences per padded batch."""
    seqs = [model.vocab.ids(toks) for toks in token_sequences if len(toks)]
    if not seqs:
        raise ValueError("no non-empty sequences to score")
    total_ce = 0.0
    total_preds = 0
    for i in range(0, len(seqs), EMBED_BLOCK):
        ce, preds = _bilm_batch(model, seqs[i : i + EMBED_BLOCK], None)
        total_ce += ce
        total_preds += preds
    return total_ce / total_preds


def perplexity(model, corpus) -> float:
    """exp(mean per-prediction cross-entropy) of a BiLmModel over a corpus,
    both directions."""
    return float(np.exp(batch_ce(model, [t.tokens for t in corpus.titles])))


def as_float64(model):
    """Cast an LstmCrfModel or a BiLmModel to float64 in place and return it:
    every cell, the embedding table (a frozen biLM provider's too) and the
    biLM's output layers, which are float32. Central differences at eps=1e-5
    need float64 arithmetic; float32 would round them away."""
    model.fwd_cells = [cell.astype(np.float64) for cell in model.fwd_cells]
    model.bwd_cells = [cell.astype(np.float64) for cell in model.bwd_cells]
    if isinstance(model, BiLmModel):
        for name in ("embed", "fwd_out_W", "fwd_out_b", "bwd_out_W", "bwd_out_b"):
            setattr(model, name, getattr(model, name).astype(np.float64))
    elif model.provider.trainable:
        model.provider.table = model.provider.table.astype(np.float64)
    else:
        as_float64(model.provider.model)
    return model


def central_difference(f, param: np.ndarray, index, eps: float = 1e-5) -> float:
    """d f / d param[index] by symmetric perturbation."""
    old = param[index]
    param[index] = old + eps
    hi = f()
    param[index] = old - eps
    lo = f()
    param[index] = old
    return (hi - lo) / (2.0 * eps)


def scan_runs(coarse_tags):
    """Reference chunker: maximal runs of identical non-O tags, by scanning."""
    chunks = []
    i = 0
    n = len(coarse_tags)
    while i < n:
        tag = coarse_tags[i]
        if tag == "O":  # CoarseTag is a str enum
            i += 1
            continue
        j = i
        while j + 1 < n and coarse_tags[j + 1] == tag:
            j += 1
        chunks.append((tag, i, j))
        i = j + 1
    return chunks
