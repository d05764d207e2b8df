"""Batch decoding: predict_many labels a mixed-length set exactly as
one-title predict does, whatever the chunk bound, and its memory stays
bounded by one chunk."""

import tracemalloc
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from titletag import crf, neural
from titletag.corpus import synth_corpus
from titletag.crf import DECODE_POSITIONS, train_crf, train_logreg
from titletag.labeling import N_LABELS, auto_tag
from titletag.neural import LstmCrfModel, TrainableEmbeddings
from titletag.optim import TrainConfig
from titletag.title2vec import BiLmEmbeddings, BiLmModel, Vocab


@pytest.fixture(scope="module")
def data(sample_gaz):
    corpus = synth_corpus(sample_gaz, 5, 700)
    labeled = [auto_tag(title, sample_gaz) for title in corpus.titles]
    seqs = [ex.tokens for ex in labeled]
    seqs += [toks[:1] for toks in seqs[:20]]  # length-1 titles
    seqs.append(("never", "seen", "tokens"))
    return labeled, seqs


def _neural(kind, labeled, hidden=8, dim=4, seed=0, frozen=False):
    rng = np.random.default_rng(seed)
    vocab = Vocab.from_counts(Counter(tok for ex in labeled for tok in ex.tokens))
    if frozen:
        provider = BiLmEmbeddings(BiLmModel(vocab, dim, hidden=4, layers=1, rng=rng))
    else:
        provider = TrainableEmbeddings(vocab, dim, rng)
    model = LstmCrfModel(provider, hidden_size=hidden, layers=2, kind=kind, rng=rng)
    model.proj_W *= 100.0  # spread the emissions so that labels vary
    if kind == "lstm-crf":
        for weights in (model.trans, model.start, model.stop):
            weights[...] = rng.normal(scale=0.3, size=weights.shape)
    return model


@pytest.fixture(scope="module")
def models(data, sample_gaz):
    labeled, _ = data
    cfg = TrainConfig(epochs=1, seed=0)
    return {
        "crf": train_crf(labeled[:300], cfg, gazetteer=sample_gaz),
        "logreg": train_logreg(labeled[:300], cfg, gazetteer=sample_gaz),
        "lstm": _neural("lstm", labeled),
        "lstm-crf": _neural("lstm-crf", labeled),
        "lstm-crf-bilm": _neural("lstm-crf", labeled, frozen=True),
    }


def test_data_spans_length_one_and_a_group_over_the_chunk(data):
    _, seqs = data
    lengths = Counter(len(toks) for toks in seqs)
    assert lengths[1] > 0
    assert max(n * length for length, n in lengths.items()) > DECODE_POSITIONS
    assert len(lengths) > 3


@pytest.mark.parametrize("kind", ["crf", "logreg", "lstm", "lstm-crf", "lstm-crf-bilm"])
def test_predict_many_equals_per_title_predict(models, data, kind):
    model = models[kind]
    _, seqs = data
    got = model.predict_many(seqs)
    assert got == [model.predict(toks) for toks in seqs]
    assert len(set(got)) > 10  # the models do not label everything alike


def _spy(decode, seen: list):
    """decode_in_chunks that records (titles, positions) of each chunk whose
    emissions it asks for, and checks their shape."""
    def spied(seqs, chunk_emissions, *rest):
        def emissions(chunk):
            out = chunk_emissions(chunk)
            seen.append((len(chunk), sum(map(len, chunk))))
            assert out.shape == (seen[-1][1], N_LABELS)
            return out
        return decode(seqs, emissions, *rest)
    return spied


@settings(max_examples=20)
@given(lengths=st.lists(st.integers(1, 12), min_size=1, max_size=25),
       seed=st.integers(0, 2**16))
def test_labels_do_not_depend_on_the_chunk_bound(models, data, lengths, seed):
    labeled, _ = data
    vocab = sorted({tok for ex in labeled for tok in ex.tokens}) + ["never-seen"]
    rng = np.random.default_rng(seed)
    seqs = [tuple(rng.choice(vocab, size=n)) for n in lengths]
    for model in models.values():
        want = [model.predict(toks) for toks in seqs]
        for bound in (1, 5, DECODE_POSITIONS):
            seen: list = []
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(crf, "DECODE_POSITIONS", bound)
                patch.setattr(crf, "decode_in_chunks", _spy(crf.decode_in_chunks, seen))
                patch.setattr(neural, "decode_in_chunks", _spy(neural.decode_in_chunks, seen))
                assert model.predict_many(seqs) == want
            assert sum(titles for titles, _ in seen) == len(seqs)
            assert all(positions <= bound or titles == 1 for titles, positions in seen)


@pytest.mark.parametrize("kind", ["crf", "lstm-crf"])
def test_predict_many_empty_input_and_empty_title(models, kind):
    model = models[kind]
    assert model.predict_many([]) == []
    with pytest.raises(ValueError):
        model.predict_many([("chief",), ()])
    with pytest.raises(ValueError):
        model.predict(())


def _peak_bytes(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_many_memory_is_bounded_by_one_chunk(data):
    labeled, _ = data
    model = _neural("lstm-crf", labeled, hidden=64, dim=16)
    tokens = list(model.provider.vocab.tokens)
    rng = np.random.default_rng(3)
    seqs = [tuple(rng.choice(tokens, size=6)) for _ in range(2000)]
    one = seqs[: DECODE_POSITIONS // 6]
    model.predict_many(one)  # warm up
    one_chunk = _peak_bytes(lambda: model.predict_many(one))
    everything = _peak_bytes(lambda: model.predict_many(seqs))
    assert everything < 2 * one_chunk, (everything, one_chunk)
