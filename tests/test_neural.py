import logging
import re
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from titletag import neural, optim
from titletag.corpus import synth_corpus
from titletag.crf import TrainConfig, crf_nll, viterbi_path
from titletag.labeling import ALL_LABELS, BioesLabel, LabeledSequence
from titletag.lstm import LstmCell, cast_stack, padded_layout, softmax_ce
from titletag.neural import (
    LstmCrfModel,
    TrainableEmbeddings,
    _sample_masks,
    train_lstm,
    train_lstm_crf,
)
from titletag.title2vec import BiLmEmbeddings, BiLmModel, Vocab, train_bilm

from conftest import as_float64, batch_nll, central_difference

N_LABELS = len(ALL_LABELS)


def example(tokens, label_strings):
    return LabeledSequence(tuple(tokens), tuple(BioesLabel.parse(s) for s in label_strings))


def toy_vocab(examples):
    counts = Counter(tok for ex in examples for tok in ex.tokens)
    return Vocab.from_counts(counts)


TOY = [
    example(("chief", "financial", "officer"), ("S-RES", "S-FUN", "S-RES")),
    example(("asia", "pacific", "manager"), ("B-LOC", "E-LOC", "S-RES")),
    example(("head", "of", "sales"), ("S-RES", "O", "S-FUN")),
    example(("vice", "president"), ("B-RES", "E-RES")),
    example(("china", "lead"), ("S-LOC", "S-RES")),
    example(("senior", "marketing", "director"), ("S-RES", "S-FUN", "S-RES")),
]


# Titles of 1 to 4 tokens, all in TOY's vocabulary.
MIXED = TOY + [
    example(("manager",), ("S-RES",)),
    example(("head", "of", "sales", "director"), ("S-RES", "O", "S-FUN", "S-RES")),
]


def emissions(model, tokens):
    """Per-position label scores (T, n_labels) of one title, as predict_many
    computes them: a chunk of one on float32 copies of the cells."""
    return model._chunk_emissions([tokens], model._decode_stack())


def build_model(kind, hidden=4, layers=2, dim=4, seed=0, frozen=False):
    rng = np.random.default_rng(seed)
    provider = (BiLmEmbeddings(tiny_bilm(seed)) if frozen
                else TrainableEmbeddings(toy_vocab(TOY), dim, rng))
    return LstmCrfModel(provider, hidden_size=hidden, layers=layers, kind=kind, rng=rng)


def summed_loss(model, examples, masks=None):
    return model._batch_pass([ex.tokens for ex in examples],
                             [ex.label_ids() for ex in examples], masks, None)


def collect_grads(model, examples, masks=None):
    params = model.parameters()
    grads = [np.zeros_like(p) for p in params]
    grad_of = {id(p): g for p, g in zip(params, grads)}
    model._batch_pass([ex.tokens for ex in examples], [ex.label_ids() for ex in examples],
                      masks, grad_of)
    return params, grads


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm"])
def test_gradients_match_finite_differences(kind):
    model = as_float64(build_model(kind))
    examples = TOY[:4]  # two lengths (three 3-token, one 2-token) in one packed batch
    params, grads = collect_grads(model, examples)

    def f():
        return summed_loss(model, examples)

    probes = []
    for p, g in zip(params, grads):
        flat = np.argsort(-np.abs(g), axis=None)[:3]  # largest entries
        for k in flat:
            probes.append((p, g, np.unravel_index(int(k), p.shape)))
    assert len(probes) >= 3 * len(params)
    worst = 0.0
    for p, g, idx in probes:
        fd = central_difference(f, p, idx)
        worst = max(worst, abs(fd - g[idx]))
        assert g[idx] == pytest.approx(fd, abs=1e-3), f"shape {p.shape} idx {idx}"
    assert worst < 1e-3


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm"])
@pytest.mark.parametrize("frozen", [False, True])
@pytest.mark.parametrize("positions", [neural.TRAIN_POSITIONS, 8])
def test_packed_batch_gradients_match_finite_differences(kind, frozen, positions,
                                                         monkeypatch):
    """One batch of 1- to 4-token titles through two layers with dropout
    masks, as one packed chunk or, at 8 positions, as four."""
    monkeypatch.setattr(neural, "TRAIN_POSITIONS", positions)
    model = as_float64(build_model(kind, frozen=frozen))
    masks = _sample_masks(model, len(MIXED), 0.3, np.random.default_rng(1))
    params, grads = collect_grads(model, MIXED, masks)
    probes = [(p, g, np.unravel_index(int(k), p.shape))
              for p, g in zip(params, grads) for k in np.argsort(-np.abs(g), axis=None)[:3]]
    assert len(probes) >= 3 * len(params)
    for p, g, idx in probes:
        fd = central_difference(lambda: summed_loss(model, MIXED, masks), p, idx)
        assert g[idx] == pytest.approx(fd, abs=1e-6), f"shape {p.shape} idx {idx}"


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm"])
def test_packed_batch_equals_the_sum_of_its_titles(kind):
    """Padding adds nothing: a mixed-length batch gives each title's own loss
    and gradients, summed. Its padded positions read table row 0 (<unk>),
    which no title reads, so that row's gradient stays exactly zero."""
    model = as_float64(build_model(kind))
    masks = _sample_masks(model, len(MIXED), 0.3, np.random.default_rng(2))
    params, grads = collect_grads(model, MIXED, masks)
    summed = [np.zeros_like(p) for p in params]
    loss = 0.0
    for j, ex in enumerate(MIXED):
        own = [tuple(m[j : j + 1] for m in pair) for pair in masks]
        loss += summed_loss(model, [ex], own)
        for total, g in zip(summed, collect_grads(model, [ex], own)[1]):
            total += g
    assert summed_loss(model, MIXED, masks) == pytest.approx(loss, rel=1e-12)
    for g, want in zip(grads, summed):
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)
    assert all(0 not in model.provider.ids(ex.tokens) for ex in MIXED)
    table_grad = next(g for p, g in zip(params, grads) if p is model.provider.table)
    assert not table_grad[0].any()


def test_zero_transition_crf_equals_argmax():
    crf_model = build_model("lstm-crf", seed=5)
    soft_model = build_model("lstm", seed=5)
    # identical encoders by construction (same seed); transitions are zero
    np.testing.assert_array_equal(crf_model.trans, 0.0)
    for ex in TOY:
        emis = emissions(crf_model, ex.tokens)
        np.testing.assert_allclose(emis, emissions(soft_model, ex.tokens), atol=1e-12)
        assert crf_model.predict(ex.tokens) == soft_model.predict(ex.tokens)


@given(st.data())
def test_zero_transition_crf_is_the_per_token_softmax(data):
    """The lstm head is the CRF with trans/start/stop pinned at zero: its NLL
    and emission gradient are softmax_ce's, and its Viterbi path is the
    per-position argmax with ties to the lowest label. Emissions are
    multiples of 1/4, so sums are exact and ties are real."""
    B, T = data.draw(st.integers(1, 4)), data.draw(st.integers(1, 6))
    quarters = data.draw(st.lists(st.integers(-4, 4), min_size=B * T * N_LABELS,
                                  max_size=B * T * N_LABELS))
    emis = np.array(quarters, dtype=np.float64).reshape(B, T, N_LABELS) / 4
    ys = np.array(data.draw(st.lists(st.integers(0, N_LABELS - 1), min_size=B * T,
                                     max_size=B * T))).reshape(B, T)
    zeros = np.zeros((N_LABELS, N_LABELS)), np.zeros(N_LABELS), np.zeros(N_LABELS)
    loss, grads = crf_nll(emis, ys, *zeros)
    ref_loss, ref_demis = softmax_ce(emis.reshape(-1, N_LABELS), ys.reshape(-1))
    assert loss == pytest.approx(ref_loss, rel=1e-9)
    np.testing.assert_allclose(grads["emissions"], ref_demis.reshape(emis.shape),
                               rtol=0, atol=1e-12)
    np.testing.assert_array_equal(viterbi_path(emis, *zeros), np.argmax(emis, axis=-1))


def test_reversal_symmetry_single_layer():
    """Swapping the direction cells and the projection halves must produce
    mirrored emissions on mirrored input."""
    H = 5
    fwd = build_model("lstm", hidden=H, layers=1, seed=9)
    mirrored = build_model("lstm", hidden=H, layers=1, seed=9)
    mirrored.fwd_cells, mirrored.bwd_cells = fwd.bwd_cells, fwd.fwd_cells
    mirrored.proj_W = np.vstack([fwd.proj_W[H:], fwd.proj_W[:H]])
    tokens = ("chief", "financial", "officer")
    np.testing.assert_allclose(
        emissions(mirrored, tokens[::-1]), emissions(fwd, tokens)[::-1], atol=1e-12
    )


def test_emissions_are_contextual():
    model = build_model("lstm", seed=3)
    a = emissions(model, ("sales", "manager"))
    b = emissions(model, ("sales", "president"))
    assert np.abs(a[0] - b[0]).max() > 1e-8


def test_encoding_independent_of_batch_composition():
    model = as_float64(build_model("lstm-crf", seed=7))
    t1 = ("chief", "financial", "officer")
    t2 = ("head", "of", "marketing")
    xs1, _ = model._embed_group([t1], padded_layout([t1])[0])
    xs_both, _ = model._embed_group([t1, t2], padded_layout([t1, t2])[0])
    enc1, _ = model.encode(xs1)
    enc_both, _ = model.encode(xs_both)
    np.testing.assert_allclose(enc_both[0], enc1[0], atol=1e-12)


def test_variational_masks():
    model = build_model("lstm-crf")
    rng = np.random.default_rng(0)
    assert _sample_masks(model, 4, 0.0, rng) is None
    masks = _sample_masks(model, 4, 0.5, rng)
    assert len(masks) == model.layers
    for mf, mb in masks:
        assert mf.shape == (4, model.hidden_size)
        assert set(np.unique(np.concatenate([mf, mb]))) <= {0.0, 2.0}


def test_trainable_embeddings_unknown_fallback():
    """On the path tagging uses, an unseen token reads table row 0."""
    model = build_model("lstm-crf")
    emb = model.provider
    tokens = ("chief", "neverseen")
    inputs, ids = model._embed_group([tokens], padded_layout([tokens])[0])
    np.testing.assert_array_equal(ids, [[emb.vocab.ids(("chief",))[0], 0]])
    np.testing.assert_array_equal(inputs[0], emb.table[ids[0]])
    np.testing.assert_array_equal(inputs[0, 1], emb.table[0])
    assert emb.trainable


def test_lstm_crf_memorizes_toy_data():
    cfg = TrainConfig(learning_rate=0.01, batch_size=3, epochs=150, optimizer="adam",
                      seed=1, word_dropout=0.0, variational_dropout=0.0)
    model = train_lstm_crf(TOY, cfg, hidden_size=16, layers=1, embedding_dim=8)
    assert model.history[-1] < min(model.history[:3])
    for ex in TOY:
        assert model.predict(ex.tokens) == ex.labels


def test_lstm_softmax_trains():
    cfg = TrainConfig(learning_rate=0.01, batch_size=3, epochs=60, optimizer="adam",
                      seed=2, word_dropout=0.0, variational_dropout=0.0)
    model = train_lstm(TOY, cfg, hidden_size=12, layers=1, embedding_dim=8)
    assert model.kind == "lstm"
    for name in ("trans", "start", "stop"):
        np.testing.assert_array_equal(getattr(model, name), 0.0)
    assert model.history[-1] < model.history[0]


def test_training_is_seed_deterministic(tmp_path):
    cfg = TrainConfig(learning_rate=0.05, batch_size=2, epochs=3, optimizer="sgd",
                      seed=11, word_dropout=0.05, variational_dropout=0.5)
    a = train_lstm_crf(TOY, cfg, hidden_size=6, layers=1, embedding_dim=4)
    b = train_lstm_crf(TOY, cfg, hidden_size=6, layers=1, embedding_dim=4)
    assert a.history == b.history
    np.testing.assert_array_equal(a.proj_W, b.proj_W)
    np.testing.assert_array_equal(a.fwd_cells[0].W, b.fwd_cells[0].W)
    a.save(tmp_path / "a.model")
    b.save(tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def test_save_load_roundtrip_trainable(tmp_path):
    cfg = TrainConfig(learning_rate=0.02, batch_size=3, epochs=5, optimizer="adam",
                      seed=4, word_dropout=0.0, variational_dropout=0.0)
    model = train_lstm_crf(TOY, cfg, hidden_size=6, layers=2, embedding_dim=4)
    path = tmp_path / "m.bin"
    model.save(path)
    again = LstmCrfModel.load(path)
    assert again.kind == "lstm-crf"
    assert again.layers == 2
    for ex in TOY:
        assert again.predict(ex.tokens) == model.predict(ex.tokens)


def tiny_bilm(seed=0):
    vocab = toy_vocab(TOY)
    return BiLmModel(vocab, dim=4, hidden=3, layers=1, rng=np.random.default_rng(seed))


def test_frozen_provider_roundtrip(tmp_path):
    provider = BiLmEmbeddings(tiny_bilm(), content_hash="cafe" * 16)
    cfg = TrainConfig(learning_rate=0.02, batch_size=3, epochs=2, optimizer="adam",
                      seed=6, word_dropout=0.0, variational_dropout=0.0)
    model = train_lstm_crf(TOY, cfg, hidden_size=4, layers=1, provider=provider)
    path = tmp_path / "m.bin"
    model.save(path)

    again = LstmCrfModel.load(path, provider=provider)
    for ex in TOY[:2]:
        assert again.predict(ex.tokens) == model.predict(ex.tokens)

    with pytest.raises(ValueError):
        LstmCrfModel.load(path)  # provider is mandatory for this model

    tampered = BiLmEmbeddings(tiny_bilm(), content_hash="beef" * 16)
    with pytest.raises(ValueError):
        LstmCrfModel.load(path, provider=tampered)

    class WrongDim:
        trainable = False
        dim = 99
        content_hash = "cafe" * 16

    with pytest.raises(ValueError):
        LstmCrfModel.load(path, provider=WrongDim())


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm"])
@pytest.mark.parametrize("layers", [1, 3])
@pytest.mark.parametrize("trainable", [True, False])
def test_array_shapes_match_built_model(kind, layers, trainable):
    vocab = Vocab(("<unk>", "<s>", "</s>", "chief", "officer"))
    rng = np.random.default_rng(0)
    provider = TrainableEmbeddings(vocab, 5, rng) if trainable else BiLmEmbeddings(
        BiLmModel(vocab, dim=3, hidden=2, layers=1), content_hash=None)
    model = LstmCrfModel(provider, hidden_size=7, layers=layers, kind=kind)
    built = [(name, arr.shape) for name, arr in model._arrays().items()]
    implied = LstmCrfModel._array_shapes(kind, 7, layers, provider.dim,
                                          vocab.size if trainable else None)
    assert list(implied) == built


def test_constructor_validation():
    provider = TrainableEmbeddings(toy_vocab(TOY), 4, np.random.default_rng(0))
    with pytest.raises(ValueError):
        LstmCrfModel(provider, kind="gru")
    with pytest.raises(ValueError):
        LstmCrfModel(provider, hidden_size=0)


def test_batch_nll_empty():
    model = build_model("lstm-crf")
    with pytest.raises(ValueError):
        batch_nll(model, [])


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm", "bilm"])
def test_adam_trains_float32_arrays_in_place(monkeypatch, tmp_path, sample_gaz, kind):
    """Every parameter, gradient buffer and Adam moment is float32, but for
    the BiLSTM taggers' float64 head; every LSTM run is on one of the
    model's own cells; and a seeded rerun gives the same history and the
    same bytes."""
    cfg = TrainConfig(learning_rate=0.05, batch_size=3, epochs=2, optimizer="adam",
                      seed=3, word_dropout=0.1, variational_dropout=0.5)
    corpus = synth_corpus(sample_gaz, grammar_seed=3, count=12)

    def train():
        if kind == "bilm":
            return train_bilm(corpus, (5, 4, 2), cfg)
        trainer = train_lstm_crf if kind == "lstm-crf" else train_lstm
        return trainer(TOY, cfg, hidden_size=6, layers=2, embedding_dim=4)

    cells, steps = [], []
    run, adam_step = LstmCell.run, optim.Adam.step

    def run_spy(cell, *args, **kwargs):
        cells.append(cell)
        return run(cell, *args, **kwargs)

    def step_spy(opt, params, grads):
        steps.append([(p, g.dtype, m.dtype, v.dtype)
                      for p, g, m, v in zip(params, grads, opt.m, opt.v)])
        return adam_step(opt, params, grads)

    monkeypatch.setattr(LstmCell, "run", run_spy)
    monkeypatch.setattr(optim.Adam, "step", step_spy)
    model = train()
    monkeypatch.undo()
    head = [] if kind == "bilm" else [model.proj_W, model.proj_b, model.trans, model.start,
                                      model.stop]
    assert steps and cells
    params = model.parameters()
    for step in steps:
        assert len(step) == len(params)
        for (p, *dtypes), param in zip(step, params):
            assert p is param
            want = np.float64 if any(p is h for h in head) else np.float32
            assert p.dtype == want and dtypes == [want] * 3
    own = model.fwd_cells + model.bwd_cells
    assert all(any(cell is c for c in own) for cell in cells)
    again = train()
    assert again.history == model.history
    model.save(tmp_path / "a.model")
    again.save(tmp_path / "b.model")
    assert (tmp_path / "a.model").read_bytes() == (tmp_path / "b.model").read_bytes()


def test_float32_emissions_match_the_float64_encode():
    """Decoding encodes in float32. Hidden states lie in (-1, 1), and the
    float32 ones stay within 1e-6 (about 8 float32 ulps of 1) of a float64
    encoder's on the same weights, so the float64 head moves each emission
    by at most 1e-6 times the largest column sum of |proj_W|."""
    cfg = TrainConfig(learning_rate=0.01, batch_size=3, epochs=40, optimizer="adam",
                      seed=1, word_dropout=0.0, variational_dropout=0.0)
    model = train_lstm_crf(TOY, cfg, hidden_size=16, layers=2, embedding_dim=8)
    bound = 1e-6 * np.abs(model.proj_W).sum(axis=0).max()
    for ex in TOY:
        xs, _ = model._embed_group([ex.tokens], padded_layout([ex.tokens])[0])
        enc, _ = model.encode(xs, stack=cast_stack(model._stack(), np.float64))
        assert enc.dtype == np.float64
        enc32, _ = model.encode(xs, stack=model._decode_stack())
        assert enc32.dtype == np.float32
        np.testing.assert_allclose(enc32, enc, rtol=0, atol=1e-6)
        emis = emissions(model, ex.tokens)
        assert emis.dtype == np.float64
        np.testing.assert_allclose(emis, (enc @ model.proj_W + model.proj_b)[0], rtol=0,
                                   atol=bound)


# A clip norm below every step's gradient norm clips every step; None clips none.
@pytest.mark.parametrize("clip_norm,share", [(1e-6, "1.000"), (None, "0.000")])
def test_epoch_log_reports_pre_clip_norm_and_clipped_share(caplog, clip_norm, share):
    cfg = TrainConfig(learning_rate=0.05, batch_size=2, epochs=2, optimizer="sgd",
                      seed=5, clip_norm=clip_norm)
    with caplog.at_level(logging.INFO, logger="titletag.optim"):
        train_lstm_crf(TOY, cfg, hidden_size=6, layers=1, embedding_dim=4)
    lines = [r.getMessage() for r in caplog.records if "epoch" in r.getMessage()]
    assert len(lines) == 2
    for line in lines:
        match = re.search(r"mean pre-clip gradient norm (\S+), clipped share (\S+)$", line)
        assert match, line
        assert float(match.group(1)) > 1e-6 and match.group(2) == share
