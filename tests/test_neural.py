from collections import Counter

import numpy as np
import pytest

from titletag.crf import TrainConfig
from titletag.labeling import ALL_LABELS, BioesLabel, LabeledSequence
from titletag.neural import (
    LstmCrfModel,
    TrainableEmbeddings,
    _sample_masks,
    batch_nll,
    train_lstm_crf,
    train_lstm_softmax,
)
from titletag.title2vec import BiLmEmbeddings, BiLmModel, Vocab

from conftest import central_difference

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


def build_model(kind, hidden=4, layers=2, dim=4, seed=0):
    rng = np.random.default_rng(seed)
    provider = TrainableEmbeddings(toy_vocab(TOY), dim, rng)
    return LstmCrfModel(provider, hidden_size=hidden, layers=layers, kind=kind, rng=rng)


def summed_loss(model, examples):
    return batch_nll(model, examples) * len(examples)


def collect_grads(model, examples):
    params = model.parameters()
    grads = [np.zeros_like(p) for p in params]
    grad_of = {id(p): g for p, g in zip(params, grads)}
    groups = {}
    for ex in examples:
        groups.setdefault(len(ex.tokens), []).append(ex)
    for length in sorted(groups):
        toks = [ex.tokens for ex in groups[length]]
        ys = np.array([ex.label_ids() for ex in groups[length]], dtype=np.int64)
        model._group_pass(toks, ys, None, grad_of)
    return params, grads


@pytest.mark.parametrize("kind", ["lstm-crf", "lstm"])
def test_gradients_match_finite_differences(kind):
    model = build_model(kind)
    examples = TOY[:4]  # two length groups (three 3-token, one 2-token)
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


def test_zero_transition_crf_equals_argmax():
    crf_model = build_model("lstm-crf", seed=5)
    soft_model = build_model("lstm", seed=5)
    # identical encoders by construction (same seed); transitions are zero
    np.testing.assert_array_equal(crf_model.trans, 0.0)
    for ex in TOY:
        emis = crf_model.emissions(ex.tokens)
        np.testing.assert_allclose(emis, soft_model.emissions(ex.tokens), atol=1e-12)
        assert crf_model.predict(ex.tokens) == soft_model.predict(ex.tokens)


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
        mirrored.emissions(tokens[::-1]), fwd.emissions(tokens)[::-1], atol=1e-12
    )


def test_emissions_are_contextual():
    model = build_model("lstm", seed=3)
    a = model.emissions(("sales", "manager"))
    b = model.emissions(("sales", "president"))
    assert np.abs(a[0] - b[0]).max() > 1e-8


def test_encoding_independent_of_batch_composition():
    model = build_model("lstm-crf", seed=7)
    t1 = ("chief", "financial", "officer")
    t2 = ("head", "of", "marketing")
    xs1, _ = model._embed_group([t1])
    xs_both, _ = model._embed_group([t1, t2])
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
    vocab = toy_vocab(TOY)
    emb = TrainableEmbeddings(vocab, 4, np.random.default_rng(0))
    out = emb.embed(("chief", "neverseen"))
    np.testing.assert_array_equal(out[1], emb.table[0])
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
    model = train_lstm_softmax(TOY, cfg, hidden_size=12, layers=1, embedding_dim=8)
    assert model.kind == "lstm"
    assert model.trans is None
    assert model.history[-1] < model.history[0]


def test_training_is_seed_deterministic():
    cfg = TrainConfig(learning_rate=0.05, batch_size=2, epochs=3, optimizer="sgd",
                      seed=11, word_dropout=0.05, variational_dropout=0.5)
    a = train_lstm_crf(TOY, cfg, hidden_size=6, layers=1, embedding_dim=4)
    b = train_lstm_crf(TOY, cfg, hidden_size=6, layers=1, embedding_dim=4)
    assert a.history == b.history
    np.testing.assert_array_equal(a.proj_W, b.proj_W)
    np.testing.assert_array_equal(a.fwd_cells[0].W, b.fwd_cells[0].W)


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
    provider = TrainableEmbeddings(vocab, 5) if trainable else BiLmEmbeddings(
        BiLmModel(vocab, dim=3, hidden=2, layers=1), content_hash=None)
    model = LstmCrfModel(provider, hidden_size=7, layers=layers, kind=kind)
    built = [(name, arr.shape) for name, arr in model._arrays().items()]
    implied = LstmCrfModel._array_shapes(kind, 7, layers, provider.dim,
                                          vocab.size if trainable else None)
    assert list(implied) == built


def test_constructor_validation():
    provider = TrainableEmbeddings(toy_vocab(TOY), 4)
    with pytest.raises(ValueError):
        LstmCrfModel(provider, kind="gru")
    with pytest.raises(ValueError):
        LstmCrfModel(provider, hidden_size=0)


def test_batch_nll_empty():
    model = build_model("lstm-crf")
    with pytest.raises(ValueError):
        batch_nll(model, [])
