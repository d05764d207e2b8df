import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from titletag import title2vec
from titletag.corpus import Corpus, Title, synth_corpus
from titletag.crf import TrainConfig
from titletag.errors import FormatError
from titletag.lstm import LstmCell, padded_blocks
from titletag.title2vec import (
    EMBED_BLOCK,
    BiLmModel,
    EmbeddingStore,
    TitleVectors,
    Vocab,
    _bilm_batch,
    _block_states,
    _blocks,
    build_vocab,
    embed_title,
    embed_titles,
    read_embeddings,
    train_bilm,
    write_embeddings,
)

from conftest import as_float64, batch_ce, central_difference, perplexity


def make_corpus(token_lists):
    return Corpus(titles=tuple(Title(raw="", tokens=tuple(t)) for t in token_lists))


def test_vocab_ordering():
    vocab = Vocab.from_counts({"b": 3, "a": 3, "c": 5, "d": 1})
    assert vocab.tokens == ("<unk>", "<s>", "</s>", "c", "a", "b", "d")
    assert vocab.id("c") == 3
    assert vocab.id("zzz") == 0  # unknown falls back to the first sentinel
    assert vocab.size == 7
    ids = vocab.ids(("c", "zzz"))
    assert ids.dtype == np.int64
    assert list(ids) == [3, 0]


def test_vocab_min_count():
    vocab = Vocab.from_counts({"a": 5, "b": 1}, min_count=2)
    assert "b" not in vocab.tokens
    assert vocab.id("b") == 0


def test_vocab_validation():
    with pytest.raises(ValueError):
        Vocab(("a", "b"))
    with pytest.raises(ValueError):
        Vocab(("<unk>", "<s>", "</s>", "a", "a"))
    with pytest.raises(ValueError):
        Vocab.from_counts({"a": 1}, min_count=0)


def test_build_vocab():
    corpus = make_corpus([("a", "b"), ("a",)])
    vocab = build_vocab(corpus)
    assert vocab.tokens == ("<unk>", "<s>", "</s>", "a", "b")


def tiny_model(dim=4, hidden=3, layers=1, seed=0, tokens=("alpha", "beta", "gamma", "delta")):
    vocab = Vocab.from_counts({t: i + 1 for i, t in enumerate(tokens)})
    return BiLmModel(vocab, dim=dim, hidden=hidden, layers=layers,
                     rng=np.random.default_rng(seed))


def test_contextual_dimension():
    model = tiny_model(dim=4, hidden=3, layers=2)
    assert model.contextual_dim == 4 + 2 * 3 * 2
    out = embed_title(model, ("alpha", "beta"))
    assert out.shape == (2, model.contextual_dim)


def test_published_dimension_instantiates():
    vocab = Vocab.from_counts({"a": 2, "b": 1})
    model = BiLmModel(vocab, dim=1024, hidden=512, layers=2,
                      rng=np.random.default_rng(0))
    assert model.contextual_dim == 3072


def test_embedding_slot_matches_table():
    model = tiny_model()
    tokens = ("beta", "alpha")
    out = embed_title(model, tokens)
    ids = model.vocab.ids(tokens)
    np.testing.assert_allclose(out[:, : model.dim], model.embed[ids], atol=1e-12)


def logprobs(model, tokens, reverse):
    """(T+1, V) log-probabilities of one direction over one title, in that
    direction's reading order: forward row t predicts token t (row T
    predicts </s>), backward row r predicts token T-1-r (row T predicts <s>)."""
    [(_, ids)] = _blocks(model, [tokens])
    _, out_W, out_b = model._direction(reverse)
    logits = _block_states(model, ids, reverse)[-1][0] @ out_W + out_b
    m = logits.max(axis=-1, keepdims=True)
    return logits - m - np.log(np.exp(logits - m).sum(axis=-1, keepdims=True))


def test_forward_causality():
    model = as_float64(tiny_model(layers=2))
    base = ("alpha", "beta", "gamma")
    changed = ("alpha", "beta", "delta")
    lp_base = logprobs(model, base, reverse=False)
    lp_changed = logprobs(model, changed, reverse=False)
    assert lp_base.shape == (4, model.vocab.size)
    # predictions for positions 0..2 depend only on the prefix
    np.testing.assert_allclose(lp_base[:3], lp_changed[:3], atol=1e-12)
    # rows are log-distributions
    np.testing.assert_allclose(np.exp(lp_base).sum(axis=1), 1.0, atol=1e-9)


def test_backward_causality():
    model = tiny_model(layers=2)
    base = ("alpha", "beta", "gamma")
    changed = ("delta", "beta", "gamma")
    lp_base = logprobs(model, base, reverse=True)
    lp_changed = logprobs(model, changed, reverse=True)
    np.testing.assert_allclose(lp_base[:3], lp_changed[:3], atol=1e-12)


def test_contextual_vector_direction_locality():
    model = tiny_model(layers=1)
    base = embed_title(model, ("alpha", "beta", "gamma"))
    suffix_changed = embed_title(model, ("alpha", "beta", "delta"))
    D, H = model.dim, model.hidden
    # forward block of position 0 sees only the prefix
    np.testing.assert_allclose(base[0, D : D + H], suffix_changed[0, D : D + H], atol=1e-12)
    # backward block of position 0 sees the suffix and must move
    assert np.abs(base[0, D + H :] - suffix_changed[0, D + H :]).max() > 1e-9

    prefix_changed = embed_title(model, ("delta", "beta", "gamma"))
    np.testing.assert_allclose(base[2, D + H :], prefix_changed[2, D + H :], atol=1e-12)
    assert np.abs(base[2, D : D + H] - prefix_changed[2, D : D + H]).max() > 1e-9


TOKENS = ("alpha", "beta", "gamma", "delta")
# One model per depth, shared by the examples of the property test below.
MODELS = {layers: tiny_model(dim=5, hidden=6, layers=layers, seed=layers) for layers in (1, 2, 3)}


@given(
    layers=st.sampled_from(sorted(MODELS)),
    titles=st.lists(st.lists(st.sampled_from(TOKENS + ("unseen",)), min_size=1, max_size=4),
                    max_size=3 * EMBED_BLOCK),
)
def test_embed_titles_equals_embed_title_bit_for_bit(layers, titles):
    model = MODELS[layers]
    got = embed_titles(model, titles)
    assert len(got) == len(titles)
    for tokens, vectors in zip(titles, got):
        assert np.array_equal(vectors, embed_title(model, tokens))


def test_embed_titles_mixes_lengths_duplicates_and_full_blocks():
    model = MODELS[2]
    titles = [TOKENS[: 1 + k % 3] for k in range(3 * EMBED_BLOCK + 1)] + [TOKENS[::-1]]
    assert sum(len(t) == 1 for t in titles) > EMBED_BLOCK
    got = embed_titles(model, titles)
    assert [v.shape for v in got] == [(len(t), model.contextual_dim) for t in titles]
    for tokens, vectors in zip(titles, got):
        assert np.array_equal(vectors, embed_title(model, tokens))
    assert embed_titles(model, []) == []
    with pytest.raises(ValueError, match="empty title"):
        embed_titles(model, [("alpha",), ()])


def test_padded_blocks_fill_whole_blocks_in_length_groups():
    seqs = [np.array([7] * n) for n in (2, 1, 2, 2, 1)]
    blocks = list(padded_blocks(seqs, 2, fill=0))
    assert [group for group, _ in blocks] == [[1, 4], [0, 2], [3]]
    np.testing.assert_array_equal(blocks[-1][1], [[7, 7], [0, 0]])
    assert all(block.shape[0] == 2 for _, block in blocks)


# (input dim, hidden) of the biLM cells in use: the tests' small models, the
# benchmark's 64/64 and criterion 9's published 1024/512 (upper layers read
# hidden-wide inputs), each at block lengths T + 1 up to a 54-token title.
@pytest.mark.parametrize("dim,hidden,steps", [
    (5, 6, (2, 3, 5)), (6, 6, (2, 4)), (64, 64, (2, 3, 8, 19, 55)),
    (1024, 512, (2, 4)), (512, 512, (3,)),
])
def test_block_gemms_are_row_independent(dim, hidden, steps):
    """The product rows that embed_titles relies on do not depend on the other
    rows of the block or on a row's position in it, at the exact shapes,
    strides and dtype (float32) of LstmCell.run. A BLAS whose kernels break
    this fails here."""
    rng = np.random.default_rng(dim + hidden)
    W = rng.normal(size=(4 * hidden, dim + hidden)).astype(np.float32)
    W_x, W_h = W[:, :dim].T, W[:, dim:].T
    for rows, weights in [(n * EMBED_BLOCK, W_x) for n in steps] + [(EMBED_BLOCK, W_h)]:
        x = rng.normal(size=(rows, weights.shape[0])).astype(np.float32)
        base = x @ weights
        for trial in range(3):
            order = rng.permutation(rows)
            kept = rng.random(rows) < 0.5
            other = rng.normal(size=x.shape).astype(np.float32)
            other[kept] = x[order][kept]
            again = other @ weights
            assert np.array_equal(again[kept], base[order][kept]), (rows, trial)


def grad_buffers(model):
    """Zeroed gradient buffers of the model's parameters, and the
    {parameter id: buffer} map _bilm_batch adds into."""
    grads = [np.zeros_like(p) for p in model.parameters()]
    return grads, {id(p): g for p, g in zip(model.parameters(), grads)}


def test_bilm_gradients_match_finite_differences():
    model = as_float64(tiny_model(dim=3, hidden=3, layers=2, seed=4))
    seqs = [model.vocab.ids(("alpha", "beta", "gamma")), model.vocab.ids(("delta", "alpha")),
            model.vocab.ids(("gamma",))]
    params = model.parameters()
    grads, grad_of = grad_buffers(model)
    _bilm_batch(model, seqs, grad_of)

    def f():
        return _bilm_batch(model, seqs, None)[0]

    worst = 0.0
    for p, g in zip(params, grads):
        flat = np.argsort(-np.abs(g), axis=None)[:2]
        for k in flat:
            idx = np.unravel_index(int(k), p.shape)
            fd = central_difference(f, p, idx)
            worst = max(worst, abs(fd - g[idx]))
            assert g[idx] == pytest.approx(fd, abs=1e-3), f"shape {p.shape} idx {idx}"
    assert worst < 1e-3


def test_padded_batch_equals_its_length_groups():
    model = as_float64(tiny_model(dim=3, hidden=4, layers=2, seed=6))
    rng = np.random.default_rng(2)
    # Lengths 1-5 in mixed order, a 1-token title first.
    batch = [np.array([5])] + [rng.integers(0, model.vocab.size, size=int(n))
                               for n in rng.integers(1, 6, size=11)]
    grads, grad_of = grad_buffers(model)
    ce, preds = _bilm_batch(model, batch, grad_of)
    group_grads, group_grad_of = grad_buffers(model)
    group_ce, group_preds = 0.0, 0
    lengths = sorted({len(seq) for seq in batch})
    assert lengths == [1, 2, 3, 4, 5]
    for length in lengths:
        c, n = _bilm_batch(model, [seq for seq in batch if len(seq) == length], group_grad_of)
        group_ce += c
        group_preds += n
    assert preds == group_preds == sum(len(seq) + 1 for seq in batch) * 2
    assert ce == pytest.approx(group_ce, rel=0, abs=1e-12)
    for g, want in zip(grads, group_grads):
        np.testing.assert_allclose(g, want, rtol=0, atol=1e-12)


def test_train_bilm_runs_packed(monkeypatch, sample_gaz):
    """Every LSTM run and backprop of biLM training gets per-step row counts
    that cover exactly the batch's valid positions, each title's tokens
    plus its opening sentinel, so no padded position is multiplied."""
    corpus = synth_corpus(sample_gaz, grammar_seed=3, count=40)
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=2, optimizer="adam", seed=7)
    batches, calls = [], []
    bilm_batch, run, backprop = title2vec._bilm_batch, LstmCell.run, LstmCell.backprop

    def batch_spy(model, batch, *args):
        batches.append(batch)
        return bilm_batch(model, batch, *args)

    def run_spy(cell, xs, mask=None, want_cache=False, counts=None):
        calls.append(("run", batches[-1], counts))
        return run(cell, xs, mask, want_cache, counts)

    def backprop_spy(cell, caches, dhs, mask=None, counts=None):
        calls.append(("backprop", batches[-1], counts))
        return backprop(cell, caches, dhs, mask, counts)

    monkeypatch.setattr(title2vec, "_bilm_batch", batch_spy)
    monkeypatch.setattr(LstmCell, "run", run_spy)
    monkeypatch.setattr(LstmCell, "backprop", backprop_spy)
    train_bilm(corpus, (5, 4, 2), cfg)
    # 3 batches per epoch, 2 epochs, 2 directions of 2 layers each.
    assert len(batches) == 6
    assert [kind for kind, _, _ in calls].count("run") == 6 * 4
    assert [kind for kind, _, _ in calls].count("backprop") == 6 * 4
    assert len({len(seq) for seq in batches[0]}) > 1
    for _, batch, counts in calls:
        assert counts is not None
        assert sum(counts) == sum(len(seq) + 1 for seq in batch)


def test_train_bilm_beats_uniform(sample_gaz):
    corpus = synth_corpus(sample_gaz, grammar_seed=3, count=80)
    cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=5, optimizer="adam",
                      seed=0, word_dropout=0.0, variational_dropout=0.0)
    model = train_bilm(corpus, (8, 8, 1), cfg)
    assert len(model.history) == 5
    assert model.history[-1] < model.history[0]
    ppl = perplexity(model, corpus)
    assert ppl < model.vocab.size  # beats the uniform baseline
    assert ppl == pytest.approx(
        float(np.exp(batch_ce(model, [t.tokens for t in corpus.titles])))
    )


def test_train_bilm_min_count():
    corpus = make_corpus([("rare", "common"), ("common",)] * 4)
    cfg = TrainConfig(epochs=0, seed=0)
    model = train_bilm(corpus, (4, 4, 1), cfg, min_count=5)
    assert "rare" not in model.vocab.tokens
    assert "common" in model.vocab.tokens


def test_bilm_save_load_roundtrip(tmp_path):
    model = tiny_model(dim=4, hidden=3, layers=2, seed=8)
    path = tmp_path / "lm.bin"
    model.save(path)
    again = BiLmModel.load(path)
    assert again.vocab.tokens == model.vocab.tokens
    tokens = ("alpha", "gamma")
    np.testing.assert_allclose(
        embed_title(again, tokens), embed_title(model, tokens), atol=1e-6
    )


def store_fixture():
    recs = [
        TitleVectors("t0", np.array([[1.0, 0.0], [1.0, 0.0]])),
        TitleVectors("t1", np.array([[0.0, 1.0]])),
        TitleVectors("t2", np.array([[1.0, 0.0]])),
    ]
    return EmbeddingStore(2, recs)


def test_store_validation():
    with pytest.raises(ValueError):
        EmbeddingStore(3, [TitleVectors("x", np.zeros((2, 2)))])
    for title_id in ("has space", "", "a\nb", "c\td", "e\u2028f", "g\r"):
        with pytest.raises(ValueError):
            EmbeddingStore(2, [TitleVectors(title_id, np.zeros((1, 2)))])
    for dim, records in ((0, [TitleVectors("a", np.zeros((1, 0)))]), (0, []), (-3, [])):
        with pytest.raises(ValueError):
            EmbeddingStore(dim, records)


def test_embedding_file_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    recs = [
        TitleVectors("a", rng.normal(size=(3, 5))),
        TitleVectors("b", rng.normal(size=(1, 5)) / 3.0),
    ]
    store = EmbeddingStore(5, recs)
    path = tmp_path / "emb.txt"
    write_embeddings(store, path)
    again = read_embeddings(path)
    assert again.dim == 5
    assert [r.title_id for r in again.records] == ["a", "b"]
    for r1, r2 in zip(store.records, again.records):
        np.testing.assert_array_equal(r1.vectors, r2.vectors)  # raw float64 bytes


def test_embedding_writer_bytes_are_pinned(tmp_path):
    """Three records at dim 192, two of them past an 8 KB write buffer: the
    file's sha256 is pinned, so no change to how the writer buffers its
    records may move a byte."""
    store = EmbeddingStore(192, [
        TitleVectors(title_id, np.arange(rows * 192).reshape(rows, 192) / 7.0 - rows)
        for title_id, rows in (("first", 1), ("second", 6), ("third", 18))
    ])
    path = tmp_path / "pinned.emb"
    write_embeddings(store, path)
    assert (hashlib.sha256(path.read_bytes()).hexdigest()
            == "3eadab2bfb067c6bdc5dcf3666692313ba2223577a479d701210bd89d3955c00")


def _write_store(path) -> bytearray:
    """Write store_fixture() and return the file bytes."""
    write_embeddings(store_fixture(), path)
    return bytearray(path.read_bytes())


def _block_start(data: bytes, records: int) -> int:
    """Offset of the float block: after the header line and the table lines."""
    pos = 0
    for _ in range(records + 1):
        pos = data.index(b"\n", pos) + 1
    return pos


def test_embedding_file_hash_tamper(tmp_path):
    path = tmp_path / "emb.emb"
    data = _write_store(path)
    # "t0" -> "u0" in the table; a mantissa bit of the first value in the block.
    for offset in (data.index(b"\n") + 1, _block_start(data, 3) + 5):
        tampered = bytearray(data)
        tampered[offset] ^= 0x01
        path.write_bytes(bytes(tampered))
        with pytest.raises(FormatError) as err:
            read_embeddings(path)
        assert "hash" in str(err.value) and str(path) in str(err.value)


def test_embedding_file_truncated(tmp_path):
    path = tmp_path / "emb.emb"
    data = _write_store(path)
    for drop in (1, 2 * 8):  # the last byte; the last row
        path.write_bytes(bytes(data[:-drop]))
        with pytest.raises(FormatError):
            read_embeddings(path)


def test_embedding_file_trailing_bytes_v2(tmp_path):
    path = tmp_path / "emb.emb"
    data = _write_store(path)
    path.write_bytes(bytes(data) + b"\0")
    assert _read_error(path).path == str(path)


def _read_error(path) -> FormatError:
    """The FormatError of reading path, run in a daemon thread so that a
    reader that never returns fails the test instead of hanging it."""
    import threading

    caught = []

    def read():
        try:
            read_embeddings(path)
        except Exception as exc:  # noqa: BLE001 - the test inspects what was raised
            caught.append(exc)

    worker = threading.Thread(target=read, daemon=True)
    worker.start()
    worker.join(timeout=10)
    assert not worker.is_alive(), "read_embeddings did not return"
    assert len(caught) == 1 and isinstance(caught[0], FormatError), caught
    return caught[0]


@pytest.mark.parametrize(
    "table,line",
    [
        pytest.param(b"a 1\nb -1\nc 1\n", 3, id="count-minus-1"),
        pytest.param(b"a 1\nb 1\nc -2\n", 4, id="count-minus-2"),
        pytest.param(b"a 0\nb 1\nc 1\n", 2, id="count-0"),
        pytest.param(b"a 1\nb x\nc 1\n", 3, id="non-numeric-value"),
        pytest.param(b"a 1\nb 1\nc\n", 4, id="short-row"),
    ],
)
def test_embedding_file_bad_record_names_path_and_line(tmp_path, table, line):
    prefix = b"ipod-emb v3 2 3 "
    block = np.zeros(6).tobytes()
    digest = hashlib.sha256(prefix + table + block).hexdigest()[:16]
    path = tmp_path / "emb.emb"
    path.write_bytes(prefix + digest.encode() + b"\n" + table + block)
    err = _read_error(path)
    assert err.path == str(path) and err.line == line
    assert str(err).startswith(f"{path}:{line}: ")


def test_store_rejects_a_record_without_vectors():
    with pytest.raises(ValueError):
        EmbeddingStore(2, [TitleVectors("x", np.zeros((0, 2)))])


SPECIAL_VALUES = [-0.0, 5e-324, 1e308, 1.0, 0.1, 1 / 3, -2.5e-300, 123456789.125]


def _bits(a: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(a, dtype=np.float64).view(np.uint64)


def test_embedding_special_values_roundtrip_v2(tmp_path):
    nan_payload = np.array([0x7FF8_0000_DEAD_BEEF], dtype=np.uint64).view(np.float64)[0]
    values = SPECIAL_VALUES + [np.nan, np.inf, -np.inf, nan_payload]
    rows = np.array([values, values[::-1]])
    store = EmbeddingStore(len(values), [TitleVectors("t", rows), TitleVectors("u", rows[:1])])
    path = tmp_path / "emb.emb"
    write_embeddings(store, path)
    again = read_embeddings(path)
    assert [r.title_id for r in again.records] == ["t", "u"]
    for r1, r2 in zip(store.records, again.records):
        np.testing.assert_array_equal(_bits(r1.vectors), _bits(r2.vectors))


# A v2 file as `embed` wrote it before v3: its hash, the first 16 hex
# digits of sha256(b"t 1\nu 1\n" + the block), skips the header.
V2_FIXTURE_VALUES = [-0.0, 5e-324, 0.1, 1 / 3]
V2_FIXTURE = (b"ipod-emb v2 2 2 366d4a16936c7ed7\nt 1\nu 1\n"
              + np.array(V2_FIXTURE_VALUES, dtype="<f8").tobytes())


def test_embedding_v2_fixture_reads_bit_exact(tmp_path):
    path = tmp_path / "old.emb"
    path.write_bytes(V2_FIXTURE)
    store = read_embeddings(path)
    assert store.dim == 2 and [r.title_id for r in store.records] == ["t", "u"]
    rows = np.concatenate([r.vectors for r in store.records])
    np.testing.assert_array_equal(_bits(rows), _bits(np.array(V2_FIXTURE_VALUES).reshape(2, 2)))


def test_embedding_png_is_a_format_error(tmp_path):
    path = tmp_path / "image.emb"
    path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR\x00\x00\x00\x01")
    assert _read_error(path).path == str(path)


@pytest.mark.parametrize(
    "table,line",
    [
        pytest.param(b"a 1\nb 0\n", 3, id="count-0"),
        pytest.param(b"a 1\nb -1\n", 3, id="count-minus-1"),
        pytest.param(b"a 1\nb\t1\n", 3, id="tab-in-id"),
        pytest.param(b"a 1\n\xff 1\n", 3, id="id-not-utf8"),
        pytest.param(b"a 1\n", 3, id="table-truncated"),
    ],
)
def test_embedding_v2_bad_table_names_path_and_line(tmp_path, table, line):
    block = np.zeros(4).tobytes()
    digest = hashlib.sha256(table + block).hexdigest()[:16]
    path = tmp_path / "emb.emb"
    path.write_bytes(f"ipod-emb v2 2 2 {digest}\n".encode() + table + block)
    err = _read_error(path)
    assert err.path == str(path) and err.line == line


@pytest.mark.parametrize("header", [b"ipod-emb v2 0 0 e3b0c44298fc1c14\n",
                                    b"ipod-emb v2 2 -1 e3b0c44298fc1c14\n",
                                    b"ipod-emb v2 2 0\n",
                                    b"ipod-emb v4 2 0 e3b0c44298fc1c14\n"])
def test_embedding_v2_bad_header(tmp_path, header):
    path = tmp_path / "emb.emb"
    path.write_bytes(header)
    assert _read_error(path).path == str(path)


ids_st = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda s: s.split() == [s])


@st.composite
def stores(draw):
    dim = draw(st.integers(1, 8))
    records = []
    for _ in range(draw(st.integers(0, 5))):
        n = draw(st.integers(1, 4))
        bits = draw(st.lists(st.integers(0, 2**64 - 1), min_size=n * dim, max_size=n * dim))
        vectors = np.array(bits, dtype=np.uint64).view(np.float64).reshape(n, dim)
        records.append(TitleVectors(draw(ids_st), vectors))
    return EmbeddingStore(dim, records)


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(store=stores())
def test_embedding_v2_roundtrip_any_bits(tmp_path, store):
    path = tmp_path / "h.emb"
    write_embeddings(store, path)
    again = read_embeddings(path)
    assert again.dim == store.dim
    assert [r.title_id for r in again.records] == [r.title_id for r in store.records]
    for r1, r2 in zip(store.records, again.records):
        np.testing.assert_array_equal(_bits(r1.vectors), _bits(r2.vectors))
        assert r2.vectors.flags.writeable


@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(store=stores(), data=st.data())
def test_embedding_file_corruption_is_a_format_error(tmp_path, store, data):
    path = tmp_path / "h.emb"
    write_embeddings(store, path)
    raw = bytearray(path.read_bytes())
    mutation = data.draw(st.sampled_from(["truncate", "byte", "header"]), label="mutation")
    if mutation == "header":
        # A new dimension or record count; the hash field is kept.
        header, sep, rest = raw.partition(b"\n")
        fields = header.split(b" ")
        field = data.draw(st.sampled_from([2, 3]), label="field")
        other = st.integers(0, 99).filter(lambda v: v != int(fields[field]))
        fields[field] = str(data.draw(other, label="value")).encode()
        raw = b" ".join(fields) + sep + rest
    else:
        offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
        if mutation == "truncate":
            raw = raw[:offset]
        else:
            other = st.integers(0, 255).filter(lambda b: b != raw[offset])
            raw[offset] = data.draw(other, label="byte")
    path.write_bytes(bytes(raw))
    assert _read_error(path).path == str(path)


def test_embedding_file_bad_header(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("wrong v9 2 abc\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_embeddings(path)
    # A store without records whose dimension is rewritten, 4 to 7.
    write_embeddings(EmbeddingStore(4, []), path)
    path.write_bytes(path.read_bytes().replace(b"ipod-emb v3 4 0 ", b"ipod-emb v3 7 0 "))
    assert _read_error(path).path == str(path)
    # A well-formed v1 file: v1 is no longer read.
    body = b"t 1\n1.0 0.0\n"
    path.write_bytes(f"ipod-emb v1 2 {hashlib.sha256(body).hexdigest()[:16]}\n".encode() + body)
    assert _read_error(path).path == str(path)


def test_model_dim_validation():
    vocab = Vocab.from_counts({"a": 1})
    with pytest.raises(ValueError):
        BiLmModel(vocab, dim=0, hidden=4, layers=1)
    with pytest.raises(ValueError):
        BiLmModel(vocab, dim=4, hidden=4, layers=0)


@pytest.mark.parametrize("layers", [1, 3])
def test_array_shapes_match_built_model(layers):
    vocab = Vocab(("<unk>", "<s>", "</s>", "chief", "officer"))
    model = BiLmModel(vocab, dim=5, hidden=7, layers=layers)
    built = [(name, arr.shape) for name, arr in model._arrays().items()]
    assert list(BiLmModel._array_shapes(vocab.size, 5, 7, layers)) == built
