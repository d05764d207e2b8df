import hashlib

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from titletag.corpus import Corpus, Title, synth_corpus
from titletag.crf import TrainConfig
from titletag.errors import FormatError
from titletag.title2vec import (
    BiLmModel,
    EmbeddingStore,
    TitleVectors,
    Vocab,
    _bilm_batch,
    backward_logprobs,
    batch_ce,
    build_vocab,
    embed_title,
    forward_logprobs,
    nearest_titles,
    perplexity,
    read_embeddings,
    train_bilm,
    write_embeddings,
)

from conftest import central_difference


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


def test_forward_causality():
    model = tiny_model(layers=2)
    base = ("alpha", "beta", "gamma")
    changed = ("alpha", "beta", "delta")
    lp_base = forward_logprobs(model, base)
    lp_changed = forward_logprobs(model, changed)
    assert lp_base.shape == (4, model.vocab.size)
    # predictions for positions 0..2 depend only on the prefix
    np.testing.assert_allclose(lp_base[:3], lp_changed[:3], atol=1e-12)
    # rows are log-distributions
    np.testing.assert_allclose(np.exp(lp_base).sum(axis=1), 1.0, atol=1e-9)


def test_backward_causality():
    model = tiny_model(layers=2)
    base = ("alpha", "beta", "gamma")
    changed = ("delta", "beta", "gamma")
    lp_base = backward_logprobs(model, base)
    lp_changed = backward_logprobs(model, changed)
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


def test_bilm_gradients_match_finite_differences():
    model = tiny_model(dim=3, hidden=3, layers=2, seed=4)
    seqs = [model.vocab.ids(("alpha", "beta", "gamma")), model.vocab.ids(("delta", "alpha"))]
    params = model.parameters()
    grads = [np.zeros_like(p) for p in params]
    _bilm_batch(model, seqs, grads)

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


def test_store_pooled():
    store = store_fixture()
    np.testing.assert_allclose(store.pooled()[0], [1.0, 0.0])
    assert store.pooled().shape == (3, 2)


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


# store_fixture() as a v1 text body.
V1_FIXTURE_BODY = "t0 2\n1.0 0.0\n1.0 0.0\nt1 1\n0.0 1.0\nt2 1\n1.0 0.0\n"


def _write_v2(path) -> bytearray:
    """Write store_fixture() as v2 and return the file bytes."""
    write_embeddings(store_fixture(), path)
    return bytearray(path.read_bytes())


def _v2_block_start(data: bytes, records: int) -> int:
    """Offset of the float block: after the header line and the table lines."""
    pos = 0
    for _ in range(records + 1):
        pos = data.index(b"\n", pos) + 1
    return pos


def test_embedding_file_hash_tamper(tmp_path):
    path = tmp_path / "emb.txt"
    _write_body(path, 2, V1_FIXTURE_BODY)
    assert len(read_embeddings(path).records) == 3
    text = path.read_text(encoding="utf-8")
    path.write_text(text.replace("1.0", "1.5", 1), encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_embeddings(path)
    assert "hash" in str(err.value)

    path = tmp_path / "emb.emb"
    data = _write_v2(path)
    # "t0" -> "u0" in the table; a mantissa bit of the first value in the block.
    for offset in (data.index(b"\n") + 1, _v2_block_start(data, 3) + 5):
        tampered = bytearray(data)
        tampered[offset] ^= 0x01
        path.write_bytes(bytes(tampered))
        with pytest.raises(FormatError) as err:
            read_embeddings(path)
        assert "hash" in str(err.value) and str(path) in str(err.value)


def test_embedding_file_truncated(tmp_path):
    path = tmp_path / "emb.txt"
    lines = V1_FIXTURE_BODY.splitlines()
    _write_body(path, 2, "\n".join(lines[:-1]) + "\n")
    with pytest.raises(FormatError):
        read_embeddings(path)

    path = tmp_path / "emb.emb"
    data = _write_v2(path)
    for drop in (1, 2 * 8):  # the last byte; the last row
        path.write_bytes(bytes(data[:-drop]))
        with pytest.raises(FormatError):
            read_embeddings(path)


def test_embedding_file_trailing_bytes_v2(tmp_path):
    path = tmp_path / "emb.emb"
    data = _write_v2(path)
    path.write_bytes(bytes(data) + b"\0")
    assert _read_error(path).path == str(path)


def _write_body(path, dim, body):
    digest = hashlib.sha256(body.encode()).hexdigest()[:16]
    path.write_text(f"ipod-emb v1 {dim} {digest}\n{body}", encoding="utf-8")


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
    "body,line",
    [
        pytest.param("a 1\n0.5 0.25\nb -1\n", 4, id="count-minus-1"),
        pytest.param("a 1\n0.5 0.25\nb -2\n0.5 0.25\n", 4, id="count-minus-2"),
        pytest.param("a 0\nb 1\n0.5 0.25\n", 2, id="count-0"),
        pytest.param("a 2\n0.5 0.25\n0.1 x\n", 4, id="non-numeric-value"),
        pytest.param("a 2\n0.5 0.25\n0.1\n", 4, id="short-row"),
    ],
)
def test_embedding_file_bad_record_names_path_and_line(tmp_path, body, line):
    path = tmp_path / "emb.txt"
    _write_body(path, 2, body)
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


def test_embedding_v1_repr_text_reads_bit_exact(tmp_path):
    rows = np.array([SPECIAL_VALUES, SPECIAL_VALUES[::-1]])
    path = tmp_path / "emb.txt"
    _write_body(path, len(SPECIAL_VALUES),
                _render_v1(EmbeddingStore(len(SPECIAL_VALUES), [TitleVectors("t", rows)])))
    (record,) = read_embeddings(path).records
    np.testing.assert_array_equal(_bits(record.vectors), _bits(rows))


def test_embedding_v1_not_utf8_is_a_format_error(tmp_path):
    body = b"a 1\n0.5 \xff\n"
    path = tmp_path / "emb.txt"
    digest = hashlib.sha256(body).hexdigest()[:16]
    path.write_bytes(f"ipod-emb v1 2 {digest}\n".encode() + body)
    err = _read_error(path)
    assert err.path == str(path) and err.line == 3


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
                                    b"ipod-emb v3 2 0 e3b0c44298fc1c14\n"])
def test_embedding_v2_bad_header(tmp_path, header):
    path = tmp_path / "emb.emb"
    path.write_bytes(header)
    assert _read_error(path).path == str(path)


ids_st = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")), min_size=1, max_size=6
).filter(lambda s: s.split() == [s])


@st.composite
def stores(draw, min_records=0):
    dim = draw(st.integers(1, 8))
    records = []
    for _ in range(draw(st.integers(min_records, 5))):
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


def _render_v1(store: EmbeddingStore) -> str:
    """The v1 body of store: per record `{id} {n}`, then n rows of repr() floats."""
    return "".join(
        f"{rec.title_id} {len(rec.vectors)}\n"
        + "".join(" ".join(repr(float(v)) for v in row) + "\n" for row in rec.vectors)
        for rec in store.records
    )


# At least one record: with none, the header's dimension is the whole
# content, and the hash covers only what follows the header.
@settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(store=stores(min_records=1), version=st.sampled_from(["v1", "v2"]), data=st.data())
def test_embedding_file_corruption_is_a_format_error(tmp_path, store, version, data):
    path = tmp_path / "h.emb"
    if version == "v1":
        _write_body(path, store.dim, _render_v1(store))
    else:
        write_embeddings(store, path)
    raw = bytearray(path.read_bytes())
    offset = data.draw(st.integers(0, len(raw) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
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
    # A v1 file without records and with a hash-valid body, at a bad dimension.
    for dim in (0, -2):
        _write_body(path, dim, "")
        assert _read_error(path).path == str(path)


def test_nearest_titles():
    store = store_fixture()
    hits = nearest_titles(store, np.array([1.0, 0.0]), k=3)
    # t0 and t2 tie at similarity 1; insertion order breaks the tie
    assert [h[0] for h in hits] == ["t0", "t2", "t1"]
    assert hits[0][1] == pytest.approx(1.0)
    assert hits[2][1] == pytest.approx(0.0)

    top1 = nearest_titles(store, np.array([[1.0, 0.0], [1.0, 0.0]]), k=1)
    assert top1[0][0] == "t0"

    assert len(nearest_titles(store, np.array([1.0, 0.0]), k=99)) == 3
    with pytest.raises(ValueError):
        nearest_titles(store, np.array([1.0, 0.0, 0.0]), k=1)
    with pytest.raises(ValueError):
        nearest_titles(store, np.array([1.0, 0.0]), k=0)
    # zero-norm query produces zero similarities, not errors
    zeros = nearest_titles(store, np.array([0.0, 0.0]), k=2)
    assert all(s == 0.0 for _, s in zeros)


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
