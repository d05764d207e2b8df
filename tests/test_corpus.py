import pytest
from hypothesis import given
from hypothesis import strategies as st

from titletag.corpus import (
    Corpus,
    Region,
    Title,
    canonical_line,
    length_summaries,
    load_corpus,
    ngram_counts,
    normalize_title,
    synth_corpus,
    write_corpus,
)


def toks(raw):
    return normalize_title(raw).tokens


def test_normalize_basic():
    assert toks("Chief Financial Officer, Asia Pacific") == (
        "chief", "financial", "officer", "asia", "pacific"
    )
    assert toks("  Senior   Engineer ") == ("senior", "engineer")
    assert toks("V.P. (Sales)") == ("vp", "sales")


def test_normalize_casefold_and_nfkc():
    assert toks("STRASSE") == toks("strasse")
    # fullwidth forms collapse to ascii under NFKC
    assert toks("Ｓales") == ("sales",)
    assert toks("Ｍanager") == ("manager",)


def test_normalize_deletes_instead_of_splitting():
    # punctuation is removed, not turned into a boundary
    assert toks("e-commerce") == ("ecommerce",)
    assert toks("co-founder") == ("cofounder",)


def test_ampersand_handling():
    assert toks("Sales & Marketing") == ("sales", "and", "marketing")
    assert toks("R&D") == ("r&d",)
    assert toks("R&D & QA") == ("r&d", "and", "qa")


def test_normalize_empty_result():
    title = normalize_title("!!! ---")
    assert title.is_empty
    assert title.raw == "!!! ---"


@given(st.text(max_size=40))
def test_normalize_idempotent(raw):
    once = normalize_title(raw)
    again = normalize_title(canonical_line(once))
    assert again.tokens == once.tokens


@given(st.text(max_size=40))
def test_normalize_output_alphabet(raw):
    for tok in normalize_title(raw).tokens:
        assert tok
        assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789&" for c in tok)


def test_region_parse():
    assert Region.parse("US") is Region.US
    assert Region.parse("usa") is Region.US
    assert Region.parse("United States") is Region.US
    assert Region.parse("ASIA") is Region.ASIA
    assert Region.parse("asian") is Region.ASIA
    assert Region.parse("") is Region.UNKNOWN
    assert Region.parse("europe") is Region.UNKNOWN


def test_load_corpus_lines(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("Chief Engineer\n\nSales & Marketing\n!!!\n", encoding="utf-8")
    corpus = load_corpus(p)
    assert [t.tokens for t in corpus] == [
        ("chief", "engineer"), ("sales", "and", "marketing")
    ]
    assert corpus.empty_count == 2  # the blank line and the symbols-only line
    assert corpus.skipped_rows == ()


def test_load_corpus_tsv(tmp_path):
    p = tmp_path / "t.tsv"
    p.write_text(
        "Chief Engineer\tUS\tp1\nbad row without tabs\nHead of Sales\tasia\tp2\n",
        encoding="utf-8",
    )
    corpus = load_corpus(p, fmt="tsv")
    assert len(corpus) == 2
    assert corpus.titles[0].region is Region.US
    assert corpus.titles[1].region is Region.ASIA
    assert corpus.titles[1].profile_id == "p2"
    assert len(corpus.skipped_rows) == 1
    assert corpus.skipped_rows[0][0] == 2


def test_load_corpus_unknown_format(tmp_path):
    p = tmp_path / "t.txt"
    p.write_text("x\n", encoding="utf-8")
    with pytest.raises(ValueError):
        load_corpus(p, fmt="jsonl")


def test_write_corpus_roundtrip(tmp_path):
    src = tmp_path / "in.tsv"
    src.write_text("Chief Engineer\tUS\tp1\nHead of Sales\tASIA\tp2\n", encoding="utf-8")
    corpus = load_corpus(src, fmt="tsv")
    out = tmp_path / "out.tsv"
    write_corpus(corpus, out, fmt="tsv")
    again = load_corpus(out, fmt="tsv")
    assert [t.tokens for t in again] == [t.tokens for t in corpus]
    assert [t.region for t in again] == [t.region for t in corpus]


def _corpus(lengths_by_region):
    titles = []
    for region, lengths in lengths_by_region.items():
        for i, n in enumerate(lengths):
            titles.append(
                Title(raw="", tokens=tuple(f"w{j}" for j in range(n)), region=region,
                      profile_id=f"{region.value}{i}")
            )
    return Corpus(titles=tuple(titles))


def test_length_stats_and_histogram():
    corpus = _corpus({Region.ASIA: [4, 2], Region.US: [1, 2, 3, 2]})
    summaries = length_summaries(corpus)
    # all titles first, then the regions that have titles, in REGION_ORDER
    assert list(summaries) == [None, Region.US, Region.ASIA]
    overall = summaries[None]
    assert overall.min == 1
    assert overall.max == 4
    assert overall.avg == pytest.approx(14 / 6)
    assert overall.median == 2.0
    assert summaries[Region.US].avg == pytest.approx(2.0)
    assert summaries[Region.ASIA].median == pytest.approx(3.0)

    assert list(overall.histogram) == [1, 2, 3, 4]
    assert overall.histogram[2] == pytest.approx(50.0)
    assert sum(overall.histogram.values()) == pytest.approx(100.0)
    assert sum(summaries[Region.US].histogram.values()) == pytest.approx(100.0)


def test_length_stats_empty_corpus():
    with pytest.raises(ValueError, match="titles.txt has no titles"):
        length_summaries(Corpus(titles=(), source_label="titles.txt"))


def test_ngram_counts_ordering():
    titles = tuple(
        Title(raw="", tokens=t)
        for t in [("a", "b"), ("a", "b"), ("b", "a"), ("a",)]
    )
    assert ngram_counts(Corpus(titles=titles), 1) == ((("a",), 4), (("b",), 3))
    assert ngram_counts(Corpus(titles=titles), 2) == ((("a", "b"), 2), (("b", "a"), 1))

    # ties break lexicographically
    tied = Corpus(titles=(Title(raw="", tokens=("z", "c")),))
    assert ngram_counts(tied, 1) == ((("c",), 1), (("z",), 1))


def test_ngram_counts_validation():
    corpus = Corpus(titles=(Title(raw="", tokens=("a",)),))
    with pytest.raises(ValueError):
        ngram_counts(corpus, 0)
    assert ngram_counts(corpus, 3) == ()


def test_synth_corpus_shape(sample_gaz):
    corpus = synth_corpus(sample_gaz, grammar_seed=42, count=500)
    assert len(corpus) == 500
    assert corpus.source_label == "synth(seed=42)"
    lengths = {len(t.tokens) for t in corpus}
    assert lengths <= set(range(1, 7))
    known = set(sample_gaz.entries)
    for title in corpus.titles:
        assert set(title.tokens) <= known
    assert corpus.titles[0].profile_id == "p00000"
    assert corpus.titles[5].profile_id == "p00001"
    regions = {t.region for t in corpus}
    assert regions <= {Region.US, Region.ASIA}
    us_share = sum(t.region is Region.US for t in corpus) / len(corpus)
    assert 0.45 < us_share < 0.68


def test_synth_corpus_deterministic(sample_gaz):
    a = synth_corpus(sample_gaz, grammar_seed=7, count=64)
    b = synth_corpus(sample_gaz, grammar_seed=7, count=64)
    assert [t.tokens for t in a] == [t.tokens for t in b]
    assert [t.region for t in a] == [t.region for t in b]
    c = synth_corpus(sample_gaz, grammar_seed=8, count=64)
    assert [t.tokens for t in a] != [t.tokens for t in c]


def test_synth_corpus_needs_all_pools():
    from titletag.gazetteer import Gazetteer, GazetteerEntry, Agreement, CoarseTag

    only_res = Gazetteer(entries={
        "boss": GazetteerEntry(CoarseTag.RES, ("RES", "RES", "RES"), Agreement.UNANIMOUS)
    })
    with pytest.raises(ValueError):
        synth_corpus(only_res, grammar_seed=1, count=10)
