import math

import pytest

from titletag.errors import FormatError
from titletag.gazetteer import (
    Agreement,
    AnnotationSet,
    CoarseTag,
    Gazetteer,
    GazetteerEntry,
    cohens_kappa,
    irr_report,
    merge_annotations,
    percentage_agreement,
    read_annotations,
    read_gazetteer,
    write_gazetteer,
)

R, F, L, O = CoarseTag.RES, CoarseTag.FUN, CoarseTag.LOC, CoarseTag.O


def annset(annotator_id, labels):
    return AnnotationSet(annotator_id, {f"w{i:04d}": tag for i, tag in enumerate(labels)})


def test_merge_annotations_votes():
    a = annset("a", [R, F, L, R])
    b = annset("b", [R, F, R, F])
    c = annset("c", [R, L, R, L])
    gaz = merge_annotations([a, b, c])
    assert gaz.entries["w0000"].agreement is Agreement.UNANIMOUS
    assert gaz.entries["w0000"].tag is R
    assert gaz.entries["w0001"].tag is F
    assert gaz.entries["w0001"].agreement is Agreement.MAJORITY
    assert gaz.entries["w0002"].tag is R
    # three-way disagreement is rejected
    assert "w0003" not in gaz.entries
    assert gaz.rejected == ("w0003",)
    assert len(gaz) == 3
    # entry order follows the first annotation set
    assert list(gaz.entries) == ["w0000", "w0001", "w0002"]


def test_merge_annotations_requires_three_sets():
    a = annset("a", [R])
    with pytest.raises(ValueError):
        merge_annotations([a, a])


def test_merge_annotations_coverage_mismatch():
    a = annset("a", [R, F])
    b = annset("b", [R, F])
    c = AnnotationSet("c", {"other": R, "tokens": F})
    with pytest.raises(ValueError):
        merge_annotations([a, b, c])


def test_gazetteer_lookup_fallback():
    gaz = Gazetteer(entries={"boss": GazetteerEntry(R, (R, R, R), Agreement.UNANIMOUS)})
    assert gaz.lookup("boss") is R
    assert gaz.lookup("nothere") is O


def test_percentage_agreement_mixed_fixture():
    """1500 tokens: 1169 unanimous, 331 with one dissenter.

    A unanimous token contributes agreement on all three annotator pairs,
    a majority token on exactly one, so the mean pairwise agreement is
    (1169*3 + 331) / (1500*3) = 3838/4500.
    """
    tags = [R, F, L, O]
    labels = [tags[i % 4] for i in range(1500)]
    a = annset("a", labels)
    b = annset("b", labels)
    c_labels = list(labels)
    for i in range(331):  # dissenting third vote on the first 331 tokens
        c_labels[i] = tags[(i + 1) % 4]
    c = annset("c", c_labels)

    pa = percentage_agreement([a, b, c])
    assert pa == pytest.approx(3838 / 4500, abs=1e-12)
    assert pa == pytest.approx(0.853, abs=1e-3)

    rep = irr_report([a, b, c])
    assert rep.unanimous_count == 1169
    assert rep.majority_count == 331
    assert rep.disagreement_count == 0
    assert rep.total == 1500
    assert rep.unanimous_count / rep.total == pytest.approx(0.779, abs=1e-3)


def test_cohens_kappa_hand_fixture():
    """Joint table: 2 RES-RES, 3 FUN-FUN, 4 LOC-LOC, 1 RES-vs-FUN.

    p_o = 9/10. Marginals: a = (3 RES, 3 FUN, 4 LOC), b = (2 RES, 4 FUN,
    4 LOC), so p_e = (3*2 + 3*4 + 4*4)/100 = 0.34 and kappa = 0.56/0.66.
    """
    a = annset("a", [R, R, F, F, F, L, L, L, L, R])
    b = annset("b", [R, R, F, F, F, L, L, L, L, F])
    kappa = cohens_kappa(a, b)
    assert kappa == pytest.approx(56 / 66, abs=1e-12)


def test_cohens_kappa_edges():
    a = annset("a", [R, F, L, O])
    assert cohens_kappa(a, a) == 1.0
    # single shared category: chance agreement is total, observed too
    b = annset("b", [R, R, R])
    assert cohens_kappa(b, b) == 1.0
    # no agreement at all on balanced marginals goes negative
    c = annset("c", [R, F])
    d = annset("d", [F, R])
    assert cohens_kappa(c, d) < 0


def test_irr_report_sample_sets(sample_sets):
    rep = irr_report(list(sample_sets))
    assert rep.total == 53
    assert rep.percentage_agreement == pytest.approx(147 / 159, abs=1e-12)
    assert rep.disagreement_count == 0
    assert -1.0 <= rep.cohens_kappa <= 1.0
    assert rep.unanimous_count + rep.majority_count == 53


def test_sample_gazetteer_contents(sample_gaz):
    assert sample_gaz.lookup("chief") is R
    assert sample_gaz.lookup("financial") is F
    assert sample_gaz.lookup("asia") is L
    assert sample_gaz.lookup("of") is O
    assert len(sample_gaz) == 53
    assert sample_gaz.rejected == ()


def test_annotations_file_roundtrip(tmp_path, sample_sets):
    path = tmp_path / "ann.tsv"
    path.write_text("".join(f"{tok}\t{tag.value}\n" for tok, tag in sample_sets[0].votes.items()),
                    encoding="utf-8")
    again = read_annotations(path)
    assert again.votes == sample_sets[0].votes
    assert again.annotator_id == path.stem


def test_read_annotations_errors(tmp_path):
    bad_cols = tmp_path / "a.tsv"
    bad_cols.write_text("token only line\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_annotations(bad_cols)
    assert "a.tsv:1" in str(err.value)

    bad_tag = tmp_path / "b.tsv"
    bad_tag.write_text("boss\tBOSS\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_annotations(bad_tag)

    dup = tmp_path / "c.tsv"
    dup.write_text("boss\tRES\nboss\tFUN\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_annotations(dup)
    assert "c.tsv:2" in str(err.value)


def test_gazetteer_file_roundtrip(tmp_path, sample_gaz):
    path = tmp_path / "gaz.tsv"
    write_gazetteer(sample_gaz, path)
    again = read_gazetteer(path)
    assert again.entries == sample_gaz.entries
    assert again.rejected == ()
    assert list(again.entries) == list(sample_gaz.entries)


def test_read_gazetteer_errors(tmp_path):
    p = tmp_path / "g.tsv"
    p.write_text("boss\tRES\tRES\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_gazetteer(p)

    p.write_text("boss\tRES\tRES\tRES\tRES\tsometimes\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_gazetteer(p)

    p.write_text("boss\tXXX\tRES\tRES\tRES\tunanimous\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_gazetteer(p)

    p.write_text("boss\tRES\tRES\tRES\tRES\tUNANIMOUS\n\tRES\tRES\tRES\tRES\tUNANIMOUS\n",
                 encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_gazetteer(p)
    assert (err.value.path, err.value.line) == (str(p), 2)


def test_kappa_is_symmetric(sample_sets):
    a, b, _ = sample_sets
    assert cohens_kappa(a, b) == pytest.approx(cohens_kappa(b, a), abs=1e-12)
    assert not math.isnan(cohens_kappa(a, b))
