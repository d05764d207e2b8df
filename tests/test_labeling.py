import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from titletag.corpus import normalize_title
from titletag.errors import FormatError
from titletag.gazetteer import CoarseTag
from titletag.labeling import (
    ALL_LABELS,
    LABEL_STRINGS,
    N_LABELS,
    BioesLabel,
    Chunk,
    IllegalTransitionError,
    LabeledSequence,
    Prefix,
    auto_tag,
    decode_bioes,
    dumps_conll,
    encode_bioes,
    read_conll,
    write_conll,
)

from conftest import scan_runs

TAGS = [CoarseTag.RES, CoarseTag.FUN, CoarseTag.LOC, CoarseTag.O]


def as_strings(labels):
    return [lab.text for lab in labels]


def test_label_inventory_order():
    assert LABEL_STRINGS[0] == "O"
    assert N_LABELS == 13
    # B/I/E/S blocks per tag, tags in RES, FUN, LOC order
    assert LABEL_STRINGS == (
        "O",
        "B-RES", "I-RES", "E-RES", "S-RES",
        "B-FUN", "I-FUN", "E-FUN", "S-FUN",
        "B-LOC", "I-LOC", "E-LOC", "S-LOC",
    )


def test_label_parse_render_roundtrip():
    for label, s in zip(ALL_LABELS, LABEL_STRINGS):
        assert BioesLabel.parse(s) is label  # the canonical instance
        assert label.text == s
    for s in ("B-XYZ", "Q-RES", "B-O", "b-RES", "O ", ""):
        with pytest.raises(ValueError) as info:
            BioesLabel.parse(s)
        assert str(info.value) == f"not a BIOES label: {s!r}"


def test_flagship_encoding():
    tags = [CoarseTag.RES, CoarseTag.FUN, CoarseTag.RES, CoarseTag.LOC, CoarseTag.LOC]
    assert as_strings(encode_bioes(tags)) == ["S-RES", "S-FUN", "S-RES", "B-LOC", "E-LOC"]


def test_encode_run_shapes():
    assert as_strings(encode_bioes([CoarseTag.FUN])) == ["S-FUN"]
    assert as_strings(encode_bioes([CoarseTag.FUN] * 2)) == ["B-FUN", "E-FUN"]
    assert as_strings(encode_bioes([CoarseTag.FUN] * 4)) == [
        "B-FUN", "I-FUN", "I-FUN", "E-FUN"
    ]
    assert as_strings(encode_bioes([CoarseTag.O, CoarseTag.O])) == ["O", "O"]


def test_encode_empty_rejected():
    with pytest.raises(ValueError):
        encode_bioes([])


def test_exhaustive_roundtrip_small():
    """encode -> strict decode recovers exactly the scanner's chunks, all
    tag sequences up to length 6."""
    for n in range(1, 7):
        for tags in itertools.product(TAGS, repeat=n):
            labels = encode_bioes(tags)
            assert all(label is BioesLabel.parse(label.text) for label in labels)  # canonical
            chunks = decode_bioes(labels)
            expected = [Chunk(tag, b, e) for tag, b, e in scan_runs(list(tags))]
            assert chunks == expected, f"tags={tags}"


def test_strict_decode_flags_first_offense():
    B_RES = BioesLabel.parse("B-RES")
    I_RES = BioesLabel.parse("I-RES")
    E_RES = BioesLabel.parse("E-RES")
    I_FUN = BioesLabel.parse("I-FUN")
    S_LOC = BioesLabel.parse("S-LOC")
    O = BioesLabel.parse("O")

    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([B_RES, B_RES, E_RES])
    assert err.value.position == 1

    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([B_RES, O])
    assert err.value.position == 1

    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([B_RES, S_LOC])
    assert err.value.position == 1

    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([I_RES])
    assert err.value.position == 0

    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([E_RES])
    assert err.value.position == 0

    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([B_RES, I_FUN, E_RES])
    assert err.value.position == 1

    # unclosed chunk reports the final index
    with pytest.raises(IllegalTransitionError) as err:
        decode_bioes([B_RES, I_RES])
    assert err.value.position == 1

    assert "position 1" in str(err.value)


def test_label_invariants():
    with pytest.raises(ValueError):
        BioesLabel(prefix="B", tag=CoarseTag.O)  # type: ignore[arg-type]
    outside = BioesLabel.parse("O")
    assert outside.tag is CoarseTag.O
    assert str(outside) == "O"


def test_auto_tag_flagship(sample_gaz):
    title = normalize_title("Chief Financial Officer, Asia Pacific")
    assert title.tokens == ("chief", "financial", "officer", "asia", "pacific")
    seq = auto_tag(title, sample_gaz)
    assert list(seq.label_strings) == ["S-RES", "S-FUN", "S-RES", "B-LOC", "E-LOC"]


def test_auto_tag_unknown_tokens_outside(sample_gaz):
    title = normalize_title("zzz qqq sales")
    seq = auto_tag(title, sample_gaz)
    assert list(seq.label_strings) == ["O", "O", "S-FUN"]


def test_auto_tag_empty_rejected(sample_gaz):
    with pytest.raises(ValueError):
        auto_tag(normalize_title("!!!"), sample_gaz)


def test_labeled_sequence_validates_lengths():
    with pytest.raises(ValueError):
        LabeledSequence(("a",), (BioesLabel.parse("O"), BioesLabel.parse("O")))


def test_conll_roundtrip(tmp_path):
    seqs = [
        LabeledSequence(
            ("chief", "financial", "officer"),
            tuple(BioesLabel.parse(s) for s in ("S-RES", "S-FUN", "S-RES")),
        ),
        LabeledSequence(("sales",), (BioesLabel.parse("S-FUN"),)),
    ]
    text = dumps_conll(seqs)
    assert text == (
        "chief\tS-RES\nfinancial\tS-FUN\nofficer\tS-RES\n\nsales\tS-FUN\n"
    )
    path = tmp_path / "data.conll"
    write_conll(seqs, path)
    assert read_conll(path) == seqs


def _label_text(label: BioesLabel) -> str:
    """The label as a .conll file spells it, from the enums' values alone."""
    if label.prefix is Prefix.NONE:
        return CoarseTag.O.value
    return label.prefix.value + "-" + label.tag.value


# Fresh instances as well as the canonical ones: a caller may build its own.
_ANY_LABEL = st.sampled_from(ALL_LABELS) | st.sampled_from(ALL_LABELS).map(
    lambda label: BioesLabel(label.prefix, label.tag))


@given(st.lists(st.lists(st.tuples(st.sampled_from(["chief", "of", "x-ray", "\u00e9t\u00e9"]),
                                   _ANY_LABEL), min_size=1, max_size=6), max_size=5))
def test_dumps_conll_matches_the_enum_oracle(rows):
    seqs = [LabeledSequence(tuple(t for t, _ in seq), tuple(lab for _, lab in seq)) for seq in rows]
    expected = "\n".join("".join(f"{tok}\t{_label_text(lab)}\n" for tok, lab in seq) for seq in rows)
    assert dumps_conll(seqs) == expected
    for seq in seqs:
        assert seq.label_strings == tuple(_label_text(lab) for lab in seq.labels)


def test_dumps_conll_writes_all_13_labels_as_the_oracle():
    seq = LabeledSequence(tuple(f"t{i}" for i in range(N_LABELS)), ALL_LABELS)
    assert dumps_conll([seq]) == "".join(f"t{i}\t{_label_text(lab)}\n" for i, lab in enumerate(ALL_LABELS))


def test_parse_conll_tolerates_blank_runs(tmp_path):
    path = tmp_path / "blank.conll"
    path.write_text("a\tO\n\n\n\nb\tS-FUN\n", encoding="utf-8")
    seqs = read_conll(path)
    assert [s.tokens for s in seqs] == [("a",), ("b",)]


def test_parse_conll_errors_carry_line_numbers(tmp_path):
    path = tmp_path / "data.conll"
    path.write_text("a\tO\nbroken line\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_conll(path)
    assert f"{path}:2" in str(err.value)

    path.write_text("a\tZ-RES\n", encoding="utf-8")
    with pytest.raises(FormatError) as err:
        read_conll(path)
    assert f"{path}:1" in str(err.value)

    path.write_text("\tO\n", encoding="utf-8")
    with pytest.raises(FormatError):
        read_conll(path)


def test_all_labels_match_strings():
    assert tuple(lab.text for lab in ALL_LABELS) == LABEL_STRINGS
