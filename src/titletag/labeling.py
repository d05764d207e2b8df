"""BIOES label scheme, chunk recovery, gazetteer auto-tagging and CoNLL IO.

Thirteen labels: O plus the four positional prefixes (B/I/E/S) for each of
RES, FUN and LOC. Canonical label order puts O at index 0 so deterministic
argmax tie-breaking favors the empty label.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from pathlib import Path
from typing import NamedTuple, Sequence

import numpy as np

from .corpus import Title
from .errors import FormatError, is_blank, read_lines
from .gazetteer import CoarseTag, Gazetteer


class Prefix(str, Enum):
    B = "B"
    I = "I"
    E = "E"
    S = "S"
    NONE = ""


@dataclass(frozen=True)
class BioesLabel:
    """A positional prefix plus a coarse tag; the outside label is prefix-free."""

    prefix: Prefix
    tag: CoarseTag
    # The label as .conll spells it, set once here: the writers and the
    # scorer read it per token.
    text: str = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if (self.tag is CoarseTag.O) != (self.prefix is Prefix.NONE):
            raise ValueError(f"invalid label: prefix {self.prefix!r} with tag {self.tag!r}")
        text = "O" if self.tag is CoarseTag.O else f"{self.prefix.value}-{self.tag.value}"
        object.__setattr__(self, "text", text)

    def __str__(self) -> str:
        return self.text

    @staticmethod
    def parse(text: str) -> "BioesLabel":
        """The canonical ALL_LABELS instance whose .text is text."""
        label = _LABEL_BY_STRING.get(text)
        if label is None:
            raise ValueError(f"not a BIOES label: {text!r}")
        return label


OUTSIDE = BioesLabel(Prefix.NONE, CoarseTag.O)

ENTITY_TAGS = (CoarseTag.RES, CoarseTag.FUN, CoarseTag.LOC)

ALL_LABELS: tuple[BioesLabel, ...] = (OUTSIDE,) + tuple(
    BioesLabel(prefix, tag)
    for tag in ENTITY_TAGS
    for prefix in (Prefix.B, Prefix.I, Prefix.E, Prefix.S)
)
LABEL_STRINGS: tuple[str, ...] = tuple(label.text for label in ALL_LABELS)
LABEL_INDEX: dict[BioesLabel, int] = {label: i for i, label in enumerate(ALL_LABELS)}
_LABEL_BY_STRING: dict[str, BioesLabel] = dict(zip(LABEL_STRINGS, ALL_LABELS))
_LABEL_BY_PARTS: dict[tuple[Prefix, CoarseTag], BioesLabel] = {
    (label.prefix, label.tag): label for label in ALL_LABELS
}
N_LABELS = len(ALL_LABELS)


@dataclass(frozen=True)
class LabeledSequence:
    """Tokens with one BIOES label each."""

    tokens: tuple[str, ...]
    labels: tuple[BioesLabel, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.labels):
            raise ValueError(
                f"length mismatch: {len(self.tokens)} tokens vs {len(self.labels)} labels"
            )

    @property
    def label_strings(self) -> tuple[str, ...]:
        return tuple(label.text for label in self.labels)

    def label_ids(self) -> list[int]:
        return [LABEL_INDEX[label] for label in self.labels]


class Chunk(NamedTuple):
    tag: CoarseTag
    start: int
    end: int  # inclusive


class IllegalTransitionError(ValueError):
    """A label sequence violates the BIOES grammar under STRICT decoding."""

    def __init__(self, message: str, position: int):
        self.position = position
        super().__init__(f"position {position}: {message}")


def encode_bioes(coarse: Sequence[CoarseTag]) -> tuple[BioesLabel, ...]:
    """Encode coarse per-token tags as BIOES labels over maximal same-tag runs."""
    if not coarse:
        raise ValueError("cannot encode an empty tag sequence")
    out: list[BioesLabel] = []
    i, n = 0, len(coarse)
    while i < n:
        tag = coarse[i]
        j = i
        while j + 1 < n and coarse[j + 1] == tag:
            j += 1
        if tag is CoarseTag.O:
            out.extend([OUTSIDE] * (j - i + 1))
        elif j == i:
            out.append(_LABEL_BY_PARTS[Prefix.S, tag])
        else:
            out.append(_LABEL_BY_PARTS[Prefix.B, tag])
            out.extend([_LABEL_BY_PARTS[Prefix.I, tag]] * (j - i - 1))
            out.append(_LABEL_BY_PARTS[Prefix.E, tag])
        i = j + 1
    return tuple(out)


def decode_bioes(labels: Sequence[BioesLabel]) -> list[Chunk]:
    """Recover entity chunks from a BIOES label sequence.

    Raises IllegalTransitionError, naming the first offending position, on
    any grammar violation.
    """
    chunks: list[Chunk] = []
    open_tag: CoarseTag | None = None
    open_start = -1
    for i, label in enumerate(labels):
        if label.prefix in (Prefix.NONE, Prefix.B, Prefix.S) and open_tag is not None:
            raise IllegalTransitionError(
                f"{label.text} while a {open_tag.value} chunk is open", i
            )
        if label.prefix in (Prefix.I, Prefix.E):
            if open_tag is None:
                raise IllegalTransitionError(f"{label.text} without an open chunk", i)
            if open_tag != label.tag:
                raise IllegalTransitionError(
                    f"{label.text} inside an open {open_tag.value} chunk", i
                )
        if label.prefix is Prefix.B:
            open_tag, open_start = label.tag, i
        elif label.prefix is Prefix.S:
            chunks.append(Chunk(label.tag, i, i))
        elif label.prefix is Prefix.E:
            chunks.append(Chunk(open_tag, open_start, i))
            open_tag = None
    if open_tag is not None:
        raise IllegalTransitionError(f"{open_tag.value} chunk is never closed", len(labels) - 1)
    return chunks


def auto_tag(title: Title, gazetteer: Gazetteer) -> LabeledSequence:
    """Label a title by gazetteer lookup and BIOES-encode the result."""
    if title.is_empty:
        raise ValueError("cannot tag an empty title")
    coarse = [gazetteer.lookup(token) for token in title.tokens]
    return LabeledSequence(tokens=title.tokens, labels=encode_bioes(coarse))


def check_shares(shares: Sequence[float]) -> None:
    """ValueError unless shares are three finite non-negative numbers with a
    positive sum: the train, dev and test shares of split_sequences."""
    if len(shares) != 3 or not all(0 <= s < math.inf for s in shares) or not 0 < sum(shares) < math.inf:
        raise ValueError(f"expected three finite non-negative shares with a positive sum, got {shares!r}")


def split_sequences(seqs: Sequence[LabeledSequence], shares: Sequence[float], seed: int):
    """Seeded (train, dev, test) split of seqs in the given shares.

    One permutation from default_rng(seed) orders seqs; train and dev take
    the floor of their shares of it and test takes the rest. shares are three
    finite non-negative numbers with a positive sum (check_shares).
    """
    check_shares(shares)
    total = sum(shares)
    shuffled = [seqs[int(j)] for j in np.random.default_rng(seed).permutation(len(seqs))]
    n_train = int(len(seqs) * shares[0] / total)
    n_dev = int(len(seqs) * shares[1] / total)
    return shuffled[:n_train], shuffled[n_train : n_train + n_dev], shuffled[n_train + n_dev :]


def dumps_conll(sequences: Sequence[LabeledSequence]) -> str:
    """Serialize sequences as token<TAB>label lines, blank line between titles."""
    blocks = []
    for seq in sequences:
        blocks.append("".join(f"{tok}\t{label.text}\n" for tok, label in zip(seq.tokens, seq.labels)))
    return "\n".join(blocks)


def write_conll(sequences: Sequence[LabeledSequence], path: str | Path) -> None:
    Path(path).write_text(dumps_conll(sequences), encoding="utf-8")


def read_conll(path: str | Path) -> list[LabeledSequence]:
    """The labeled titles of a .conll file, its lines read by errors.read_lines."""
    sequences: list[LabeledSequence] = []
    tokens: list[str] = []
    labels: list[BioesLabel] = []

    def flush() -> None:
        if tokens:
            sequences.append(LabeledSequence(tokens=tuple(tokens), labels=tuple(labels)))
            tokens.clear()
            labels.clear()

    source = str(Path(path))
    for lineno, line in read_lines(source):
        if is_blank(line):
            flush()
            continue
        parts = line.split("\t")
        if len(parts) != 2:
            raise FormatError(
                f"expected token<TAB>label, got {len(parts)} columns", path=source, line=lineno
            )
        token, label_text = parts
        if not token:
            raise FormatError("empty token", path=source, line=lineno)
        try:
            labels.append(BioesLabel.parse(label_text))
        except ValueError:
            raise FormatError(f"unknown label {label_text!r}", path=source, line=lineno) from None
        tokens.append(token)
    flush()
    return sequences
