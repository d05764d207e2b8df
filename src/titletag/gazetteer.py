"""Gazetteer construction from triple annotations, with inter-rater scores.

Three annotators each assign one coarse tag per token; majority vote decides
the gazetteer tag and tokens on which all three disagree are rejected.
Agreement is summarized as mean pairwise percentage agreement and mean
pairwise Cohen's kappa.
"""

from __future__ import annotations

import logging
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import combinations
from pathlib import Path
from typing import Callable, Sequence

from .errors import FormatError, is_blank, read_lines

log = logging.getLogger(__name__)


class CoarseTag(str, Enum):
    """Domain entity classes: responsibility, function, location, outside."""

    RES = "RES"
    FUN = "FUN"
    LOC = "LOC"
    O = "O"


class Agreement(str, Enum):
    UNANIMOUS = "UNANIMOUS"
    MAJORITY = "MAJORITY"


@dataclass(frozen=True)
class AnnotationSet:
    """One annotator's token -> tag votes, in annotation order."""

    annotator_id: str
    votes: dict[str, CoarseTag]


@dataclass(frozen=True)
class GazetteerEntry:
    tag: CoarseTag
    votes: tuple[CoarseTag, CoarseTag, CoarseTag]
    agreement: Agreement


@dataclass(frozen=True)
class Gazetteer:
    """Token -> entry mapping; lookup of an unlisted token returns O."""

    entries: dict[str, GazetteerEntry]
    rejected: tuple[str, ...] = ()

    def lookup(self, token: str) -> CoarseTag:
        entry = self.entries.get(token)
        return entry.tag if entry is not None else CoarseTag.O

    def __len__(self) -> int:
        return len(self.entries)


@dataclass(frozen=True)
class IrrReport:
    percentage_agreement: float
    cohens_kappa: float
    unanimous_count: int
    majority_count: int
    disagreement_count: int

    @property
    def total(self) -> int:
        return self.unanimous_count + self.majority_count + self.disagreement_count


def _check_coverage(sets: Sequence[AnnotationSet]) -> list[str]:
    if not sets:
        raise ValueError("no annotation sets given")
    tokens = list(sets[0].votes)
    if not tokens:
        raise ValueError("annotation sets are empty")
    reference = set(tokens)
    for s in sets[1:]:
        if set(s.votes) != reference:
            raise ValueError(
                f"annotation sets cover different tokens: {sets[0].annotator_id!r} vs {s.annotator_id!r}"
            )
    return tokens


def merge_annotations(sets: Sequence[AnnotationSet]) -> Gazetteer:
    """Majority-vote three annotation sets into a Gazetteer.

    Tokens where all three annotators disagree are rejected and reported;
    they never enter the gazetteer. Entry order follows the first set.
    """
    if len(sets) != 3:
        raise ValueError(f"exactly three annotation sets are required, got {len(sets)}")
    tokens = _check_coverage(sets)
    entries: dict[str, GazetteerEntry] = {}
    rejected: list[str] = []
    for token in tokens:
        votes = tuple(s.votes[token] for s in sets)
        tag, top = Counter(votes).most_common(1)[0]
        if top == 1:
            rejected.append(token)
            continue
        agreement = Agreement.UNANIMOUS if top == 3 else Agreement.MAJORITY
        entries[token] = GazetteerEntry(tag=tag, votes=votes, agreement=agreement)
    if rejected:
        log.warning("rejected %d tokens on which all three annotators disagree", len(rejected))
    return Gazetteer(entries=entries, rejected=tuple(rejected))


def percentage_agreement(sets: Sequence[AnnotationSet]) -> float:
    """Mean pairwise fraction of tokens on which two annotators agree."""
    tokens = _check_coverage(sets)
    if len(sets) < 2:
        raise ValueError("percentage agreement needs at least two annotation sets")
    pair_scores = []
    for a, b in combinations(sets, 2):
        agree = sum(1 for t in tokens if a.votes[t] == b.votes[t])
        pair_scores.append(agree / len(tokens))
    return sum(pair_scores) / len(pair_scores)


def cohens_kappa(a: AnnotationSet, b: AnnotationSet) -> float:
    """Cohen's kappa between two annotators: (p_o - p_e) / (1 - p_e).

    Chance agreement p_e uses the product of the two annotators' marginal
    tag distributions. When p_e is 1 the statistic is defined only for
    perfect agreement.
    """
    tokens = _check_coverage([a, b])
    n = len(tokens)
    p_o = sum(1 for t in tokens if a.votes[t] == b.votes[t]) / n
    marg_a = Counter(a.votes[t] for t in tokens)
    marg_b = Counter(b.votes[t] for t in tokens)
    p_e = sum((marg_a[tag] / n) * (marg_b[tag] / n) for tag in CoarseTag)
    if p_e >= 1.0:
        if p_o == 1.0:
            return 1.0
        raise ValueError("kappa undefined: chance agreement is 1 but observed agreement is not")
    return (p_o - p_e) / (1.0 - p_e)


def irr_report(sets: Sequence[AnnotationSet]) -> IrrReport:
    """Inter-rater reliability summary over three annotation sets."""
    if len(sets) != 3:
        raise ValueError(f"exactly three annotation sets are required, got {len(sets)}")
    tokens = _check_coverage(sets)
    unanimous = majority = disagreement = 0
    for token in tokens:
        distinct = len({s.votes[token] for s in sets})
        if distinct == 1:
            unanimous += 1
        elif distinct == 2:
            majority += 1
        else:
            disagreement += 1
    kappas = [cohens_kappa(a, b) for a, b in combinations(sets, 2)]
    return IrrReport(
        percentage_agreement=percentage_agreement(sets),
        cohens_kappa=sum(kappas) / len(kappas),
        unanimous_count=unanimous,
        majority_count=majority,
        disagreement_count=disagreement,
    )


def _read_token_rows(path: Path, columns: int, parse: Callable) -> dict:
    """token -> parse(*rest) for each token<TAB>rest row of a file with that
    many columns. Blank lines are skipped; a wrong column count, an empty or
    repeated token, or a ValueError from parse is a FormatError naming the
    file and line."""
    rows: dict = {}
    for lineno, line in read_lines(path):
        if is_blank(line):
            continue
        token, *values = parts = line.split("\t")
        try:
            if len(parts) != columns:
                raise ValueError(f"expected {columns} tab-separated columns, got {len(parts)}")
            if not token:
                raise ValueError("empty token")
            if token in rows:
                raise ValueError(f"duplicate token {token!r}")
            rows[token] = parse(*values)
        except ValueError as exc:
            raise FormatError(str(exc), path=str(path), line=lineno) from None
    return rows


def read_annotations(path: str | Path) -> AnnotationSet:
    """Read a token<TAB>tag annotation file; the annotator id is its stem."""
    path = Path(path)
    return AnnotationSet(annotator_id=path.stem, votes=_read_token_rows(path, 2, CoarseTag))


def write_gazetteer(gazetteer: Gazetteer, path: str | Path) -> None:
    """Write the gazetteer TSV: token, tag, three votes, agreement level."""
    with Path(path).open("w", encoding="utf-8") as fh:
        for token, e in gazetteer.entries.items():
            votes = "\t".join(v.value for v in e.votes)
            fh.write(f"{token}\t{e.tag.value}\t{votes}\t{e.agreement.value}\n")


def read_gazetteer(path: str | Path) -> Gazetteer:
    """Read the gazetteer TSV that write_gazetteer writes."""
    def entry(tag: str, va: str, vb: str, vc: str, agreement: str) -> GazetteerEntry:
        return GazetteerEntry(tag=CoarseTag(tag), votes=(CoarseTag(va), CoarseTag(vb), CoarseTag(vc)),
                              agreement=Agreement(agreement))

    return Gazetteer(entries=_read_token_rows(Path(path), 6, entry))


# A compact built-in annotation exercise over common title vocabulary. Most
# tokens are unanimous; a handful carry one dissenting vote so merged output
# contains MAJORITY entries. Used by tests and the demo pipeline.
_SAMPLE_BASE: tuple[tuple[str, str], ...] = (
    ("manager", "RES"), ("senior", "RES"), ("director", "RES"), ("engineer", "RES"),
    ("chief", "RES"), ("officer", "RES"), ("president", "RES"), ("vice", "RES"),
    ("head", "RES"), ("lead", "RES"), ("supervisor", "RES"), ("assistant", "RES"),
    ("associate", "RES"), ("junior", "RES"), ("designer", "RES"), ("accountant", "RES"),
    ("technician", "RES"),
    ("sales", "FUN"), ("marketing", "FUN"), ("finance", "FUN"), ("financial", "FUN"),
    ("operations", "FUN"), ("strategy", "FUN"), ("enterprise", "FUN"), ("project", "FUN"),
    ("customer", "FUN"), ("national", "FUN"), ("site", "FUN"), ("data", "FUN"),
    ("r&d", "FUN"), ("security", "FUN"), ("training", "FUN"), ("integration", "FUN"),
    ("education", "FUN"),
    ("asia", "LOC"), ("pacific", "LOC"), ("apac", "LOC"), ("sea", "LOC"),
    ("china", "LOC"), ("america", "LOC"), ("singapore", "LOC"), ("colorado", "LOC"),
    ("european", "LOC"), ("north", "LOC"), ("central", "LOC"),
    ("of", "O"), ("and", "O"), ("the", "O"), ("for", "O"),
    ("in", "O"), ("at", "O"), ("on", "O"), ("to", "O"),
)

# token -> (dissenting annotator index, dissenting tag)
_SAMPLE_DISSENT: dict[str, tuple[int, str]] = {
    "head": (2, "FUN"),
    "north": (2, "O"),
    "central": (1, "FUN"),
    "customer": (2, "RES"),
    "associate": (0, "O"),
    "site": (0, "LOC"),
}


def sample_annotation_sets() -> tuple[AnnotationSet, AnnotationSet, AnnotationSet]:
    """Three built-in annotation sets over a small shared title vocabulary."""
    all_votes: list[dict[str, CoarseTag]] = [{}, {}, {}]
    for token, tag_text in _SAMPLE_BASE:
        for idx in range(3):
            tag = tag_text
            dissent = _SAMPLE_DISSENT.get(token)
            if dissent is not None and dissent[0] == idx:
                tag = dissent[1]
            all_votes[idx][token] = CoarseTag(tag)
    return tuple(
        AnnotationSet(annotator_id=f"a{i + 1}", votes=votes) for i, votes in enumerate(all_votes)
    )


def sample_gazetteer() -> Gazetteer:
    """The merged form of sample_annotation_sets()."""
    return merge_annotations(sample_annotation_sets())
