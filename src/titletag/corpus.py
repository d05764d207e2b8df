"""Job-title corpus loading, normalization and descriptive statistics."""

from __future__ import annotations

import logging
import random
import statistics
import re
import unicodedata
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import read_lines

if TYPE_CHECKING:
    from .gazetteer import Gazetteer

log = logging.getLogger(__name__)

# Everything outside lowercase letters, digits, "&" and whitespace is deleted
# outright (not blanked), so "co-founder" collapses to one token. "&" survives
# the filter: embedded forms like "r&d" stay a single token, while a
# free-standing "&" becomes the word "and".
_DROP_RE = re.compile(r"[^a-z0-9&\s]")


class Region(str, Enum):
    """Geographic origin of a profile; unrecognized strings map to UNKNOWN."""

    US = "US"
    ASIA = "ASIA"
    UNKNOWN = "UNKNOWN"

    @classmethod
    def parse(cls, text: str) -> "Region":
        cleaned = text.strip().upper()
        if cleaned in {"US", "USA", "UNITED STATES"}:
            return cls.US
        if cleaned in {"ASIA", "ASIAN"}:
            return cls.ASIA
        return cls.UNKNOWN


# Display order for per-region breakdowns.
REGION_ORDER = (Region.US, Region.ASIA, Region.UNKNOWN)


@dataclass(frozen=True)
class Title:
    """One occupation entry: raw text plus its normalized token sequence."""

    raw: str
    tokens: tuple[str, ...]
    region: Region = Region.UNKNOWN
    profile_id: str = ""

    @property
    def is_empty(self) -> bool:
        return not self.tokens


@dataclass(frozen=True)
class Corpus:
    """An immutable collection of titles plus ingestion bookkeeping: the line
    numbers of the titles that normalize to nothing and of the malformed
    rows (with the reason), neither of which is among titles."""

    titles: tuple[Title, ...]
    source_label: str = ""
    empty_lines: tuple[int, ...] = ()
    skipped_rows: tuple[tuple[int, str], ...] = ()

    @property
    def empty_count(self) -> int:
        return len(self.empty_lines)

    def title_lines(self) -> list[int]:
        """The 0-based input line index (line number - 1) of each title: each
        line is a title, an empty line or a skipped row, in input order."""
        left_out = set(self.empty_lines).union(n for n, _ in self.skipped_rows)
        return [i for i in range(len(self.titles) + len(left_out)) if i + 1 not in left_out]

    def __len__(self) -> int:
        return len(self.titles)

    def __iter__(self) -> Iterator[Title]:
        return iter(self.titles)


@dataclass(frozen=True)
class LengthSummary:
    min: int
    max: int
    avg: float
    median: float


@dataclass(frozen=True)
class LengthStats:
    overall: LengthSummary
    per_region: dict[Region, LengthSummary]


@dataclass(frozen=True)
class LengthHistogram:
    """Share of titles (percent) per word count, overall and per region."""

    overall: dict[int, float]
    per_region: dict[Region, dict[int, float]]


@dataclass(frozen=True)
class NgramTable:
    """N-gram frequencies sorted by descending count, lexicographic on ties."""

    n: int
    entries: tuple[tuple[tuple[str, ...], int], ...]


def normalize_title(raw: str, *, region: Region = Region.UNKNOWN, profile_id: str = "") -> Title:
    """Normalize one raw title into its canonical token sequence.

    Lowercases (NFKC + casefold), deletes every character outside
    [a-z0-9&\\s], splits on whitespace, and rewrites a free-standing "&" to
    "and". No stemming or lemmatization: surface forms carry the entity
    distinction (strategist vs strategy). An input with no surviving tokens
    yields an empty Title (is_empty is True), never an error.
    """
    text = unicodedata.normalize("NFKC", raw).casefold()
    text = _DROP_RE.sub("", text)
    tokens = tuple("and" if tok == "&" else tok for tok in text.split())
    return Title(raw=raw, tokens=tokens, region=region, profile_id=profile_id)


def read_rows(path: str | Path, fmt: str) -> Iterator[tuple[int, Title | str]]:
    """(line number, Title) for every row of a LINES or TSV title file.

    LINES holds one raw title per line. TSV holds raw<TAB>region<TAB>profile_id
    with no header row. Titles that normalize to nothing are included; a TSV
    row without three columns yields (line number, reason) instead.
    """
    if fmt not in ("lines", "tsv"):
        raise ValueError(f"unknown corpus format: {fmt!r}")
    for lineno, line in read_lines(path):
        if fmt == "lines":
            yield lineno, normalize_title(line)
            continue
        parts = line.split("\t")
        if len(parts) != 3:
            yield lineno, f"expected 3 tab-separated columns, got {len(parts)}"
        else:
            raw, region_text, profile = parts
            yield lineno, normalize_title(raw, region=Region.parse(region_text), profile_id=profile)


def load_corpus(path: str | Path, fmt: str = "lines") -> Corpus:
    """Read a LINES or TSV title file (see read_rows) into a normalized Corpus.

    Titles that normalize to nothing are excluded but counted; malformed TSV
    rows are skipped and reported with their line number.
    """
    path = Path(path)
    titles: list[Title] = []
    skipped: list[tuple[int, str]] = []
    empty: list[int] = []
    for lineno, row in read_rows(path, fmt):
        if isinstance(row, str):
            skipped.append((lineno, row))
            log.warning("%s:%d: skipped row (%s)", path, lineno, row)
        elif row.is_empty:
            empty.append(lineno)
        else:
            titles.append(row)
    if empty:
        log.info("%s: excluded %d titles that normalize to nothing", path, len(empty))
    return Corpus(
        titles=tuple(titles),
        source_label=str(path),
        empty_lines=tuple(empty),
        skipped_rows=tuple(skipped),
    )


def canonical_line(title: Title) -> str:
    """The canonical serialized form of a title: its tokens joined by spaces."""
    return " ".join(title.tokens)


def dumps_corpus(titles: Iterable[Title], fmt: str) -> str:
    """Normalized titles as LINES or TSV text, one row per title."""
    if fmt == "lines":
        return "".join(canonical_line(t) + "\n" for t in titles)
    if fmt == "tsv":
        return "".join(f"{canonical_line(t)}\t{t.region.value}\t{t.profile_id}\n" for t in titles)
    raise ValueError(f"unknown corpus format: {fmt!r}")


def write_corpus(corpus: Corpus, path: str | Path, fmt: str = "lines") -> None:
    """Serialize normalized titles back to LINES or TSV; load_corpus reads them."""
    Path(path).write_text(dumps_corpus(corpus.titles, fmt), encoding="utf-8")


def _summarize(lengths: list[int]) -> LengthSummary:
    return LengthSummary(
        min=min(lengths),
        max=max(lengths),
        avg=sum(lengths) / len(lengths),
        median=float(statistics.median(lengths)),
    )


def _by_region(corpus: Corpus) -> dict[Region, list[int]]:
    grouped: dict[Region, list[int]] = {}
    for title in corpus.titles:
        grouped.setdefault(title.region, []).append(len(title.tokens))
    return {r: grouped[r] for r in REGION_ORDER if r in grouped}


def length_stats(corpus: Corpus) -> LengthStats:
    """Min / max / mean / median word counts, overall and per region."""
    if not corpus.titles:
        raise ValueError("length_stats: corpus has no titles")
    lengths = [len(t.tokens) for t in corpus.titles]
    return LengthStats(
        overall=_summarize(lengths),
        per_region={r: _summarize(v) for r, v in _by_region(corpus).items()},
    )


def length_histogram(corpus: Corpus) -> LengthHistogram:
    """Percentage of titles per word count; each distribution sums to 100."""
    if not corpus.titles:
        raise ValueError("length_histogram: corpus has no titles")

    def pct(lengths: list[int]) -> dict[int, float]:
        counts = Counter(lengths)
        total = len(lengths)
        return {n: 100.0 * c / total for n, c in sorted(counts.items())}

    lengths = [len(t.tokens) for t in corpus.titles]
    return LengthHistogram(
        overall=pct(lengths),
        per_region={r: pct(v) for r, v in _by_region(corpus).items()},
    )


def ngram_counts(corpus: Corpus, n: int) -> NgramTable:
    """Count contiguous n-grams, once per occurrence (repeats in one title count).

    An n larger than every title simply yields an empty table.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    counts: Counter[tuple[str, ...]] = Counter()
    for title in corpus.titles:
        toks = title.tokens
        for i in range(len(toks) - n + 1):
            counts[toks[i : i + n]] += 1
    entries = tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
    return NgramTable(n=n, entries=entries)


# Each template is (weight, slot sequence); a slot names the coarse-tag pool
# the token is drawn from. Lengths stay within 1..6 and the weighted mean
# length is 2.93 words.
_TEMPLATES: tuple[tuple[int, tuple[str, ...]], ...] = (
    (18, ("RES",)),
    (22, ("FUN", "RES")),
    (16, ("RES", "FUN", "RES")),
    (10, ("RES", "O", "FUN")),
    (8, ("FUN", "RES", "LOC")),
    (7, ("RES", "FUN", "RES", "LOC", "LOC")),
    (6, ("RES", "RES", "O", "FUN", "FUN")),
    (5, ("FUN", "FUN", "FUN", "RES")),
    (4, ("RES", "O", "FUN", "O", "LOC")),
    (4, ("RES", "O", "FUN", "FUN", "LOC", "LOC")),
)

_US_SHARE = 0.567


def synth_corpus(gazetteer: "Gazetteer", grammar_seed: int, count: int) -> Corpus:
    """Generate a deterministic synthetic corpus from gazetteer token pools.

    Titles are drawn from a small template grammar over the gazetteer's
    RES / FUN / LOC / O vocabularies, so the gazetteer itself is a perfect
    labeling oracle for the output. The same seed always reproduces the same
    corpus.
    """
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    pools: dict[str, list[str]] = {"RES": [], "FUN": [], "LOC": [], "O": []}
    for token, entry in gazetteer.entries.items():
        pools[entry.tag.value].append(token)
    for tag, pool in pools.items():
        if not pool:
            raise ValueError(f"gazetteer has no {tag} tokens; cannot synthesize titles")
        pool.sort()

    rng = random.Random(grammar_seed)
    weights = [w for w, _ in _TEMPLATES]
    titles = []
    for i in range(count):
        _, slots = rng.choices(_TEMPLATES, weights=weights, k=1)[0]
        tokens = tuple(rng.choice(pools[slot]) for slot in slots)
        region = Region.US if rng.random() < _US_SHARE else Region.ASIA
        titles.append(
            Title(
                raw=" ".join(tokens),
                tokens=tokens,
                region=region,
                profile_id=f"p{i // 3:05d}",
            )
        )
    return Corpus(titles=tuple(titles), source_label=f"synth(seed={grammar_seed})")
