"""Tagging metrics, human-agreement baselines and the grid-search harness.

The primary score is token-level exact match. Precision, recall and F1 are
micro-averaged over non-outside predictions and are prefix-sensitive: a
correct coarse tag under the wrong boundary prefix counts as an error.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Sequence

from .errors import TrainingDivergedError
from .labeling import LabeledSequence
from .optim import TrainConfig

log = logging.getLogger(__name__)

OUTSIDE_STR = "O"
TAG_ORDER = ("FUN", "LOC", "RES")


def f1_score(precision: float, recall: float) -> float:
    """Harmonic mean, defined as 0 when both inputs are 0."""
    if precision + recall == 0.0:
        return 0.0
    return 2.0 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class TagMetrics:
    em_token: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int


@dataclass(frozen=True)
class MetricsReport:
    em_token: float
    em_title: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    n_tokens: int
    n_titles: int
    per_tag: Mapping[str, TagMetrics]

    def to_kv(self) -> list[tuple[str, str]]:
        rows = [
            ("em_token", f"{self.em_token:.4f}"),
            ("em_title", f"{self.em_title:.4f}"),
            ("precision", f"{self.precision:.4f}"),
            ("recall", f"{self.recall:.4f}"),
            ("f1", f"{self.f1:.4f}"),
            ("tp", str(self.tp)),
            ("fp", str(self.fp)),
            ("fn", str(self.fn)),
            ("n_tokens", str(self.n_tokens)),
            ("n_titles", str(self.n_titles)),
        ]
        for tag in TAG_ORDER:
            m = self.per_tag[tag]
            key = tag.lower()
            rows.extend(
                [
                    (f"{key}.em_token", f"{m.em_token:.4f}"),
                    (f"{key}.precision", f"{m.precision:.4f}"),
                    (f"{key}.recall", f"{m.recall:.4f}"),
                    (f"{key}.f1", f"{m.f1:.4f}"),
                ]
            )
        return rows


def _coarse(label: str) -> str:
    return label.rsplit("-", 1)[-1] if label != OUTSIDE_STR else OUTSIDE_STR


def _metrics(em_correct: int, em_total: int, tp: int, fp: int, fn: int) -> TagMetrics:
    em = 100.0 * em_correct / em_total if em_total else 0.0
    precision = 100.0 * tp / (tp + fp) if tp + fp else 0.0
    recall = 100.0 * tp / (tp + fn) if tp + fn else 0.0
    return TagMetrics(em, precision, recall, f1_score(precision, recall), tp, fp, fn)


def score(gold: Sequence[LabeledSequence], pred: Sequence[LabeledSequence]) -> MetricsReport:
    """Compare predicted label sequences against gold, micro-averaged.

    Percentages are on a 0-100 scale. Per-tag exact match is accuracy over
    the gold positions of that tag; each mismatch adds a false positive to
    the predicted tag and a false negative to the gold tag.
    """
    if len(gold) != len(pred):
        raise ValueError(f"gold has {len(gold)} titles, predictions have {len(pred)}")
    pairs: list[tuple[str, str]] = []
    titles_exact = 0
    for k, (g, p) in enumerate(zip(gold, pred)):
        if g.tokens != p.tokens:
            raise ValueError(f"title {k}: token sequences differ between gold and predictions")
        gl = g.label_strings
        pl = p.label_strings
        pairs.extend(zip(gl, pl))
        if gl == pl:
            titles_exact += 1
    if not pairs:
        raise ValueError("nothing to score: no tokens")
    # Per-class decomposition: each token error contributes one false
    # positive to the predicted label's tag and one false negative to the
    # gold label's tag, so the per-tag counts sum to the overall counts.
    correct = {t: 0 for t in TAG_ORDER}
    total = {t: 0 for t in TAG_ORDER}
    tp = {t: 0 for t in TAG_ORDER}
    fp = {t: 0 for t in TAG_ORDER}
    fn = {t: 0 for t in TAG_ORDER}
    em_correct = 0
    for g, p in pairs:
        gt, pt = _coarse(g), _coarse(p)
        if gt != OUTSIDE_STR:
            total[gt] += 1
        if g == p:
            em_correct += 1
            if gt != OUTSIDE_STR:
                correct[gt] += 1
                tp[gt] += 1
        else:
            if pt != OUTSIDE_STR:
                fp[pt] += 1
            if gt != OUTSIDE_STR:
                fn[gt] += 1
    per_tag = {
        t: _metrics(correct[t], total[t], tp[t], fp[t], fn[t]) for t in TAG_ORDER
    }
    overall = _metrics(
        em_correct, len(pairs), sum(tp.values()), sum(fp.values()), sum(fn.values())
    )
    em_title = 100.0 * titles_exact / len(gold) if gold else 0.0
    return MetricsReport(
        em_token=overall.em_token,
        em_title=em_title,
        precision=overall.precision,
        recall=overall.recall,
        f1=overall.f1,
        tp=overall.tp,
        fp=overall.fp,
        fn=overall.fn,
        n_tokens=len(pairs),
        n_titles=len(gold),
        per_tag=per_tag,
    )


def predict_sequences(model, token_seqs: Sequence[Sequence[str]]) -> list[LabeledSequence]:
    """The model's labeling of each token sequence, from one predict_many call."""
    return [LabeledSequence(tuple(toks), labels)
            for toks, labels in zip(token_seqs, model.predict_many(token_seqs))]


def human_baseline(annotations: Sequence[Sequence[LabeledSequence]]) -> MetricsReport:
    """Mean pairwise agreement between annotators, expressed as a report.

    Each annotator's labelings are scored against each other annotator's
    (each unordered pair once, first as gold); percentage fields are
    averaged and the error counts summed across pairs.
    """
    if len(annotations) < 2:
        raise ValueError("need at least two annotators")
    reports = [
        score(annotations[a], annotations[b])
        for a, b in itertools.combinations(range(len(annotations)), 2)
    ]
    k = len(reports)

    def mean(get: Callable[[MetricsReport], float]) -> float:
        return sum(get(r) for r in reports) / k

    per_tag = {}
    for tag in TAG_ORDER:
        per_tag[tag] = TagMetrics(
            em_token=sum(r.per_tag[tag].em_token for r in reports) / k,
            precision=sum(r.per_tag[tag].precision for r in reports) / k,
            recall=sum(r.per_tag[tag].recall for r in reports) / k,
            f1=sum(r.per_tag[tag].f1 for r in reports) / k,
            tp=sum(r.per_tag[tag].tp for r in reports),
            fp=sum(r.per_tag[tag].fp for r in reports),
            fn=sum(r.per_tag[tag].fn for r in reports),
        )
    return MetricsReport(
        em_token=mean(lambda r: r.em_token),
        em_title=mean(lambda r: r.em_title),
        precision=mean(lambda r: r.precision),
        recall=mean(lambda r: r.recall),
        f1=mean(lambda r: r.f1),
        tp=sum(r.tp for r in reports),
        fp=sum(r.fp for r in reports),
        fn=sum(r.fn for r in reports),
        n_tokens=reports[0].n_tokens,
        n_titles=reports[0].n_titles,
        per_tag=per_tag,
    )


@dataclass(frozen=True)
class GridPoint:
    settings: Mapping[str, object]
    f1: float
    em_token: float
    failed: bool = False


@dataclass(frozen=True)
class GridSearchResult:
    points: tuple[GridPoint, ...]
    best: GridPoint

    def to_tsv(self) -> str:
        axes = list(self.points[0].settings)
        header = axes + ["f1", "em_token", "best"]
        lines = ["\t".join(header)]
        for pt in self.points:
            row = [str(pt.settings[a]) for a in axes]
            if pt.failed:
                row += ["diverged", "diverged"]
            else:
                row += [f"{pt.f1:.2f}", f"{pt.em_token:.2f}"]
            row.append("*" if pt is self.best else "")
            lines.append("\t".join(row))
        return "\n".join(lines) + "\n"


_CFG_FIELDS = {f.name for f in fields(TrainConfig)}


def grid_search(
    trainer: Callable[..., object],
    space: Mapping[str, Sequence[object]],
    train_data: Sequence[LabeledSequence],
    dev_gold: Sequence[LabeledSequence],
    base: TrainConfig | None = None,
) -> GridSearchResult:
    """Exhaustive sweep over the Cartesian product of the given axes.

    Axis names matching training-config fields go into the config; the rest
    are passed to the trainer as keyword arguments. Axes iterate in insertion
    order with the last axis fastest. The best point wins on strictly higher
    dev F1, so earlier points keep ties.
    """
    if not space:
        raise ValueError("empty search space")
    if base is None:
        base = TrainConfig()
    axes = list(space)
    empty = [a for a in axes if not space[a]]
    if empty:
        raise ValueError(f"axis {empty[0]!r} has no values")
    points: list[GridPoint] = []
    best: GridPoint | None = None
    for combo in itertools.product(*(space[a] for a in axes)):
        settings = dict(zip(axes, combo))
        cfg_kwargs = {k: v for k, v in settings.items() if k in _CFG_FIELDS}
        extra = {k: v for k, v in settings.items() if k not in _CFG_FIELDS}
        cfg = replace(base, **cfg_kwargs)
        try:
            model = trainer(train_data, cfg, **extra)
        except TrainingDivergedError:
            log.warning("grid point %s diverged", settings)
            points.append(GridPoint(settings, 0.0, 0.0, failed=True))
            continue
        report = score(dev_gold, predict_sequences(model, [ex.tokens for ex in dev_gold]))
        point = GridPoint(settings, report.f1, report.em_token)
        points.append(point)
        if best is None or point.f1 > best.f1:
            best = point
    if best is None:
        raise TrainingDivergedError("every grid point diverged")
    return GridSearchResult(tuple(points), best)


def compare_models(
    reports: Mapping[str, MetricsReport], fmt: str = "text"
) -> str:
    """Side-by-side metric table for several systems, row per system."""
    headers = ["system", "P", "R", "EM", "F1"]
    for tag in TAG_ORDER:
        headers += [f"{tag}-EM", f"{tag}-F1"]
    rows = []
    for name, rep in reports.items():
        row = [name, f"{rep.precision:.2f}", f"{rep.recall:.2f}", f"{rep.em_token:.2f}", f"{rep.f1:.2f}"]
        for tag in TAG_ORDER:
            row += [f"{rep.per_tag[tag].em_token:.2f}", f"{rep.per_tag[tag].f1:.2f}"]
        rows.append(row)
    if fmt == "tsv":
        return "\n".join("\t".join(r) for r in [headers] + rows) + "\n"
    return align_columns([headers] + rows)


def align_columns(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells as text: each column padded to its widest cell, cells
    joined by two spaces, one line per row without trailing blanks."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )
