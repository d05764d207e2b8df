"""Tagging metrics, human-agreement baselines, the grid-search harness and
the paper's tagger comparison.

The primary score is token-level exact match. Precision, recall and F1 are
micro-averaged over non-outside predictions and are prefix-sensitive: a
correct coarse tag under the wrong boundary prefix counts as an error.
"""

from __future__ import annotations

import itertools
import logging
from dataclasses import dataclass, fields, replace
from typing import Callable, Mapping, Sequence

from .crf import train_crf
from .errors import TrainingDivergedError
from .gazetteer import Gazetteer
from .labeling import LabeledSequence, split_sequences
from .neural import train_lstm_crf
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
class MetricsReport(TagMetrics):
    em_title: float
    n_tokens: int
    n_titles: int
    per_tag: Mapping[str, TagMetrics]

    def to_kv(self) -> list[tuple[str, str]]:
        rows = [(name, f"{getattr(self, name):.4f}")
                for name in ("em_token", "em_title", "precision", "recall", "f1")]
        rows += [(name, str(getattr(self, name)))
                 for name in ("tp", "fp", "fn", "n_tokens", "n_titles")]
        for tag in TAG_ORDER:
            rows += [(f"{tag.lower()}.{name}", f"{getattr(self.per_tag[tag], name):.4f}")
                     for name in ("em_token", "precision", "recall", "f1")]
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
                tp[gt] += 1
        else:
            if pt != OUTSIDE_STR:
                fp[pt] += 1
            if gt != OUTSIDE_STR:
                fn[gt] += 1
    per_tag = {
        t: _metrics(tp[t], total[t], tp[t], fp[t], fn[t]) for t in TAG_ORDER
    }
    overall = _metrics(
        em_correct, len(pairs), sum(tp.values()), sum(fp.values()), sum(fn.values())
    )
    em_title = 100.0 * titles_exact / len(gold) if gold else 0.0
    return MetricsReport(**vars(overall), em_title=em_title, n_tokens=len(pairs),
                         n_titles=len(gold), per_tag=per_tag)


def predict_sequences(model, token_seqs: Sequence[Sequence[str]]) -> list[LabeledSequence]:
    """The model's labeling of each token sequence, from one predict_many call."""
    return [LabeledSequence(tuple(toks), labels)
            for toks, labels in zip(token_seqs, model.predict_many(token_seqs))]


def evaluate(model, gold: Sequence[LabeledSequence]) -> MetricsReport:
    """The model's scores against gold, on its own labeling of gold's tokens."""
    return score(gold, predict_sequences(model, [g.tokens for g in gold]))


# The comparison's recurrent recipe: Adam (Kingma & Ba 2015) at lr 0.01, batch
# 128, 5 epochs, on train_lstm_crf's default one-layer h = 256 BiLSTM-CRF.
LSTM_CRF_RECIPE = TrainConfig(learning_rate=0.01, batch_size=128, epochs=5, optimizer="adam")


def compare_taggers(labeled: Sequence[LabeledSequence], seed: int,
                    gazetteer: Gazetteer | None = None,
                    lstm_config: TrainConfig = LSTM_CRF_RECIPE) -> dict[str, MetricsReport]:
    """The paper's comparison: split labeled 80/10/10 with seed, train the
    feature CRF (the TrainConfig defaults, with gazetteer features if given)
    and a one-layer h = 256 BiLSTM-CRF (lstm_config) on the train part, both
    seeded with seed, and score both on the test part. The dev part is left
    unused."""
    train, dev, test = split_sequences(labeled, (80, 10, 10), seed)
    log.info("data: %d train / %d dev / %d test titles", len(train), len(dev), len(test))
    crf = train_crf(train, TrainConfig(seed=seed), gazetteer=gazetteer)
    lstm = train_lstm_crf(train, replace(lstm_config, seed=seed))
    return {"crf": evaluate(crf, test), "lstm-crf": evaluate(lstm, test)}


def human_baseline(annotations: Sequence[Sequence[LabeledSequence]]) -> MetricsReport:
    """Mean pairwise agreement between annotators, expressed as a report.

    Each annotator's labelings are scored against each other annotator's
    (each unordered pair once, first as gold), and the reports are folded
    field by field (see _fold).
    """
    if len(annotations) < 2:
        raise ValueError("need at least two annotators")
    return _fold([
        score(annotations[a], annotations[b])
        for a, b in itertools.combinations(range(len(annotations)), 2)
    ])


def _fold(reports: Sequence[TagMetrics]) -> TagMetrics:
    """One report from several over the same titles, field by field:
    percentages are averaged, error counts summed, per-tag reports folded
    alike, and the sizes, equal in every report, kept."""
    folded = {}
    for f in fields(reports[0]):
        values = [getattr(r, f.name) for r in reports]
        if f.name == "per_tag":
            folded[f.name] = {tag: _fold([v[tag] for v in values]) for tag in TAG_ORDER}
        elif f.name in ("tp", "fp", "fn"):
            folded[f.name] = sum(values)
        elif isinstance(values[0], float):
            folded[f.name] = sum(values) / len(values)
        else:
            folded[f.name] = values[0]
    return replace(reports[0], **folded)


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


def grid_plan(space: Mapping[str, Sequence[object]], base: TrainConfig | None = None
              ) -> list[tuple[dict, TrainConfig, dict]]:
    """Each point of the sweep over space as (settings, config, trainer
    keyword arguments), in grid_search's order. The axes that are
    TrainConfig fields override base (default: the TrainConfig defaults).
    An empty space, an axis without values or a point whose config does
    not validate is a ValueError."""
    if not space:
        raise ValueError("empty search space")
    if base is None:
        base = TrainConfig()
    axes = list(space)
    empty = [a for a in axes if not space[a]]
    if empty:
        raise ValueError(f"axis {empty[0]!r} has no values")
    plan = []
    for combo in itertools.product(*(space[a] for a in axes)):
        settings = dict(zip(axes, combo))
        cfg = replace(base, **{k: v for k, v in settings.items() if k in _CFG_FIELDS})
        plan.append((settings, cfg, {k: v for k, v in settings.items() if k not in _CFG_FIELDS}))
    return plan


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
    dev F1, so earlier points keep ties. Every point's config is built, and
    so checked, before the first trains (grid_plan).
    """
    points: list[GridPoint] = []
    best: GridPoint | None = None
    for settings, cfg, extra in grid_plan(space, base):
        try:
            model = trainer(train_data, cfg, **extra)
        except TrainingDivergedError:
            log.warning("grid point %s diverged", settings)
            points.append(GridPoint(settings, 0.0, 0.0, failed=True))
            continue
        report = evaluate(model, dev_gold)
        point = GridPoint(settings, report.f1, report.em_token)
        points.append(point)
        if best is None or point.f1 > best.f1:
            best = point
    if best is None:
        raise TrainingDivergedError("every grid point diverged")
    return GridSearchResult(tuple(points), best)


def compare_models(reports: Mapping[str, MetricsReport]) -> str:
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
    return align_columns([headers] + rows)


def align_columns(rows: Sequence[Sequence[str]]) -> str:
    """Rows of cells as text: each column padded to its widest cell, cells
    joined by two spaces, one line per row without trailing blanks."""
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    return "".join(
        "  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip() + "\n" for row in rows
    )
