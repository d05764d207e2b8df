import pytest
from hypothesis import given, strategies as st

from titletag.crf import TrainConfig
from titletag.errors import TrainingDivergedError
from titletag.evaluation import (
    GridPoint,
    compare_models,
    f1_score,
    grid_search,
    human_baseline,
    score,
)
from titletag.labeling import LABEL_STRINGS, BioesLabel, LabeledSequence


def seq(tokens, labels):
    return LabeledSequence(
        tuple(tokens.split()), tuple(BioesLabel.parse(l) for l in labels.split())
    )


# Two titles with one error each: a boundary-prefix error inside LOC and a
# spurious FUN prediction on an outside token.
GOLD = [
    seq("chief financial officer asia pacific", "S-RES S-FUN S-RES B-LOC E-LOC"),
    seq("head of sales emea region", "B-FUN E-FUN S-RES S-RES O"),
]
PRED = [
    seq("chief financial officer asia pacific", "S-RES S-FUN S-RES S-LOC E-LOC"),
    seq("head of sales emea region", "B-FUN E-FUN S-RES S-RES S-FUN"),
]


def test_fixture_overall_metrics():
    rep = score(GOLD, PRED)
    assert rep.em_token == pytest.approx(80.0)
    assert rep.em_title == pytest.approx(0.0)
    assert (rep.tp, rep.fp, rep.fn) == (8, 2, 1)
    assert rep.precision == pytest.approx(80.0)
    assert rep.recall == pytest.approx(800.0 / 9.0)
    assert rep.f1 == pytest.approx(1600.0 / 19.0)
    assert rep.n_tokens == 10
    assert rep.n_titles == 2


def test_fixture_per_tag_metrics():
    per = score(GOLD, PRED).per_tag
    res = per["RES"]
    assert (res.em_token, res.precision, res.recall, res.f1) == (100.0, 100.0, 100.0, 100.0)
    fun = per["FUN"]
    assert fun.em_token == pytest.approx(100.0)
    assert fun.precision == pytest.approx(75.0)
    assert fun.recall == pytest.approx(100.0)
    assert fun.f1 == pytest.approx(600.0 / 7.0)
    loc = per["LOC"]
    assert loc.em_token == pytest.approx(50.0)
    assert loc.precision == pytest.approx(50.0)
    assert loc.recall == pytest.approx(50.0)
    assert loc.f1 == pytest.approx(50.0)


def test_per_tag_counts_sum_to_overall():
    rep = score(GOLD, PRED)
    assert sum(m.tp for m in rep.per_tag.values()) == rep.tp
    assert sum(m.fp for m in rep.per_tag.values()) == rep.fp
    assert sum(m.fn for m in rep.per_tag.values()) == rep.fn


def test_to_kv_formatting():
    rows = dict(score(GOLD, PRED).to_kv())
    assert rows["em_token"] == "80.0000"
    assert rows["recall"] == "88.8889"
    assert rows["f1"] == "84.2105"
    assert rows["fun.f1"] == "85.7143"
    assert rows["loc.em_token"] == "50.0000"
    assert rows["tp"] == "8"
    keys = [k for k, _ in score(GOLD, PRED).to_kv()]
    assert keys[:2] == ["em_token", "em_title"]
    assert keys.index("fun.em_token") < keys.index("loc.em_token") < keys.index("res.em_token")


def test_perfect_predictions():
    rep = score(GOLD, GOLD)
    assert rep.em_token == 100.0
    assert rep.em_title == 100.0
    assert rep.precision == rep.recall == rep.f1 == 100.0
    assert rep.fp == rep.fn == 0


def test_all_outside_is_defined():
    g = [seq("a b", "O O")]
    rep = score(g, g)
    assert rep.em_token == 100.0
    assert rep.precision == 0.0 and rep.recall == 0.0 and rep.f1 == 0.0
    for m in rep.per_tag.values():
        assert m.em_token == 0.0 and m.f1 == 0.0


def test_f1_score():
    assert f1_score(0.0, 0.0) == 0.0
    assert f1_score(100.0, 100.0) == 100.0
    assert f1_score(91.60, 99.60) == pytest.approx(95.43256, abs=1e-4)


def test_alignment_errors():
    with pytest.raises(ValueError):
        score(GOLD, PRED[:1])
    with pytest.raises(ValueError):
        score([seq("a b", "O O")], [seq("a c", "O O")])
    with pytest.raises(ValueError):
        score([], [])


labels_st = st.lists(st.sampled_from(LABEL_STRINGS), min_size=1, max_size=8)


@given(st.lists(labels_st, min_size=1, max_size=4), st.data())
def test_precision_recall_duality(gold_labels, data):
    pred_labels = [
        data.draw(st.lists(st.sampled_from(LABEL_STRINGS), min_size=len(ls), max_size=len(ls)))
        for ls in gold_labels
    ]
    toks = [" ".join(f"w{i}" for i in range(len(ls))) for ls in gold_labels]
    a = [seq(t, " ".join(ls)) for t, ls in zip(toks, gold_labels)]
    b = [seq(t, " ".join(ls)) for t, ls in zip(toks, pred_labels)]
    fwd = score(a, b)
    rev = score(b, a)
    assert fwd.precision == pytest.approx(rev.recall)
    assert fwd.recall == pytest.approx(rev.precision)
    assert fwd.f1 == pytest.approx(rev.f1)
    assert (fwd.tp, fwd.fp, fwd.fn) == (rev.tp, rev.fn, rev.fp)
    assert sum(m.tp for m in fwd.per_tag.values()) == fwd.tp
    assert sum(m.fp for m in fwd.per_tag.values()) == fwd.fp
    assert sum(m.fn for m in fwd.per_tag.values()) == fwd.fn


def baseline_annotations():
    """Three annotators over ten five-token titles.

    Pairwise token disagreements are 5, 4 and 3, so the mean token EM is
    100 * (1 - 12/150) = 92.0.
    """
    def title(i, labels):
        return seq(" ".join(f"t{i}w{j}" for j in range(5)), labels)

    base = ["S-RES O O O O"] * 10
    a1 = [title(i, ls) for i, ls in enumerate(base)]
    a2_rows = list(base)
    for i in range(5):
        a2_rows[i] = "S-RES S-FUN O O O"
    a2 = [title(i, ls) for i, ls in enumerate(a2_rows)]
    a3_rows = list(base)
    for i in range(3):
        a3_rows[i] = "S-RES S-FUN O O O"
    a3_rows[5] = "S-RES O S-LOC O O"
    a3 = [title(i, ls) for i, ls in enumerate(a3_rows)]
    return [a1, a2, a3]


def test_human_baseline_mean_agreement():
    """Every field of the human row, from the three pairwise reports
    (a1, a2), (a1, a3) and (a2, a3), gold first:

    - em_token 45, 46 and 47 of 50; em_title 5, 6 and 7 of 10 titles;
    - tp/fp/fn 10/5/0, 10/4/0 and 13/1/2, so P 10/15, 10/14 and 13/14,
      R 1, 1 and 13/15, F1 = 2tp / (2tp + fp + fn) 20/25, 20/24 and 26/29;
    - FUN: gold positions 0, 0 and 5 (3 agreed), tp/fp/fn 0/5/0, 0/3/0 and
      3/0/2, so em_token 0, 0 and 60, P 0, 0 and 100, R 0, 0 and 60,
      F1 0, 0 and 75.
    """
    rep = human_baseline(baseline_annotations())
    assert rep.em_token == pytest.approx(92.0)
    assert rep.em_title == pytest.approx(60.0)
    assert rep.precision == pytest.approx(100 * (10 / 15 + 10 / 14 + 13 / 14) / 3)
    assert rep.recall == pytest.approx(100 * (1 + 1 + 13 / 15) / 3)
    assert rep.f1 == pytest.approx(100 * (20 / 25 + 20 / 24 + 26 / 29) / 3)
    assert rep.n_tokens == 50
    assert rep.n_titles == 10
    assert (rep.tp, rep.fp, rep.fn) == (33, 10, 2)
    fun = rep.per_tag["FUN"]
    assert (fun.em_token, fun.precision, fun.recall, fun.f1) == pytest.approx(
        (20.0, 100 / 3, 20.0, 25.0))
    assert (fun.tp, fun.fp, fun.fn) == (3, 8, 2)


def test_human_baseline_needs_two():
    with pytest.raises(ValueError):
        human_baseline(baseline_annotations()[:1])


class FixedTagger:
    def __init__(self, answers):
        self.answers = answers

    def predict(self, tokens):
        return tuple(BioesLabel.parse(l) for l in self.answers[tokens].split())

    def predict_many(self, seqs):
        return [self.predict(tokens) for tokens in seqs]


DEV = [seq("a b", "S-RES S-FUN"), seq("c", "S-LOC")]
PERFECT = {("a", "b"): "S-RES S-FUN", ("c",): "S-LOC"}
ALL_O = {("a", "b"): "O O", ("c",): "O"}


def test_grid_search_order_and_best():
    calls = []

    def trainer(train_data, cfg, **extra):
        calls.append((cfg.learning_rate, cfg.epochs, dict(extra)))
        good = cfg.learning_rate == 0.2 and cfg.epochs == 1
        return FixedTagger(PERFECT if good else ALL_O)

    space = {"learning_rate": [0.1, 0.2], "epochs": [1, 2]}
    result = grid_search(trainer, space, [], DEV)
    assert [p.settings for p in result.points] == [
        {"learning_rate": 0.1, "epochs": 1},
        {"learning_rate": 0.1, "epochs": 2},
        {"learning_rate": 0.2, "epochs": 1},
        {"learning_rate": 0.2, "epochs": 2},
    ]
    assert result.best is result.points[2]
    assert result.best.f1 == pytest.approx(100.0)
    assert calls[0][2] == {}  # every axis here is a config field


def test_grid_search_extra_kwargs():
    seen = []

    def trainer(train_data, cfg, hidden_size):
        seen.append((cfg.learning_rate, hidden_size))
        return FixedTagger(ALL_O)

    space = {"learning_rate": [0.5], "hidden_size": [32, 64]}
    result = grid_search(trainer, space, [], DEV)
    assert seen == [(0.5, 32), (0.5, 64)]
    assert result.points[0].settings == {"learning_rate": 0.5, "hidden_size": 32}


def test_grid_search_tie_keeps_earliest():
    result = grid_search(
        lambda data, cfg: FixedTagger(PERFECT),
        {"learning_rate": [0.1, 0.2, 0.3]},
        [],
        DEV,
    )
    assert all(p.f1 == pytest.approx(100.0) for p in result.points)
    assert result.best is result.points[0]


def test_grid_search_diverged_points():
    def trainer(train_data, cfg):
        if cfg.learning_rate > 1.0:
            raise TrainingDivergedError("boom")
        return FixedTagger(PERFECT)

    result = grid_search(trainer, {"learning_rate": [9.0, 0.1]}, [], DEV)
    assert result.points[0].failed
    assert result.points[0].f1 == 0.0
    assert result.best is result.points[1]
    tsv = result.to_tsv()
    lines = tsv.splitlines()
    assert lines[0] == "learning_rate\tf1\tem_token\tbest"
    assert lines[1] == "9.0\tdiverged\tdiverged\t"
    assert lines[2] == "0.1\t100.00\t100.00\t*"


def test_grid_search_all_diverged():
    def trainer(train_data, cfg):
        raise TrainingDivergedError("boom")

    with pytest.raises(TrainingDivergedError):
        grid_search(trainer, {"learning_rate": [1.0, 2.0]}, [], DEV)


def test_grid_search_space_validation():
    trainer = lambda data, cfg: FixedTagger(ALL_O)
    with pytest.raises(ValueError):
        grid_search(trainer, {}, [], DEV)
    with pytest.raises(ValueError):
        grid_search(trainer, {"learning_rate": []}, [], DEV)


def test_grid_search_full_product():
    cfgs = []

    def trainer(train_data, cfg):
        cfgs.append(cfg)
        return FixedTagger(ALL_O)

    space = {
        "learning_rate": [0.05, 0.1],
        "batch_size": [16, 32],
        "epochs": [1, 2],
        "word_dropout": [0.0, 0.05],
        "variational_dropout": [0.0, 0.5],
    }
    base = TrainConfig(seed=7)
    result = grid_search(trainer, space, [], DEV, base=base)
    assert len(result.points) == 32
    combos = {tuple(sorted(p.settings.items())) for p in result.points}
    assert len(combos) == 32
    # last axis cycles fastest
    assert result.points[0].settings["variational_dropout"] == 0.0
    assert result.points[1].settings["variational_dropout"] == 0.5
    assert result.points[1].settings["word_dropout"] == 0.0
    assert result.points[2].settings["word_dropout"] == 0.05
    # settings land in the config; untouched fields come from the base
    for cfg, point in zip(cfgs, result.points):
        assert cfg.learning_rate == point.settings["learning_rate"]
        assert cfg.variational_dropout == point.settings["variational_dropout"]
        assert cfg.seed == 7
    assert result.best is result.points[0]


def test_compare_models_text_aligned():
    rep = score(GOLD, PRED)
    table = compare_models({"crf": rep, "lstm-crf": rep})
    lines = table.splitlines()
    assert lines[0].split() == [
        "system", "P", "R", "EM", "F1",
        "FUN-EM", "FUN-F1", "LOC-EM", "LOC-F1", "RES-EM", "RES-F1",
    ]
    assert lines[1].split()[:5] == ["crf", "80.00", "88.89", "80.00", "84.21"]
    assert lines[2].split()[0] == "lstm-crf"
