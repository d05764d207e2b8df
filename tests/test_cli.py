import argparse
import json
import logging
import os
import re
import shlex
import struct
import subprocess
import sys
import tempfile
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from titletag import cli, model_io
from titletag.corpus import load_corpus
from titletag.errors import FormatError, read_lines
from titletag.gazetteer import read_annotations, read_gazetteer
from titletag.labeling import read_conll, split_sequences
from titletag.title2vec import BiLmModel, Vocab, read_embeddings

GOLD_CONLL = (
    "chief\tS-RES\nfinancial\tS-FUN\nofficer\tS-RES\n"
    "asia\tB-LOC\npacific\tE-LOC\n\nsales\tS-FUN\n"
)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_command_is_usage_error(capsys):
    assert cli.main([]) == 2
    assert cli.main(["not-a-command"]) == 2


def test_missing_file(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--in", str(tmp_path / "nope.txt"))
    assert code == 3
    assert "no such file" in err


def test_directory_input(tmp_path, capsys):
    code, _, err = run(capsys, "stats", "--in", str(tmp_path))
    assert code == 3


def test_malformed_conll(tmp_path, capsys):
    bad = tmp_path / "bad.conll"
    bad.write_text("chief S-RES\n", encoding="utf-8")  # space, not tab
    code, _, err = run(capsys, "eval", "--gold", str(bad), "--pred", str(bad))
    assert code == 4
    assert "bad.conll:1" in err


def test_malformed_gazetteer(tmp_path, capsys):
    gaz = tmp_path / "bad.gaz"
    gaz.write_text("chief\n", encoding="utf-8")
    titles = tmp_path / "titles.txt"
    titles.write_text("chief\n", encoding="utf-8")
    code, _, err = run(capsys, "tag", "--in", str(titles), "--gazetteer", str(gaz))
    assert code == 4


def test_train_divergence_exit_code(tmp_path, capsys):
    train = tmp_path / "conflict.conll"
    train.write_text(
        "a\tO\nb\tO\n\na\tS-RES\nb\tS-FUN\n", encoding="utf-8"
    )
    out = tmp_path / "model.bin"
    with np.errstate(over="ignore", invalid="ignore"):
        code, _, err = run(
            capsys, "train", "crf", "--train", str(train), "--out", str(out),
            "--seed", "0", "--lr", "1e307", "--batch-size", "1", "--epochs", "8",
            "--optimizer", "sgd", "--word-dropout", "0",
        )
    assert code == 5
    assert "non-finite" in err


def test_normalize_lines(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text("V.P. (Sales)\nChief  Financial Officer\n", encoding="utf-8")
    code, out, _ = run(capsys, "normalize", "--in", str(src))
    assert code == 0
    assert out == "vp sales\nchief financial officer\n"


def test_normalize_tsv(tmp_path, capsys):
    src = tmp_path / "raw.tsv"
    src.write_text("Chief & Head\tUS\tp1\nmalformed row\n", encoding="utf-8")
    code, out, err = run(
        capsys, "normalize", "--in", str(src),
        "--in-format", "tsv", "--out-format", "tsv",
    )
    assert code == 0
    assert out == "chief and head\tUS\tp1\n"
    assert "raw.tsv:2" in err


def test_stats_output(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("one two\nthree\n\n", encoding="utf-8")
    code, out, _ = run(capsys, "stats", "--in", str(src), "--format", "kv")
    assert code == 0
    rows = dict(line.split("=", 1) for line in out.splitlines())
    assert rows["titles"] == "2"
    assert rows["empty_excluded"] == "1"
    assert rows["length.min"] == "1"
    assert rows["length.avg"] == "1.5000"


# US, Asia and unknown regions in several spellings, a title that normalizes
# to nothing (line 5) and a malformed row (line 6).
_REGIONS_TSV = (
    "Chief Financial Officer\tUnited States\tp1\n"
    "sales manager\tasia\tp2\n"
    "VP, Sales & Marketing\tAsian\tp3\n"
    "head of r&d\tmars\tp4\n"
    "!!!\tUnited States\tp5\n"
    "malformed row without tabs\n"
    "software engineer\tUS\tp6\n"
    "director\tasia\tp7\n"
    "senior sales manager asia pacific\tasia\tp8\n"
)
_REGIONS_STATS_KV = (
    "source={src}\n"
    "titles=7\n"
    "empty_excluded=1\n"
    "skipped_rows=1\n"
    "length.min=1\n"
    "length.max=5\n"
    "length.avg=2.8571\n"
    "length.median=3.0000\n"
    "hist.1=14.2857\n"
    "hist.2=28.5714\n"
    "hist.3=28.5714\n"
    "hist.4=14.2857\n"
    "hist.5=14.2857\n"
    "region.us.length.min=2\n"
    "region.us.length.max=3\n"
    "region.us.length.avg=2.5000\n"
    "region.us.length.median=2.5000\n"
    "region.us.hist.2=50.0000\n"
    "region.us.hist.3=50.0000\n"
    "region.asia.length.min=1\n"
    "region.asia.length.max=5\n"
    "region.asia.length.avg=3.0000\n"
    "region.asia.length.median=3.0000\n"
    "region.asia.hist.1=25.0000\n"
    "region.asia.hist.2=25.0000\n"
    "region.asia.hist.4=25.0000\n"
    "region.asia.hist.5=25.0000\n"
    "region.unknown.length.min=3\n"
    "region.unknown.length.max=3\n"
    "region.unknown.length.avg=3.0000\n"
    "region.unknown.length.median=3.0000\n"
    "region.unknown.hist.3=100.0000\n"
)
_REGIONS_STATS_TEXT = (
    "source                        {src}\n"
    "titles                        7\n"
    "empty_excluded                1\n"
    "skipped_rows                  1\n"
    "length.min                    1\n"
    "length.max                    5\n"
    "length.avg                    2.8571\n"
    "length.median                 3.0000\n"
    "hist.1                        14.2857\n"
    "hist.2                        28.5714\n"
    "hist.3                        28.5714\n"
    "hist.4                        14.2857\n"
    "hist.5                        14.2857\n"
    "region.us.length.min          2\n"
    "region.us.length.max          3\n"
    "region.us.length.avg          2.5000\n"
    "region.us.length.median       2.5000\n"
    "region.us.hist.2              50.0000\n"
    "region.us.hist.3              50.0000\n"
    "region.asia.length.min        1\n"
    "region.asia.length.max        5\n"
    "region.asia.length.avg        3.0000\n"
    "region.asia.length.median     3.0000\n"
    "region.asia.hist.1            25.0000\n"
    "region.asia.hist.2            25.0000\n"
    "region.asia.hist.4            25.0000\n"
    "region.asia.hist.5            25.0000\n"
    "region.unknown.length.min     3\n"
    "region.unknown.length.max     3\n"
    "region.unknown.length.avg     3.0000\n"
    "region.unknown.length.median  3.0000\n"
    "region.unknown.hist.3         100.0000\n"
)
_REGIONS_BIGRAMS = (
    "2  sales manager\n"
    "1  and marketing\n"
    "1  asia pacific\n"
    "1  chief financial\n"
    "1  financial officer\n"
    "1  head of\n"
    "1  manager asia\n"
    "1  of r&d\n"
    "1  sales and\n"
    "1  senior sales\n"
    "1  software engineer\n"
    "1  vp sales\n"
)


def test_stats_and_ngrams_print_every_row_of_a_multi_region_file(tmp_path, capsys):
    src = tmp_path / "titles.tsv"
    src.write_text(_REGIONS_TSV, encoding="utf-8")
    for fmt, want in (("kv", _REGIONS_STATS_KV), ("text", _REGIONS_STATS_TEXT)):
        code, out, err = run(capsys, "stats", "--in", str(src), "--in-format", "tsv",
                             "--format", fmt)
        assert code == 0, err
        assert out == want.replace("{src}", str(src))
    code, out, err = run(capsys, "ngrams", "--in", str(src), "--in-format", "tsv",
                         "-n", "2", "--top", "0")
    assert code == 0, err
    assert out == _REGIONS_BIGRAMS


def test_ngrams_output(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("alpha beta\nalpha\n", encoding="utf-8")
    code, out, _ = run(capsys, "ngrams", "--in", str(src), "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "alpha\t2"


def test_ngrams_negative_top_exits_2(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("alpha beta\nalpha\n", encoding="utf-8")
    code, out, _ = run(capsys, "ngrams", "--in", str(src), "--format", "tsv", "--top", "0")
    assert code == 0 and out.splitlines() == ["alpha\t2", "beta\t1"]
    code, out, err = run(capsys, "ngrams", "--in", str(src), "--format", "tsv", "--top", "-1")
    assert code == 2 and out == ""
    assert "--top must be >= 0, got -1" in err


def test_gazetteer_sample_flow(tmp_path, capsys):
    gaz_path = tmp_path / "sample.gaz"
    code, _, err = run(capsys, "gazetteer", "build", "--sample", "--out", str(gaz_path))
    assert code == 0
    assert "53 entries" in err

    code, out, _ = run(capsys, "gazetteer", "irr", "--sample", "--format", "kv")
    assert code == 0
    rows = dict(line.split("=", 1) for line in out.splitlines())
    assert rows["percentage_agreement"] == "0.924528"
    assert rows["total"] == "53"


def test_gazetteer_requires_annotations(capsys):
    code, _, err = run(capsys, "gazetteer", "irr")
    assert code == 2
    assert "--annotations" in err


@pytest.mark.parametrize("command", ["build", "irr"])
def test_gazetteer_annotations_with_sample_exits_2(tmp_path, capsys, command):
    """--sample would leave the three annotation files unread."""
    files = [str(tmp_path / name) for name in ("a.tsv", "b.tsv", "c.tsv")]
    out_flag = ["--out", str(tmp_path / "gaz.tsv")] if command == "build" else []
    code, out, err = run(capsys, "gazetteer", command, *out_flag, "--sample",
                         "--annotations", *files)
    assert code == 2, err
    assert "argument --annotations: not allowed with argument --sample" in err
    assert out == ""
    assert not (tmp_path / "gaz.tsv").exists()


def test_gazetteer_build_orders_entries_by_corpus_count(tmp_path, capsys):
    """Most frequent in the corpus first, ties and unseen entries by token."""
    raw = tmp_path / "raw.txt"
    raw.write_text("sales manager\nsales director\nsales\nzzz manager\nchief officer\n",
                   encoding="utf-8")
    plain, ordered = tmp_path / "plain.tsv", tmp_path / "ordered.tsv"
    assert run(capsys, "gazetteer", "build", "--sample", "--out", str(plain))[0] == 0
    code, _, err = run(capsys, "gazetteer", "build", "--sample", "--corpus", str(raw),
                       "--out", str(ordered))
    assert code == 0, err
    entries = read_gazetteer(plain).entries
    seen = ["sales", "manager", "chief", "director", "officer"]  # counts 3, 2, 1, 1, 1
    assert list(read_gazetteer(ordered).entries) == seen + sorted(set(entries) - set(seen))
    assert read_gazetteer(ordered).entries == entries


def test_tag_flagship_title(tmp_path, capsys):
    gaz_path = tmp_path / "sample.gaz"
    run(capsys, "gazetteer", "build", "--sample", "--out", str(gaz_path))
    src = tmp_path / "raw.txt"
    src.write_text("Chief Financial Officer, Asia Pacific\n", encoding="utf-8")
    code, out, _ = run(capsys, "tag", "--in", str(src), "--gazetteer", str(gaz_path))
    assert code == 0
    assert out == (
        "chief\tS-RES\nfinancial\tS-FUN\nofficer\tS-RES\n"
        "asia\tB-LOC\npacific\tE-LOC\n"
    )


def test_tag_requires_a_tagger(tmp_path, capsys):
    src = tmp_path / "raw.txt"
    src.write_text("chief\n", encoding="utf-8")
    code, _, err = run(capsys, "tag", "--in", str(src))
    assert code == 2


def test_synth_reruns_are_identical(tmp_path, capsys):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    for path in (a, b):
        code, _, _ = run(capsys, "synth", "--seed", "5", "--count", "20", "--out", str(path))
        assert code == 0
    assert a.read_bytes() == b.read_bytes()
    code, out, err = run(capsys, "synth", "--seed", "5", "--count", "20")
    assert out == a.read_text(encoding="utf-8")
    assert "seed: 5" in err


def test_split_counts_and_determinism(tmp_path, capsys):
    gaz_path = tmp_path / "sample.gaz"
    run(capsys, "gazetteer", "build", "--sample", "--out", str(gaz_path))
    raw = tmp_path / "raw.txt"
    run(capsys, "synth", "--seed", "3", "--count", "10", "--out", str(raw))
    labeled = tmp_path / "labeled.conll"
    run(capsys, "tag", "--in", str(raw), "--gazetteer", str(gaz_path), "--out", str(labeled))

    code, _, err = run(
        capsys, "split", "--in", str(labeled), "--out-prefix", str(tmp_path / "ds"),
        "--ratios", "80/10/10", "--seed", "1",
    )
    assert code == 0
    assert "train: 8 titles" in err
    assert "dev: 1 titles" in err
    assert "test: 1 titles" in err
    first = (tmp_path / "ds.train.conll").read_bytes()
    run(
        capsys, "split", "--in", str(labeled), "--out-prefix", str(tmp_path / "ds"),
        "--ratios", "80/10/10", "--seed", "1",
    )
    assert (tmp_path / "ds.train.conll").read_bytes() == first
    # the same split compare takes
    shared = split_sequences(read_conll(labeled), (80, 10, 10), 1)
    for name, want in zip(("train", "dev", "test"), shared):
        assert read_conll(tmp_path / f"ds.{name}.conll") == want


def test_split_bad_ratios(tmp_path, capsys):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, _ = run(
        capsys, "split", "--in", str(labeled), "--out-prefix", str(tmp_path / "x"),
        "--ratios", "80/20", "--seed", "1",
    )
    assert code == 2


@pytest.mark.parametrize("ratios", ["inf/1/1", "nan/1/1", "1/-inf/1", "1e308/1e308/1",
                                    "a/1/1", "0/0/0"])
def test_split_non_finite_ratios_name_the_flag(tmp_path, capsys, ratios):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, err = run(
        capsys, "split", "--in", str(labeled), "--out-prefix", str(tmp_path / "x"),
        "--ratios", ratios, "--seed", "1",
    )
    assert code == 2, err
    assert "--ratios" in err and repr(ratios) in err
    assert not (tmp_path / "x.train.conll").exists()


def test_eval_pred_file(tmp_path, capsys):
    gold = tmp_path / "gold.conll"
    gold.write_text(GOLD_CONLL, encoding="utf-8")
    code, out, _ = run(
        capsys, "eval", "--gold", str(gold), "--pred", str(gold), "--format", "kv"
    )
    assert code == 0
    rows = dict(line.split("=", 1) for line in out.splitlines())
    assert rows["em_token"] == "100.0000"
    assert rows["em_title"] == "100.0000"
    assert rows["n_titles"] == "2"


def test_train_eval_tag_with_model(tmp_path, capsys):
    gaz_path = tmp_path / "sample.gaz"
    run(capsys, "gazetteer", "build", "--sample", "--out", str(gaz_path))
    raw = tmp_path / "raw.txt"
    run(capsys, "synth", "--seed", "11", "--count", "60", "--out", str(raw))
    labeled = tmp_path / "labeled.conll"
    run(capsys, "tag", "--in", str(raw), "--gazetteer", str(gaz_path), "--out", str(labeled))

    model = tmp_path / "crf.bin"
    code, _, err = run(
        capsys, "train", "crf", "--train", str(labeled), "--gazetteer", str(gaz_path),
        "--out", str(model), "--seed", "0", "--epochs", "15", "--lr", "0.5",
        "--optimizer", "sgd",
    )
    assert code == 0
    assert "seed: 0" in err
    assert "final mean nll" in err

    code, out, _ = run(
        capsys, "eval", "--gold", str(labeled), "--model", str(model),
        "--gazetteer", str(gaz_path), "--format", "kv",
    )
    assert code == 0
    rows = dict(line.split("=", 1) for line in out.splitlines())
    assert float(rows["em_token"]) > 95.0

    code, out, _ = run(
        capsys, "tag", "--in", str(raw), "--model", str(model),
        "--gazetteer", str(gaz_path),
    )
    assert code == 0
    assert out.count("\t") == sum(1 for l in labeled.read_text().splitlines() if l)


@pytest.fixture(scope="module")
def tagging_files(tmp_path_factory):
    """A dictionary-labeled synthetic corpus, its raw titles and the gazetteer."""
    work = tmp_path_factory.mktemp("tagging")
    paths = {name: work / name for name in ("gaz.tsv", "raw.txt", "labeled.conll")}
    for argv in (
        ["gazetteer", "build", "--sample", "--out", str(paths["gaz.tsv"])],
        ["synth", "--seed", "12", "--count", "300", "--out", str(paths["raw.txt"])],
        ["tag", "--in", str(paths["raw.txt"]), "--gazetteer", str(paths["gaz.tsv"]),
         "--out", str(paths["labeled.conll"])],
    ):
        assert cli.main(argv) == 0
    return paths


@pytest.mark.parametrize("kind", ["crf", "logreg", "lstm", "lstm-crf"])
def test_tag_and_eval_write_per_title_predictions(tmp_path, capsys, tagging_files, kind):
    gaz, labeled = str(tagging_files["gaz.tsv"]), str(tagging_files["labeled.conll"])
    model_path = tmp_path / "model"
    extra = ["--gazetteer", gaz] if kind in ("crf", "logreg") else ["--hidden", "8"]
    code, _, err = run(capsys, "train", kind, "--train", labeled, *extra,
                       "--epochs", "1", "--seed", "0", "--out", str(model_path))
    assert code == 0, err
    features = ["--gazetteer", gaz] if kind in ("crf", "logreg") else []
    tagged, pred = tmp_path / "tagged.conll", tmp_path / "pred.conll"
    code, _, err = run(capsys, "tag", "--in", str(tagging_files["raw.txt"]),
                       "--model", str(model_path), *features, "--out", str(tagged))
    assert code == 0, err
    code, _, err = run(capsys, "eval", "--gold", labeled, "--model", str(model_path),
                       *features, "--pred-out", str(pred))
    assert code == 0, err

    model = cli._load_tagger(str(model_path), gaz if features else None, None)
    gold = read_conll(labeled)
    for path in (tagged, pred):
        written = read_conll(path)
        assert [seq.tokens for seq in written] == [seq.tokens for seq in gold]
        assert [seq.labels for seq in written] == [model.predict(seq.tokens) for seq in gold]


def test_frozen_bilm_tagging_roundtrip(tmp_path, capsys, tagging_files):
    raw, labeled = str(tagging_files["raw.txt"]), str(tagging_files["labeled.conll"])
    lm, other_lm = tmp_path / "lm.bin", tmp_path / "other-lm.bin"
    for path, seed in ((lm, "0"), (other_lm, "1")):
        code, _, err = run(capsys, "train", "bilm", "--in", raw, "--out", str(path), "--dim", "4",
                           "--hidden", "4", "--seed", seed, "--epochs", "1")
        assert code == 0, err
    model_path = tmp_path / "frozen.model"
    code, _, err = run(capsys, "train", "lstm-crf", "--train", labeled, "--embeddings", str(lm),
                       "--hidden", "8", "--epochs", "1", "--seed", "0", "--out", str(model_path))
    assert code == 0, err
    tagged, pred, report = tmp_path / "tagged.conll", tmp_path / "pred.conll", tmp_path / "report"
    code, _, err = run(capsys, "tag", "--in", raw, "--model", str(model_path),
                       "--embeddings", str(lm), "--out", str(tagged))
    assert code == 0, err
    code, _, err = run(capsys, "eval", "--gold", labeled, "--model", str(model_path),
                       "--embeddings", str(lm), "--pred-out", str(pred), "--format", "kv",
                       "--out", str(report))
    assert code == 0, err
    assert "n_titles=300\n" in report.read_text()

    model = cli._load_tagger(str(model_path), None, str(lm))
    assert not model.provider.trainable
    gold = read_conll(labeled)
    expected = model.predict_many([seq.tokens for seq in gold])
    for path in (tagged, pred):
        written = read_conll(path)
        assert [seq.tokens for seq in written] == [seq.tokens for seq in gold]
        assert [seq.labels for seq in written] == expected

    for command in (["tag", "--in", raw, "--out", str(tmp_path / "x")],
                    ["eval", "--gold", labeled, "--out", str(tmp_path / "x")]):
        code, _, err = run(capsys, *command, "--model", str(model_path))
        assert code == 2
        assert "language-model file" in err and model_io.file_hash(lm) in err
        code, _, err = run(capsys, *command, "--model", str(model_path),
                           "--embeddings", str(other_lm))
        assert code == 2
        assert "hash mismatch" in err
    assert not (tmp_path / "x").exists()


@pytest.fixture(scope="module")
def unread_flag_models(tmp_path_factory, small_models, tagging_files):
    """Models for the flags tag and eval reject: small_models' crf (trained
    without a gazetteer) and lstm-crf (a table), plus a crf with the
    gazetteer and a plain lstm."""
    work = tmp_path_factory.mktemp("unread")
    gold, gaz = str(small_models["gold"]), str(tagging_files["gaz.tsv"])
    paths = {"crf": small_models["crf"], "lstm-crf": small_models["lstm-crf"],
             "lm": small_models["bilm"], "gaz": gaz, "gold": gold,
             "crf-gaz": work / "crf-gaz.model", "lstm": work / "lstm.model"}
    for name, argv in (("crf-gaz", ["crf", "--gazetteer", gaz]), ("lstm", ["lstm", "--hidden", "4"])):
        assert cli.main(["train", *argv, "--train", gold, "--out", str(paths[name]),
                         "--seed", "0", "--epochs", "1"]) == 0
    return paths


@pytest.mark.parametrize("command", ["tag", "eval"])
@pytest.mark.parametrize("model, flag", [
    ("crf", "--gazetteer"),
    ("crf-gaz", "--embeddings"),
    ("lstm", "--gazetteer"),
    ("lstm", "--embeddings"),
    ("lstm-crf", "--gazetteer"),
    ("lstm-crf", "--embeddings"),
])
def test_tag_and_eval_reject_a_flag_the_model_does_not_read(tmp_path, capsys,
                                                            unread_flag_models, command,
                                                            model, flag):
    paths = unread_flag_models
    needed = ["--gazetteer", paths["gaz"]] if model == "crf-gaz" else []
    given = [flag, str(paths["gaz"] if flag == "--gazetteer" else paths["lm"])]
    source = ["--in", paths["gold"], "--in-format", "conll"] if command == "tag" else [
        "--gold", paths["gold"]]
    out = tmp_path / "out"
    code, _, err = run(capsys, command, *source, "--model", str(paths[model]), *needed, *given,
                       "--out", str(out))
    assert code == 2
    assert f"{flag} is given" in err and str(paths[model]) in err
    assert not out.exists()
    code, _, err = run(capsys, command, *source, "--model", str(paths[model]), *needed,
                       "--out", str(out))
    assert code == 0, err


@pytest.mark.parametrize("command, flag", [
    ("eval", "--gazetteer"),
    ("eval", "--embeddings"),
    ("eval", "--pred-out"),
    ("tag", "--embeddings"),
])
def test_eval_pred_and_dictionary_tag_reject_a_model_flag(tmp_path, capsys, unread_flag_models,
                                                         command, flag):
    """eval --pred and dictionary tagging load no model, so a flag that only
    a model reads exits 2 and names the flag."""
    paths = unread_flag_models
    pred_out = tmp_path / "pred.conll"
    value = {"--gazetteer": paths["gaz"], "--pred-out": pred_out}.get(flag, paths["lm"])
    given = [flag, str(value)]
    source = (["tag", "--in", paths["gold"], "--in-format", "conll", "--gazetteer", paths["gaz"]]
              if command == "tag" else ["eval", "--gold", paths["gold"], "--pred", paths["gold"]])
    out = tmp_path / "out"
    code, _, err = run(capsys, *source, *given, "--out", str(out))
    assert code == 2
    assert f"{flag} is given" in err
    assert not out.exists() and not pred_out.exists()
    code, _, err = run(capsys, *source, "--out", str(out))
    assert code == 0, err


def test_bilm_and_embed_roundtrip(tmp_path, capsys):
    raw = tmp_path / "raw.txt"
    run(capsys, "synth", "--seed", "2", "--count", "15", "--out", str(raw))
    lm = tmp_path / "lm.bin"
    code, _, err = run(
        capsys, "train", "bilm", "--in", str(raw), "--out", str(lm),
        "--dim", "4", "--hidden", "4", "--layers", "1",
        "--seed", "0", "--epochs", "1", "--batch-size", "8",
    )
    assert code == 0
    assert "final perplexity" in err

    emb = tmp_path / "vectors.txt"
    code, _, err = run(capsys, "embed", "--model", str(lm), "--in", str(raw), "--out", str(emb))
    assert code == 0
    store = read_embeddings(emb)
    assert store.dim == 4 + 2 * 4 * 1
    assert len(store.records) == 15


def test_embed_empty_input_writes_an_empty_store(tmp_path, capsys):
    vocab = Vocab.from_counts({"chief": 1})
    lm = tmp_path / "lm.bin"
    BiLmModel(vocab, 2, 3, 1).save(lm)
    empty = tmp_path / "empty.txt"
    empty.write_text("", encoding="utf-8")
    emb = tmp_path / "vectors.emb"
    code, _, err = run(capsys, "embed", "--model", str(lm), "--in", str(empty), "--out", str(emb))
    assert code == 0, err
    assert emb.read_bytes().startswith(b"ipod-emb v3 8 0 ")
    store = read_embeddings(emb)
    assert store.dim == 2 + 2 * 3 and store.records == []


def test_embed_notes_titles_that_normalize_to_nothing(tmp_path, capsys):
    vocab = Vocab.from_counts({"chief": 1})
    lm = tmp_path / "lm.bin"
    BiLmModel(vocab, 2, 3, 1).save(lm)
    raw = tmp_path / "raw.txt"
    raw.write_text("chief officer\n!!!\nsales\n", encoding="utf-8")
    emb = tmp_path / "vectors.emb"
    code, _, err = run(capsys, "embed", "--model", str(lm), "--in", str(raw), "--out", str(emb))
    assert code == 0, err
    assert "note: skipped 1 titles that normalize to nothing" in err
    assert "embedded 2 titles" in err
    assert [r.title_id for r in read_embeddings(emb).records] == ["0", "2"]


@pytest.mark.parametrize("fmt, text", [
    ("lines", "chief officer\n!!!\n\nsales\n"),
    ("tsv", "chief\tUS\tp1\nno columns\n!!!\tUS\tp2\nsales\tASIA\tp3\n"),
], ids=["lines", "tsv"])
def test_embed_record_ids_are_input_line_indices(tmp_path, capsys, fmt, text):
    """A record's id is its title's 0-based input line index, whatever lines
    before it were dropped: empty titles, and malformed TSV rows."""
    lm = tmp_path / "lm.bin"
    BiLmModel(Vocab.from_counts({"chief": 1}), 2, 3, 1).save(lm)
    raw = tmp_path / "raw.txt"
    raw.write_text(text, encoding="utf-8")
    emb = tmp_path / "vectors.emb"
    code, _, err = run(capsys, "embed", "--model", str(lm), "--in", str(raw), "--in-format", fmt,
                       "--out", str(emb))
    assert code == 0, err
    assert [r.title_id for r in read_embeddings(emb).records] == ["0", "3"]


def test_one_parser_serves_every_call_in_a_process(tmp_path, capsys):
    """main parses with one parser per process: no value of one call leaks
    into the next, a usage error leaves it usable, and its help is the tree's."""
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    assert run(capsys, "synth", "--seed", "1", "--count", "5", "--out", str(a))[0] == 0
    assert run(capsys, "synth", "--seed", "1", "--out", str(b))[0] == 0
    assert len(a.read_text(encoding="utf-8").splitlines()) == 5
    assert len(b.read_text(encoding="utf-8").splitlines()) == 1000
    code, _, err = run(capsys, "synth", "--seed", "x", "--out", str(a))
    assert code == 2 and "invalid int value" in err
    assert run(capsys, "synth", "--seed", "2", "--count", "3", "--out", str(a))[0] == 0
    assert len(a.read_text(encoding="utf-8").splitlines()) == 3
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert out == cli.build_parser().format_help()


def test_gridsearch_table(tmp_path, capsys):
    gaz_path = tmp_path / "sample.gaz"
    run(capsys, "gazetteer", "build", "--sample", "--out", str(gaz_path))
    raw = tmp_path / "raw.txt"
    run(capsys, "synth", "--seed", "4", "--count", "30", "--out", str(raw))
    labeled = tmp_path / "labeled.conll"
    run(capsys, "tag", "--in", str(raw), "--gazetteer", str(gaz_path), "--out", str(labeled))

    argv = ["gridsearch", "--model", "crf", "--train", str(labeled), "--dev", str(labeled),
            "--space", "learning_rate=0.1,0.5;epochs=2;optimizer=sgd,adam",
            "--gazetteer", str(gaz_path), "--seed", "0"]
    code, out, err = run(capsys, *argv, "--format", "tsv")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "learning_rate\tepochs\toptimizer\tf1\tem_token\tbest"
    assert len(lines) == 5  # 2 learning rates x 1 epoch budget x 2 optimizers
    assert sum(line.endswith("*") for line in lines[1:]) == 1
    assert "best:" in err

    # text is the same table, each column starting where its header does
    code, text, text_err = run(capsys, *argv, "--format", "text")
    assert code == 0 and text_err == err
    header, *rows = text.splitlines()
    assert header.split() == lines[0].split("\t")
    assert header.startswith("learning_rate  epochs  optimizer  f1 ")
    starts = [header.index(name) for name in lines[0].split("\t")]
    assert len(rows) == len(lines) - 1
    for row, line in zip(rows, lines[1:]):
        cells = line.split("\t")
        assert [row[start:].split(" ", 1)[0] for start in starts] == cells
        assert row == row.rstrip()


def test_gridsearch_unknown_axis(tmp_path, capsys):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, err = run(
        capsys, "gridsearch", "--model", "crf", "--train", str(labeled),
        "--dev", str(labeled), "--space", "warp=1,2", "--seed", "0",
    )
    assert code == 2
    assert "unknown search axis" in err


def test_gridsearch_rejects_a_bad_space_before_reading_its_inputs(tmp_path, capsys):
    """--space needs only the argv, so a bad axis exits 2 even when the
    inputs are missing."""
    code, out, err = run(
        capsys, "gridsearch", "--model", "crf", "--train", str(tmp_path / "nonexist.conll"),
        "--dev", str(tmp_path / "nonexist2.conll"), "--space", "bogus=1", "--seed", "0",
    )
    assert code == 2, err
    assert "error: unknown search axis 'bogus'" in err
    assert out == ""


_GRID_INPUTS = "--train {m} --dev {m} --gazetteer {m} --seed 0"


_USAGE_ERRORS = [
    pytest.param(f"gridsearch --model crf --space learning_rate=-1 {_GRID_INPUTS}",
                 "error: learning_rate must be > 0, got -1.0", id="gridsearch-bad-point"),
    pytest.param(f"gridsearch --model crf --space ; {_GRID_INPUTS}",
                 "error: empty search space", id="gridsearch-empty-space"),
    pytest.param(f"gridsearch --model crf --space epochs= {_GRID_INPUTS}",
                 "error: axis 'epochs' has no values", id="gridsearch-empty-axis"),
    pytest.param("gridsearch --model lstm --space hidden_size=8,0 --train {m} --dev {m} --seed 0",
                 "error: hidden_size must be >= 1, got 0", id="gridsearch-hidden"),
    pytest.param("gridsearch --model lstm-crf --space layers=0 --train {m} --dev {m} --seed 0",
                 "error: layers must be >= 1, got 0", id="gridsearch-layers"),
    pytest.param("gridsearch --model lstm --space embedding_dim=0 --train {m} --dev {m} --seed 0",
                 "error: embedding_dim must be >= 1, got 0", id="gridsearch-embedding-dim"),
    pytest.param("ngrams --top -1 --in {m}", "error: --top must be >= 0, got -1", id="ngrams-top"),
    pytest.param("ngrams -n 0 --in {m}", "error: n must be >= 1, got 0", id="ngrams-order"),
    pytest.param("split --ratios 80/10 --in {m} --out-prefix {m} --seed 0",
                 "error: --ratios expects train/dev/test", id="split-two-shares"),
    pytest.param("split --ratios a/b/c --in {m} --out-prefix {m} --seed 0",
                 "error: --ratios expects train/dev/test", id="split-unparsable-shares"),
    pytest.param("train bilm --dim 0 --in {m} --out {m} --seed 0",
                 "error: dim must be >= 1, got 0", id="bilm-dim"),
    pytest.param("train bilm --min-count 0 --in {m} --out {m} --seed 0",
                 "error: min_count must be >= 1, got 0", id="bilm-min-count"),
    pytest.param("train lstm-crf --hidden 0 --train {m} --out {m} --seed 0",
                 "error: hidden_size must be >= 1, got 0", id="lstm-crf-hidden"),
    pytest.param("train lstm-crf --embedding-dim 0 --train {m} --out {m} --seed 0",
                 "error: embedding_dim must be >= 1, got 0", id="lstm-crf-embedding-dim"),
    pytest.param("train lstm --layers 0 --train {m} --out {m} --seed 0",
                 "error: layers must be >= 1, got 0", id="lstm-layers"),
    # The checks of _build_config: the TrainConfig bounds and an unread setting.
    pytest.param("train crf --lr 0 --train {m} --out {m} --seed 0",
                 "error: learning_rate must be > 0, got 0.0", id="crf-learning-rate"),
    pytest.param("train logreg --batch-size 0 --train {m} --out {m} --seed 0",
                 "error: batch_size must be >= 1, got 0", id="logreg-batch-size"),
    pytest.param("train lstm --epochs -1 --train {m} --out {m} --seed 0",
                 "error: epochs must be >= 0, got -1", id="lstm-epochs"),
    pytest.param("train lstm-crf --word-dropout 1 --train {m} --out {m} --seed 0",
                 "error: word_dropout must lie in [0, 1), got 1.0", id="lstm-crf-word-dropout"),
    pytest.param("train lstm-crf --variational-dropout -0.5 --train {m} --out {m} --seed 0",
                 "error: variational_dropout must lie in [0, 1), got -0.5",
                 id="lstm-crf-variational-dropout"),
    pytest.param("train bilm --clip inf --in {m} --out {m} --seed 0",
                 "error: clip_norm must be positive or None, got inf", id="bilm-clip"),
    pytest.param("train crf --clip 1 --train {m} --out {m} --seed 0",
                 "error: --clip sets clip_norm, which the crf trainer does not read",
                 id="crf-unread-clip"),
    pytest.param("eval --gold {m} --pred {m} --gazetteer {m}",
                 "error: --gazetteer is given, but eval --pred", id="eval-pred-gazetteer"),
    pytest.param("tag --in {m}", "error: pass --gazetteer for dictionary tagging",
                 id="tag-no-tagger"),
    pytest.param("tag --in {m} --gazetteer {m} --embeddings {m}",
                 "error: --embeddings is given, but dictionary tagging",
                 id="tag-dictionary-embeddings"),
    pytest.param("synth --count -1 --gazetteer {m} --seed 0",
                 "error: count must be >= 0, got -1", id="synth-count"),
    # A negative --seed, which no generator takes, in the commands that read
    # it and as a --space axis.
    pytest.param("train crf --seed -1 --train {m} --out {m}",
                 "error: seed must be >= 0, got -1", id="crf-seed"),
    pytest.param("split --seed -1 --in {m} --out-prefix {m}",
                 "error: seed must be >= 0, got -1", id="split-seed"),
    pytest.param("compare --seed -1 --in {m}", "error: seed must be >= 0, got -1",
                 id="compare-seed"),
    pytest.param("synth --seed -1 --gazetteer {m}", "error: seed must be >= 0, got -1",
                 id="synth-seed"),
    pytest.param(f"gridsearch --model crf --space seed=0,-1 {_GRID_INPUTS}",
                 "error: seed must be >= 0, got -1", id="gridsearch-seed"),
]


@pytest.mark.parametrize("argv,message", _USAGE_ERRORS)
def test_usage_error_comes_before_reading_missing_inputs(tmp_path, capsys, argv, message):
    """A check that needs only the argv exits 2 even when every input is missing."""
    code, out, err = run(capsys, *argv.format(m=tmp_path / "missing").split())
    assert code == 2, err
    assert message in err
    assert out == ""


# The commands that check no value from the argv alone.
_NO_ARGV_CHECKS = {"normalize", "stats", "gazetteer build", "gazetteer irr", "embed"}


def _commands(parser, prefix=""):
    """The full name of each command build_parser() takes, such as "train crf"."""
    subparsers = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    if not subparsers:
        yield prefix
        return
    for name, sub in subparsers[0].choices.items():
        yield from _commands(sub, f"{prefix} {name}".strip())


def test_every_command_that_checks_its_argv_has_a_usage_error_case():
    """A command is either listed as checking nothing from the argv alone or
    has a case above, so a new command cannot skip the argv-first rule
    unseen."""
    commands = set(_commands(cli.build_parser()))
    covered = {next(c for c in commands if case.values[0].startswith(c + " "))
               for case in _USAGE_ERRORS}
    assert covered.isdisjoint(_NO_ARGV_CHECKS)
    assert sorted(commands - _NO_ARGV_CHECKS - covered) == []
    assert _NO_ARGV_CHECKS <= commands


@pytest.mark.parametrize("space,axis", [("epochs=1;learning-rate=0.05;epochs=2", "epochs"),
                                        ("learning-rate=0.05;learning_rate=0.1", "learning_rate")])
def test_gridsearch_repeated_axis_exits_2(tmp_path, capsys, space, axis):
    """A repeated axis, under either spelling, would silently replace the first."""
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, out, err = run(
        capsys, "gridsearch", "--model", "crf", "--train", str(labeled),
        "--dev", str(labeled), "--space", space, "--seed", "0",
    )
    assert code == 2, err
    assert f"error: search axis {axis!r} is given twice" in err
    assert out == ""


def test_gridsearch_rejects_a_bad_point_before_training_any(tmp_path, capsys, caplog):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    with caplog.at_level(logging.INFO, logger="titletag"):
        code, out, err = run(
            capsys, "-v", "gridsearch", "--model", "crf", "--train", str(labeled),
            "--dev", str(labeled), "--space", "learning_rate=0.1,nan", "--epochs", "2",
            "--seed", "0",
        )
    assert code == 2, err
    assert "error: learning_rate must be" in err
    assert out == ""
    assert not [r.getMessage() for r in caplog.records if "epoch" in r.getMessage()]


@pytest.mark.parametrize("command,setting", [
    pytest.param("train", ["--lr", "nan"], id="lr-nan"),
    pytest.param("train", ["--lr", "inf"], id="lr-inf"),
    pytest.param("train", ["--clip", "nan"], id="clip-nan"),
    pytest.param("train", ["--clip", "inf"], id="clip-inf"),
    pytest.param("gridsearch", ["--space", "learning_rate=inf"], id="axis-lr-inf"),
    pytest.param("gridsearch", ["--space", "clip_norm=nan"], id="axis-clip-nan"),
])
def test_non_finite_training_setting_exits_2(tmp_path, capsys, command, setting):
    key = "clip_norm" if "clip" in " ".join(setting) else "learning_rate"
    run_lstm_setting(tmp_path, capsys, command, setting, f"error: {key} must be")


@pytest.mark.parametrize("command,setting,message", [
    pytest.param("gridsearch", ["--space", "layers=1.5"],
                 "error: --space layers: expected an integer, got '1.5'", id="axis-layers-1.5"),
    pytest.param("gridsearch", ["--space", "clip_norm=abc"],
                 "error: --space clip_norm: expected a number, got 'abc'", id="axis-clip-abc"),
])
def test_unparsable_training_setting_exits_2(tmp_path, capsys, command, setting, message):
    run_lstm_setting(tmp_path, capsys, command, setting, message)


def run_lstm_setting(tmp_path, capsys, command, setting, message):
    """Run `train lstm` or an lstm `gridsearch` with the setting; it must
    exit 2 with the message and write no model."""
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    if command == "train":
        argv = ["train", "lstm", "--train", str(labeled), "--out", str(tmp_path / "m.bin"),
                "--hidden", "2"]
    else:
        argv = ["gridsearch", "--model", "lstm", "--train", str(labeled), "--dev", str(labeled)]
    code, _, err = run(capsys, *argv, "--seed", "0", *setting)
    assert code == 2, err
    assert message in err
    assert not (tmp_path / "m.bin").exists()


def flag_namespace(*flags):
    """The namespace `train lstm --seed 11` parses to, plus the given flags."""
    argv = ["train", "lstm", "--train", "t.conll", "--out", "m.bin", "--seed", "11", *flags]
    return cli.build_parser().parse_args(argv)


@pytest.mark.parametrize("kind,setting,key", [
    pytest.param("bilm", ["--word-dropout", "0.4"], "word_dropout", id="bilm-word-dropout"),
    pytest.param("bilm", ["--variational-dropout", "0.3"], "variational_dropout",
                 id="bilm-variational-dropout"),
    pytest.param("crf", ["--variational-dropout", "0.3"], "variational_dropout",
                 id="crf-variational-dropout"),
    pytest.param("crf", ["--clip", "1"], "clip_norm", id="crf-clip"),
    pytest.param("logreg", ["--clip", "0"], "clip_norm", id="logreg-clip-0"),
])
def test_train_setting_the_trainer_does_not_read_exits_2(tmp_path, capsys, kind, setting, key):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    source = ["--in", str(labeled)] if kind == "bilm" else ["--train", str(labeled)]
    model = tmp_path / "m.bin"
    code, _, err = run(capsys, "train", kind, *source, "--out", str(model), "--seed", "0",
                       "--epochs", "1", *setting)
    assert code == 2, err
    assert f"error: {setting[0]} sets {key}, which the {kind} trainer does not read" in err
    assert not model.exists()


@pytest.mark.parametrize("model,space,key", [
    ("crf", "variational_dropout=0.1,0.5;clip_norm=1,5", "variational_dropout"),
    ("logreg", "learning_rate=0.1;clip_norm=1,5", "clip_norm"),
    *(pytest.param(model, f"{axis}=2", axis, id=f"{model}-{axis}")
      for model in ("crf", "logreg") for axis in ("embedding_dim", "hidden_size", "layers")),
])
def test_gridsearch_axis_the_trainer_does_not_read_exits_2(tmp_path, capsys, model, space, key):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, out, err = run(
        capsys, "gridsearch", "--model", model, "--train", str(labeled),
        "--dev", str(labeled), "--space", space, "--seed", "0",
    )
    assert code == 2, err
    assert f"error: --space sets {key}, which the {model} trainer does not read" in err
    assert out == ""


def test_gridsearch_base_flag_the_trainer_does_not_read_exits_2(tmp_path, capsys):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, err = run(
        capsys, "gridsearch", "--model", "crf", "--train", str(labeled),
        "--dev", str(labeled), "--space", "epochs=1", "--seed", "0", "--clip", "3",
    )
    assert code == 2, err
    assert "error: --clip sets clip_norm, which the crf trainer does not read" in err


def test_gridsearch_seed_axis_still_runs(tmp_path, capsys):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, out, err = run(capsys, "gridsearch", "--model", "crf", "--train", str(labeled),
                         "--dev", str(labeled), "--space", "seed=1,2;epochs=1", "--seed", "0")
    assert code == 0, err
    assert len(out.splitlines()) == 3  # header and one row per seed


@pytest.mark.parametrize("kind", ["crf", "logreg", "bilm"])
def test_default_settings_the_trainer_does_not_read_stay_silent(tmp_path, capsys, kind):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    source = ["--in", str(labeled)] if kind == "bilm" else ["--train", str(labeled)]
    extra = ["--dim", "2", "--hidden", "2"] if kind == "bilm" else []
    code, _, err = run(capsys, "train", kind, *source, *extra, "--out", str(tmp_path / "m.bin"),
                       "--seed", "0", "--epochs", "1", "--lr", "0.05", "--batch-size", "2")
    assert code == 0, err
    assert "does not read" not in err


def test_build_config_precedence():
    cfg = cli._build_config(flag_namespace("--epochs", "3", "--lr", "0.9"))
    assert cfg.learning_rate == 0.9  # each flag given beats the default
    assert cfg.epochs == 3
    assert cfg.seed == 11
    assert cfg.batch_size == 32  # untouched default


def test_build_config_clip_zero_disables():
    assert cli._build_config(flag_namespace("--clip", "0")).clip_norm is None
    assert cli._build_config(flag_namespace("--clip", "2.5")).clip_norm == 2.5
    assert cli._parse_space("clip_norm=0,1", "lstm") == {"clip_norm": [None, 1.0]}


def test_train_zero_embedding_dim_exits_2(tmp_path, capsys):
    train = tmp_path / "t.conll"
    train.write_text(GOLD_CONLL, encoding="utf-8")
    model = tmp_path / "m.bin"
    code, _, err = run(
        capsys, "train", "lstm-crf", "--train", str(train), "--out", str(model),
        "--hidden", "2", "--embedding-dim", "0", "--seed", "0", "--epochs", "1",
    )
    assert code == 2, err
    assert "error: embedding_dim must be >= 1, got 0" in err and not model.exists()


@pytest.mark.parametrize("kind", ["lstm", "lstm-crf"])
def test_embedding_dim_with_frozen_embeddings_exits_2(tmp_path, capsys, kind):
    """--embedding-dim sizes the trainable table only: with --embeddings it
    exits 2 before any file is read (none of these exists), and without it
    the table keeps its default dimension, 64."""
    missing = [str(tmp_path / name) for name in ("t.conll", "lm.bin", "m.bin")]
    code, _, err = run(capsys, "train", kind, "--train", missing[0], "--embeddings", missing[1],
                       "--embedding-dim", "999", "--out", missing[2], "--seed", "0")
    assert code == 2, err
    assert f"error: --embedding-dim is given, but the {kind} trainer with --embeddings" in err
    train, model = tmp_path / "t.conll", tmp_path / "m.bin"
    train.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, err = run(capsys, "train", kind, "--train", str(train), "--out", str(model),
                       "--hidden", "2", "--epochs", "1", "--seed", "0")
    assert code == 0, err
    assert cli._load_tagger(str(model), None, None).provider.dim == 64


@pytest.mark.parametrize("model", ["lstm", "lstm-crf"])
def test_gridsearch_gazetteer_on_recurrent_model_exits_2(tmp_path, capsys, model):
    """The recurrent taggers read no gazetteer: gridsearch exits 2 naming the
    flag before it reads any file (none of these exists) or trains a model."""
    train, gaz = str(tmp_path / "l.conll"), str(tmp_path / "g.tsv")
    code, out, err = run(capsys, "gridsearch", "--model", model, "--train", train, "--dev", train,
                         "--space", "epochs=1", "--gazetteer", gaz, "--seed", "0")
    assert code == 2, err
    assert f"error: --gazetteer is given, but the {model} trainer does not read it" in err
    assert out == ""


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """One tiny trained model of each container kind the CLI reads, and an
    lstm-crf on the biLM's frozen embeddings."""
    work = tmp_path_factory.mktemp("models")
    gold = work / "gold.conll"
    gold.write_text(GOLD_CONLL, encoding="utf-8")
    raw = work / "raw.txt"
    raw.write_text("chief financial officer\nasia pacific sales\n", encoding="utf-8")
    commands = {
        "crf": ["train", "crf", "--train", str(gold)],
        "lstm-crf": ["train", "lstm-crf", "--train", str(gold), "--hidden", "8",
                     "--embedding-dim", "4"],
        "lstm": ["train", "lstm", "--train", str(gold), "--hidden", "8", "--embedding-dim", "4"],
        "bilm": ["train", "bilm", "--in", str(raw), "--dim", "4", "--hidden", "4"],
        "frozen": ["train", "lstm-crf", "--train", str(gold), "--hidden", "8",
                   "--embeddings", str(work / "bilm.model")],
    }
    paths = {"gold": gold, "raw": raw}
    for kind, argv in commands.items():
        paths[kind] = work / f"{kind}.model"
        assert cli.main([*argv, "--out", str(paths[kind]), "--seed", "0", "--epochs", "1"]) == 0
    return paths


def _edited_copy(src, dst, edit):
    kind, meta, arrays = model_io.load_model(src)
    edit(meta, arrays)
    model_io.save_model(dst, kind, meta, arrays)
    return dst


def _set(mapping, key, value):
    mapping[key] = value


def _duplicate_token(vocab):
    vocab[-1] = vocab[-2]


def _drop_sentinel(vocab):
    vocab[0] = "zzz"


@pytest.mark.parametrize(
    "kind,edit",
    [
        pytest.param("crf", lambda m, a: m.pop("labels"), id="crf-no-labels"),
        pytest.param("crf", lambda m, a: m.pop("features"), id="crf-no-features"),
        pytest.param("crf", lambda m, a: _set(m, "uses_gazetteer", "no"), id="crf-string-flag"),
        pytest.param("crf", lambda m, a: m["features"].append(["w0=x"]), id="crf-list-feature"),
        pytest.param("crf", lambda m, a: a.pop("stop"), id="crf-no-stop"),
        pytest.param("crf", lambda m, a: _set(a, "emit", a["emit"][:-1]),
                     id="crf-feature-count"),
        pytest.param("crf", lambda m, a: _set(a, "start", a["start"][:-1]),
                     id="crf-label-count"),
        pytest.param("crf", lambda m, a: _set(a, "extra", np.zeros(2)), id="crf-extra-array"),
        pytest.param("lstm-crf", lambda m, a: m.pop("labels"), id="lstm-no-labels"),
        pytest.param("lstm-crf", lambda m, a: m.pop("provider"), id="lstm-no-provider"),
        pytest.param("lstm-crf", lambda m, a: m["provider"].pop("vocab"), id="lstm-no-vocab"),
        pytest.param("lstm-crf", lambda m, a: a.pop("proj.b"), id="lstm-no-proj-b"),
        pytest.param("lstm-crf", lambda m, a: _set(m, "hidden", 4), id="lstm-hidden"),
        pytest.param("lstm-crf", lambda m, a: _set(m, "hidden", "8"), id="lstm-string-hidden"),
        pytest.param("lstm-crf", lambda m, a: _set(m, "layers", 2), id="lstm-layers"),
        pytest.param("lstm-crf", lambda m, a: _set(m, "layers", 0), id="lstm-zero-layers"),
        pytest.param("lstm-crf", lambda m, a: _set(m, "hidden", -8), id="lstm-negative-hidden"),
        pytest.param("lstm-crf", lambda m, a: _set(m["provider"], "dim", 5), id="lstm-dim"),
        pytest.param("lstm-crf", lambda m, a: m["provider"]["vocab"].append("zzz"),
                     id="lstm-vocab-size"),
        pytest.param("lstm-crf", lambda m, a: _set(a, "trans", a["trans"][:, :-1]),
                     id="lstm-label-count"),
        pytest.param("lstm-crf", lambda m, a: _duplicate_token(m["provider"]["vocab"]),
                     id="lstm-duplicate-token"),
        pytest.param("lstm-crf", lambda m, a: _drop_sentinel(m["provider"]["vocab"]),
                     id="lstm-no-sentinel"),
        pytest.param("lstm-crf", lambda m, a: _set(m["provider"], "type", "foo"),
                     id="lstm-provider-type"),
        pytest.param("lstm-crf", lambda m, a: _set(a, "extra", np.zeros(2)),
                     id="lstm-extra-array"),
    ],
)
def test_tag_with_bad_model_meta_exits_4(tmp_path, capsys, small_models, kind, edit):
    model = _edited_copy(small_models[kind], tmp_path / "bad.model", edit)
    code, _, err = run(capsys, "tag", "--in", str(small_models["raw"]), "--model", str(model))
    assert code == 4, err
    assert "bad.model" in err


@pytest.mark.parametrize(
    "edit",
    [
        pytest.param(lambda m, a: m.pop("vocab"), id="no-vocab"),
        pytest.param(lambda m, a: _set(m, "hidden", 3), id="hidden"),
        pytest.param(lambda m, a: _set(m, "layers", 0), id="zero-layers"),
        pytest.param(lambda m, a: _set(m, "dim", 5), id="dim"),
        pytest.param(lambda m, a: a.pop("fwd_out.b"), id="no-out-bias"),
        pytest.param(lambda m, a: m["vocab"].append("zzz"), id="vocab-size"),
        pytest.param(lambda m, a: m["vocab"].append({"token": "zzz"}), id="vocab-object"),
        pytest.param(lambda m, a: _duplicate_token(m["vocab"]), id="duplicate-token"),
        pytest.param(lambda m, a: _drop_sentinel(m["vocab"]), id="no-sentinel"),
        pytest.param(lambda m, a: _set(a, "extra", np.zeros(2)), id="extra-array"),
    ],
)
def test_embed_with_bad_model_meta_exits_4(tmp_path, capsys, small_models, edit):
    model = _edited_copy(small_models["bilm"], tmp_path / "bad.model", edit)
    code, _, err = run(capsys, "embed", "--model", str(model), "--in",
                       str(small_models["raw"]), "--out", str(tmp_path / "v.txt"))
    assert code == 4, err
    assert "bad.model" in err


@pytest.mark.parametrize(
    "manifest,payload",
    [
        pytest.param([{"shape": [2]}], b"\x00" * 8, id="no-name"),
        pytest.param([{"name": "a", "shape": "2"}], b"\x00" * 8, id="string-shape"),
        pytest.param([{"name": "a", "shape": [-1]}, {"name": "b", "shape": [2]}],
                     b"\x00" * 4, id="negative-dim"),
    ],
)
def test_tag_with_corrupt_container_exits_4(tmp_path, capsys, small_models, manifest, payload):
    _, meta, _ = model_io.load_model(small_models["crf"])
    blob = json.dumps({"format_version": 1, "kind": "crf", "meta": meta,
                       "arrays": manifest}).encode()
    model = tmp_path / "bad.model"
    model.write_bytes(model_io.MAGIC + struct.pack("<Q", len(blob)) + blob + payload)
    code, _, err = run(capsys, "tag", "--in", str(small_models["raw"]), "--model", str(model))
    assert code == 4, err


@pytest.mark.parametrize("kind", [5, ["crf"], None])
@pytest.mark.parametrize("command", ["tag", "embed"])
def test_non_string_model_kind_exits_4(tmp_path, capsys, small_models, kind, command):
    source = small_models["crf" if command == "tag" else "bilm"]
    _, meta, arrays = model_io.load_model(source)
    model = tmp_path / "bad.model"
    model_io.save_model(model, kind, meta, arrays)
    if command == "tag":
        argv = ["tag", "--in", str(small_models["raw"]), "--model", str(model)]
    else:
        argv = ["embed", "--model", str(model), "--in", str(small_models["raw"]),
                "--out", str(tmp_path / "v.emb")]
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert str(model) in err and "model kind" in err


@pytest.mark.parametrize("command", ["tag", "eval"])
def test_tagging_with_a_language_model_exits_2(capsys, small_models, command):
    source = ["--in", str(small_models["raw"])] if command == "tag" else [
        "--gold", str(small_models["gold"])]
    code, out, err = run(capsys, command, *source, "--model", str(small_models["bilm"]))
    assert code == 2, err
    assert f"error: {small_models['bilm']}: model kind 'bilm' cannot tag token sequences" in err
    assert out == ""


@pytest.mark.parametrize("version", [0, 2, "1", None])
def test_unsupported_format_version_exits_4(tmp_path, capsys, small_models, version):
    model = tmp_path / "bad.model"
    model.write_bytes(_rewrite_header(small_models["crf"].read_bytes(),
                                      lambda header: _set(header, "format_version", version)))
    code, _, err = run(capsys, "tag", "--in", str(small_models["raw"]), "--model", str(model))
    assert code == 4, err
    assert f"{model}: unsupported format version {version!r}" in err


@pytest.mark.parametrize("command", ["tag", "embed"])
def test_deeply_nested_model_header_exits_4(tmp_path, capsys, small_models, command):
    """A header nested deeper than the JSON parser recurses is unreadable,
    not an internal error."""
    blob = b"[" * 200_000 + b"]" * 200_000
    model = tmp_path / "deep.model"
    model.write_bytes(model_io.MAGIC + struct.pack("<Q", len(blob)) + blob)
    argv = {"tag": ["tag", "--in", str(small_models["raw"]), "--model", str(model)],
            "embed": ["embed", "--model", str(model), "--in", str(small_models["raw"]),
                      "--out", str(tmp_path / "v.emb")]}[command]
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert f"{model}: unreadable header" in err


def _meta_edited_command(tmp_path, small_models, kind, edit):
    model = _edited_copy(small_models[kind], tmp_path / "bad.model", edit)
    if kind == "bilm":
        return ["embed", "--model", str(model), "--in", str(small_models["raw"]),
                "--out", str(tmp_path / "v.txt")]
    frozen = ["--embeddings", str(small_models["bilm"])] if kind == "frozen" else []
    return ["tag", "--in", str(small_models["raw"]), "--model", str(model), *frozen]


# Bytes that building the small models' stacks from the edited meta would take
# at 8 bytes a value (the cells hold float32, half that): lstm-crf has hidden 8
# over 4-dim embeddings, bilm hidden 4 over dim 4; a cell's W is
# (4*hidden, input + hidden).
@pytest.mark.parametrize(
    "kind,edit,implied_bytes",
    [
        pytest.param("lstm-crf", lambda m, a: _set(m, "hidden", 1500),
                     2 * 4 * 1500 * (4 + 1500) * 8, id="lstm-hidden"),
        pytest.param("lstm-crf", lambda m, a: _set(m, "layers", 5000),
                     2 * 4999 * 4 * 8 * (16 + 8) * 8, id="lstm-layers"),
        pytest.param("lstm-crf", lambda m, a: _set(m["provider"], "dim", 200_000),
                     2 * 4 * 8 * (200_000 + 8) * 8, id="lstm-dim"),
        pytest.param("bilm", lambda m, a: _set(m, "hidden", 1500),
                     2 * 4 * 1500 * (4 + 1500) * 8, id="bilm-hidden"),
        pytest.param("bilm", lambda m, a: _set(m, "dim", 200_000),
                     2 * 4 * 4 * (200_000 + 4) * 8, id="bilm-dim"),
    ],
)
def test_large_meta_dims_exit_4_before_allocating(tmp_path, capsys, small_models, kind, edit,
                                                  implied_bytes):
    argv = _meta_edited_command(tmp_path, small_models, kind, edit)
    tracemalloc.start()
    try:
        code, _, err = run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 4, err
    assert peak < implied_bytes / 16, f"peak {peak} B against {implied_bytes} B implied"


def _set_dim(kind, key, value):
    """An edit that sets the model size key of a kind's metadata to value."""
    def edit(meta, arrays):
        (meta["provider"] if key == "dim" and kind != "bilm" else meta)[key] = value
    return edit


@pytest.mark.parametrize(
    "kind,key",
    [("lstm-crf", "hidden"), ("lstm-crf", "dim"), ("bilm", "hidden"), ("bilm", "dim"),
     ("lstm-crf", "layers"), ("bilm", "layers"), ("frozen", "dim")],
)
def test_huge_meta_dims_exit_4(tmp_path, capsys, small_models, kind, key):
    """A huge layers value builds its cells one by one, each within the
    file's values; the file's array and value counts stop it."""
    argv = _meta_edited_command(tmp_path, small_models, kind, _set_dim(kind, key, 10**12))
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert "bad.model: the metadata implies more than the" in err


@pytest.mark.parametrize("kind", ["lstm-crf", "frozen", "bilm"])
def test_meta_dims_beyond_a_float_exit_4(tmp_path, capsys, small_models, kind):
    """A hidden size too large to convert to a float is bad input too."""
    argv = _meta_edited_command(tmp_path, small_models, kind, _set_dim(kind, "hidden", 10**400))
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert "bad.model: bad metadata: int too large to convert to float" in err


# The message of each size check, naming the metadata key at 0.
_ZERO_SIZE = {("lstm-crf", "hidden"): "hidden must be >= 1, got 0",
              ("lstm-crf", "layers"): "layers must be >= 1, got 0",
              ("lstm-crf", "dim"): "dim must be >= 1, got 0",
              ("frozen", "dim"): "dim must be >= 1, got 0",
              ("bilm", "hidden"): "hidden must be >= 1, got 0",
              ("bilm", "layers"): "layers must be >= 1, got 0",
              ("bilm", "dim"): "dim must be >= 1, got 0"}


@pytest.mark.parametrize(
    "kind,key",
    [("lstm-crf", "hidden"), ("lstm-crf", "layers"), ("lstm-crf", "dim"),
     ("bilm", "hidden"), ("bilm", "layers"), ("bilm", "dim"), ("frozen", "dim")],
)
def test_zero_meta_dims_with_matching_arrays_exit_4(tmp_path, capsys, small_models, kind, key):
    """A size of 0 fails the constructor's own check before any array is
    built, and the message names the file."""
    argv = _meta_edited_command(tmp_path, small_models, kind, _set_dim(kind, key, 0))
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert f"bad.model: bad metadata: {_ZERO_SIZE[kind, key]}" in err


@pytest.mark.parametrize(
    "kind,value", [("bilm", 0), ("bilm", -3), ("lstm-crf", 0)],
)
def test_stored_min_count_below_1_exits_4(tmp_path, capsys, small_models, kind, value):
    """A vocabulary's min_count is checked where it is built, so a model
    file storing one below 1 fails to load, naming the file."""
    def edit(meta, arrays):
        (meta if kind == "bilm" else meta["provider"])["min_count"] = value

    code, _, err = run(capsys, *_meta_edited_command(tmp_path, small_models, kind, edit))
    assert code == 4, err
    assert f"bad.model: bad metadata: min_count must be >= 1, got {value}" in err


@pytest.mark.parametrize("value", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize(
    "kind,array", [("crf", "trans"), ("lstm-crf", "proj.W"), ("bilm", "embed")],
)
def test_non_finite_weights_exit_4(tmp_path, capsys, small_models, kind, array, value):
    def edit(meta, arrays):
        arrays[array].flat[0] = value

    code, _, err = run(capsys, *_meta_edited_command(tmp_path, small_models, kind, edit))
    assert code == 4, err
    assert "bad.model" in err and repr(array) in err


def _rewrite_header(data: bytes, edit) -> bytes:
    """The model file data with its JSON header changed in place by edit."""
    start = len(model_io.MAGIC) + 8
    (length,) = struct.unpack("<Q", data[len(model_io.MAGIC) : start])
    header = json.loads(data[start : start + length])
    edit(header)
    blob = json.dumps(header).encode("utf-8")
    return model_io.MAGIC + struct.pack("<Q", len(blob)) + blob + data[start + length :]


def _json_paths(node, path=()):
    """The path of every object member and list item under a JSON value."""
    if isinstance(node, (dict, list)):
        for key, value in (node.items() if isinstance(node, dict) else enumerate(node)):
            yield path + (key,)
            yield from _json_paths(value, path + (key,))


# Values of another type, or out of range, for any header field.
_ODD_JSON = [None, True, 0, -1, 2**40, 1.5, "x", [], ["x"], {}, {"x": 1}]


def _mutated(data: bytes, draw) -> bytes:
    """A model file with one drawn corruption: a header member dropped or
    swapped for an odd value, one bit flipped, or the file truncated."""
    mutation = draw(st.sampled_from(["header", "bit", "truncate"]), label="mutation")
    if mutation == "bit":
        bit = draw(st.integers(0, 8 * len(data) - 1), label="bit")
        return data[: bit // 8] + bytes([data[bit // 8] ^ 1 << bit % 8]) + data[bit // 8 + 1 :]
    if mutation == "truncate":
        return data[: draw(st.integers(0, len(data) - 1), label="length")]

    def edit(header):
        *parents, key = draw(st.sampled_from(list(_json_paths(header))), label="path")
        owner = header
        for parent in parents:
            owner = owner[parent]
        if draw(st.booleans(), label="drop"):
            del owner[key]
        else:
            owner[key] = draw(st.sampled_from(_ODD_JSON), label="value")

    return _rewrite_header(data, edit)


@given(kind=st.sampled_from(["crf", "lstm", "lstm-crf", "bilm"]), data=st.data())
def test_corrupt_model_files_exit_2_or_4(small_models, kind, data):
    """A corrupted model file is read through `tag` (the taggers) or `embed`
    (the biLM): it either still works or is reported as bad input, never as
    an internal error (exit 1)."""
    mutant = _mutated(small_models[kind].read_bytes(), data.draw)
    with tempfile.TemporaryDirectory() as work:
        model = Path(work) / "bad.model"
        model.write_bytes(mutant)
        out = str(Path(work) / "out")
        raw = str(small_models["raw"])
        argv = (["embed", "--model", str(model), "--in", raw, "--out", out] if kind == "bilm"
                else ["tag", "--in", raw, "--model", str(model), "--out", out])
        assert cli.main(argv) in (0, 2, 4)


def test_cli_runs_without_scipy(tmp_path):
    """Training and evaluation never import scipy: it is not a dependency."""
    gold = tmp_path / "gold.conll"
    gold.write_text(GOLD_CONLL, encoding="utf-8")
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None  # any import of scipy now raises ImportError
        from titletag import cli
        gold, work = sys.argv[1:]
        commands = [
            ["train", "crf", "--train", gold, "--out", work + "/crf.model", "--seed", "0"],
            ["eval", "--gold", gold, "--model", work + "/crf.model"],
            ["train", "lstm-crf", "--train", gold, "--out", work + "/lstm.model", "--seed", "0",
             "--hidden", "8", "--embedding-dim", "4"],
        ]
        for argv in commands:
            code = cli.main(argv)
            if code != 0:
                sys.exit(f"{' '.join(argv[:2])} exited {code}")
    """)
    src = Path(cli.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": str(src)}
    proc = subprocess.run([sys.executable, "-c", script, str(gold), str(tmp_path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


# Each text reader with two well-formed lines of its format and a way to
# compare what it read.
TEXT_READERS = {
    "conll": (read_conll, "chief\tS-RES\nsales\tS-FUN\n\nhead\tS-RES\n", lambda r: r),
    "gazetteer": (read_gazetteer, "chief\tRES\tRES\tRES\tRES\tUNANIMOUS\n"
                  "sales\tFUN\tFUN\tFUN\tLOC\tMAJORITY\n", lambda r: r.entries),
    "annotations": (read_annotations, "chief\tRES\nsales\tFUN\n", lambda r: r.votes),
    "lines": (load_corpus, "Chief Officer\nSales\n", lambda r: r.titles),
    "tsv": (lambda path: load_corpus(path, fmt="tsv"), "Chief\tUS\tp1\nSales\tEU\tp2\n",
            lambda r: r.titles),
}


@pytest.mark.parametrize("fmt", sorted(TEXT_READERS))
def test_reader_names_the_file_and_line_of_non_utf8_bytes(tmp_path, fmt):
    reader, text, _ = TEXT_READERS[fmt]
    first, rest = text.split("\n", 1)
    path = tmp_path / "bad.txt"
    path.write_bytes(first.encode() + b"\n\xff" + rest.encode())
    with pytest.raises(FormatError, match="not UTF-8") as info:
        reader(path)
    assert str(info.value).startswith(f"{path}:2: ")


@pytest.mark.parametrize("fmt", sorted(TEXT_READERS))
def test_reader_reads_crlf_as_lf(tmp_path, fmt):
    reader, text, view = TEXT_READERS[fmt]
    lf, crlf = tmp_path / "lf.txt", tmp_path / "crlf.txt"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    assert view(reader(crlf)) == view(reader(lf))


@pytest.mark.parametrize("blank", [" ", "\x0c", "\u2028"], ids=["space", "U+000C", "U+2028"])
@pytest.mark.parametrize("fmt", sorted(TEXT_READERS))
def test_whitespace_only_line_reads_as_an_empty_line(tmp_path, fmt, blank):
    reader, text, view = TEXT_READERS[fmt]
    first, rest = text.split("\n", 1)
    empty, spaced = tmp_path / "empty.txt", tmp_path / "spaced.txt"
    empty.write_text(f"{first}\n\n{rest}", encoding="utf-8")
    spaced.write_text(f"{first}\n{blank}\n{rest}", encoding="utf-8")
    assert view(reader(spaced)) == view(reader(empty))


def test_form_feed_and_unicode_breaks_stay_inside_a_title(tmp_path):
    """Only \\n, \\r\\n and \\r end a line, as in a file opened in text mode."""
    path = tmp_path / "titles.txt"
    path.write_text("chief\x0cofficer\nsales\x85director\nhead\u2028of\u2029sales\n",
                    encoding="utf-8")
    titles = load_corpus(path).titles
    assert [t.tokens for t in titles] == [
        ("chief", "officer"), ("sales", "director"), ("head", "of", "sales")
    ]


# The characters str.splitlines() also breaks on. A file opened in text mode
# keeps them inside a line, and so does every reader.
BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

# Per raising reader: two rows whose first token holds a break character
# ({b}), a third row that is malformed, and the tokens read from the two rows.
BREAK_CASES = {
    "conll": ("chief{b}officer\tS-RES\nsales\tS-FUN\n", "head\tS-RES{b}\n",
              lambda r: [tok for seq in r for tok in seq.tokens]),
    "gazetteer": ("chief{b}officer\tRES\tRES\tRES\tRES\tUNANIMOUS\n"
                  "sales\tFUN\tFUN\tFUN\tLOC\tMAJORITY\n", "head{b}\tRES\n",
                  lambda r: list(r.entries)),
    "annotations": ("chief{b}officer\tRES\nsales\tFUN\n", "head{b}\n", lambda r: list(r.votes)),
}


@pytest.mark.parametrize("brk", BREAKS, ids=lambda c: f"U+{ord(c):04X}")
@pytest.mark.parametrize("fmt", sorted(BREAK_CASES))
def test_break_characters_stay_inside_a_field(tmp_path, fmt, brk):
    reader = TEXT_READERS[fmt][0]
    rows, bad_row, tokens = BREAK_CASES[fmt]
    path = tmp_path / "in.txt"
    path.write_text(rows.format(b=brk), encoding="utf-8")
    assert tokens(reader(path)) == [f"chief{brk}officer", "sales"]
    path.write_text(rows.format(b=brk) + bad_row.format(b=brk), encoding="utf-8")
    with pytest.raises(FormatError) as info:
        reader(path)
    assert str(info.value).startswith(f"{path}:3: ")


@given(st.text(alphabet="\n\r\x0b\x0c\x1c\x85\u2028\u2029ab", max_size=30), st.booleans())
def test_read_lines_reads_what_text_mode_reads(text, final_newline):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "in.txt"
        path.write_bytes((text + "\n" * final_newline).encode("utf-8"))
        with open(path, encoding="utf-8") as fh:
            want = [(i, line.removesuffix("\n")) for i, line in enumerate(fh, start=1)]
        assert list(read_lines(path)) == want


@pytest.mark.parametrize("command", ["stats", "normalize", "tag", "eval", "split"])
def test_non_utf8_input_exits_4_with_file_and_line(tmp_path, capsys, command):
    bad = tmp_path / "bad.txt"
    good = tmp_path / "good.txt"
    good.write_text("chief\n", encoding="utf-8")
    bad.write_bytes(b"chief\tS-RES\n\xff\tO\n")
    out = str(tmp_path / "out")
    argv = {
        "stats": ["stats", "--in", str(bad)],
        "normalize": ["normalize", "--in", str(bad), "--out", out],
        "tag": ["tag", "--in", str(good), "--gazetteer", str(bad)],
        "eval": ["eval", "--gold", str(bad), "--pred", str(bad)],
        "split": ["split", "--in", str(bad), "--out-prefix", out, "--seed", "0"],
    }[command]
    code, _, err = run(capsys, *argv)
    assert code == 4, err
    assert f"{bad}:2: not UTF-8" in err


_CORPUS_COMMANDS = ["stats --in {bad}", "ngrams --in {bad}", "normalize --in {bad} --out {out}",
                    "train bilm --in {bad} --out {out} --seed 0 --epochs 1 --dim 2 --hidden 2"]
# The commands that read each format of TEXT_READERS, with {bad} for the
# corrupted file, {good} for a well-formed one of the same format, {titles}
# for a lines corpus and {out} for an output path.
READER_COMMANDS = {
    "conll": ["eval --gold {bad} --pred {good}", "eval --gold {good} --pred {bad}",
              "train crf --train {bad} --out {out} --seed 0 --epochs 1"],
    "gazetteer": ["tag --in {titles} --gazetteer {bad} --out {out}"],
    "annotations": ["gazetteer build --annotations {bad} {good} {good} --out {out}"],
    "lines": _CORPUS_COMMANDS,
    "tsv": [command + " --in-format tsv" for command in _CORPUS_COMMANDS],
}


def _edited(data: bytes, draw) -> bytes:
    """data with a drawn run of bytes replaced by drawn bytes, either maybe empty."""
    start = draw(st.integers(0, len(data)), label="start")
    end = draw(st.integers(start, len(data)), label="end")
    inserted = draw(st.sampled_from([b"\t", b"\n", b"\r"]) | st.binary(max_size=4), label="new")
    return data[:start] + inserted + data[end:]


@given(fmt=st.sampled_from(sorted(READER_COMMANDS)), data=st.data())
def test_corrupt_text_files_exit_0_2_or_4(fmt, data):
    """A text input with one drawn byte edit, read by a command that reads its
    format: it either still works or is reported as bad input, never as an
    internal error (exit 1)."""
    command = data.draw(st.sampled_from(READER_COMMANDS[fmt]), label="command")
    text = TEXT_READERS[fmt][1].encode()
    with tempfile.TemporaryDirectory() as work:
        paths = {name: Path(work) / name for name in ("bad", "good", "titles", "out")}
        paths["bad"].write_bytes(_edited(text, data.draw))
        paths["good"].write_bytes(text)
        paths["titles"].write_text(TEXT_READERS["lines"][1], encoding="utf-8")
        assert cli.main([arg.format(**paths) for arg in command.split()]) in (0, 2, 4)


def _options(parser: argparse.ArgumentParser) -> set[str]:
    """The option strings of parser and of every subcommand below it."""
    options = set()
    for action in parser._actions:
        options.update(action.option_strings)
        if isinstance(action, argparse._SubParsersAction):
            for sub in action.choices.values():
                options |= _options(sub)
    return options


def test_readme_command_line_matches_the_parser():
    """Every `titletag ...` example in the README's command-line section
    parses, and every backticked --flag there is an option of some command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Command line\n", 1)[1].split("\n## ", 1)[0]
    parser = cli.build_parser()
    examples = [line for line in section.replace("\\\n", " ").splitlines()
                if line.startswith("titletag ")]
    assert examples
    for line in examples:
        try:
            parser.parse_args(shlex.split(line, comments=True)[1:])
        except SystemExit:
            pytest.fail(f"README example does not parse: {line}")
    flags = set(re.findall(r"`(--[\w-]+)", section))
    assert flags
    assert flags - _options(parser) == set()



def test_readme_module_table_lists_every_module():
    """README's Library layout table has one row per module of the package,
    __init__ aside."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library layout\n", 1)[1].split("\n## ", 1)[0]
    listed = re.findall(r"^\| `(\w+)` \|", section, flags=re.M)
    modules = [path.stem for path in Path(cli.__file__).parent.glob("*.py")]
    assert sorted(listed) == sorted(set(modules) - {"__init__"})

def test_readme_sweep_recipe_prints_an_aligned_table(tmp_path, capsys):
    """The README's seeded sweep (synth, gazetteer build, tag, split,
    gridsearch --format text), here on 60 titles."""
    gaz, raw, conll = tmp_path / "sweep.gaz", tmp_path / "sweep.txt", tmp_path / "sweep.conll"
    prefix = tmp_path / "sweep"
    for argv in (
        ["synth", "--seed", "0", "--count", "60", "--out", str(raw)],
        ["gazetteer", "build", "--sample", "--out", str(gaz)],
        ["tag", "--in", str(raw), "--gazetteer", str(gaz), "--out", str(conll)],
        ["split", "--in", str(conll), "--ratios", "80/0/20", "--seed", "0",
         "--out-prefix", str(prefix)],
    ):
        assert cli.main(argv) == 0
    capsys.readouterr()
    assert cli.main([
        "gridsearch", "--model", "crf", "--train", f"{prefix}.train.conll",
        "--dev", f"{prefix}.test.conll", "--gazetteer", str(gaz), "--seed", "0",
        "--format", "text", "--space", "learning_rate=0.05,0.1,0.5;epochs=2,5;optimizer=sgd,adam",
    ]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split() == ["learning_rate", "epochs", "optimizer", "f1", "em_token", "best"]
    assert header.startswith("learning_rate  epochs  optimizer  ")
    assert len(rows) == 12  # 3 learning rates x 2 epoch budgets x 2 optimizers
    for row in rows:
        assert row[: len("learning_rate")].rstrip() in ("0.05", "0.1", "0.5")
        assert row[len("learning_rate") : len("learning_rate  ")] == "  "
    assert sum(row.endswith("*") for row in rows) == 1


def test_compare_prints_both_taggers_deterministically(tmp_path, capsys):
    """`compare` on 100 dictionary-tagged synthetic titles: the seed on
    stderr, then the same crf and lstm-crf table on every run."""
    gaz, raw, conll = tmp_path / "s.gaz", tmp_path / "s.txt", tmp_path / "s.conll"
    for argv in (["synth", "--seed", "42", "--count", "100", "--out", str(raw)],
                 ["gazetteer", "build", "--sample", "--out", str(gaz)],
                 ["tag", "--in", str(raw), "--gazetteer", str(gaz), "--out", str(conll)]):
        assert cli.main(argv) == 0
    capsys.readouterr()
    outs = []
    for _ in range(2):
        code, out, err = run(capsys, "compare", "--in", str(conll), "--seed", "42",
                             "--gazetteer", str(gaz))
        assert code == 0, err
        assert err == "seed: 42\n"
        outs.append(out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split() == ["system", "P", "R", "EM", "F1", "FUN-EM", "FUN-F1",
                              "LOC-EM", "LOC-F1", "RES-EM", "RES-F1"]
    assert [row.split()[0] for row in rows] == ["crf", "lstm-crf"]
