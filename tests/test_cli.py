import argparse
import json
import os
import struct
import subprocess
import sys
import textwrap
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from titletag import cli, model_io
from titletag.title2vec import read_embeddings

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


def test_ngrams_output(tmp_path, capsys):
    src = tmp_path / "t.txt"
    src.write_text("alpha beta\nalpha\n", encoding="utf-8")
    code, out, _ = run(capsys, "ngrams", "--in", str(src), "--format", "tsv")
    assert code == 0
    assert out.splitlines()[0] == "alpha\t2"


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


def test_split_bad_ratios(tmp_path, capsys):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, _ = run(
        capsys, "split", "--in", str(labeled), "--out-prefix", str(tmp_path / "x"),
        "--ratios", "80/20", "--seed", "1",
    )
    assert code == 2


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


def test_gridsearch_table(tmp_path, capsys):
    gaz_path = tmp_path / "sample.gaz"
    run(capsys, "gazetteer", "build", "--sample", "--out", str(gaz_path))
    raw = tmp_path / "raw.txt"
    run(capsys, "synth", "--seed", "4", "--count", "30", "--out", str(raw))
    labeled = tmp_path / "labeled.conll"
    run(capsys, "tag", "--in", str(raw), "--gazetteer", str(gaz_path), "--out", str(labeled))

    code, out, err = run(
        capsys, "gridsearch", "--model", "crf", "--train", str(labeled),
        "--dev", str(labeled), "--space", "learning_rate=0.1,0.5;epochs=2",
        "--gazetteer", str(gaz_path), "--seed", "0", "--format", "tsv",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "learning_rate\tepochs\tf1\tem_token\tbest"
    assert len(lines) == 3
    assert sum(line.endswith("*") for line in lines[1:]) == 1
    assert "best:" in err


def test_gridsearch_unknown_axis(tmp_path, capsys):
    labeled = tmp_path / "l.conll"
    labeled.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, err = run(
        capsys, "gridsearch", "--model", "crf", "--train", str(labeled),
        "--dev", str(labeled), "--space", "warp=1,2", "--seed", "0",
    )
    assert code == 2
    assert "unknown search axis" in err


def test_config_unknown_key(tmp_path, capsys):
    train = tmp_path / "t.conll"
    train.write_text(GOLD_CONLL, encoding="utf-8")
    code, _, err = run(
        capsys, "train", "crf", "--train", str(train), "--out", str(tmp_path / "m.bin"),
        "--seed", "0", "--config", "nope=1",
    )
    assert code == 2
    assert "unknown config key" in err


def flag_namespace(**overrides):
    ns = argparse.Namespace(
        config=None, lr=None, batch_size=None, epochs=None, optimizer=None,
        word_dropout=None, variational_dropout=None, clip=None, seed=11,
    )
    for key, value in overrides.items():
        setattr(ns, key, value)
    return ns


def test_build_config_precedence():
    args = flag_namespace(config=["learning_rate=0.7", "epochs=3"], lr=0.9)
    cfg = cli._build_config(args)
    assert cfg.learning_rate == 0.9  # explicit flag beats --config
    assert cfg.epochs == 3
    assert cfg.seed == 11
    assert cfg.batch_size == 32  # untouched default


def test_build_config_clip_zero_disables():
    assert cli._build_config(flag_namespace(clip=0.0)).clip_norm is None
    assert cli._build_config(flag_namespace(config=["clip-norm=0"])).clip_norm is None
    assert cli._build_config(flag_namespace(clip=2.5)).clip_norm == 2.5


def test_build_config_bad_pair():
    with pytest.raises(ValueError):
        cli._build_config(flag_namespace(config=["learning_rate"]))


@pytest.fixture(scope="module")
def small_models(tmp_path_factory):
    """One tiny trained model of each container kind the CLI reads."""
    work = tmp_path_factory.mktemp("models")
    gold = work / "gold.conll"
    gold.write_text(GOLD_CONLL, encoding="utf-8")
    raw = work / "raw.txt"
    raw.write_text("chief financial officer\nasia pacific sales\n", encoding="utf-8")
    commands = {
        "crf": ["train", "crf", "--train", str(gold)],
        "lstm-crf": ["train", "lstm-crf", "--train", str(gold), "--hidden", "8",
                     "--embedding-dim", "4"],
        "bilm": ["train", "bilm", "--in", str(raw), "--dim", "4", "--hidden", "4"],
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


def _meta_edited_command(tmp_path, small_models, kind, edit):
    model = _edited_copy(small_models[kind], tmp_path / "bad.model", edit)
    if kind == "bilm":
        return ["embed", "--model", str(model), "--in", str(small_models["raw"]),
                "--out", str(tmp_path / "v.txt")]
    return ["tag", "--in", str(small_models["raw"]), "--model", str(model)]


# Bytes that building the small models' stacks from the edited meta would take:
# lstm-crf has hidden 8 over 4-dim embeddings, bilm hidden 4 over dim 4; a
# cell's W is (4*hidden, input + hidden) float64.
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


@pytest.mark.parametrize(
    "kind,key",
    [("lstm-crf", "hidden"), ("lstm-crf", "dim"), ("bilm", "hidden"), ("bilm", "dim")],
)
def test_huge_meta_dims_exit_4(tmp_path, capsys, small_models, kind, key):
    def edit(meta, arrays):
        (meta["provider"] if key == "dim" and kind == "lstm-crf" else meta)[key] = 10**12

    code, _, err = run(capsys, *_meta_edited_command(tmp_path, small_models, kind, edit))
    assert code == 4, err


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
