"""Smoke tests of the example scripts under scripts/."""

import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_grid_search_demo_prints_an_aligned_table(capsys):
    assert load_script("grid_search_demo").main(["--count", "60"]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split() == ["learning_rate", "epochs", "optimizer", "f1", "em_token", "best"]
    assert header.startswith("learning_rate  epochs  optimizer  ")
    assert len(rows) == 12  # 3 learning rates x 2 epoch budgets x 2 optimizers
    for row in rows:
        assert row[: len("learning_rate")].rstrip() in ("0.05", "0.1", "0.5")
        assert row[len("learning_rate") : len("learning_rate  ")] == "  "
    assert sum(row.endswith("*") for row in rows) == 1


def test_desk_pipeline_prints_both_taggers_deterministically(capsys):
    argv = ["--count", "200", "--crf-epochs", "1", "--lstm-epochs", "1", "--hidden", "8"]
    outs = []
    for _ in range(2):
        assert load_script("desk_pipeline").main(argv) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    header, rows = lines[0], lines[1:]
    assert header.split() == ["system", "P", "R", "EM", "F1", "FUN-EM", "FUN-F1",
                              "LOC-EM", "LOC-F1", "RES-EM", "RES-F1"]
    assert [row.split()[0] for row in rows] == ["crf", "lstm-crf"]


def test_full_data_repro_needs_a_data_directory(tmp_path, monkeypatch, capsys):
    repro = load_script("full_data_repro")
    monkeypatch.delenv("TITLETAG_IPOD_DIR", raising=False)
    assert repro.main([]) == 2
    assert "no data directory given" in capsys.readouterr().err
    assert repro.main(["--data-dir", str(tmp_path)]) == 2
    assert f"no .conll files under {tmp_path}" in capsys.readouterr().err


def test_full_data_repro_reports_each_check(tmp_path, capsys):
    (tmp_path / "a.conll").write_text(
        "chief\tB-RES\nfinancial\tS-FUN\nofficer\tE-RES\n\nsales\tS-FUN\n", encoding="utf-8"
    )
    (tmp_path / "b.conll").write_text(
        "head\tS-RES\nof\tO\nsales\tS-FUN\nasia\tB-LOC\npacific\tE-LOC\n", encoding="utf-8"
    )
    repro = load_script("full_data_repro")
    assert repro.main(["--data-dir", str(tmp_path)]) == 1
    out, err = capsys.readouterr()
    assert out.splitlines() == [
        "read 3 titles from 2 files",
        "tokens[RES]: 3 (expected 310570) MISMATCH",
        "tokens[FUN]: 3 (expected 255974) MISMATCH",
        "tokens[LOC]: 2 (expected 9998) MISMATCH",
        "tokens[O]: 1 (expected 66948) MISMATCH",
        "length.min: 1 (expected 1) ok",
        "length.max: 5 (expected 21) MISMATCH",
        "length.avg: 3.0 (expected 3.0) ok",
        "length.median: 3 (expected 3) ok",
    ]
    assert err == "5 check(s) failed: tokens[RES], tokens[FUN], tokens[LOC], tokens[O], length.max\n"

    # --train adds a band line per tagger, trained on two titles and scored on the third.
    assert repro.main(["--data-dir", str(tmp_path), "--train"]) == 1
    assert capsys.readouterr().out == out + (
        "crf: em=0.00 f1=0.00 (bands 99.71+-0.5, 99.85+-0.5) MISMATCH\n"
        "lstm-crf: em=0.00 f1=0.00 (bands 99.83+-0.5, 99.91+-0.5) MISMATCH\n"
    )
