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
