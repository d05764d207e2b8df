"""Seeded input generation: the seed alone decides every file the CLI reads."""

from pathlib import Path

import pytest

import inputs
import workloads

WORKLOAD_NAMES = sorted(workloads.WORKLOADS)


def _contents(directory: Path) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_same_seed_gives_identical_files_and_another_seed_changes_them(tmp_path, name):
    for directory, seed in (("a", 7), ("b", 7), ("c", 8)):
        inputs.make_inputs(name, seed, tmp_path / directory)
    first, again, other = (_contents(tmp_path / d) for d in "abc")
    assert first == again
    assert first.keys() == other.keys()
    changed = sorted(f for f in first if first[f] != other[f])
    # The bundled gazetteer is the same for every seed; all generated data differs.
    assert changed == sorted(f for f in first if f != "gaz.tsv")


@pytest.mark.parametrize("name", WORKLOAD_NAMES)
def test_commands_read_only_set_up_files(tmp_path, name):
    workload = workloads.WORKLOADS[name]
    runner = workloads.CliRunner()
    files = workload.setup(3, tmp_path / "setup", runner)
    assert runner.failures == []
    assert all(p.is_file() for p in files.values())
    available = {str(p) for p in files.values()}
    for command in workload.commands(3, files, tmp_path / "out"):
        written = {str(p) for p in command.outputs}
        paths = {arg for arg in command.argv if arg.startswith(str(tmp_path))}
        # A command reads set-up files and what earlier commands of the pass wrote.
        assert paths - written <= available, command.label
        available |= written


def test_tag_file_spreads_title_lengths(tmp_path):
    files = inputs.make_inputs("tag-embed", 5, tmp_path)
    lengths = [len(line.split()) for line in
               files["titles.txt"].read_text(encoding="utf-8").splitlines()]
    assert len(lengths) == inputs.TAG_FILE_LINES
    assert min(lengths) == 1
    assert max(lengths) >= 12
