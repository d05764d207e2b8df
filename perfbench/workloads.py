"""The benchmark workloads: set-up, timed CLI commands and output checks.

Each workload is a closed loop of one client: it calls titletag.cli.main
in-process with one command line at a time and starts the next command only
after the previous one returned.

- feature-pipeline: `train crf` and `eval` on the CRF. Nearly all of its time
  is CrfModel.featurize and single-sequence sequence_marginals; it never
  touches lstm, so it is the no-change control for LSTM work.
- neural-train: `train lstm-crf` and `train bilm`. Dominated by LstmCell
  run/backprop on length groups of up to 128 rows, batched
  sequence_marginals and softmax_ce over the vocabulary; no feature
  extraction, Viterbi or model loading, so it is the control for CRF-feature
  and inference-batching work.
- tag-embed: `tag` with a CRF and a BiLSTM-CRF model and `embed` with a biLM,
  all forward-only one title at a time, plus model loading and output
  rendering. Titles run from 1 to 18 tokens, so per-title and length-grouped
  execution differ.
"""

from __future__ import annotations

import hashlib
import io
import math
import os
import re
import shutil
import subprocess
import sys
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

from titletag import cli
from titletag.crf import CrfModel
from titletag.gazetteer import read_gazetteer
from titletag.labeling import read_conll
from titletag.neural import LstmCrfModel
from titletag.title2vec import BiLmModel, embed_title, read_embeddings

import bootstrap
import inputs
import spans

# After 3 epochs on 800 titles the CRF reaches dev F1 68.3-91.9 on seeds 1-40
# (100 dev titles). The floor catches a broken model; the exact F1, which is
# deterministic for a seed, goes to the result file for finer comparisons.
CRF_DEV_F1_FLOOR = 50.0
# Titles whose tag and embed output is recomputed and compared per title.
SAMPLE_SIZE = 25
# An untraced run sets up at least SETUP_REPEATS times. The repeats are
# spread between passes and take about SETUP_SHARE of the timed run, so the
# median set-up time samples the same stretch of time as the commands.
SETUP_REPEATS = 3
SETUP_SHARE = 0.1


@dataclass(frozen=True)
class Command:
    label: str  # names its metrics in the result file, e.g. train_crf
    argv: list[str]
    titles: int  # titles handled, times epochs for training
    outputs: tuple[Path, ...]


def _probe_seconds() -> float:
    t0 = perf_counter()
    x = 0
    for i in range(20000):
        x += i * i
    return perf_counter() - t0


@contextmanager
def on_fastest_cpu(cpus: set[int]):
    """Run the block pinned to the allowed CPU that runs a 1 ms probe loop fastest.

    Other tenants of a shared host slow single CPUs by up to 2x for seconds
    at a time. Commands run single-threaded, so each one goes to the CPU
    that is fastest when it starts; the full CPU set is restored after it.
    """
    timings = []
    for cpu in sorted(cpus):
        os.sched_setaffinity(0, {cpu})
        timings.append((min(_probe_seconds(), _probe_seconds()), cpu))
    os.sched_setaffinity(0, {min(timings)[1]})
    try:
        yield
    finally:
        os.sched_setaffinity(0, cpus)


class CliRunner:
    """Runs CLI commands in-process and counts operations and failed checks."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.cpus = os.sched_getaffinity(0)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failures.append(what)
        return ok

    def run(self, argv: list[str]) -> tuple[float, float, str]:
        """Run one command; returns (wall s, cpu s, its stderr)."""
        out, err = io.StringIO(), io.StringIO()
        with on_fastest_cpu(self.cpus), redirect_stdout(out), redirect_stderr(err):
            cpu0 = process_time()
            t0 = perf_counter()
            code = cli.main(argv)
            wall = perf_counter() - t0
            cpu = process_time() - cpu0
        self.check(code == 0, f"titletag {' '.join(argv)} exited {code}: {err.getvalue()[-400:]}")
        return wall, cpu, err.getvalue()


def _count_titles(conll: Path) -> int:
    return len(read_conll(conll))


def _kv(path: Path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in path.read_text(encoding="utf-8").splitlines())


def _stderr_number(text: str, prefix: str) -> float:
    match = re.search(rf"^{re.escape(prefix)}\s*(\S+)$", text, flags=re.MULTILINE)
    return float(match.group(1)) if match else math.nan


def _sample(n: int) -> list[int]:
    return list(range(0, n, max(1, n // SAMPLE_SIZE)))[:SAMPLE_SIZE]


class FeaturePipeline:
    name = "feature-pipeline"
    cli_starts_per_pass = 0

    def setup(self, seed: int, work: Path, runner: CliRunner) -> dict[str, Path]:
        return inputs.make_inputs(self.name, seed, work)

    def commands(self, seed: int, files: dict[str, Path], out: Path) -> list[Command]:
        model = out / "crf.model"
        return [
            Command("train_crf", [
                "train", "crf", "--train", str(files["train.conll"]),
                "--gazetteer", str(files["gaz.tsv"]), "--epochs", "3",
                "--seed", str(seed), "--out", str(model),
            ], 3 * _count_titles(files["train.conll"]), (model,)),
            Command("eval_crf", [
                "eval", "--gold", str(files["test.conll"]), "--model", str(model),
                "--gazetteer", str(files["gaz.tsv"]), "--format", "kv",
                "--out", str(out / "eval_test.kv"),
            ], _count_titles(files["test.conll"]), (out / "eval_test.kv",)),
        ]

    def check(self, seed, files, out: Path, runner: CliRunner, stderr: dict) -> dict:
        dev_kv = out / "eval_dev.kv"
        runner.run(["eval", "--gold", str(files["dev.conll"]), "--model", str(out / "crf.model"),
                    "--gazetteer", str(files["gaz.tsv"]), "--format", "kv",
                    "--out", str(dev_kv)])
        dev_f1 = float(_kv(dev_kv)["f1"])
        runner.check(dev_f1 >= CRF_DEV_F1_FLOOR,
                     f"crf dev f1 {dev_f1} below floor {CRF_DEV_F1_FLOOR}")
        return {
            "crf_dev_f1": dev_f1,
            "crf_test_f1": float(_kv(out / "eval_test.kv")["f1"]),
            "crf_final_nll": _stderr_number(stderr["train_crf"], "final mean nll:"),
        }


class NeuralTrain:
    name = "neural-train"
    cli_starts_per_pass = 0

    def setup(self, seed: int, work: Path, runner: CliRunner) -> dict[str, Path]:
        return inputs.make_inputs(self.name, seed, work)

    def commands(self, seed: int, files: dict[str, Path], out: Path) -> list[Command]:
        corpus_titles = len(files["corpus.tsv"].read_text(encoding="utf-8").splitlines())
        return [
            Command("train_lstm_crf", [
                "train", "lstm-crf", "--train", str(files["train.conll"]),
                "--hidden", "256", "--batch-size", "128", "--epochs", "2",
                "--seed", str(seed), "--out", str(out / "lstm_crf.model"),
            ], 2 * _count_titles(files["train.conll"]), (out / "lstm_crf.model",)),
            Command("train_bilm", [
                "train", "bilm", "--in", str(files["corpus.tsv"]), "--in-format", "tsv",
                "--dim", "64", "--hidden", "64", "--layers", "1", "--epochs", "2",
                "--seed", str(seed), "--out", str(out / "bilm.model"),
            ], 2 * corpus_titles, (out / "bilm.model",)),
        ]

    def check(self, seed, files, out: Path, runner: CliRunner, stderr: dict) -> dict:
        loss = _stderr_number(stderr["train_lstm_crf"], "final mean loss:")
        perplexity = _stderr_number(stderr["train_bilm"], "final perplexity:")
        vocab = BiLmModel.load(out / "bilm.model").vocab.size
        runner.check(math.isfinite(loss) and loss > 0, f"lstm-crf final loss {loss}")
        runner.check(1.0 < perplexity < vocab,
                     f"bilm final perplexity {perplexity} outside (1, vocab size {vocab})")
        return {"lstm_crf_final_loss": loss, "bilm_final_perplexity": perplexity}


class TagEmbed:
    name = "tag-embed"
    # Fresh CLI starts timed after each untraced pass: a user who tags one
    # file pays interpreter and import time before any title is read.
    cli_starts_per_pass = 2

    def setup(self, seed: int, work: Path, runner: CliRunner) -> dict[str, Path]:
        files = inputs.make_inputs(self.name, seed, work)
        files["crf.model"] = work / "crf.model"
        files["lstm_crf.model"] = work / "lstm_crf.model"
        files["bilm.model"] = work / "bilm.model"
        runner.run(["train", "crf", "--train", str(files["train.conll"]),
                    "--gazetteer", str(files["gaz.tsv"]), "--epochs", "1",
                    "--seed", str(seed), "--out", str(files["crf.model"])])
        runner.run(["train", "lstm-crf", "--train", str(files["train.conll"]),
                    "--hidden", "256", "--epochs", "1",
                    "--seed", str(seed), "--out", str(files["lstm_crf.model"])])
        runner.run(["train", "bilm", "--in", str(files["corpus.tsv"]), "--in-format", "tsv",
                    "--dim", "64", "--hidden", "64", "--layers", "1", "--epochs", "1",
                    "--seed", str(seed), "--out", str(files["bilm.model"])])
        return files

    def commands(self, seed: int, files: dict[str, Path], out: Path) -> list[Command]:
        titles = str(files["titles.txt"])
        lines = inputs.TAG_FILE_LINES
        return [
            Command("tag_crf", [
                "tag", "--in", titles, "--model", str(files["crf.model"]),
                "--gazetteer", str(files["gaz.tsv"]), "--out", str(out / "tag_crf.conll"),
            ], lines, (out / "tag_crf.conll",)),
            Command("tag_lstm_crf", [
                "tag", "--in", titles, "--model", str(files["lstm_crf.model"]),
                "--out", str(out / "tag_lstm_crf.conll"),
            ], lines, (out / "tag_lstm_crf.conll",)),
            Command("embed", [
                "embed", "--model", str(files["bilm.model"]), "--in", titles,
                "--out", str(out / "titles.emb"),
            ], lines, (out / "titles.emb",)),
        ]

    def check(self, seed, files, out: Path, runner: CliRunner, stderr: dict) -> dict:
        expected = [line.split() for line in
                    files["titles.txt"].read_text(encoding="utf-8").splitlines()]
        sample = _sample(len(expected))
        taggers = {
            "tag_crf": CrfModel.load(files["crf.model"],
                                     gazetteer=read_gazetteer(files["gaz.tsv"])),
            "tag_lstm_crf": LstmCrfModel.load(files["lstm_crf.model"]),
        }
        for label, model in taggers.items():
            tagged = read_conll(out / f"{label}.conll")
            runner.check(len(tagged) == len(expected),
                         f"{label}: {len(tagged)} titles written, {len(expected)} read")
            for i in sample[: len(tagged)]:
                runner.check(list(tagged[i].tokens) == expected[i]
                             and tagged[i].labels == model.predict(tagged[i].tokens),
                             f"{label}: title {i} differs from per-title predict")
        store = read_embeddings(out / "titles.emb")
        bilm = BiLmModel.load(files["bilm.model"])
        runner.check(len(store.records) == len(expected),
                     f"embed: {len(store.records)} records for {len(expected)} titles")
        for i in sample[: len(store.records)]:
            record = store.records[i]
            runner.check(record.title_id == str(i)
                         and np.array_equal(record.vectors, embed_title(bilm, expected[i])),
                         f"embed: title {i} differs from embed_title")
        return {}


WORKLOADS = {w.name: w for w in (FeaturePipeline(), NeuralTrain(), TagEmbed())}


@dataclass
class Measurement:
    commands: list[Command]
    setup_s: list[float]
    walls: dict[str, list[float]] = field(default_factory=dict)
    cpus: dict[str, list[float]] = field(default_factory=dict)
    cli_start_s: list[float] = field(default_factory=list)
    quality: dict = field(default_factory=dict)

    @property
    def passes(self) -> int:
        return min(len(v) for v in self.walls.values())


def files_digest(paths) -> str:
    digest = hashlib.sha256()
    for path in paths:
        digest.update(Path(path).read_bytes())
    return digest.hexdigest()


def tree_digest(root: Path) -> str:
    return files_digest(sorted(p for p in root.rglob("*") if p.is_file()))


def cli_start(runner: CliRunner, cwd: Path) -> float:
    """Wall time of a fresh interpreter running `python -m titletag.cli --help`."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(bootstrap.SRC), env.get("PYTHONPATH")) if p)
    with on_fastest_cpu(runner.cpus):
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-m", "titletag.cli", "--help"], cwd=cwd,
                              env=env, capture_output=True, text=True, timeout=60)
        wall = perf_counter() - t0
    runner.check(proc.returncode == 0 and "usage: titletag" in proc.stdout,
                 f"titletag --help exited {proc.returncode}: {proc.stderr[-400:]}")
    return wall


def measure(workload, seed: int, seconds: float, work: Path, runner: CliRunner,
            tracer: spans.Tracer | None = None) -> Measurement:
    """Set the workload up, then repeat its commands for `seconds`.

    Every pass checks that each command wrote the same bytes as in the first
    pass, and every set-up repeat that it wrote the same files as the first
    set-up. Set-up repeats and CLI-start timings run between passes of an
    untraced run only.
    """
    setup_s: list[float] = []

    def set_up() -> dict[str, Path]:
        with on_fastest_cpu(runner.cpus):
            t0 = perf_counter()
            files = workload.setup(seed, work / f"setup{len(setup_s)}", runner)
            setup_s.append(perf_counter() - t0)
        return files

    def set_up_again() -> None:
        directory = work / f"setup{len(setup_s)}"
        set_up()
        runner.check(tree_digest(directory) == reference, "set-up outputs differ between repeats")
        shutil.rmtree(directory)

    files = set_up()
    reference = tree_digest(work / "setup0")
    out = work / "out"
    out.mkdir()
    result = Measurement(workload.commands(seed, files, out), setup_s)
    for command in result.commands:
        result.walls[command.label] = []
        result.cpus[command.label] = []
    stderr: dict[str, str] = {}
    first_outputs: dict[str, str] = {}
    uninstall = spans.install(tracer) if tracer else None
    try:
        if tracer:
            missed = spans.unwrapped_bindings()
            runner.check(not missed, f"bindings left unwrapped: {missed}")
        t_start = perf_counter()
        while True:
            for command in result.commands:
                wall, cpu, stderr[command.label] = runner.run(command.argv)
                result.walls[command.label].append(wall)
                result.cpus[command.label].append(cpu)
                digest = files_digest(command.outputs)
                expected = first_outputs.setdefault(command.label, digest)
                runner.check(digest == expected,
                             f"{command.label}: output differs from the first pass")
            if tracer is None:
                for _ in range(workload.cli_starts_per_pass):
                    result.cli_start_s.append(cli_start(runner, work))
                while sum(setup_s) < SETUP_SHARE * (perf_counter() - t_start):
                    set_up_again()
            if perf_counter() - t_start >= seconds:
                break
    finally:
        if uninstall:
            uninstall()
    while tracer is None and len(setup_s) < SETUP_REPEATS:
        set_up_again()
    result.quality = workload.check(seed, files, out, runner, stderr)
    return result
