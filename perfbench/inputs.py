"""Seeded input files for the benchmark workloads.

Every file the program under test reads is written here from the workload
seed alone, so the same seed gives byte-identical files and the CLI receives
nothing else.
"""

from __future__ import annotations

import random
from pathlib import Path

import numpy as np

from titletag.corpus import Corpus, synth_corpus, write_corpus
from titletag.gazetteer import sample_gazetteer, write_gazetteer
from titletag.labeling import auto_tag, write_conll

# Titles in the labeled corpus of feature-pipeline and neural-train, split
# 80/10/10 into train/dev/test.
CORPUS_TITLES = 1000
# tag-embed: titles that train its set-up models, and lines in the file it
# tags and embeds. Each line joins 1 to 3 synthetic titles (1-18 tokens), so
# per-title and length-grouped execution differ.
TAG_TRAIN_TITLES = 400
TAG_FILE_LINES = 400


def _write_labeled(titles, gaz, path: Path) -> None:
    write_conll([auto_tag(t, gaz) for t in titles], path)


def training_inputs(seed: int, out_dir: Path) -> dict[str, Path]:
    """Gazetteer, corpus TSV and the dictionary-tagged train/dev/test split."""
    gaz = sample_gazetteer()
    corpus = synth_corpus(gaz, seed, CORPUS_TITLES)
    files = {name: out_dir / name for name in
             ("gaz.tsv", "corpus.tsv", "train.conll", "dev.conll", "test.conll")}
    write_gazetteer(gaz, files["gaz.tsv"])
    write_corpus(corpus, files["corpus.tsv"], fmt="tsv")
    order = np.random.default_rng(seed).permutation(len(corpus.titles))
    shuffled = [corpus.titles[int(j)] for j in order]
    n_train = len(shuffled) * 8 // 10
    n_dev = len(shuffled) // 10
    _write_labeled(shuffled[:n_train], gaz, files["train.conll"])
    _write_labeled(shuffled[n_train : n_train + n_dev], gaz, files["dev.conll"])
    _write_labeled(shuffled[n_train + n_dev :], gaz, files["test.conll"])
    return files


def tagging_inputs(seed: int, out_dir: Path) -> dict[str, Path]:
    """Training data for the set-up models and the title file to tag and embed."""
    gaz = sample_gazetteer()
    pool = synth_corpus(gaz, seed, TAG_TRAIN_TITLES + 3 * TAG_FILE_LINES).titles
    train = pool[:TAG_TRAIN_TITLES]
    files = {name: out_dir / name for name in
             ("gaz.tsv", "corpus.tsv", "train.conll", "titles.txt")}
    write_gazetteer(gaz, files["gaz.tsv"])
    write_corpus(Corpus(titles=train, source_label="train"), files["corpus.tsv"], fmt="tsv")
    _write_labeled(train, gaz, files["train.conll"])
    rng = random.Random(seed)
    rest = iter(pool[TAG_TRAIN_TITLES:])
    lines = []
    for _ in range(TAG_FILE_LINES):
        joined = [tok for _ in range(rng.randint(1, 3)) for tok in next(rest).tokens]
        lines.append(" ".join(joined) + "\n")
    files["titles.txt"].write_text("".join(lines), encoding="utf-8")
    return files


def make_inputs(workload: str, seed: int, out_dir: Path) -> dict[str, Path]:
    """Write the input files of one workload into out_dir and return their paths."""
    out_dir.mkdir(parents=True, exist_ok=True)
    if workload in ("feature-pipeline", "neural-train"):
        return training_inputs(seed, out_dir)
    if workload == "tag-embed":
        return tagging_inputs(seed, out_dir)
    raise ValueError(f"unknown workload {workload!r}")
