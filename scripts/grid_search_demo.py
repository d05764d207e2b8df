#!/usr/bin/env python3
"""Small seeded grid search over CRF training settings.

Sweeps learning rate, epoch budget and optimizer on a synthetic corpus and
prints the dev-set table with the winning row starred.
"""

import argparse
import functools
import sys

import numpy as np

from titletag.corpus import synth_corpus
from titletag.crf import train_crf
from titletag.evaluation import align_columns, grid_search
from titletag.gazetteer import sample_gazetteer
from titletag.labeling import auto_tag
from titletag.optim import TrainConfig


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=800)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    gaz = sample_gazetteer()
    corpus = synth_corpus(gaz, grammar_seed=args.seed, count=args.count)
    labeled = [auto_tag(t, gaz) for t in corpus.titles]
    order = np.random.default_rng(args.seed).permutation(len(labeled))
    shuffled = [labeled[int(j)] for j in order]
    cut = int(len(shuffled) * 0.8)
    train, dev = shuffled[:cut], shuffled[cut:]

    space = {
        "learning_rate": [0.05, 0.1, 0.5],
        "epochs": [2, 5],
        "optimizer": ["sgd", "adam"],
    }
    result = grid_search(
        functools.partial(train_crf, gazetteer=gaz),
        space,
        train,
        dev,
        base=TrainConfig(seed=args.seed),
    )
    sys.stdout.write(align_columns([line.split("\t") for line in result.to_tsv().splitlines()]))
    print(f"best: {dict(result.best.settings)} f1={result.best.f1:.2f}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
