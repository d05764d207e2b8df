#!/usr/bin/env python3
"""End-to-end desk run: synthesize titles, dictionary-tag them, split,
train the feature CRF and the BiLSTM-CRF, and print a comparison table.

All stages are seeded, so the table is identical across reruns. The label
source is the bundled sample gazetteer, which makes the task learnable to
~100% and exercises every pipeline stage in about a minute.
"""

import argparse
import logging
import sys

from titletag.corpus import synth_corpus
from titletag.evaluation import compare_models, compare_taggers
from titletag.gazetteer import sample_gazetteer
from titletag.labeling import auto_tag


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=5000, help="synthetic titles")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--crf-epochs", type=int, default=10)
    ap.add_argument("--lstm-epochs", type=int, default=60)
    ap.add_argument("--hidden", type=int, default=256)
    args = ap.parse_args(argv)
    logging.basicConfig(level=logging.INFO, format="%(asctime)s %(message)s")  # progress to stderr

    gaz = sample_gazetteer()
    corpus = synth_corpus(gaz, grammar_seed=args.seed, count=args.count)
    labeled = [auto_tag(t, gaz) for t in corpus.titles]
    reports = compare_taggers(labeled, args.seed, args.lstm_epochs, gazetteer=gaz,
                              crf_epochs=args.crf_epochs, hidden=args.hidden)
    sys.stdout.write(compare_models(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
