#!/usr/bin/env python3
"""End-to-end desk run: synthesize titles, dictionary-tag them, split,
train the feature CRF and the BiLSTM-CRF, and print a comparison table.

All stages are seeded, so the table is identical across reruns. The label
source is the bundled sample gazetteer, which makes the task learnable to
~100% and exercises every pipeline stage in a few minutes.
"""

import argparse
import sys
import time

from titletag.corpus import synth_corpus
from titletag.crf import train_crf
from titletag.evaluation import compare_models, predict_sequences, score
from titletag.gazetteer import sample_gazetteer
from titletag.labeling import auto_tag, split_sequences
from titletag.neural import train_lstm_crf
from titletag.optim import TrainConfig


def evaluate(model, test):
    return score(test, predict_sequences(model, [ex.tokens for ex in test]))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--count", type=int, default=5000, help="synthetic titles")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--crf-epochs", type=int, default=10)
    ap.add_argument("--lstm-epochs", type=int, default=60)
    ap.add_argument("--hidden", type=int, default=256)
    args = ap.parse_args(argv)

    gaz = sample_gazetteer()
    corpus = synth_corpus(gaz, grammar_seed=args.seed, count=args.count)
    labeled = [auto_tag(t, gaz) for t in corpus.titles]
    train, dev, test = split_sequences(labeled, (80, 10, 10), args.seed)
    print(f"data: {len(train)} train / {len(dev)} dev / {len(test)} test titles",
          file=sys.stderr)

    t0 = time.time()
    crf_cfg = TrainConfig(learning_rate=0.1, batch_size=32, epochs=args.crf_epochs,
                          optimizer="sgd", seed=args.seed)
    crf = train_crf(train, crf_cfg, gazetteer=gaz)
    print(f"crf trained in {time.time() - t0:.1f}s", file=sys.stderr)

    t0 = time.time()
    lstm_cfg = TrainConfig(learning_rate=0.1, batch_size=128, epochs=args.lstm_epochs,
                           optimizer="sgd", seed=args.seed,
                           word_dropout=0.05, variational_dropout=0.5)
    lstm = train_lstm_crf(train, lstm_cfg, hidden_size=args.hidden, layers=1)
    print(f"lstm-crf trained in {time.time() - t0:.1f}s", file=sys.stderr)

    reports = {"crf": evaluate(crf, test), "lstm-crf": evaluate(lstm, test)}
    sys.stdout.write(compare_models(reports))
    return 0


if __name__ == "__main__":
    sys.exit(main())
