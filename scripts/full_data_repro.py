#!/usr/bin/env python3
"""Recheck the published source-corpus numbers against a local copy.

The labeled corpus is not bundled with this package. Point --data-dir (or
the TITLETAG_IPOD_DIR environment variable) at a directory of labeled
.conll files (token TAB label, blank line between titles). The script
verifies the released per-tag token totals and title-length statistics,
and with --train also trains both taggers on a seeded 80/10/10 split and
compares their test scores against the published bands.
"""

import argparse
import os
import sys
from collections import Counter
from pathlib import Path

import numpy as np

from titletag.crf import train_crf
from titletag.evaluation import predict_sequences, score
from titletag.labeling import read_conll, split_sequences
from titletag.neural import train_lstm_crf
from titletag.optim import TrainConfig

EXPECTED_TOTALS = {"RES": 310570, "FUN": 255974, "LOC": 9998, "O": 66948}
EXPECTED_LENGTHS = {"min": 1, "max": 21, "avg": 3.0, "median": 3}
# overall token EM / F1 reported for the tuned models, with a 0.5 point band
# since the original train/test split is not published
SCORE_BANDS = {"crf": (99.71, 99.85), "lstm-crf": (99.83, 99.91)}


def check(name: str, got, want, failures: list) -> None:
    status = "ok" if got == want else "MISMATCH"
    print(f"{name}: {got} (expected {want}) {status}")
    if got != want:
        failures.append(name)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--data-dir", default=os.environ.get("TITLETAG_IPOD_DIR"))
    ap.add_argument("--train", action="store_true",
                    help="also train both taggers and check the score bands")
    ap.add_argument("--seed", type=int, default=42)
    args = ap.parse_args(argv)
    if not args.data_dir:
        print("no data directory given; set --data-dir or TITLETAG_IPOD_DIR",
              file=sys.stderr)
        return 2

    files = sorted(Path(args.data_dir).glob("*.conll"))
    if not files:
        print(f"no .conll files under {args.data_dir}", file=sys.stderr)
        return 2
    sequences = [s for f in files for s in read_conll(f)]
    print(f"read {len(sequences)} titles from {len(files)} files")

    failures: list = []
    counts = Counter(l.tag.value for s in sequences for l in s.labels)
    for tag, want in EXPECTED_TOTALS.items():
        check(f"tokens[{tag}]", counts.get(tag, 0), want, failures)

    lengths = np.array([len(s.tokens) for s in sequences])
    check("length.min", int(lengths.min()), EXPECTED_LENGTHS["min"], failures)
    check("length.max", int(lengths.max()), EXPECTED_LENGTHS["max"], failures)
    check("length.avg", round(float(lengths.mean()), 1), EXPECTED_LENGTHS["avg"], failures)
    check("length.median", int(np.median(lengths)), EXPECTED_LENGTHS["median"], failures)

    if args.train:
        train, _, test = split_sequences(sequences, (80, 10, 10), args.seed)

        models = {
            "crf": train_crf(train, TrainConfig(seed=args.seed)),
            "lstm-crf": train_lstm_crf(
                train,
                TrainConfig(learning_rate=0.1, batch_size=128, epochs=10,
                            optimizer="sgd", seed=args.seed,
                            word_dropout=0.05, variational_dropout=0.5),
                hidden_size=256, layers=1,
            ),
        }
        for name, model in models.items():
            rep = score(test, predict_sequences(model, [s.tokens for s in test]))
            em_ref, f1_ref = SCORE_BANDS[name]
            ok = abs(rep.em_token - em_ref) <= 0.5 and abs(rep.f1 - f1_ref) <= 0.5
            print(f"{name}: em={rep.em_token:.2f} f1={rep.f1:.2f} "
                  f"(bands {em_ref}+-0.5, {f1_ref}+-0.5) {'ok' if ok else 'MISMATCH'}")
            if not ok:
                failures.append(name)

    if failures:
        print(f"{len(failures)} check(s) failed: {', '.join(failures)}", file=sys.stderr)
        return 1
    print("all checks passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
