"""Command line front end.

One executable with a subcommand per pipeline stage: corpus normalization
and statistics, gazetteer construction and agreement reporting, dictionary
tagging, dataset splitting, model training, evaluation, contextual
embedding dumps, grid search, the paper's tagger comparison and synthetic
corpus generation.

Exit codes: 0 success, 2 usage or invalid value, 3 missing file,
4 malformed file content, 5 training diverged, 1 anything else.
"""

from __future__ import annotations

import argparse
import functools
import logging
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import corpus as corpus_mod
from . import evaluation, labeling, model_io, neural, title2vec
from .corpus import load_corpus, synth_corpus
from .crf import CrfModel, train_crf, train_logreg
from .errors import FormatError, TrainingDivergedError
from .gazetteer import (
    Gazetteer,
    irr_report,
    merge_annotations,
    read_annotations,
    read_gazetteer,
    sample_annotation_sets,
    sample_gazetteer,
    write_gazetteer,
)
from .labeling import auto_tag, dumps_conll, read_conll, split_sequences, write_conll
from .neural import LstmCrfModel, train_lstm, train_lstm_crf
from .optim import TrainConfig
from .title2vec import (
    BiLmEmbeddings,
    BiLmModel,
    EmbeddingStore,
    TitleVectors,
    train_bilm,
)

log = logging.getLogger(__name__)

# The --space axes: the TrainConfig fields and the recurrent trainers' sizes.
_AXIS_TYPES = {f.name: type(f.default) for f in fields(TrainConfig)} | {
    "hidden_size": int, "layers": int, "embedding_dim": int}
# The settings each trainer does not read (the lstm and lstm-crf trainers
# read them all). Setting one explicitly, by flag or --space axis, is a
# usage error rather than a silent no-op.
_RECURRENT_ONLY = ("variational_dropout", "clip_norm", "hidden_size", "layers", "embedding_dim")
_UNREAD_SETTINGS = {
    "crf": _RECURRENT_ONLY,
    "logreg": _RECURRENT_ONLY,
    "bilm": ("word_dropout", "variational_dropout"),
}
_FLAGS = {"clip_norm": "--clip"}  # where a flag is not "--" + the dashed field name


_EXPECTED = {int: "an integer", float: "a number"}


def _coerce(key: str, text):
    """The value of setting key given as --space text or as its parsed flag;
    a clip_norm of 0 means None."""
    caster = _AXIS_TYPES[key]
    try:
        value = caster(text)
    except ValueError:
        raise ValueError(f"--space {key}: expected {_EXPECTED[caster]}, got {text!r}") from None
    return None if key == "clip_norm" and value == 0 else value


def _check_read(kind: str, option: str, key: str) -> None:
    """ValueError if the kind trainer does not read setting key, set by option."""
    if key in _UNREAD_SETTINGS.get(kind, ()):
        raise ValueError(f"{option} sets {key}, which the {kind} trainer does not read")


def _build_config(args: argparse.Namespace) -> TrainConfig:
    """Training config: the defaults, overridden by each flag given. A flag
    that sets a setting the trainer does not read is a ValueError."""
    kind = args.model if args.command == "gridsearch" else args.model_kind
    values = {}
    for f in fields(TrainConfig):
        flag = getattr(args, f.name)
        if flag is not None:
            _check_read(kind, _FLAGS.get(f.name, "--" + f.name.replace("_", "-")), f.name)
            values[f.name] = _coerce(f.name, flag)
    return TrainConfig(**values)


def _announce_seed(args: argparse.Namespace) -> None:
    print(f"seed: {args.seed}", file=sys.stderr)


def _write_text(path: str | None, text: str) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _render_rows(rows: list[tuple[str, str]], fmt: str) -> str:
    if fmt == "kv":
        return "".join(f"{k}={v}\n" for k, v in rows)
    width = max(len(k) for k, _ in rows)
    return "".join(f"{k.ljust(width)}  {v}\n" for k, v in rows)


def _load_tagger(model_path: str, gazetteer_path: str | None, embeddings_path: str | None):
    """The tagger in model_path; ValueError if --gazetteer or --embeddings is
    given to a model that does not read it."""
    kind, meta, arrays = model_io.load_model(model_path)
    if kind in ("crf", "logreg"):
        gaz = read_gazetteer(gazetteer_path) if gazetteer_path else None
        model = CrfModel.from_parsed(model_path, kind, meta, arrays, gazetteer=gaz)
        unread = {"--gazetteer": gazetteer_path and model.gazetteer is None,
                  "--embeddings": embeddings_path}
    elif kind in ("lstm", "lstm-crf"):
        provider = _bilm_provider(embeddings_path)
        model = LstmCrfModel.from_parsed(model_path, kind, meta, arrays, provider=provider)
        unread = {"--gazetteer": gazetteer_path,
                  "--embeddings": embeddings_path and model.provider.trainable}
    else:
        raise ValueError(f"{model_path}: model kind {kind!r} cannot tag token sequences")
    _reject_unread(unread, f"the {kind} model {model_path}")
    return model


def _reject_unread(unread: dict, reader: str) -> None:
    """ValueError naming the first flag in unread that is given, since
    reader would ignore it."""
    for flag, given in unread.items():
        if given:
            raise ValueError(f"{flag} is given, but {reader} does not read it")


def _bilm_provider(path: str | None) -> BiLmEmbeddings | None:
    """Frozen embeddings from a language model file; None without a file."""
    if not path:
        return None
    return BiLmEmbeddings(BiLmModel.load(path), content_hash=model_io.file_hash(path))


def _read_corpus(path: str, fmt: str) -> corpus_mod.Corpus:
    """The titles of a LINES or TSV file; empty titles are dropped with a note."""
    corpus = load_corpus(path, fmt=fmt)
    if corpus.empty_count:
        print(f"note: skipped {corpus.empty_count} titles that normalize to nothing",
              file=sys.stderr)
    return corpus


def _read_tokens(path: str, fmt: str) -> list[tuple[str, ...]]:
    """Token sequences to tag (see _read_corpus)."""
    if fmt == "conll":
        return [seq.tokens for seq in read_conll(path)]
    return [title.tokens for title in _read_corpus(path, fmt).titles]


def cmd_normalize(args: argparse.Namespace) -> int:
    titles = []
    for lineno, row in corpus_mod.read_rows(args.infile, args.in_format):
        if isinstance(row, str):
            print(f"note: {args.infile}:{lineno}: skipped malformed row", file=sys.stderr)
        else:
            titles.append(row)
    _write_text(args.out, corpus_mod.dumps_corpus(titles, args.out_format))
    return 0


def cmd_stats(args: argparse.Namespace) -> int:
    corpus = load_corpus(args.infile, fmt=args.in_format)
    rows: list[tuple[str, str]] = [
        ("source", corpus.source_label),
        ("titles", str(len(corpus))),
        ("empty_excluded", str(corpus.empty_count)),
        ("skipped_rows", str(len(corpus.skipped_rows))),
    ]
    for region, summary in corpus_mod.length_summaries(corpus).items():
        prefix = "" if region is None else f"region.{region.value.lower()}."
        rows += [(f"{prefix}length.min", str(summary.min)),
                 (f"{prefix}length.max", str(summary.max)),
                 (f"{prefix}length.avg", f"{summary.avg:.4f}"),
                 (f"{prefix}length.median", f"{summary.median:.4f}")]
        rows += [(f"{prefix}hist.{n}", f"{pct:.4f}") for n, pct in summary.histogram.items()]
    _write_text(args.out, _render_rows(rows, args.format))
    return 0


def cmd_ngrams(args: argparse.Namespace) -> int:
    if args.top < 0:
        raise ValueError(f"--top must be >= 0, got {args.top}")
    corpus_mod.check_ngram_order(args.n)
    corpus = load_corpus(args.infile, fmt=args.in_format)
    entries = corpus_mod.ngram_counts(corpus, args.n)[: args.top or None]
    if args.format == "tsv":
        text = "".join(f"{' '.join(gram)}\t{count}\n" for gram, count in entries)
    else:
        width = max((len(str(c)) for _, c in entries), default=1)
        text = "".join(f"{str(c).rjust(width)}  {' '.join(g)}\n" for g, c in entries)
    _write_text(args.out, text)
    return 0


def _annotation_sets(args: argparse.Namespace):
    if args.sample:
        return list(sample_annotation_sets())
    return [read_annotations(p) for p in args.annotations]


def cmd_gazetteer_build(args: argparse.Namespace) -> int:
    sets = _annotation_sets(args)
    gaz = merge_annotations(sets)
    if args.corpus:
        corpus = load_corpus(args.corpus, fmt=args.in_format)
        counts = Counter(tok for title in corpus.titles for tok in title.tokens)
        ordered = sorted(gaz.entries, key=lambda tok: (-counts.get(tok, 0), tok))
        gaz = Gazetteer(
            entries={tok: gaz.entries[tok] for tok in ordered}, rejected=gaz.rejected
        )
    write_gazetteer(gaz, args.out)
    print(f"gazetteer: {len(gaz)} entries, {len(gaz.rejected)} rejected", file=sys.stderr)
    return 0


def cmd_gazetteer_irr(args: argparse.Namespace) -> int:
    sets = _annotation_sets(args)
    rep = irr_report(sets)
    rows = [
        ("percentage_agreement", f"{rep.percentage_agreement:.6f}"),
        ("cohens_kappa", f"{rep.cohens_kappa:.6f}"),
        ("unanimous", str(rep.unanimous_count)),
        ("majority", str(rep.majority_count)),
        ("disagreement", str(rep.disagreement_count)),
        ("total", str(rep.total)),
    ]
    _write_text(args.out, _render_rows(rows, args.format))
    return 0


def cmd_tag(args: argparse.Namespace) -> int:
    if not args.model and not args.gazetteer:
        raise ValueError("pass --gazetteer for dictionary tagging or --model for a trained tagger")
    _reject_unread({"--embeddings": not args.model and args.embeddings}, "dictionary tagging")
    token_seqs = _read_tokens(args.infile, args.in_format)
    if args.model:
        # With a model, --gazetteer only supplies its lookup features.
        model = _load_tagger(args.model, args.gazetteer, args.embeddings)
        sequences = evaluation.predict_sequences(model, token_seqs)
    else:
        gaz = read_gazetteer(args.gazetteer)
        sequences = [
            auto_tag(corpus_mod.Title(raw=" ".join(toks), tokens=toks), gaz)
            for toks in token_seqs
        ]
    _write_text(args.out, dumps_conll(sequences))
    return 0


def cmd_split(args: argparse.Namespace) -> int:
    _announce_seed(args)
    try:
        shares = [float(p) for p in args.ratios.split("/")]
        labeling.check_shares(shares)
    except ValueError:
        raise ValueError("--ratios expects train/dev/test as three finite non-negative shares "
                         f"with a positive sum, got {args.ratios!r}") from None
    splits = split_sequences(read_conll(args.infile), shares, args.seed)
    for name, chunk in zip(("train", "dev", "test"), splits):
        path = f"{args.out_prefix}.{name}.conll"
        write_conll(chunk, path)
        print(f"{name}: {len(chunk)} titles -> {path}", file=sys.stderr)
    return 0


def cmd_train_feature(args: argparse.Namespace) -> int:
    _announce_seed(args)
    cfg = _build_config(args)
    data = read_conll(args.train)
    gaz = read_gazetteer(args.gazetteer) if args.gazetteer else None
    trainer = train_crf if args.model_kind == "crf" else train_logreg
    model = trainer(data, cfg, gazetteer=gaz)
    model.save(args.out)
    if model.history:
        print(f"final mean nll: {model.history[-1]:.6f}", file=sys.stderr)
    return 0


def cmd_train_neural(args: argparse.Namespace) -> int:
    _announce_seed(args)
    cfg = _build_config(args)
    _reject_unread({"--embedding-dim": args.embeddings and args.embedding_dim is not None},
                   f"the {args.model_kind} trainer with --embeddings")
    embedding_dim = (neural.DEFAULT_SIZES["embedding_dim"] if args.embedding_dim is None
                     else args.embedding_dim)
    neural.check_dims(args.hidden, args.layers, embedding_dim)
    data = read_conll(args.train)
    provider = _bilm_provider(args.embeddings)
    trainer = train_lstm_crf if args.model_kind == "lstm-crf" else train_lstm
    model = trainer(
        data,
        cfg,
        hidden_size=args.hidden,
        layers=args.layers,
        embedding_dim=embedding_dim,
        provider=provider,
    )
    model.save(args.out)
    if model.history:
        print(f"final mean loss: {model.history[-1]:.6f}", file=sys.stderr)
    return 0


def cmd_train_bilm(args: argparse.Namespace) -> int:
    _announce_seed(args)
    cfg = _build_config(args)
    title2vec.check_dims(args.dim, args.hidden, args.layers)
    title2vec.check_min_count(args.min_count)
    corpus = load_corpus(args.infile, fmt=args.in_format)
    model = train_bilm(corpus, (args.dim, args.hidden, args.layers), cfg,
                       min_count=args.min_count)
    model.save(args.out)
    if model.history:
        print(f"final perplexity: {float(np.exp(model.history[-1])):.4f}", file=sys.stderr)
    return 0


def cmd_eval(args: argparse.Namespace) -> int:
    if args.pred:
        _reject_unread({"--gazetteer": args.gazetteer, "--embeddings": args.embeddings,
                        "--pred-out": args.pred_out}, f"eval --pred {args.pred}")
    gold = read_conll(args.gold)
    if args.pred:
        pred = read_conll(args.pred)
    else:
        model = _load_tagger(args.model, args.gazetteer, args.embeddings)
        pred = evaluation.predict_sequences(model, [g.tokens for g in gold])
        if args.pred_out:
            write_conll(pred, args.pred_out)
    report = evaluation.score(gold, pred)
    _write_text(args.out, _render_rows(report.to_kv(), args.format))
    return 0


def cmd_embed(args: argparse.Namespace) -> int:
    bilm = BiLmModel.load(args.model)
    corpus = _read_corpus(args.infile, args.in_format)
    vectors = title2vec.embed_titles(bilm, [title.tokens for title in corpus.titles])
    # each record is keyed by its title's input line index, so dropped lines leave gaps
    records = [TitleVectors(str(i), title_vectors)
               for i, title_vectors in zip(corpus.title_lines(), vectors)]
    store = EmbeddingStore(bilm.contextual_dim, records)
    title2vec.write_embeddings(store, args.out)
    print(f"embedded {len(records)} titles at dimension {store.dim}", file=sys.stderr)
    return 0


def _parse_space(text: str, model: str) -> dict[str, list]:
    space: dict[str, list] = {}
    for part in text.split(";"):
        part = part.strip()
        if not part:
            continue
        key, sep, values = part.partition("=")
        if not sep:
            raise ValueError(f"bad space axis {part!r}, expected key=v1,v2,...")
        key = key.strip().replace("-", "_")
        if key not in _AXIS_TYPES:
            raise ValueError(f"unknown search axis {key!r}")
        if key in space:
            raise ValueError(f"search axis {key!r} is given twice")
        _check_read(model, "--space", key)
        space[key] = [_coerce(key, v.strip()) for v in values.split(",") if v.strip()]
    return space


def cmd_gridsearch(args: argparse.Namespace) -> int:
    _announce_seed(args)
    base = _build_config(args)
    _reject_unread({"--gazetteer": args.gazetteer and args.model in ("lstm", "lstm-crf")},
                   f"the {args.model} trainer")
    space = _parse_space(args.space, args.model)
    # Every point's config and, for the recurrent trainers, its sizes (the
    # axes that are not config fields) are checked before the first read.
    for _, _, sizes in evaluation.grid_plan(space, base):
        neural.check_dims(**neural.DEFAULT_SIZES | sizes)
    train_data = read_conll(args.train)
    dev_gold = read_conll(args.dev)
    gaz = read_gazetteer(args.gazetteer) if args.gazetteer else None
    trainers = {
        "crf": functools.partial(train_crf, gazetteer=gaz),
        "logreg": functools.partial(train_logreg, gazetteer=gaz),
        "lstm": train_lstm,
        "lstm-crf": train_lstm_crf,
    }
    result = evaluation.grid_search(trainers[args.model], space, train_data, dev_gold, base=base)
    if args.format == "tsv":
        text = result.to_tsv()
    else:
        text = evaluation.align_columns([line.split("\t") for line in result.to_tsv().splitlines()])
    _write_text(args.out, text)
    print(f"best: {dict(result.best.settings)} f1={result.best.f1:.2f}", file=sys.stderr)
    return 0


def cmd_compare(args: argparse.Namespace) -> int:
    _announce_seed(args)
    labeled = read_conll(args.infile)
    gaz = read_gazetteer(args.gazetteer) if args.gazetteer else None
    reports = evaluation.compare_taggers(labeled, args.seed, gazetteer=gaz)
    _write_text(args.out, evaluation.compare_models(reports))
    return 0


def cmd_synth(args: argparse.Namespace) -> int:
    _announce_seed(args)
    corpus_mod.check_count(args.count)
    gaz = read_gazetteer(args.gazetteer) if args.gazetteer else sample_gazetteer()
    corpus = synth_corpus(gaz, args.seed, args.count)
    _write_text(args.out, corpus_mod.dumps_corpus(corpus.titles, args.out_format))
    return 0


def _add_out(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", default=None, help="output file (default: stdout)")


def _add_format(parser: argparse.ArgumentParser, choices=("text", "kv")) -> None:
    parser.add_argument("--format", choices=choices, default=choices[0])


def _add_annotation_source(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--annotations", nargs=3, default=None, metavar="FILE")
    source.add_argument("--sample", action="store_true", help="use the bundled annotation sets")


def _add_train_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, required=True, help="RNG seed (echoed to stderr)")
    parser.add_argument("--lr", dest="learning_rate", metavar="LR", type=float, default=None,
                        help="learning rate")
    parser.add_argument("--batch-size", type=int, default=None)
    parser.add_argument("--epochs", type=int, default=None)
    parser.add_argument("--optimizer", choices=("sgd", "adam"), default=None)
    parser.add_argument("--word-dropout", type=float, default=None)
    parser.add_argument("--variational-dropout", type=float, default=None)
    parser.add_argument("--clip", dest="clip_norm", metavar="CLIP", type=float, default=None,
                        help="gradient norm clip; 0 disables")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="titletag",
        description="Parse occupational job titles into responsibility, function and location parts.",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="log progress to stderr")
    commands = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")

    p = commands.add_parser("normalize", help="canonicalize raw titles")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in-format", choices=("lines", "tsv"), default="lines")
    p.add_argument("--out-format", choices=("lines", "tsv"), default="lines")
    _add_out(p)
    p.set_defaults(func=cmd_normalize)

    p = commands.add_parser("stats", help="corpus size and title-length statistics")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in-format", choices=("lines", "tsv"), default="lines")
    _add_format(p)
    _add_out(p)
    p.set_defaults(func=cmd_stats)

    p = commands.add_parser("ngrams", help="most frequent token n-grams")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in-format", choices=("lines", "tsv"), default="lines")
    p.add_argument("-n", type=int, default=1, help="n-gram order")
    p.add_argument("--top", type=int, default=20, help="rows to keep; 0 keeps all")
    _add_format(p, choices=("text", "tsv"))
    _add_out(p)
    p.set_defaults(func=cmd_ngrams)

    p = commands.add_parser("gazetteer", help="build the token dictionary or report agreement")
    gaz_cmds = p.add_subparsers(dest="subcommand", required=True, metavar="SUBCOMMAND")
    b = gaz_cmds.add_parser("build", help="merge annotator files by majority vote")
    _add_annotation_source(b)
    b.add_argument("--corpus", default=None,
                   help="order entries by frequency in this corpus")
    b.add_argument("--in-format", choices=("lines", "tsv"), default="lines")
    b.add_argument("--out", required=True)
    b.set_defaults(func=cmd_gazetteer_build)
    i = gaz_cmds.add_parser("irr", help="inter-annotator agreement report")
    _add_annotation_source(i)
    _add_format(i)
    _add_out(i)
    i.set_defaults(func=cmd_gazetteer_irr)

    p = commands.add_parser("tag", help="label titles with a gazetteer or a trained model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in-format", choices=("lines", "tsv", "conll"), default="lines")
    p.add_argument("--gazetteer", default=None,
                   help="dictionary tagging, or lookup features when --model is given")
    p.add_argument("--model", default=None, help="trained tagger file")
    p.add_argument("--embeddings", default=None,
                   help="language model file when the tagger uses frozen embeddings")
    _add_out(p)
    p.set_defaults(func=cmd_tag)

    p = commands.add_parser("split", help="shuffle and split labeled data")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--out-prefix", required=True)
    p.add_argument("--ratios", default="80/10/10")
    p.add_argument("--seed", type=int, required=True)
    p.set_defaults(func=cmd_split)

    p = commands.add_parser("train", help="train a tagging model or the language model")
    kinds = p.add_subparsers(dest="model_kind", required=True, metavar="MODEL")
    for kind in ("crf", "logreg"):
        t = kinds.add_parser(kind, help=f"feature-based {kind} tagger")
        t.add_argument("--train", required=True, help="labeled data (token TAB label)")
        t.add_argument("--gazetteer", default=None)
        t.add_argument("--out", required=True)
        _add_train_flags(t)
        t.set_defaults(func=cmd_train_feature)
    for kind in ("lstm", "lstm-crf"):
        t = kinds.add_parser(kind, help=f"recurrent {kind} tagger")
        t.add_argument("--train", required=True)
        t.add_argument("--out", required=True)
        t.add_argument("--hidden", type=int, default=neural.DEFAULT_SIZES["hidden_size"])
        t.add_argument("--layers", type=int, default=neural.DEFAULT_SIZES["layers"])
        t.add_argument("--embedding-dim", type=int, default=None,
                       help="trainable table dimension (default: "
                       f"{neural.DEFAULT_SIZES['embedding_dim']})")
        t.add_argument("--embeddings", default=None,
                       help="frozen language model file instead of a trainable table")
        _add_train_flags(t)
        t.set_defaults(func=cmd_train_neural)
    t = kinds.add_parser("bilm", help="bidirectional language model")
    t.add_argument("--in", dest="infile", required=True, help="unlabeled corpus")
    t.add_argument("--in-format", choices=("lines", "tsv"), default="lines")
    t.add_argument("--out", required=True)
    t.add_argument("--dim", type=int, default=64, help="embedding dimension")
    t.add_argument("--hidden", type=int, default=64)
    t.add_argument("--layers", type=int, default=1)
    t.add_argument("--min-count", type=int, default=1)
    _add_train_flags(t)
    t.set_defaults(func=cmd_train_bilm)

    p = commands.add_parser("eval", help="score predictions against gold labels")
    p.add_argument("--gold", required=True)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pred", help="predicted labels in the same format")
    source.add_argument("--model", help="model file to decode the gold tokens with")
    p.add_argument("--gazetteer", default=None)
    p.add_argument("--embeddings", default=None)
    p.add_argument("--pred-out", default=None, help="write model predictions here")
    _add_format(p)
    _add_out(p)
    p.set_defaults(func=cmd_eval)

    p = commands.add_parser("embed", help="dump contextual title vectors")
    p.add_argument("--model", required=True, help="trained language model")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--in-format", choices=("lines", "tsv"), default="lines")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    p = commands.add_parser("gridsearch", help="sweep training settings on a dev set")
    p.add_argument("--model", choices=("crf", "logreg", "lstm", "lstm-crf"), required=True)
    p.add_argument("--train", required=True)
    p.add_argument("--dev", required=True)
    p.add_argument("--space", required=True,
                   help="axes like 'learning_rate=0.05,0.1;epochs=5,10'")
    p.add_argument("--gazetteer", default=None)
    _add_format(p, choices=("tsv", "text"))
    _add_out(p)
    _add_train_flags(p)
    p.set_defaults(func=cmd_gridsearch)

    p = commands.add_parser("compare", help="train the crf and lstm-crf taggers on one "
                            "seeded split and compare their test scores")
    p.add_argument("--in", dest="infile", required=True, help="labeled data (token TAB label)")
    p.add_argument("--seed", type=int, required=True, help="split and training seed")
    p.add_argument("--gazetteer", default=None, help="lookup features for the crf")
    _add_out(p)
    p.set_defaults(func=cmd_compare)

    p = commands.add_parser("synth", help="generate a synthetic labeled-grammar corpus")
    p.add_argument("--gazetteer", default=None, help="default: built-in sample dictionary")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--out-format", choices=("lines", "tsv"), default="lines")
    _add_out(p)
    p.set_defaults(func=cmd_synth)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser main uses, built once per process: parse_args keeps no
    state between calls, and the tree costs milliseconds to build."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else 2
    logging.basicConfig(
        level=logging.INFO if args.verbose else logging.WARNING,
        stream=sys.stderr,
        format="%(levelname)s %(message)s",
    )
    try:
        return args.func(args)
    except TrainingDivergedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 5
    except FormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except FileNotFoundError as exc:
        print(f"error: no such file: {exc.filename or exc}", file=sys.stderr)
        return 3
    except IsADirectoryError as exc:
        print(f"error: {exc.filename or exc} is a directory", file=sys.stderr)
        return 3
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except Exception as exc:  # last resort: anything uncaught is a bug
        print(f"internal error: {exc!r}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main(sys.argv[1:]))


if __name__ == "__main__":
    entry()
