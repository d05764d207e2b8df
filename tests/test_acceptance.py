"""Ten end-to-end checks covering the whole toolkit, one per shipping gate.

Run `pytest tests/test_acceptance.py -v -s` to see one [PASS]/[FAIL] line
per criterion. Criterion 8 needs the real labeled data and is skipped
unless TITLETAG_IPOD_DIR points at a directory of labeled .conll files.
"""

import itertools
import os
from collections import Counter
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import numpy as np
import pytest

from titletag import cli
from titletag.corpus import synth_corpus
from titletag.crf import (
    CrfModel,
    TrainConfig,
    log_partition_scores,
    nll_and_gradient,
    viterbi_path,
)
from titletag.errors import FormatError
from titletag.evaluation import compare_taggers, f1_score, score
from titletag.gazetteer import (
    AnnotationSet,
    CoarseTag,
    cohens_kappa,
    irr_report,
    percentage_agreement,
    sample_gazetteer,
)
from titletag.labeling import (
    ALL_LABELS,
    BioesLabel,
    LabeledSequence,
    auto_tag,
    decode_bioes,
    encode_bioes,
    read_conll,
)
from titletag.neural import LstmCrfModel, TrainableEmbeddings
from titletag.title2vec import (
    BiLmModel,
    Vocab,
    _bilm_batch,
    embed_title,
    train_bilm,
)

from conftest import (
    batch_nll,
    brute_force_best_path,
    brute_force_logz,
    central_difference,
    perplexity,
    scan_runs,
)

N_LABELS = len(ALL_LABELS)
R, F, L, O = CoarseTag.RES, CoarseTag.FUN, CoarseTag.LOC, CoarseTag.O


@contextmanager
def criterion(number: int, text: str):
    try:
        yield
    except BaseException:
        print(f"\n[FAIL] criterion {number}: {text}")
        raise
    print(f"\n[PASS] criterion {number}: {text}")


def seq(tokens, labels):
    return LabeledSequence(
        tuple(tokens.split()), tuple(BioesLabel.parse(l) for l in labels.split())
    )


def test_criterion_1_flagship_encoding():
    with criterion(1, "flagship coarse sequence encodes to S-RES S-FUN S-RES B-LOC E-LOC"):
        labels = encode_bioes([R, F, R, L, L])
        assert [l.render() for l in labels] == [
            "S-RES", "S-FUN", "S-RES", "B-LOC", "E-LOC",
        ]


def test_criterion_2_exhaustive_roundtrip():
    with criterion(2, "all 5460 coarse sequences up to length 6 round-trip losslessly"):
        t0 = perf_counter()
        tags = (R, F, L, O)
        checked = 0
        for n in range(1, 7):
            for combo in itertools.product(tags, repeat=n):
                labels = encode_bioes(combo)
                chunks = decode_bioes(labels)  # legality included
                assert chunks == scan_runs(combo)
                checked += 1
        assert checked == 5460
        assert perf_counter() - t0 < 1.0


def test_criterion_3_crf_decoding_exactness():
    with criterion(3, "Viterbi and log-partition match exhaustive path enumeration"):
        t0 = perf_counter()
        rng = np.random.default_rng(33)

        def check(T):
            emis = rng.normal(scale=1.5, size=(T, N_LABELS))
            trans = rng.normal(scale=1.5, size=(N_LABELS, N_LABELS))
            start = rng.normal(scale=1.5, size=N_LABELS)
            stop = rng.normal(scale=1.5, size=N_LABELS)
            best_ref, _ = brute_force_best_path(emis, trans, start, stop)
            assert list(viterbi_path(emis, trans, start, stop)) == best_ref
            assert log_partition_scores(emis, trans, start, stop) == pytest.approx(
                brute_force_logz(emis, trans, start, stop), abs=1e-6
            )

        for _ in range(20):
            for T in (1, 2, 3, 4):
                check(T)
        for _ in range(5):
            check(5)
        assert perf_counter() - t0 < 60.0


def close_rel(got: float, want: float, tol: float) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


def test_criterion_4_gradient_oracles():
    with criterion(4, "analytic gradients match central differences for all three models"):
        t0 = perf_counter()

        # feature CRF: every gradient block within 1e-4 of finite differences
        rng = np.random.default_rng(21)
        crf = CrfModel(kind="crf")
        ex = seq("chief financial officer", "S-RES S-FUN S-RES")
        ids, counts = crf.featurize(ex.tokens, extend=True)
        crf._emit[: len(crf.vocab)] = rng.normal(scale=0.3, size=(len(crf.vocab), N_LABELS))
        crf.trans = rng.normal(scale=0.3, size=(N_LABELS, N_LABELS))
        crf.start = rng.normal(scale=0.3, size=N_LABELS)
        crf.stop = rng.normal(scale=0.3, size=N_LABELS)
        _, grad = nll_and_gradient(crf, [ex], ids, counts)
        emit_grad = dict(zip(grad["emit"][0].tolist(), grad["emit"][1]))

        def crf_loss():
            return nll_and_gradient(crf, [ex], ids, counts)[0]

        for fid in sorted(emit_grad)[:5]:
            for y in (0, 4, 12):
                fd = central_difference(crf_loss, crf._emit, (fid, y))
                assert close_rel(emit_grad[fid][y], fd, 1e-4)
        for idx in ((0, 0), (4, 8), (12, 12)):
            assert close_rel(grad["trans"][idx], central_difference(crf_loss, crf.trans, idx), 1e-4)
        for y in (0, 4, 12):
            assert close_rel(grad["start"][y], central_difference(crf_loss, crf.start, (y,)), 1e-4)
            assert close_rel(grad["stop"][y], central_difference(crf_loss, crf.stop, (y,)), 1e-4)

        # recurrent tagger at toy dimensions, both decoding heads
        examples = [
            seq("chief financial officer", "S-RES S-FUN S-RES"),
            seq("asia pacific manager", "B-LOC E-LOC S-RES"),
            seq("vice president", "B-RES E-RES"),
        ]
        counts = Counter(tok for e in examples for tok in e.tokens)
        for kind in ("lstm-crf", "lstm"):
            rng = np.random.default_rng(4)
            provider = TrainableEmbeddings(Vocab.from_counts(counts), 4, rng)
            model = LstmCrfModel(provider, hidden_size=4, layers=2, kind=kind, rng=rng)
            params = model.parameters()
            grads = [np.zeros_like(p) for p in params]
            grad_of = {id(p): g for p, g in zip(params, grads)}
            model._batch_pass([e.tokens for e in examples], [e.label_ids() for e in examples],
                              None, grad_of)

            def net_loss():
                return batch_nll(model, examples) * len(examples)

            for p, g in zip(params, grads):
                for k in np.argsort(-np.abs(g), axis=None)[:3]:
                    idx = np.unravel_index(int(k), p.shape)
                    assert close_rel(g[idx], central_difference(net_loss, p, idx), 1e-3)

        # language model
        lm_vocab = Vocab.from_counts({"alpha": 4, "beta": 3, "gamma": 2, "delta": 1})
        lm = BiLmModel(lm_vocab, dim=3, hidden=3, layers=2, rng=np.random.default_rng(4))
        # Three lengths in one batch, so the padded rows are exercised too.
        batch = [lm_vocab.ids(("alpha", "beta", "gamma")), lm_vocab.ids(("delta", "alpha")),
                 lm_vocab.ids(("beta",))]
        lm_params = lm.parameters()
        lm_grads = [np.zeros_like(p) for p in lm_params]
        _bilm_batch(lm, batch, {id(p): g for p, g in zip(lm_params, lm_grads)})

        def lm_loss():
            return _bilm_batch(lm, batch, None)[0]

        for p, g in zip(lm_params, lm_grads):
            for k in np.argsort(-np.abs(g), axis=None)[:2]:
                idx = np.unravel_index(int(k), p.shape)
                assert close_rel(g[idx], central_difference(lm_loss, p, idx), 1e-3)

        assert perf_counter() - t0 < 120.0


def test_criterion_5_agreement_statistics():
    with criterion(5, "percentage agreement 0.853, unanimous share 77.9%, exact kappa"):
        def annset(name, labels):
            return AnnotationSet(name, {f"w{i:04d}": t for i, t in enumerate(labels)})

        tags = [R, F, L, O]
        labels = [tags[i % 4] for i in range(1500)]
        a = annset("a", labels)
        b = annset("b", labels)
        c_labels = list(labels)
        for i in range(331):
            c_labels[i] = tags[(i + 1) % 4]
        c = annset("c", c_labels)

        pa = percentage_agreement([a, b, c])
        assert abs(pa - 0.853) <= 0.001
        rep = irr_report([a, b, c])
        share = 100.0 * rep.unanimous_count / rep.total
        assert abs(share - 77.9) <= 0.1

        # hand-computed joint table: p_o = 0.9, p_e = 0.34
        x = annset("x", [R, R, F, F, F, L, L, L, L, R])
        y = annset("y", [R, R, F, F, F, L, L, L, L, F])
        assert cohens_kappa(x, y) == pytest.approx(56.0 / 66.0, abs=1e-12)


def test_criterion_6_metric_arithmetic():
    with criterion(6, "hand-counted scoring fixture and the published-aggregate F1 both match"):
        gold = [
            seq("chief financial officer asia pacific", "S-RES S-FUN S-RES B-LOC E-LOC"),
            seq("head of sales emea region", "B-FUN E-FUN S-RES S-RES O"),
        ]
        pred = [
            seq("chief financial officer asia pacific", "S-RES S-FUN S-RES S-LOC E-LOC"),
            seq("head of sales emea region", "B-FUN E-FUN S-RES S-RES S-FUN"),
        ]
        rep = score(gold, pred)
        assert rep.em_token == pytest.approx(80.0, abs=1e-12)
        assert rep.precision == pytest.approx(80.0, abs=1e-12)
        assert rep.recall == pytest.approx(800.0 / 9.0, abs=1e-12)
        assert rep.f1 == pytest.approx(1600.0 / 19.0, abs=1e-12)
        assert (rep.tp, rep.fp, rep.fn) == (8, 2, 1)
        assert abs(f1_score(91.60, 99.60) - 95.4) < 0.05


def test_criterion_7_desk_scale_pipeline():
    with criterion(7, "synthetic 5000-title pipeline reaches EM >= 99.0 and F1 >= 99.5 for both taggers"):
        t0 = perf_counter()
        gaz = sample_gazetteer()
        corpus = synth_corpus(gaz, grammar_seed=42, count=5000)
        labeled = [auto_tag(t, gaz) for t in corpus.titles]
        # the tuned settings, with the lstm-crf epoch budget scaled up: 4000
        # titles give only 31 optimizer steps per epoch at batch 128
        reports = compare_taggers(labeled, 42, lstm_epochs=60, gazetteer=gaz)
        assert list(reports) == ["crf", "lstm-crf"]
        for name, rep in reports.items():
            assert rep.em_token >= 99.0, f"{name} em {rep.em_token:.3f}"
            assert rep.f1 >= 99.5, f"{name} f1 {rep.f1:.3f}"

        assert perf_counter() - t0 < 600.0


def test_criterion_8_full_data_reproduction():
    data_dir = os.environ.get("TITLETAG_IPOD_DIR")
    if not data_dir:
        print(
            "\n[SKIP] criterion 8: set TITLETAG_IPOD_DIR to a directory of"
            " labeled .conll files to check the published-corpus numbers"
        )
        pytest.skip("labeled source corpus not available in this environment")
    with criterion(8, "published tag totals, length statistics and score bands reproduce"):
        files = sorted(Path(data_dir).glob("*.conll"))
        assert files, f"no .conll files under {data_dir}"
        sequences = [s for f in files for s in read_conll(f)]

        counts = Counter(l.tag.value for s in sequences for l in s.labels)
        assert counts == {"RES": 310570, "FUN": 255974, "LOC": 9998, "O": 66948}

        lengths = np.array([len(s.tokens) for s in sequences])
        assert int(lengths.min()) == 1
        assert int(lengths.max()) == 21
        assert round(float(lengths.mean()), 1) == 3.0
        assert int(np.median(lengths)) == 3

        reports = compare_taggers(sequences, 42, lstm_epochs=10)
        assert abs(reports["crf"].em_token - 99.71) <= 0.5
        assert abs(reports["crf"].f1 - 99.85) <= 0.5
        assert abs(reports["lstm-crf"].em_token - 99.83) <= 0.5
        assert abs(reports["lstm-crf"].f1 - 99.91) <= 0.5


def test_criterion_9_language_model_sanity():
    with criterion(9, "biLM beats the uniform baseline in 5 epochs; vector width is D + 2*H*L"):
        corpus = synth_corpus(sample_gazetteer(), grammar_seed=9, count=50)
        cfg = TrainConfig(learning_rate=0.05, batch_size=16, epochs=5,
                          optimizer="adam", seed=0,
                          word_dropout=0.0, variational_dropout=0.0)
        model = train_bilm(corpus, (16, 16, 1), cfg)
        assert perplexity(model, corpus) < model.vocab.size

        tokens = corpus.titles[0].tokens
        for dim, hidden, layers in ((8, 4, 1), (8, 4, 2), (16, 8, 3)):
            small = BiLmModel(model.vocab, dim, hidden, layers,
                              rng=np.random.default_rng(0))
            assert small.contextual_dim == dim + 2 * hidden * layers
            assert embed_title(small, tokens).shape == (len(tokens), small.contextual_dim)

        wide = BiLmModel(model.vocab, 1024, 512, 2, rng=np.random.default_rng(0))
        assert wide.contextual_dim == 3072
        assert embed_title(wide, tokens).shape == (len(tokens), 3072)


def test_criterion_10_seeded_reruns_are_byte_identical(tmp_path, capsys):
    with criterion(10, "every seeded command writes byte-identical output on rerun"):
        gaz = tmp_path / "sample.gaz"
        assert cli.main(["gazetteer", "build", "--sample", "--out", str(gaz)]) == 0

        def twice(name, argv_of):
            out_a = tmp_path / f"{name}.a"
            out_b = tmp_path / f"{name}.b"
            for out in (out_a, out_b):
                assert cli.main(argv_of(str(out))) == 0, name
            assert out_a.read_bytes() == out_b.read_bytes(), name
            return out_a

        raw = twice("synth", lambda out: [
            "synth", "--seed", "7", "--count", "30", "--out", out,
        ])
        labeled = twice("tag", lambda out: [
            "tag", "--in", str(raw), "--gazetteer", str(gaz), "--out", out,
        ])
        for prefix in ("split.a", "split.b"):
            assert cli.main(["split", "--in", str(labeled), "--out-prefix",
                             str(tmp_path / prefix), "--seed", "3"]) == 0
        for part in ("train", "dev", "test"):
            a = (tmp_path / f"split.a.{part}.conll").read_bytes()
            b = (tmp_path / f"split.b.{part}.conll").read_bytes()
            assert a == b, part

        crf_model = twice("crf", lambda out: [
            "train", "crf", "--train", str(labeled), "--gazetteer", str(gaz),
            "--out", out, "--seed", "0", "--epochs", "3",
        ])
        twice("crf-adam", lambda out: [
            "train", "crf", "--train", str(labeled), "--gazetteer", str(gaz),
            "--out", out, "--seed", "0", "--epochs", "3", "--optimizer", "adam",
        ])
        twice("lstm", lambda out: [
            "train", "lstm-crf", "--train", str(labeled), "--out", out,
            "--seed", "0", "--epochs", "2", "--hidden", "8", "--embedding-dim", "8",
        ])
        bilm_model = twice("bilm", lambda out: [
            "train", "bilm", "--in", str(raw), "--out", out,
            "--seed", "0", "--epochs", "2", "--dim", "4", "--hidden", "4",
        ])
        twice("embed", lambda out: [
            "embed", "--model", str(bilm_model), "--in", str(raw), "--out", out,
        ])
        twice("eval", lambda out: [
            "eval", "--gold", str(labeled), "--model", str(crf_model),
            "--gazetteer", str(gaz), "--format", "kv", "--out", out,
        ])
        twice("grid", lambda out: [
            "gridsearch", "--model", "crf", "--train", str(labeled),
            "--dev", str(labeled), "--space", "learning_rate=0.1,0.3",
            "--gazetteer", str(gaz), "--seed", "1", "--epochs", "1",
            "--format", "tsv", "--out", out,
        ])
        capsys.readouterr()  # drop the accumulated stderr chatter
