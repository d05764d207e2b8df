"""Span coverage: a traced run sees each layer where the workload exercises it
and nowhere else, so no wrapper was missed and no workload does stray work."""

import pytest

import inputs
import spans
import workloads

# Spans that must record calls on a workload, and spans that must record none.
EXERCISED = {
    "feature-pipeline": [
        "cli.main", "crf.CrfModel.featurize", "crf.sequence_marginals",
        "crf.nll_and_gradient", "crf.viterbi_path", "model_io.load_model",
        "model_io.save_model", "evaluation.score", "labeling.read_conll",
        "gazetteer.read_gazetteer",
    ],
    "neural-train": [
        "cli.main", "crf.sequence_marginals", "lstm.LstmCell.run", "lstm.LstmCell.backprop",
        "lstm.softmax_ce", "optim.clip_grads_", "optim.Sgd.step", "model_io.save_model",
        "corpus.load_corpus", "labeling.read_conll",
    ],
    "tag-embed": [
        "cli.main", "crf.CrfModel.featurize", "crf.viterbi_path", "lstm.LstmCell.run",
        "neural.LstmCrfModel.predict", "title2vec.embed_title", "title2vec.write_embeddings",
        "model_io.load_model", "corpus.load_corpus", "labeling.dumps_conll",
        "gazetteer.read_gazetteer",
    ],
}
IDLE = {
    "feature-pipeline": [
        "lstm.LstmCell.run", "lstm.LstmCell.backprop", "lstm.softmax_ce",
        "optim.clip_grads_", "optim.Sgd.step", "neural.LstmCrfModel.predict",
        "title2vec.embed_title",
    ],
    "neural-train": [
        "crf.CrfModel.featurize", "crf.nll_and_gradient", "crf.viterbi_path",
        "model_io.load_model", "neural.LstmCrfModel.predict", "title2vec.embed_title",
    ],
    "tag-embed": [
        "lstm.LstmCell.backprop", "crf.sequence_marginals", "crf.nll_and_gradient",
        "lstm.softmax_ce", "optim.clip_grads_", "optim.Sgd.step", "model_io.save_model",
    ],
}


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """One short traced pass of every workload on smaller inputs."""
    patch = pytest.MonkeyPatch()
    patch.setattr(inputs, "CORPUS_TITLES", 300)
    patch.setattr(inputs, "TAG_TRAIN_TITLES", 60)
    patch.setattr(inputs, "TAG_FILE_LINES", 40)
    patch.setattr(workloads, "CRF_DEV_F1_FLOOR", 0.0)
    results = {}
    try:
        for name, workload in workloads.WORKLOADS.items():
            runner = workloads.CliRunner()
            tracer = spans.Tracer()
            workloads.measure(workload, 1, 0.0, tmp_path_factory.mktemp(name), runner, tracer)
            results[name] = (runner, spans.aggregate(tracer.spans))
    finally:
        patch.undo()
    return results


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_run_passes_its_checks(traced, name):
    runner, _ = traced[name]
    assert runner.failures == []


@pytest.mark.parametrize("name,span", [(w, s) for w, names in EXERCISED.items() for s in names])
def test_span_records_calls_where_exercised(traced, name, span):
    _, stats = traced[name]
    assert span in stats and stats[span].calls > 0


@pytest.mark.parametrize("name,span", [(w, s) for w, names in IDLE.items() for s in names])
def test_span_records_no_calls_where_idle(traced, name, span):
    _, stats = traced[name]
    assert span not in stats


def test_every_binding_is_wrapped_and_restored():
    import titletag.cli as cli
    import titletag.crf as crf
    import titletag.neural as neural

    marginals, train = crf.sequence_marginals, crf.train_crf
    uninstall = spans.install(spans.Tracer())
    try:
        assert spans.unwrapped_bindings() == []
        # neural and cli import these by name; every binding must be wrapped.
        assert neural.sequence_marginals is crf.sequence_marginals is not marginals
        assert cli.train_crf is crf.train_crf is not train
    finally:
        uninstall()
    assert neural.sequence_marginals is crf.sequence_marginals is marginals
    assert cli.train_crf is crf.train_crf is train


def test_layer_metrics_cover_every_per_layer_name(traced):
    _, stats = traced["tag-embed"]
    names = set(spans.layer_metrics(stats))
    assert names == {f"{span}.{stat}" for span, stat, _ in spans.PER_LAYER}


def test_self_time_excludes_children():
    span_log = [
        ["outer", 0.0, 10.0, -1, None],
        ["inner", 1.0, 4.0, 0, None],
        ["inner", 5.0, 7.0, 0, None],
    ]
    stats = spans.aggregate(span_log)
    assert stats["outer"].self_s == pytest.approx(5.0)
    assert stats["inner"].self_s == pytest.approx(5.0)
    assert stats["inner"].calls == 2
