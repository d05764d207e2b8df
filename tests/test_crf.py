import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from titletag.corpus import synth_corpus
from titletag.crf import (
    CrfModel,
    TrainConfig,
    _apply_step,
    apply_word_dropout,
    extract_features,
    crf_nll,
    nll_and_gradient,
    train_crf,
    train_logreg,
    viterbi_path,
)
from titletag.labeling import ALL_LABELS, LabeledSequence, auto_tag
from titletag.lstm import padded_layout
from titletag.errors import TrainingDivergedError
from titletag.evaluation import evaluate
from titletag.optim import ADAM_B1, ADAM_B2, ADAM_EPS

from conftest import (
    brute_force_best_path, brute_force_logz, central_difference, enumerate_paths, score_path,
)

N_LABELS = len(ALL_LABELS)


def random_params(rng, T, L=N_LABELS, scale=1.0):
    return (
        rng.normal(scale=scale, size=(T, L)),
        rng.normal(scale=scale, size=(L, L)),
        rng.normal(scale=scale, size=L),
        rng.normal(scale=scale, size=L),
    )


def test_viterbi_matches_enumeration():
    rng = np.random.default_rng(11)
    for case in range(12):
        T = int(rng.integers(1, 5))
        emis, trans, start, stop = random_params(rng, T)
        got = viterbi_path(emis, trans, start, stop)
        want, want_score = brute_force_best_path(emis, trans, start, stop)
        assert got == want, f"case {case}"


def test_logz_matches_enumeration():
    from titletag.crf import log_partition_scores

    rng = np.random.default_rng(12)
    for case in range(12):
        T = int(rng.integers(1, 5))
        emis, trans, start, stop = random_params(rng, T)
        got = float(log_partition_scores(emis, trans, start, stop))
        want = brute_force_logz(emis, trans, start, stop)
        assert got == pytest.approx(want, abs=1e-6), f"case {case}"


def test_viterbi_tie_breaks_to_lowest_index():
    T = 3
    emis = np.zeros((T, N_LABELS))
    trans = np.zeros((N_LABELS, N_LABELS))
    start = np.zeros(N_LABELS)
    stop = np.zeros(N_LABELS)
    assert viterbi_path(emis, trans, start, stop) == [0, 0, 0]
    # break the tie away from index 0 at one position only
    emis[1, 4] = 1.0
    assert viterbi_path(emis, trans, start, stop) == [0, 4, 0]


def _viterbi_rows_equal(emis, trans, start, stop):
    batched = viterbi_path(emis, trans, start, stop)
    assert batched.shape == emis.shape[:2]
    for b in range(emis.shape[0]):
        single = viterbi_path(emis[b], trans, start, stop)
        assert isinstance(single, list)
        assert batched[b].tolist() == single, f"row {b}"
    return batched


@pytest.mark.parametrize("T", [1, 2, 3, 7])
@pytest.mark.parametrize("scores", ["normal", "integer", "blocked"])
def test_batched_viterbi_rows_equal_single_calls(T, scores):
    """Every batch row is exactly the one-sequence path, also under ties
    (integer scores) and with -inf cells."""
    rng = np.random.default_rng(100 + T)
    B = 9
    emis = rng.normal(size=(B, T, N_LABELS))
    trans, start, stop = (rng.normal(size=(N_LABELS, N_LABELS)),
                          rng.normal(size=N_LABELS), rng.normal(size=N_LABELS))
    if scores == "integer":
        emis, trans, start, stop = (np.round(a) for a in (emis, trans, start, stop))
    elif scores == "blocked":
        emis[rng.random(emis.shape) < 0.3] = -np.inf
        trans[rng.random(trans.shape) < 0.3] = -np.inf
        start[rng.random(N_LABELS) < 0.3] = -np.inf
        emis[0] = -np.inf  # a row with no finite path at all
    _viterbi_rows_equal(emis, trans, start, stop)


def test_batched_viterbi_matches_enumeration():
    rng = np.random.default_rng(14)
    L = 5
    for case in range(8):
        T = int(rng.integers(1, 5))
        emis = rng.normal(size=(3, T, L))
        if case % 2:  # integer scores force ties
            emis = np.round(emis)
        trans, start, stop = rng.normal(size=(L, L)), rng.normal(size=L), rng.normal(size=L)
        if case % 2:
            trans, start, stop = np.round(trans), np.round(start), np.round(stop)
        got = _viterbi_rows_equal(emis, trans, start, stop)
        for b in range(len(emis)):
            want, _ = brute_force_best_path(emis[b], trans, start, stop)
            assert got[b].tolist() == want, f"case {case} row {b}"


def test_batched_forward_matches_per_sequence():
    from titletag.crf import log_partition_scores, sequence_marginals

    rng = np.random.default_rng(13)
    T, B = 3, 4
    emis = rng.normal(size=(B, T, N_LABELS))
    trans = rng.normal(size=(N_LABELS, N_LABELS))
    start = rng.normal(size=N_LABELS)
    stop = rng.normal(size=N_LABELS)
    batched = log_partition_scores(emis, trans, start, stop)
    assert batched.shape == (B,)
    for b in range(B):
        single = float(log_partition_scores(emis[b], trans, start, stop))
        assert batched[b] == pytest.approx(single, abs=1e-10)
    logz, unary, pairwise = sequence_marginals(emis, trans, start, stop)
    for b in range(B):
        z1, u1, p1 = sequence_marginals(emis[b], trans, start, stop)
        np.testing.assert_allclose(unary[b], u1, atol=1e-10)
        np.testing.assert_allclose(pairwise[b], p1, atol=1e-10)
    # posteriors are normalized distributions
    np.testing.assert_allclose(unary.sum(axis=-1), np.ones((B, T)), atol=1e-9)


def test_logsumexp_handles_infinite_and_extreme_rows():
    from titletag.crf import _logsumexp

    inf = np.inf
    x = np.array([
        [-inf, -inf, -inf],
        [-inf, 0.0, np.log(3.0)],
        [700.0, 700.0, -700.0],
        [-700.0, -700.0, -inf],
    ])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows = _logsumexp(x, axis=-1)
        cols = _logsumexp(x.T, axis=0)
        scalar = _logsumexp(np.full(4, -inf), axis=-1)
    assert rows[0] == -inf and scalar == -inf
    want = [np.log(4.0), 700.0 + np.log(2.0), -700.0 + np.log(2.0)]
    np.testing.assert_allclose(rows[1:], want, rtol=1e-15)
    np.testing.assert_array_equal(cols, rows)


def test_lattice_without_a_finite_path_has_log_partition_minus_inf():
    from titletag.crf import log_partition_scores

    emis = np.zeros((2, 3, N_LABELS))
    zeros = np.zeros(N_LABELS)
    free_trans = np.zeros((N_LABELS, N_LABELS))
    no_trans = np.full((N_LABELS, N_LABELS), -np.inf)
    no_start = np.full(N_LABELS, -np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert np.all(log_partition_scores(emis, no_trans, zeros, zeros) == -np.inf)
        assert np.all(log_partition_scores(emis, free_trans, no_start, zeros) == -np.inf)
        single = log_partition_scores(emis[0, :1], no_trans, zeros, zeros)
    assert single == pytest.approx(np.log(N_LABELS))


def brute_force_marginals(emissions, trans, start, stop):
    """logZ, unary and pairwise posteriors of one sequence from every label
    path's score at once; no recursion shared with the library."""
    T, L = emissions.shape
    paths = np.indices((L,) * T).reshape(T, -1).T  # (L**T, T)
    pos = np.arange(T)
    scores = start[paths[:, 0]] + stop[paths[:, -1]] + emissions[pos, paths].sum(axis=1)
    if T > 1:
        scores += trans[paths[:, :-1], paths[:, 1:]].sum(axis=1)
    top = scores.max()
    weights = np.exp(scores - top)
    total = weights.sum()
    unary = np.zeros((T, L))
    pairwise = np.zeros((T - 1, L, L))
    for t in range(T):
        np.add.at(unary[t], paths[:, t], weights / total)
    for t in range(T - 1):
        np.add.at(pairwise[t], (paths[:, t], paths[:, t + 1]), weights / total)
    return top + np.log(total), unary, pairwise


def extreme_lattice(rng, shape, scale=50.0, blocked=0.3):
    """Emissions and weights uniform in [-scale, scale], with at least one
    finite path per sequence. When blocked > 0, that share of the transition,
    start and stop cells is -inf, and so are one whole transition row and
    column: a label nothing can follow and one nothing can precede, so
    some forward and backward scores are -inf."""
    L = N_LABELS
    while True:
        emis = rng.uniform(-scale, scale, size=shape + (L,))
        trans, start, stop = (rng.uniform(-scale, scale, size=s) for s in ((L, L), L, L))
        for w in (trans, start, stop):
            w[rng.random(w.shape) < blocked] = -np.inf
        if blocked:
            trans[rng.integers(L), :] = trans[:, rng.integers(L)] = -np.inf
        flat = emis.reshape((-1,) + emis.shape[-2:])
        if all(np.isfinite(brute_force_marginals(e, trans, start, stop)[0]) for e in flat):
            return emis, trans, start, stop


@pytest.mark.parametrize("batch", [(), (3,)], ids=["single", "batched"])
@pytest.mark.parametrize("T", [1, 2, 3, 4])
def test_forward_backward_matches_enumeration_with_extreme_and_blocked_cells(T, batch):
    from titletag.crf import log_partition_scores, sequence_marginals

    rng = np.random.default_rng(100 + 10 * T + len(batch))
    for case in range(4 if T < 4 else 1):
        emis, trans, start, stop = extreme_lattice(rng, batch + (T,), blocked=0.3 * (case % 2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            logz, unary, pairwise = sequence_marginals(emis, trans, start, stop)
            logz_only = log_partition_scores(emis, trans, start, stop)
        assert np.shape(logz) == batch and np.shape(logz_only) == batch
        assert unary.shape == batch + (T, N_LABELS)
        assert pairwise.shape == batch + (T - 1, N_LABELS, N_LABELS)
        for b in np.ndindex(batch):
            want_z, want_u, want_p = brute_force_marginals(emis[b], trans, start, stop)
            assert logz[b] == pytest.approx(want_z, rel=1e-12), f"case {case}"
            assert logz_only[b] == pytest.approx(want_z, rel=1e-12), f"case {case}"
            np.testing.assert_allclose(unary[b], want_u, atol=1e-9)
            np.testing.assert_allclose(pairwise[b], want_p, atol=1e-9)
        np.testing.assert_allclose(unary.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(pairwise.sum(axis=-1), unary[..., :-1, :], atol=1e-9)
        np.testing.assert_allclose(pairwise.sum(axis=-2), unary[..., 1:, :], atol=1e-9)


def test_extract_features_window_and_shape():
    tokens = ("chief", "financial", "officer")
    feats0 = extract_features(tokens, 0)
    assert "w0=chief" in feats0
    assert "w-1=<s>" in feats0
    assert "w-2=<s>" in feats0
    assert "w+1=financial" in feats0
    assert "w+2=officer" in feats0
    assert "p1=c" in feats0 and "s3=ief" in feats0
    assert "w-1|w0=<s>|chief" in feats0
    assert "first" in feats0 and "last" not in feats0

    feats2 = extract_features(tokens, 2)
    assert "w+1=</s>" in feats2
    assert "last" in feats2

    short = extract_features(("ab",), 0)
    assert "p2=ab" in short and not any(f.startswith("p3=") for f in short)
    assert len(short) == len(set(short))

    with pytest.raises(IndexError):
        extract_features(tokens, 3)


def test_extract_features_gazetteer(sample_gaz):
    feats = extract_features(("financial",), 0, sample_gaz)
    assert "gaz=FUN" in feats
    feats_o = extract_features(("zzz",), 0, sample_gaz)
    assert "gaz=O" in feats_o
    assert not any(f.startswith("gaz=") for f in extract_features(("financial",), 0))


def example(tokens, label_strings):
    from titletag.labeling import BioesLabel

    return LabeledSequence(tuple(tokens), tuple(BioesLabel.parse(s) for s in label_strings))


def test_nll_gradient_matches_finite_differences():
    rng = np.random.default_rng(21)
    model = CrfModel(kind="crf")
    ex = example(("chief", "financial", "officer"), ("S-RES", "S-FUN", "S-RES"))
    ids, counts = model.featurize(ex.tokens, extend=True)
    model._emit[: len(model.vocab)] = rng.normal(scale=0.3, size=(len(model.vocab), N_LABELS))
    model.trans = rng.normal(scale=0.3, size=(N_LABELS, N_LABELS))
    model.start = rng.normal(scale=0.3, size=N_LABELS)
    model.stop = rng.normal(scale=0.3, size=N_LABELS)

    loss, grad = nll_and_gradient(model, [ex], ids, counts)
    emit_grad = dict(zip(grad["emit"][0].tolist(), grad["emit"][1]))

    def f():
        return nll_and_gradient(model, [ex], ids, counts)[0]

    touched = sorted(emit_grad)
    for fid in touched[:4] + touched[-2:]:
        for y in (0, 4, 12):
            fd = central_difference(f, model._emit, (fid, y))
            assert emit_grad[fid][y] == pytest.approx(fd, abs=1e-4)
    for idx in ((0, 0), (4, 8), (12, 12)):
        fd = central_difference(f, model.trans, idx)
        assert grad["trans"][idx] == pytest.approx(fd, abs=1e-4)
    for y in (0, 4, 12):
        assert grad["start"][y] == pytest.approx(
            central_difference(f, model.start, (y,)), abs=1e-4
        )
        assert grad["stop"][y] == pytest.approx(
            central_difference(f, model.stop, (y,)), abs=1e-4
        )


def test_nll_is_logz_minus_path_score():
    rng = np.random.default_rng(22)
    model = CrfModel(kind="crf")
    ex = example(("senior", "sales"), ("S-RES", "S-FUN"))
    ids, counts = model.featurize(ex.tokens, extend=True)
    model._emit[: len(model.vocab)] = rng.normal(size=(len(model.vocab), N_LABELS))
    loss, _ = nll_and_gradient(model, [ex], ids, counts)
    emis = model.emissions(ex.tokens)
    gold = score_path(emis, model.trans, model.start, model.stop, ex.label_ids())
    logz = brute_force_logz(emis, model.trans, model.start, model.stop)
    assert loss == pytest.approx(logz - gold, abs=1e-9)
    assert loss >= 0.0


def test_crf_nll_batch_matches_enumeration_and_finite_differences():
    """A batch of equal-length rows with distinct gold paths on a lattice
    with -inf transition, start and stop cells."""
    from titletag.crf import crf_nll

    rng = np.random.default_rng(23)
    B, T = 4, 3
    emis, trans, start, stop = extreme_lattice(rng, (B, T), scale=2.0, blocked=0.3)
    # Emissions are finite, so whether a path is blocked does not depend on the row.
    finite = [p for p in enumerate_paths(T, N_LABELS)
              if np.isfinite(score_path(emis[0], trans, start, stop, p))]
    ys = np.array([finite[i] for i in rng.choice(len(finite), size=B, replace=False)])
    loss, grads = crf_nll(emis, ys, trans, start, stop)
    want = sum(
        brute_force_logz(emis[b], trans, start, stop) - score_path(emis[b], trans, start, stop, ys[b])
        for b in range(B)
    )
    assert loss == pytest.approx(want, rel=1e-12)

    def f():
        return crf_nll(emis, ys, trans, start, stop)[0]

    for name, param in (("emissions", emis), ("trans", trans), ("start", start), ("stop", stop)):
        assert grads[name].shape == param.shape
        for idx in np.ndindex(param.shape):
            if np.isfinite(param[idx]):
                fd = central_difference(f, param, idx)
                assert grads[name][idx] == pytest.approx(fd, abs=1e-6), (name, idx)
            else:
                assert grads[name][idx] == 0.0, (name, idx)
    for b in range(B):
        _, one = crf_nll(emis[b : b + 1], ys[b : b + 1], trans, start, stop)
        np.testing.assert_allclose(grads["emissions"][b], one["emissions"][0], rtol=0, atol=1e-12)


def packed_batch(data, L=N_LABELS):
    """A drawn batch of titles of 1-6 tokens plus a 1-token one, sorted
    longest first: its lengths, per-step row counts, random right-padded
    emissions (padded cells finite but not zero), gold ids and weights."""
    lengths = sorted(data.draw(st.lists(st.integers(1, 6), max_size=7)) + [1], reverse=True)
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    valid, counts = padded_layout([range(n) for n in lengths])
    emis = rng.normal(scale=2.0, size=valid.shape + (L,))
    ys = rng.integers(0, L, size=valid.shape)
    weights = rng.normal(size=(L, L)), rng.normal(size=L), rng.normal(size=L)
    return lengths, counts, emis, ys, weights


@given(st.data(), st.booleans())
def test_packed_crf_nll_equals_sum_of_single_title_calls(data, transitions):
    """One packed call over titles of mixed lengths gives the loss and
    gradients of one call per title, summed; padded positions get exactly
    zero emission gradient; without counts a call equals one that counts
    every row, bit for bit."""
    lengths, counts, emis, ys, weights = packed_batch(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        loss, grads = crf_nll(emis, ys, *weights, transitions, counts)
    want_loss = 0.0
    want = {name: np.zeros_like(grads[name]) for name in grads if name != "emissions"}
    for b, n in enumerate(lengths):
        one_loss, one = crf_nll(emis[b : b + 1, :n], ys[b : b + 1, :n], *weights, transitions)
        want_loss += one_loss
        np.testing.assert_allclose(grads["emissions"][b, :n], one["emissions"][0],
                                   rtol=1e-12, atol=1e-15)
        assert np.all(grads["emissions"][b, n:] == 0.0)
        for name in want:
            want[name] += one[name]
    assert loss == pytest.approx(want_loss, rel=1e-12)
    assert sorted(want) == (["start", "stop", "trans"] if transitions else [])
    for name in want:
        np.testing.assert_allclose(grads[name], want[name], rtol=1e-12, atol=1e-13)
    # a batch cut to the shortest title has every row in every step
    full = emis[:, : lengths[-1]], ys[:, : lengths[-1]]
    loss, grads = crf_nll(*full, *weights, transitions)
    counted_loss, counted = crf_nll(*full, *weights, transitions, [len(lengths)] * lengths[-1])
    assert loss == counted_loss
    assert grads.keys() == counted.keys()
    for name in grads:
        np.testing.assert_array_equal(grads[name], counted[name])


@given(st.data(), st.sampled_from(["normal", "rounded", "zero transitions"]))
def test_packed_viterbi_equals_single_title_paths(data, scores):
    """A packed Viterbi call gives each title its one-title path exactly, also
    under ties (rounded scores, per-position argmax with zero transitions),
    and repeats its last label over the padding."""
    lengths, counts, emis, _, weights = packed_batch(data)
    if scores != "normal":
        emis, weights = np.round(emis), tuple(np.round(w) for w in weights)
    if scores == "zero transitions":
        weights = tuple(np.zeros_like(w) for w in weights)
    paths = viterbi_path(emis, *weights, counts)
    for b, n in enumerate(lengths):
        assert paths[b, :n].tolist() == viterbi_path(emis[b, :n], *weights)
        assert np.all(paths[b, n:] == paths[b, n - 1])
    full = emis[:, : lengths[-1]]
    np.testing.assert_array_equal(viterbi_path(full, *weights),
                                  viterbi_path(full, *weights, [len(lengths)] * lengths[-1]))


def test_packed_layout_needs_titles_sorted_longest_first():
    valid, counts = padded_layout([(1, 2, 3), (4,), (5,)])
    assert valid.tolist() == [[True] * 3, [True, False, False], [True, False, False]]
    assert counts.tolist() == [3, 1, 1]
    with pytest.raises(ValueError, match="longest first"):
        padded_layout([(1,), (2, 3)])


def as_rows(ids, counts):
    """featurize's (ids, counts) as one list of feature ids per position."""
    return [part.tolist() for part in np.split(ids, np.cumsum(counts)[:-1])]


def as_flat(rows):
    """One list of feature ids per position as featurize's (ids, counts)."""
    return (np.array([fid for r in rows for fid in r], dtype=np.int32),
            np.array([len(r) for r in rows], dtype=np.int32))


def loop_nll(model, ex, rows):
    """One title's objective as loops: emissions position by position and a
    dict scatter of the emission gradient over feature ids."""
    from titletag.crf import crf_nll

    emis = np.array([model._emit[ids].sum(axis=0) if ids else np.zeros(N_LABELS) for ids in rows])
    ys = np.array([ex.label_ids()])
    loss, grad = crf_nll(emis[None], ys, model.trans, model.start, model.stop)
    emit: dict[int, np.ndarray] = {}
    for ids, row in zip(rows, grad["emissions"][0]):
        for fid in ids:
            emit[fid] = emit[fid] + row if fid in emit else row.copy()
    return loss, emit


def test_group_nll_equals_sum_of_one_title_calls():
    """A group call sums the loss and gradients of its titles, and a one-title
    call equals the loop form exactly. The cases repeat features across
    titles and positions, include an all-<unk> title, a T = 1 group and a
    position without features."""
    rng = np.random.default_rng(24)
    groups = [
        [
            example(("sales", "sales", "manager"), ("B-FUN", "E-FUN", "S-RES")),
            example(("sales", "director", "sales"), ("S-FUN", "S-RES", "S-FUN")),
            example(("<unk>", "<unk>", "<unk>"), ("O", "O", "O")),
            example(("head", "of", "sales"), ("S-RES", "O", "S-FUN")),
        ],
        [example(("manager",), ("S-RES",)), example(("sales",), ("S-FUN",)),
         example(("<unk>",), ("O",))],
    ]
    model = CrfModel(kind="crf")
    rows = [[as_rows(*model.featurize(ex.tokens, extend=True)) for ex in group] for group in groups]
    rows[0][3][2] = []  # a last position whose features are all unknown to the model
    model._emit[: len(model.vocab)] = rng.normal(size=(len(model.vocab), N_LABELS))
    model.trans = rng.normal(size=(N_LABELS, N_LABELS))
    model.start = rng.normal(size=N_LABELS)
    model.stop = rng.normal(size=N_LABELS)

    for group, group_rows in zip(groups, rows):
        flat = [as_flat(r) for r in group_rows]
        assert max(np.bincount(np.concatenate([ids for ids, _ in flat]))) > 2
        loss, grad = nll_and_gradient(
            model, group, np.concatenate([ids for ids, _ in flat]),
            np.concatenate([counts for _, counts in flat]),
        )
        want_loss = 0.0
        want = {name: np.zeros_like(grad[name]) for name in ("trans", "start", "stop")}
        want_emit: dict[int, np.ndarray] = {}
        for ex, r, (ids, counts) in zip(group, group_rows, flat):
            one_loss, one = nll_and_gradient(model, [ex], ids, counts)
            loop_loss, loop_emit = loop_nll(model, ex, r)
            assert one_loss == loop_loss
            assert one["emit"][0].tolist() == sorted(loop_emit)
            for fid, row in zip(one["emit"][0].tolist(), one["emit"][1]):
                np.testing.assert_array_equal(row, loop_emit[fid])
                want_emit[fid] = want_emit.get(fid, 0.0) + row
            want_loss += one_loss
            for name in want:
                want[name] += one[name]
        assert loss == pytest.approx(want_loss, rel=1e-12)
        for name in want:
            np.testing.assert_allclose(grad[name], want[name], rtol=0, atol=1e-12)
        touched, emit_rows = grad["emit"]
        assert touched.tolist() == sorted(want_emit)
        for fid, row in zip(touched.tolist(), emit_rows):
            np.testing.assert_allclose(row, want_emit[fid], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", ["crf", "logreg"])
def test_mixed_length_batch_equals_sum_of_one_title_calls(kind):
    """One nll_and_gradient call on a batch of mixed lengths, longest first,
    gives the summed loss, emission rows and trans/start/stop gradients of
    one call per title; titles must come longest first."""
    rng = np.random.default_rng(25)
    batch = [
        example(("head", "of", "asia", "sales"), ("S-RES", "O", "S-LOC", "S-FUN")),
        example(("sales", "sales", "manager"), ("B-FUN", "E-FUN", "S-RES")),
        example(("<unk>", "<unk>", "<unk>"), ("O", "O", "O")),
        example(("sales", "director"), ("S-FUN", "S-RES")),
        example(("manager",), ("S-RES",)),
        example(("sales",), ("S-FUN",)),
    ]
    model = CrfModel(kind=kind)
    feats = [model.featurize(ex.tokens, extend=True) for ex in batch]
    model._emit[: len(model.vocab)] = rng.normal(size=(len(model.vocab), N_LABELS))
    if kind == "crf":
        model.trans = rng.normal(size=(N_LABELS, N_LABELS))
        model.start = rng.normal(size=N_LABELS)
        model.stop = rng.normal(size=N_LABELS)
    ids, counts = map(np.concatenate, zip(*feats))
    loss, grad = nll_and_gradient(model, batch, ids, counts)

    want_loss, want_emit = 0.0, {}
    want = {name: np.zeros_like(grad[name]) for name in grad if name != "emit"}
    for ex, (one_ids, one_counts) in zip(batch, feats):
        one_loss, one = nll_and_gradient(model, [ex], one_ids, one_counts)
        want_loss += one_loss
        for fid, row in zip(one["emit"][0].tolist(), one["emit"][1]):
            want_emit[fid] = want_emit.get(fid, 0.0) + row
        for name in want:
            want[name] += one[name]
    assert sorted(want) == (["start", "stop", "trans"] if kind == "crf" else [])
    assert loss == pytest.approx(want_loss, rel=1e-12)
    for name in want:
        np.testing.assert_allclose(grad[name], want[name], rtol=1e-12, atol=1e-12)
    touched, emit_rows = grad["emit"]
    assert touched.tolist() == sorted(want_emit)
    for fid, row in zip(touched.tolist(), emit_rows):
        np.testing.assert_allclose(row, want_emit[fid], rtol=1e-12, atol=1e-12)
    with pytest.raises(ValueError, match="longest first"):
        nll_and_gradient(model, batch[::-1], ids, counts)


def test_cached_training_registers_features_in_uncached_order():
    """Training featurizes each post-dropout title once; the vocab still
    lists features in the order featurizing every title every epoch gives."""
    data = [
        example(("chief", "financial", "officer"), ("S-RES", "S-FUN", "S-RES")),
        example(("vice", "president"), ("B-RES", "E-RES")),
        example(("head", "of", "sales"), ("S-RES", "O", "S-FUN")),
        example(("asia", "pacific", "manager"), ("B-LOC", "E-LOC", "S-RES")),
        example(("director",), ("S-RES",)),
    ]
    cfg = TrainConfig(learning_rate=0.1, batch_size=2, epochs=6, seed=9, word_dropout=0.4)
    model = train_crf(data, cfg)

    # replay the draws of optim.fit: a permutation per epoch, then one
    # dropout draw per title in batch order
    rng = np.random.default_rng(cfg.seed)
    uncached = CrfModel(kind="crf")
    seen = set()
    for _ in range(cfg.epochs):
        for j in rng.permutation(len(data)):
            tokens = apply_word_dropout(data[j].tokens, cfg.word_dropout, rng)
            uncached.featurize(tokens, extend=True)
            seen.add(tokens)
    assert len(seen) > len(data)  # some titles were drawn with different dropouts
    assert model.vocab.features == uncached.vocab.features


def test_equal_grid_points_train_equal_models():
    """The feature cache lives in one training run: a point trained after a
    different one equals the same point trained first."""
    from titletag.evaluation import grid_search

    data = [
        example(("chief", "sales"), ("S-RES", "S-FUN")),
        example(("asia", "head"), ("S-LOC", "S-RES")),
        example(("sales", "director", "asia"), ("S-FUN", "S-RES", "S-LOC")),
    ]
    models = []

    def trainer(train_data, cfg):
        models.append(train_crf(train_data, cfg))
        return models[-1]

    base = TrainConfig(batch_size=2, epochs=3, word_dropout=0.3, optimizer="adam")
    grid_search(trainer, {"seed": [1, 2, 1]}, data, data, base=base)
    first, other, again = models
    assert first.vocab.features == again.vocab.features
    assert first.vocab.features != other.vocab.features
    for name in ("emission_weights", "trans", "start", "stop"):
        np.testing.assert_array_equal(getattr(first, name), getattr(again, name))


def test_adam_updates_only_touched_rows():
    """Lazy Adam: a step gives new moments and weights to the rows in the
    gradient, each as the one-row update would, and leaves every other row
    bit-unchanged; moments shorter than the table grow with zero rows."""
    rng = np.random.default_rng(25)
    model = CrfModel(kind="crf", capacity=8)
    for k in range(8):
        model.vocab.add(f"f{k}")
    model._emit[:] = rng.normal(size=model._emit.shape)
    moments = {"_emit": (rng.normal(size=(6, N_LABELS)), rng.random(size=(6, N_LABELS)))}
    before = {"emit": model._emit.copy()}
    for name, now in zip("mv", moments["_emit"]):
        before[name] = np.vstack([now, np.zeros((2, N_LABELS))])
    touched = np.array([1, 4, 7])
    rows = rng.normal(size=(3, N_LABELS))
    cfg = TrainConfig(learning_rate=0.05, optimizer="adam")
    _apply_step(model, {"_emit": (touched, rows)}, 0.5, cfg, moments, 4)

    m_emit, v_emit = moments["_emit"]
    untouched = np.setdiff1d(np.arange(8), touched)
    for name, now in (("emit", model._emit), ("m", m_emit), ("v", v_emit)):
        assert now.shape == (8, N_LABELS)
        np.testing.assert_array_equal(now[untouched], before[name][untouched])
    b1, b2 = ADAM_B1, ADAM_B2
    for fid, g in zip(touched, rows * 0.5):
        m = b1 * before["m"][fid] + (1 - b1) * g
        v = b2 * before["v"][fid] + (1 - b2) * g * g
        step = 0.05 * (m / (1 - b1**4)) / (np.sqrt(v / (1 - b2**4)) + ADAM_EPS)
        np.testing.assert_array_equal(m_emit[fid], m)
        np.testing.assert_array_equal(v_emit[fid], v)
        np.testing.assert_array_equal(model._emit[fid], before["emit"][fid] - step)
    np.testing.assert_array_equal(model.trans, 0.0)


@pytest.mark.parametrize("optimizer", ["sgd", "adam"])
@pytest.mark.parametrize("kind", ["crf", "logreg"])
def test_kind_decides_whether_transitions_train(kind, optimizer):
    """logreg keeps trans/start/stop exactly 0 under either optimizer; the
    CRF trains them."""
    data = [
        example(("chief", "officer"), ("B-RES", "E-RES")),
        example(("sales", "head"), ("S-FUN", "S-RES")),
        example(("asia", "sales", "lead"), ("S-LOC", "S-FUN", "S-RES")),
    ]
    cfg = TrainConfig(learning_rate=0.05, batch_size=2, epochs=3, optimizer=optimizer, seed=2)
    model = (train_crf if kind == "crf" else train_logreg)(data, cfg)
    assert np.any(model.emission_weights != 0.0)
    for name in ("trans", "start", "stop"):
        assert np.any(getattr(model, name) != 0.0) == (kind == "crf"), name


def test_crf_memorizes_small_dataset():
    data = [
        example(("chief", "financial", "officer"), ("S-RES", "S-FUN", "S-RES")),
        example(("vice", "president"), ("B-RES", "E-RES")),
        example(("head", "of", "sales"), ("S-RES", "O", "S-FUN")),
        example(("asia", "pacific", "manager"), ("B-LOC", "E-LOC", "S-RES")),
        example(("senior", "marketing", "director"), ("S-RES", "S-FUN", "S-RES")),
        example(("china", "sales", "lead"), ("S-LOC", "S-FUN", "S-RES")),
    ]
    cfg = TrainConfig(learning_rate=0.5, batch_size=2, epochs=80, optimizer="sgd", seed=3,
                      word_dropout=0.0)
    model = train_crf(data, cfg)
    assert model.history[-1] < 0.01
    for ex in data:
        assert model.predict(ex.tokens) == ex.labels
    assert model.vocab.frozen


def test_logreg_fits_dictionary_corpus(sample_gaz):
    corpus = synth_corpus(sample_gaz, grammar_seed=5, count=400)
    data = [auto_tag(t, sample_gaz) for t in corpus.titles]
    cfg = TrainConfig(learning_rate=0.5, batch_size=16, epochs=20, optimizer="sgd", seed=0,
                      word_dropout=0.0)
    model = train_logreg(data, cfg, gazetteer=sample_gaz)
    np.testing.assert_array_equal(model.trans, 0.0)
    np.testing.assert_array_equal(model.start, 0.0)
    assert evaluate(model, data).em_token >= 99.0


def test_adam_reduces_loss():
    data = [
        example(("chief", "officer"), ("B-RES", "E-RES")),
        example(("sales", "head"), ("S-FUN", "S-RES")),
    ]
    cfg = TrainConfig(learning_rate=0.05, batch_size=2, epochs=30, optimizer="adam", seed=1,
                      word_dropout=0.0)
    model = train_crf(data, cfg)
    assert model.history[-1] < model.history[0]
    assert model.history[-1] < 0.2


def test_training_diverges_cleanly():
    # conflicting labels on identical features keep gradients alive, so an
    # absurd step size drives the weights past float range
    data = [
        example(("a", "b"), ("O", "O")),
        example(("a", "b"), ("S-RES", "S-FUN")),
    ]
    cfg = TrainConfig(learning_rate=1e307, batch_size=1, epochs=8, optimizer="sgd", seed=0,
                      word_dropout=0.0)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(TrainingDivergedError):
            train_crf(data, cfg)


def test_word_dropout():
    rng = np.random.default_rng(0)
    tokens = ("a", "b", "c", "d")
    assert apply_word_dropout(tokens, 0.0, rng) == tokens
    dropped = apply_word_dropout(tokens, 0.99, rng)
    assert "<unk>" in dropped
    assert len(dropped) == len(tokens)
    r1 = apply_word_dropout(tokens, 0.5, np.random.default_rng(42))
    r2 = apply_word_dropout(tokens, 0.5, np.random.default_rng(42))
    assert r1 == r2


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(learning_rate=0.0)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(optimizer="rmsprop")
    with pytest.raises(ValueError):
        TrainConfig(word_dropout=1.0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=-1.0)
    assert TrainConfig(clip_norm=None).clip_norm is None


def test_save_load_roundtrip(tmp_path, sample_gaz):
    data = [
        example(("chief", "sales"), ("S-RES", "S-FUN")),
        example(("asia", "head"), ("S-LOC", "S-RES")),
    ]
    cfg = TrainConfig(learning_rate=0.5, batch_size=2, epochs=20, seed=5, word_dropout=0.0)
    model = train_crf(data, cfg, gazetteer=sample_gaz)
    path = tmp_path / "m.bin"
    model.save(path)
    again = CrfModel.load(path, gazetteer=sample_gaz)
    assert again.kind == "crf"
    for ex in data:
        assert again.predict(ex.tokens) == model.predict(ex.tokens)
    # the saved model remembers it needs the dictionary
    with pytest.raises(ValueError):
        CrfModel.load(path)


def test_load_rejects_other_kinds(tmp_path):
    from titletag import model_io

    path = tmp_path / "x.bin"
    model_io.save_model(path, "bilm", {"labels": []}, {})
    with pytest.raises(ValueError):
        CrfModel.load(path)


def test_unseen_features_ignored_after_freeze():
    data = [example(("alpha", "beta"), ("S-RES", "S-FUN"))]
    cfg = TrainConfig(learning_rate=0.5, batch_size=1, epochs=10, seed=0, word_dropout=0.0)
    model = train_crf(data, cfg)
    # tokens never seen in training still decode without growing the vocab
    n_before = len(model.vocab)
    model.predict(("gamma", "delta", "epsilon"))
    assert len(model.vocab) == n_before


def reference_emissions(model, tokens):
    """Emissions position by position: the weight rows of a position's known
    features summed in feature order, as a plain Python sum."""
    rows = []
    for i in range(len(tokens)):
        fids = [model.vocab.get(f) for f in extract_features(tokens, i, model.gazetteer)]
        rows.append(sum((model._emit[fid] for fid in fids if fid is not None), np.zeros(N_LABELS)))
    return np.array(rows)


@pytest.mark.parametrize("kind", ["crf", "logreg"])
@pytest.mark.parametrize("use_gaz", [False, True])
def test_emissions_equal_the_per_position_sum_bitwise(kind, use_gaz, sample_gaz):
    """emissions() and a chunk's emission_rows() equal the per-position sum
    bit for bit, on a frozen vocab, including positions whose features are
    all unseen."""
    data = [
        example(("chief", "financial", "officer"), ("S-RES", "S-FUN", "S-RES")),
        example(("vice", "president"), ("B-RES", "E-RES")),
        example(("head", "of", "sales"), ("S-RES", "O", "S-FUN")),
        example(("asia", "pacific", "sales", "manager"), ("B-LOC", "E-LOC", "S-FUN", "S-RES")),
    ]
    train = train_crf if kind == "crf" else train_logreg
    cfg = TrainConfig(learning_rate=0.1, batch_size=2, epochs=3, seed=5)
    model = train(data, cfg, gazetteer=sample_gaz if use_gaz else None)
    assert model.vocab.frozen
    unseen = ("9x7", "8y6", "7z5", "6w4", "5v3")
    titles = [ex.tokens for ex in data] + [unseen, ("sales", "9x7", "8y6"), ("officer",)]
    n_vocab = len(model.vocab)
    for tokens in titles:
        ids, counts = model.featurize(tokens)
        assert ids.dtype == counts.dtype == np.int32
        assert len(counts) == len(tokens) and counts.sum() == len(ids)
        got, want = model.emissions(tokens), reference_emissions(model, tokens)
        np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert len(model.vocab) == n_vocab
    if not use_gaz:
        assert model.featurize(unseen)[1][2] == 0  # the middle of five unseen tokens

    three = [tokens for tokens in titles if len(tokens) == 3]
    ids, counts = map(np.concatenate, zip(*(model.featurize(tokens) for tokens in three)))
    got = model.emission_rows(ids, counts)
    want = np.concatenate([reference_emissions(model, tokens) for tokens in three])
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
