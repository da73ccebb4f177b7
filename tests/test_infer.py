"""Trace-free scoring packed across tweets (Regressor.score_many) against
the traced one-tweet forward pass."""

import io
from types import SimpleNamespace

import numpy as np
import pytest

from traitgru import model as M
from traitgru.cli import main
from traitgru.data import TraitScores, Tweet
from traitgru.gru import BiRnnParams, birnn_final, birnn_forward, birnn_output
from traitgru.model import TRAINABLE_KINDS, MlpHead, ModelKind, Regressor, mlp_forward
from traitgru.rng import SplitMix64
from traitgru.train import TrainConfig, build_vocab_for, init_params, model_dims

from .test_gru import random_params


def mk(*tokens) -> Tweet:
    return Tweet("u1", " ".join(tokens), tuple(tokens), TraitScores(0, 0, 0, 0, 0))


# Mixed tweet and word lengths, a one-token tweet, one-character words,
# and repeated tweets.
TWEETS = [
    mk("hello", "there", "!!"),
    mk("a"),
    mk("b", "c", "d"),
    mk("abcdefghij", "x"),
    mk("so", "happy", "today", "!!!", ":)", "#yay"),
    mk("a"),
    mk("hello", "there", "!!"),
    mk("q", "zz", "qqq", "zzzz", "q"),
]


def regressor(kind, h=3, seed=4) -> Regressor:
    vocab = build_vocab_for(kind, TWEETS[:5])  # unseen units map to UNK
    cfg = TrainConfig(char_dim=3, hidden_size=h, mlp_dim=4, word_dim=3, seed=seed)
    return Regressor(kind, init_params(kind, model_dims(kind, cfg, vocab), seed), vocab)


def per_tweet(reg, tweets):
    return (np.array([reg.score(tw) for tw in tweets]),
            np.array([reg.embedding(tw) for tw in tweets]))


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
@pytest.mark.parametrize("h", [3, 16])
def test_score_many_matches_score_and_embedding(kind, h):
    reg = regressor(kind, h)
    scores, embeddings = reg.score_many(TWEETS)
    want_scores, want_embeddings = per_tweet(reg, TWEETS)
    assert scores.shape == (len(TWEETS),) and embeddings.shape == want_embeddings.shape
    np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(embeddings, want_embeddings, rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_order_is_preserved(kind):
    reg = regressor(kind)
    order = [5, 2, 7, 0, 3, 1, 6, 4]
    scores, embeddings = reg.score_many([TWEETS[i] for i in order])
    all_scores, all_embeddings = reg.score_many(TWEETS)
    np.testing.assert_allclose(scores, all_scores[order], rtol=0, atol=1e-12)
    np.testing.assert_allclose(embeddings, all_embeddings[order], rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_chunk_boundaries_and_a_tweet_over_the_budget(kind, monkeypatch):
    reg = regressor(kind)
    top = reg.params.levels[-1]
    units = [len(reg.unit_ids(tw)[0]) for tw in TWEETS]
    row_bytes = 24 * max(rnn.hidden_size for rnn in reg.params.levels)
    # The longest tweet alone is over the budget, and all need several chunks.
    budget = (max(units) - 1) * row_bytes
    monkeypatch.setattr(M, "SCORE_BUDGET_BYTES", budget)
    chunks = []
    real = M.birnn_final

    def spy(p, xs, lengths):
        if p is top:
            chunks.append(list(lengths))
        return real(p, xs, lengths)

    monkeypatch.setattr(M, "birnn_final", spy)
    scores, embeddings = reg.score_many(TWEETS)
    sizes = [len(c) for c in chunks]
    assert len(sizes) > 2 and sum(sizes) == len(TWEETS)
    # Greedy in order: a chunk fits the budget unless it is one tweet, and
    # the next tweet would not have fit.
    starts = np.cumsum([0] + sizes)
    for lo, hi in zip(starts[:-1], starts[1:]):
        assert hi - lo == 1 or sum(units[lo:hi]) * row_bytes <= budget
        assert hi == len(units) or sum(units[lo:hi + 1]) * row_bytes > budget
    longest = units.index(max(units))
    assert sizes[np.searchsorted(starts, longest, side="right") - 1] == 1
    want_scores, want_embeddings = per_tweet(reg, TWEETS)
    np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(embeddings, want_embeddings, rtol=0, atol=1e-12)


def test_small_dimensions_take_one_chunk(monkeypatch):
    reg = regressor(ModelKind.C2W2S4PT, h=16)
    calls = []
    real = M.birnn_final

    def spy(p, xs, lengths):
        calls.append(len(lengths))
        return real(p, xs, lengths)

    monkeypatch.setattr(M, "birnn_final", spy)
    reg.score_many(TWEETS * 20)
    assert calls == [sum(len(tw.tokens) for tw in TWEETS) * 20, len(TWEETS) * 20]


def test_paper_dimensions_match():
    kind = ModelKind.C2W2S4PT
    vocab = build_vocab_for(kind, TWEETS)
    cfg = TrainConfig(char_dim=50, hidden_size=256, mlp_dim=256, seed=9)
    reg = Regressor(kind, init_params(kind, model_dims(kind, cfg, vocab), 9), vocab)
    scores, embeddings = reg.score_many(TWEETS)
    want_scores, want_embeddings = per_tweet(reg, TWEETS)
    np.testing.assert_allclose(scores, want_scores, rtol=0, atol=1e-12)
    np.testing.assert_allclose(embeddings, want_embeddings, rtol=0, atol=1e-12)


def test_no_tweets():
    scores, embeddings = regressor(ModelKind.C2W2S4PT).score_many([])
    assert scores.shape == (0,) and embeddings.shape == (0, 6)


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_tweet_without_units_raises_like_unit_ids(kind):
    reg = regressor(kind)
    empty = SimpleNamespace(tokens=(), normalized_text="")  # Tweet itself refuses this
    with pytest.raises(ValueError) as direct:
        reg.unit_ids(empty)
    with pytest.raises(ValueError) as batched:
        reg.score_many([TWEETS[0], empty])
    assert str(batched.value) == str(direct.value)


def test_birnn_final_is_birnn_output_of_birnn_forward():
    rng = SplitMix64(12)
    p = BiRnnParams(random_params(rng, 3, 4), random_params(rng, 3, 4))
    lengths = [3, 1, 5, 5, 2, 1]
    xs = rng.uniforms(sum(lengths) * 3, -1, 1).reshape(-1, 3)
    np.testing.assert_array_equal(birnn_final(p, xs, lengths),
                                  birnn_output(birnn_forward(p, xs, lengths)))


def test_batched_head_keeps_the_finiteness_checks():
    head = MlpHead(w_eh=np.full((1, 2), 1e308), b_h=np.zeros(1),
                   w_hy=np.ones((1, 1)), b_y=np.zeros(1))
    with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError,
                                                     match="mlp head produced non-finite values"):
        mlp_forward(head, np.array([[0.5, 0.5], [1e308, 1e308]]))
    head = MlpHead(w_eh=np.full((2, 1), 1e308), b_h=np.zeros(2),
                   w_hy=np.full((1, 2), 10.0), b_y=np.zeros(1))
    with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                   match="mlp head .* non-finite score"):
        mlp_forward(head, np.array([[0.0], [1.0]]))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_score_many_with_a_non_finite_head_raises():
    reg = regressor(ModelKind.C2W2S4PT)
    reg.params.head.w_eh[...] = np.inf
    with pytest.raises(FloatingPointError, match="mlp head"):
        reg.score(TWEETS[0])
    with pytest.raises(FloatingPointError, match="mlp head"):
        reg.score_many(TWEETS)


def test_predict_stdin_prints_na_in_place(tmp_path, capsys, monkeypatch):
    from traitgru import checkpoint as C

    kind = ModelKind.C2W2S4PT
    reg = regressor(kind)
    path = tmp_path / "m.ckpt"
    C.save(C.Checkpoint(kind=kind, dims=model_dims(kind, TrainConfig(char_dim=3, hidden_size=3,
                                                                      mlp_dim=4), reg.vocab),
                        vocab=reg.vocab, config={}, tensors=reg.tensors()), path)
    lines = ["hello there !!", "", "a", "   ", "", "so happy today", " \t"]
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(ln + "\n" for ln in lines)))
    assert main(["predict", "--model", str(path), "--stdin"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == len(lines)
    assert [i for i, ln in enumerate(out) if ln == "NA"] == [1, 3, 4, 6]
    for i in (0, 2, 5):
        assert main(["predict", "--model", str(path), "--text", lines[i]]) == 0
        assert abs(float(capsys.readouterr().out) - float(out[i])) <= 1e-6


@pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
def test_final_rows_over_a_stack_equals_each_members_score_many(kind):
    # Four parameter vectors, the rows of one matrix, run the walk at once;
    # each member's sentence vectors and scores are its own score_many's,
    # bit for bit.
    reg = regressor(kind)
    dims = reg.params.dims
    stack = np.stack([regressor(kind, seed=s).params.flat for s in (4, 5, 6, 7)])
    stacked = M.empty_params(kind, dims, stack)
    for name, view in stacked.items():
        assert view.shape == (4, *reg.params[name].shape)
        assert np.shares_memory(view, stack), name
    rows = M.final_rows(stacked, [reg.unit_ids(tw) for tw in TWEETS])
    scores = mlp_forward(stacked.head, rows)[0]
    assert rows.shape == (4, len(TWEETS), 2 * dims[reg.params.spec.levels[-1][1]])
    for vec, member_rows, member_scores in zip(stack, rows, scores):
        member = Regressor(kind, M.empty_params(kind, dims, vec), reg.vocab)
        want_scores, want_rows = member.score_many(TWEETS)
        assert member_rows.tobytes() == want_rows.tobytes()
        assert member_scores.tobytes() == want_scores.tobytes()
