"""Tests of the benchmark's own checks, reference forward, inputs and spans.

    python3 -m pytest perfbench -q
"""

import math
import random
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

from traitgru import data, train, viz  # noqa: E402
from traitgru.data import normalize_tweet, tokenize  # noqa: E402
from traitgru.model import DropoutPlan, ModelKind, Regressor  # noqa: E402
from traitgru.rng import SplitMix64  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from inputs import tweet_lines  # noqa: E402

KIND = ModelKind.C2W2S4PT


def tiny_regressor(seed: int, texts):
    """Random small c2w2s4pt with non-zero biases, vocabulary from texts."""
    rng = random.Random(seed)
    records = [data.RawRecord("u", t, data.TraitScores(0.1, 0, 0, 0, 0)) for t in texts]
    tweets, _ = data.build_tweets(records)
    cfg = train.TrainConfig(char_dim=rng.randint(1, 5), hidden_size=rng.randint(1, 6),
                            mlp_dim=rng.randint(1, 4), seed=seed)
    vocab = train.build_vocab_for(KIND, tweets[: max(1, len(tweets) // 2)])
    params = train.init_params(KIND, train.model_dims(KIND, cfg, vocab), seed)
    reg = Regressor(KIND, params, vocab)
    noise = np.random.default_rng(seed)
    for name, a in reg.tensors().items():
        if name.rsplit(".", 1)[-1].startswith("b_"):
            a[...] = noise.uniform(-0.5, 0.5, a.shape)
    return reg, tweets


# --- reference forward -------------------------------------------------------

@pytest.mark.parametrize("seed", range(8))
def test_reference_forward_matches_program(seed):
    texts = [ln.text for ln in tweet_lines(seed, 12) if ln.tokens]
    reg, tweets = tiny_regressor(seed, texts)
    t, vocab = reg.tensors(), reg.vocab
    for tw in tweets:
        ref = checks.reference_score(t, vocab.char_to_id, vocab.unk_id, tw.tokens)
        assert abs(reg.score(tw) - ref) <= 1e-12
        emb = checks.reference_embedding(t, vocab.char_to_id, vocab.unk_id, tw.tokens)
        np.testing.assert_allclose(reg.embedding(tw), emb, rtol=0, atol=1e-12)


def test_reference_forward_sees_a_changed_weight():
    reg, tweets = tiny_regressor(3, ["hello world !", "abc def"])
    t = {k: a.copy() for k, a in reg.tensors().items()}
    ids, unk, tokens = reg.vocab.char_to_id, reg.vocab.unk_id, tweets[0].tokens
    before = checks.reference_embedding(t, ids, unk, tokens)
    for name in ("char_fwd.u_r", "word_bwd.u_h", "word_fwd.w_z"):
        t[name] += 0.01
        after = checks.reference_embedding(t, ids, unk, tokens)
        assert np.max(np.abs(before - after)) > 1e-9, name
        before = after


# --- cv-tiny -----------------------------------------------------------------

def cv_case():
    labels = [(-0.3 + 0.1 * (i % 9)) for i in range(20)]
    folds = [[(i, labels[i] + 0.01) for i in range(f, 20, 4)] for f in range(4)]
    pooled = 0.01
    return labels, folds, pooled


def test_check_cv_passes_and_measures():
    labels, folds, pooled = cv_case()
    failures, got, base = checks.check_cv(labels, folds, pooled)
    assert failures == [] and abs(got - 0.01) < 1e-15 and base > 0.2


@pytest.mark.parametrize("perturb", ["duplicate", "missing", "nan", "baseline", "reported"])
def test_check_cv_fails_on_perturbed_output(perturb):
    labels, folds, pooled = cv_case()
    if perturb == "duplicate":
        folds[0][0] = folds[1][0]
    elif perturb == "missing":
        folds[2].pop()
    elif perturb == "nan":
        folds[3][1] = (folds[3][1][0], math.nan)
    elif perturb == "baseline":
        mean = sum(labels) / len(labels)
        folds = [[(i, mean) for i, _ in fold] for fold in folds]
    else:
        pooled += 1e-9
    failures, _, _ = checks.check_cv(labels, folds, pooled)
    assert failures


# --- train-paper -------------------------------------------------------------

def test_check_train_passes():
    assert checks.check_train([0.2, 0.19], [b"a", b"a"], b"a", 3e-7) == []


@pytest.mark.parametrize("perturb", ["loss", "empty", "rounds", "roundtrip", "gradient"])
def test_check_train_fails_on_perturbed_output(perturb):
    losses, digests, reloaded, rel = [0.2, 0.19], [b"a", b"a"], b"a", 3e-7
    if perturb == "loss":
        losses[1] = math.inf
    elif perturb == "empty":
        digests = []
    elif perturb == "rounds":
        digests[1] = b"b"
    elif perturb == "roundtrip":
        reloaded = b"b"
    else:
        rel = 2e-4
    assert checks.check_train(losses, digests, reloaded, rel)


class ScaledBackward:
    """A regressor whose backward pass is off by a factor."""

    def __init__(self, reg, factor):
        self.reg, self.params, self.factor = reg, reg.params, factor

    def tensors(self):
        return self.reg.tensors()

    def forward(self, tweet, dropout=None):
        return self.reg.forward(tweet, dropout)

    def backward(self, trace, d_y, grads=None):
        return self.reg.backward(trace, self.factor * d_y, grads)


def test_directional_derivative_with_replayed_masks():
    texts = [ln.text for ln in tweet_lines(5, 6) if ln.tokens]
    reg, tweets = tiny_regressor(5, texts)
    ys = [0.2, -0.1, 0.3][: len(tweets[:3])]

    def masks_for(i):
        return DropoutPlan(0.5, SplitMix64(9).derive(f"tweet{i}"))

    good = checks.directional_derivative_error(reg, tweets[:3], ys, masks_for, seed=4)
    assert good < 1e-6
    bad = checks.directional_derivative_error(ScaledBackward(reg, 1.001), tweets[:3], ys,
                                              masks_for, seed=4)
    assert bad >= checks.GRADIENT_TOLERANCE


# --- score-paper -------------------------------------------------------------

def predict_case():
    tokens = [("a",), (), ("b", "c"), ()]
    out = ["0.123457", "NA", "-0.500000", "NA"]
    ref = {0: 0.1234567, 2: -0.4999999}
    return out, tokens, ref


def test_check_predict_lines_passes():
    assert checks.check_predict_lines(*predict_case()) == []


@pytest.mark.parametrize("perturb", ["na_for_text", "score_for_blank", "off", "count", "junk"])
def test_check_predict_lines_fails_on_perturbed_output(perturb):
    out, tokens, ref = predict_case()
    if perturb == "na_for_text":
        out[0] = "NA"
    elif perturb == "score_for_blank":
        out[1] = "0.000000"
    elif perturb == "off":
        out[2] = "-0.499998"
    elif perturb == "count":
        out.pop()
    else:
        out[0] = "nan?"
    assert checks.check_predict_lines(out, tokens, ref)


def test_check_scores():
    ref = {3: 0.25, 7: -0.125}
    assert checks.check_scores({3: 0.25 + 5e-10, 7: -0.125}, ref) == []
    assert checks.check_scores({3: 0.25 + 2e-9, 7: -0.125}, ref)


def pca_case():
    rng = np.random.default_rng(11)
    x = rng.normal(size=(12, 6)) * np.array([5.0, 3.0, 1.0, 0.5, 0.2, 0.1])
    model = viz.pca_fit(x)
    labels = ["LOW"] * 6 + ["HIGH"] * 6
    points = [(*viz.pca_project(model, v), lab) for v, lab in zip(x, labels)]
    return points, labels, x


def test_check_pca_passes_up_to_sign():
    points, labels, x = pca_case()
    assert checks.check_pca(points, labels, x) == []
    flipped = [(-a, b, lab) for a, b, lab in points]
    assert checks.check_pca(flipped, labels, x) == []


@pytest.mark.parametrize("perturb", ["coordinate", "label", "swap"])
def test_check_pca_fails_on_perturbed_output(perturb):
    points, labels, x = pca_case()
    if perturb == "coordinate":
        a, b, lab = points[4]
        points[4] = (a, b + 1e-4, lab)
    elif perturb == "label":
        a, b, _ = points[0]
        points[0] = (a, b, "HIGH")
    else:
        points = [(b, a, lab) for a, b, lab in points]
    assert checks.check_pca(points, labels, x)


# --- gradcheck ---------------------------------------------------------------

def test_parse_gradcheck():
    assert checks.parse_gradcheck("max relative error: 2.345e-06\n") == 2.345e-06
    assert math.isnan(checks.parse_gradcheck("error: boom\n"))


def test_check_gradcheck_passes():
    results = {"c2w2s4pt": (0, 3e-6), "bigru-char": (0, 1e-7)}
    assert checks.check_gradcheck(results, 1e-8, 0.5) == []


@pytest.mark.parametrize("perturb", ["exit", "error", "nan", "clean", "corrupt"])
def test_check_gradcheck_fails_on_perturbed_output(perturb):
    results, clean, corrupt = {"c2w2s4pt": (0, 3e-6)}, 1e-8, 0.5
    if perturb == "exit":
        results["c2w2s4pt"] = (1, 3e-6)
    elif perturb == "error":
        results["c2w2s4pt"] = (0, 2e-4)
    elif perturb == "nan":
        results["c2w2s4pt"] = (0, math.nan)
    elif perturb == "clean":
        clean = 1e-3
    else:
        corrupt = 1e-6
    assert checks.check_gradcheck(results, clean, corrupt)


@pytest.mark.parametrize("kind", sorted(workloads.Gradcheck.PASSES))
def test_gradcheck_passes_per_round(kind, monkeypatch):
    """Every single-tweet pass of gradcheck is one Regressor.forward call."""
    calls = []
    forward = Regressor.forward

    def counted(self, *args, **kwargs):
        calls.append(1)
        return forward(self, *args, **kwargs)

    monkeypatch.setattr(Regressor, "forward", counted)
    w = workloads.Gradcheck
    assert train.grad_check(kind, w.TRIALS, seed=w.SEED) < 1e-4
    assert len(calls) == w.PASSES[kind]


# --- inputs ------------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 77])
def test_expected_tokens_match_the_tokenizer(seed):
    lines = tweet_lines(seed, 200)
    assert lines == tweet_lines(seed, 200)
    for ln in lines:
        assert tuple(tokenize(normalize_tweet(ln.text))) == ln.tokens, ln.text
        assert ln.text.splitlines() in ([ln.text], [])
    assert [i for i, ln in enumerate(lines) if not ln.tokens] == [39, 79, 119, 159, 199]


def test_length_multiset_is_seed_independent():
    def counts(seed):
        # Lines overshoot their drawn count by at most one token.
        return sorted(len(ln.tokens) for ln in tweet_lines(seed, 120) if ln.tokens)

    a, b = counts(1), counts(2)
    assert all(abs(x - y) <= 1 for x, y in zip(a, b))


# --- spans -------------------------------------------------------------------

class TickClock:
    """A clock that advances by one per reading."""

    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_self_times_add_up_and_install_restores():
    from traitgru import gru, model

    original = (gru.rnn_unroll, model.Regressor.forward, gru.gru_forward)
    reg, tweets = tiny_regressor(2, ["ab c", "de"])
    tracer = spans.Tracer(TickClock())
    tracer.install()
    try:
        assert gru.rnn_unroll is not original[0]
        with tracer.span("bench.setup"):
            reg.score(tweets[0])
        tracer.phase = spans.TIMED
        for _ in range(2):
            with tracer.span("bench.round"):
                reg.score(tweets[1])
    finally:
        tracer.uninstall()
    assert (gru.rnn_unroll, model.Regressor.forward, gru.gru_forward) == original
    table = tracer.table(rounds=2)
    roots = [e - s for s, e, p in zip(tracer.start, tracer.end, tracer.parent) if p < 0]
    assert table["self_sum"] == sum(roots)
    # "de" has one word of two characters: per round one forward call and
    # four cell steps over characters plus two over the word.
    assert table["spans"]["model.forward"]["calls"] == 1 + 1
    steps_setup = 2 * (2 + 1) + 2 * 2
    assert table["spans"]["gru.gru_forward"]["calls"] == steps_setup + 6
    assert table["counters"]["gru.gflop"] > 0


# --- host-speed adjustment ---------------------------------------------------

def test_host_adjusted_rate_cancels_host_speed():
    import run

    ref = run.hostspeed.REF_CHUNK_S
    done = [(2.0, 100), (3.0, 150)]
    assert run._host_adjusted_rate(done, [ref, ref, ref]) == pytest.approx(50.0)
    # The same work on a host half as fast: rounds and chunks take twice as long.
    slow = [(2 * t, p) for t, p in done]
    assert run._host_adjusted_rate(slow, [2 * ref] * 3) == pytest.approx(50.0)
    # A round is scaled by the chunks just before and after it only.
    mixed = [(2.0, 100), (6.0, 150)]
    assert run._host_adjusted_rate(mixed, [ref, ref, 3 * ref]) == pytest.approx(50.0)
