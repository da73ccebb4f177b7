import numpy as np
import pytest

from traitgru.data import CharVocab, TraitScores, Tweet, build_char_vocab
from traitgru.gru import BiRnnParams, GruParams, birnn_forward, birnn_output
from traitgru.model import (TRAINABLE_KINDS, DropoutPlan, MlpHead, ModelKind, ModelParams,
                            Regressor, build_params, head_forward, mse_loss)
from traitgru.rng import SplitMix64
from traitgru.train import TrainConfig, check_gradients, init_params, model_dims


def mk_tweet(text, user_id="u1", ext=0.0):
    from traitgru.data import normalize_tweet, tokenize

    normalized = normalize_tweet(text)
    return Tweet(user_id, normalized, tuple(tokenize(normalized)),
                 TraitScores(ext, 0, 0, 0, 0))


def tiny_model(vocab_size, d_c=2, h_c=2, h_w=2, m=2, seed=0, scheme="glorot"):
    dims = {"char_dim": d_c, "char_hidden": h_c, "word_hidden": h_w,
            "mlp_dim": m, "vocab_size": vocab_size}
    return init_params(ModelKind.C2W2S4PT, dims, seed, scheme)


def tiny_regressor(tweets, kind=ModelKind.C2W2S4PT, seed=0, **sizes):
    from traitgru.train import build_vocab_for

    vocab = build_vocab_for(kind, tweets)
    cfg = TrainConfig(char_dim=sizes.get("d", 2), hidden_size=sizes.get("h", 2),
                      mlp_dim=sizes.get("m", 2), word_dim=sizes.get("d", 2),
                      dropout_rate=0.0, seed=seed)
    dims = model_dims(kind, cfg, vocab)
    return Regressor(kind=kind, params=init_params(kind, dims, seed), vocab=vocab)


def encode(params, vocab, tokens):
    """The C2W2S4PT trace of a tweet of these tokens."""
    return Regressor(ModelKind.C2W2S4PT, params, vocab).forward(Tweet(
        "u1", " ".join(tokens), tuple(tokens), TraitScores(0, 0, 0, 0, 0)))[1]


def compose_word(params, vocab, word):
    """The word vector of one token, from the model's packed character pass."""
    return birnn_output(encode(params, vocab, (word,)).lower[0])[0]


class TestComposeWord:
    def test_zero_params_zero_vector(self):
        vocab = CharVocab({"a": 0, "b": 1})
        params = tiny_model(vocab.size, scheme="zeros")
        np.testing.assert_array_equal(compose_word(params, vocab, "ab"), np.zeros(4))

    def test_single_char_equals_length_one_encode(self):
        vocab = CharVocab({"a": 0})
        params = tiny_model(vocab.size, seed=3)
        expected = birnn_output(birnn_forward(params.levels[0],
                                              [params.table[:, vocab.id_of("a")]], [1]))[0]
        np.testing.assert_array_equal(compose_word(params, vocab, "a"), expected)

    def test_scalar_config_matches_manual_unroll(self):
        # h_c = 1 with hand-set weights; the oracle below re-derives the
        # cell arithmetic line by line, independent of the gru module.
        vocab = CharVocab({"a": 0, "b": 1})
        e_c = np.array([[0.3, -0.4, 0.0]])  # 1-dim embeddings

        def cell(w, u, b, x, h):
            import math

            z = 1 / (1 + math.exp(-(w[0] * x + u[0] * h + b[0])))
            r = 1 / (1 + math.exp(-(w[1] * x + u[1] * h + b[1])))
            hh = math.tanh(w[2] * x + r * (u[2] * h) + b[2])
            return z * h + (1 - z) * hh

        w_f, u_f, b_f = (0.5, -0.7, 0.9), (0.2, 0.3, -0.4), (0.1, 0.0, -0.1)
        w_b, u_b, b_b = (-0.6, 0.8, 0.4), (0.5, -0.2, 0.1), (0.0, 0.2, 0.3)

        def gp(w, u, b):
            return GruParams(
                w_z=np.array([[w[0]]]), w_r=np.array([[w[1]]]), w_h=np.array([[w[2]]]),
                u_z=np.array([[u[0]]]), u_r=np.array([[u[1]]]), u_h=np.array([[u[2]]]),
                b_z=np.array([b[0]]), b_r=np.array([b[1]]), b_h=np.array([b[2]]))

        params = ModelParams(
            ModelKind.C2W2S4PT, e_c,
            (BiRnnParams(gp(w_f, u_f, b_f), gp(w_b, u_b, b_b)),
             BiRnnParams(GruParams.zeros(2, 1), GruParams.zeros(2, 1))),
            MlpHead(w_eh=np.zeros((1, 2)), b_h=np.zeros(1),
                    w_hy=np.zeros((1, 1)), b_y=np.zeros(1)),
        )
        xs = [0.3, -0.4]  # embeddings of "a", "b"
        h = 0.0
        for x in xs:
            h = cell(w_f, u_f, b_f, x, h)
        fwd_last = h
        h = 0.0
        for x in reversed(xs):
            h = cell(w_b, u_b, b_b, x, h)
        bwd_last = h
        got = compose_word(params, vocab, "ab")
        np.testing.assert_allclose(got, [fwd_last, bwd_last], atol=1e-6)


class TestEncodeSentence:
    def test_one_token_sentence(self):
        vocab = CharVocab({"h": 0, "i": 1})
        params = tiny_model(vocab.size, seed=5)
        trace = encode(params, vocab, ("hi",))
        e_w = compose_word(params, vocab, "hi")
        np.testing.assert_array_equal(trace.e_s,
                                      birnn_output(birnn_forward(params.levels[1], [e_w], [1]))[0])
        assert birnn_output(trace.lower[0]).shape == (1, e_w.shape[0])

    def test_zero_params_zero_sentence(self):
        vocab = CharVocab({"a": 0})
        params = tiny_model(vocab.size, scheme="zeros")
        e_s = encode(params, vocab, ("a", "aa")).e_s
        np.testing.assert_array_equal(e_s, np.zeros(4))

    def test_two_token_scalar_matches_manual_unroll(self):
        # scalar everywhere (h_c = h_w = 1); independent inline oracle
        import math

        def sig(x):
            return 1 / (1 + math.exp(-x))

        def cell(w, u, b, x, h):  # x is a list, w rows are per-gate weights
            z = sig(sum(wi * xi for wi, xi in zip(w[0], x)) + u[0] * h + b[0])
            r = sig(sum(wi * xi for wi, xi in zip(w[1], x)) + u[1] * h + b[1])
            hh = math.tanh(sum(wi * xi for wi, xi in zip(w[2], x)) + r * (u[2] * h) + b[2])
            return z * h + (1 - z) * hh

        vocab = CharVocab({"a": 0, "b": 1})
        e_c = np.array([[0.25, -0.5, 0.1]])
        cw_f = ([0.4], [0.3], [-0.2]), (0.1, -0.3, 0.5), (0.0, 0.1, -0.1)
        cw_b = ([-0.3], [0.2], [0.6]), (0.2, 0.4, -0.1), (0.1, 0.0, 0.2)
        ww_f = ([0.3, -0.4], [0.2, 0.1], [-0.5, 0.3]), (0.2, -0.2, 0.4), (0.05, -0.05, 0.0)
        ww_b = ([-0.2, 0.5], [0.4, -0.3], [0.1, 0.2]), (-0.1, 0.3, 0.2), (0.0, 0.1, -0.2)

        def gp(spec, d):
            (w, u, b) = spec
            return GruParams(
                w_z=np.array([w[0]]), w_r=np.array([w[1]]), w_h=np.array([w[2]]),
                u_z=np.array([[u[0]]]), u_r=np.array([[u[1]]]), u_h=np.array([[u[2]]]),
                b_z=np.array([b[0]]), b_r=np.array([b[1]]), b_h=np.array([b[2]]))

        params = ModelParams(
            ModelKind.C2W2S4PT, e_c,
            (BiRnnParams(gp(cw_f, 1), gp(cw_b, 1)), BiRnnParams(gp(ww_f, 2), gp(ww_b, 2))),
            MlpHead(w_eh=np.zeros((1, 2)), b_h=np.zeros(1),
                    w_hy=np.zeros((1, 1)), b_y=np.zeros(1)),
        )

        def compose(word):
            xs = [e_c[0, vocab.id_of(c)] for c in word]
            h = 0.0
            for x in xs:
                h = cell(cw_f[0], cw_f[1], cw_f[2], [x], h)
            f = h
            h = 0.0
            for x in reversed(xs):
                h = cell(cw_b[0], cw_b[1], cw_b[2], [x], h)
            return [f, h]

        words = ["ab", "ba"]
        e_ws = [compose(w) for w in words]
        h = 0.0
        for e_w in e_ws:
            h = cell(ww_f[0], ww_f[1], ww_f[2], e_w, h)
        f = h
        h = 0.0
        for e_w in reversed(e_ws):
            h = cell(ww_b[0], ww_b[1], ww_b[2], e_w, h)
        expected = [f, h]
        e_s = encode(params, vocab, tuple(words)).e_s
        np.testing.assert_allclose(e_s, expected, atol=1e-6)

    def test_empty_tokens_rejected(self):
        vocab = CharVocab({"a": 0})
        params = tiny_model(vocab.size)
        with pytest.raises(ValueError):
            encode(params, vocab, ())


class TestPredict:
    def test_zero_head_gives_zero(self):
        head = MlpHead(w_eh=np.zeros((2, 3)), b_h=np.zeros(2),
                       w_hy=np.zeros((1, 2)), b_y=np.zeros(1))
        assert head_forward(head, np.array([1.0, -2.0, 3.0])).y == 0.0

    def test_relu_clamps_negative_preactivation(self):
        head = MlpHead(w_eh=np.array([[1.0]]), b_h=np.array([-5.0]),
                       w_hy=np.array([[1.0]]), b_y=np.zeros(1))
        assert head_forward(head, np.array([1.0])).y == 0.0

    def test_hand_arithmetic(self):
        head = MlpHead(w_eh=np.array([[2.0]]), b_h=np.array([0.5]),
                       w_hy=np.array([[3.0]]), b_y=np.array([-1.0]))
        assert head_forward(head, np.array([1.0])).y == pytest.approx(6.5)

    def test_shape_mismatch(self):
        head = MlpHead(w_eh=np.zeros((2, 3)), b_h=np.zeros(2),
                       w_hy=np.zeros((1, 2)), b_y=np.zeros(1))
        with pytest.raises(ValueError):
            head_forward(head, np.zeros(4))


class TestMseLoss:
    def test_perfect_predictions(self):
        assert mse_loss([0.1, -0.2], [0.1, -0.2]) == 0.0

    def test_unit_errors(self):
        assert mse_loss([1.0, -1.0], [0.0, 0.0]) == 1.0

    def test_hand_arithmetic(self):
        assert mse_loss([0.0, 0.0, 0.0], [0.1, 0.3, -0.2]) == pytest.approx(
            0.04666666666666666, abs=1e-15)

    def test_errors(self):
        with pytest.raises(ValueError):
            mse_loss([1.0], [1.0, 2.0])
        with pytest.raises(ValueError):
            mse_loss([], [])


class TestBackwardFull:
    def test_zero_upstream_gives_zero_grads(self):
        reg = tiny_regressor([mk_tweet("ab ba")], seed=7)
        _, trace = reg.forward(mk_tweet("ab ba"))
        grads = reg.backward(trace, 0.0)
        for name, g in grads.items():
            np.testing.assert_array_equal(g, np.zeros_like(g), err_msg=name)

    def test_embedding_gradient_sparsity(self):
        corpus = [mk_tweet("abc xyz")]
        reg = tiny_regressor(corpus, seed=8)
        tweet = mk_tweet("ab")  # only chars a, b visited
        _, trace = reg.forward(tweet)
        grads = reg.backward(trace, 1.0)
        nonzero_cols = {int(c) for c in np.nonzero(np.any(grads["e_c"] != 0, axis=0))[0]}
        visited = {reg.vocab.id_of(c) for c in "ab"}
        assert nonzero_cols == visited

    def test_tiny_model_matches_finite_differences(self):
        corpus = [mk_tweet("abc de fg")]
        reg = tiny_regressor(corpus, seed=9)
        err = check_gradients(reg, mk_tweet("ab cde"), y=0.2)
        assert err < 1e-4


def assert_gradients_reach_below_the_head(reg, tweet):
    """The head has an active unit, so every GRU tensor and the table get a
    non-zero gradient and a gradient check covers them."""
    _, trace = reg.forward(tweet)
    assert np.any(trace.head.pre_relu > 0)
    grads = reg.backward(trace, 1.0)
    for name in grads:
        if name not in reg.params.head.tensors():
            assert np.any(grads[name] != 0), name


class TestBaselines:
    def test_average_predictor(self):
        from traitgru.evaluate import average_baseline_fit

        assert average_baseline_fit([0.1, 0.3]) == pytest.approx(0.2)

    def test_char_baseline_zero_params_outputs_bias(self):
        tweet = mk_tweet("hi there")
        vocab = build_char_vocab([tweet], source="text")
        dims = {"char_dim": 2, "hidden": 2, "mlp_dim": 2, "vocab_size": vocab.size}
        params = init_params(ModelKind.BI_GRU_CHAR, dims, seed=0, scheme="zeros")
        params.head.b_y[0] = 0.37
        reg = Regressor(ModelKind.BI_GRU_CHAR, params, vocab)
        assert reg.score(tweet) == pytest.approx(0.37)

    def test_char_baseline_consumes_spaces(self):
        tweet = mk_tweet("a b")
        reg = tiny_regressor([tweet], kind=ModelKind.BI_GRU_CHAR, seed=4)
        _, trace = reg.forward(tweet)
        assert len(trace.ids) == len("a b")

    def test_word_baseline_gradient_check(self):
        corpus = [mk_tweet("aa bb cc")]
        reg = tiny_regressor(corpus, kind=ModelKind.BI_GRU_WORD, seed=10)
        assert_gradients_reach_below_the_head(reg, mk_tweet("aa bb"))
        err = check_gradients(reg, mk_tweet("aa bb"), y=-0.1)
        assert err < 1e-4

    def test_word_baseline_unk_token(self):
        corpus = [mk_tweet("aa bb")]
        reg = tiny_regressor(corpus, kind=ModelKind.BI_GRU_WORD, seed=12)
        _, trace = reg.forward(mk_tweet("zz"))
        assert trace.ids.tolist() == [reg.vocab.unk_id]

    def test_char_baseline_gradient_check(self):
        corpus = [mk_tweet("ab cd")]
        reg = tiny_regressor(corpus, kind=ModelKind.BI_GRU_CHAR, seed=12)
        assert_gradients_reach_below_the_head(reg, mk_tweet("ab c"))
        err = check_gradients(reg, mk_tweet("ab c"), y=0.3)
        assert err < 1e-4


class TestUnitIds:
    def test_two_level_kind_groups_characters_per_token(self):
        tweet = mk_tweet("ab c")
        reg = tiny_regressor([tweet], seed=2)
        ids, lengths = reg.unit_ids(tweet)
        assert ids.tolist() == [reg.vocab.id_of(c) for c in "abc"]
        assert lengths == [2, 1]

    @pytest.mark.parametrize("kind, units", [(ModelKind.BI_GRU_CHAR, "ab c"),
                                             (ModelKind.BI_GRU_WORD, ("ab", "c"))])
    def test_one_level_kinds_take_one_id_per_unit(self, kind, units):
        tweet = mk_tweet("ab c")
        reg = tiny_regressor([tweet], kind=kind, seed=3)
        ids, lengths = reg.unit_ids(tweet)
        assert ids.tolist() == [reg.vocab.id_of(u) for u in units] and lengths is None

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_embedding_is_what_the_head_scores(self, kind):
        tweet = mk_tweet("ab cd")
        reg = tiny_regressor([tweet], kind=kind, seed=4)
        e_s = reg.embedding(tweet)
        assert e_s.shape == (reg.params.head.in_dim,)
        assert head_forward(reg.params.head, e_s).y == reg.score(tweet)


class TestInvariants:
    def test_dimension_chain_enforced(self):
        with pytest.raises(ValueError, match="word rnn input"):
            ModelParams(
                ModelKind.C2W2S4PT, np.zeros((2, 3)),
                (BiRnnParams(GruParams.zeros(2, 2), GruParams.zeros(2, 2)),
                 BiRnnParams(GruParams.zeros(3, 2), GruParams.zeros(3, 2))),
                MlpHead(w_eh=np.zeros((2, 4)), b_h=np.zeros(2),
                        w_hy=np.zeros((1, 2)), b_y=np.zeros(1)),
            )

    def test_forward_deterministic_bitwise(self):
        reg = tiny_regressor([mk_tweet("ab cd ef")], seed=21)
        tweet = mk_tweet("ab cd")
        a, _ = reg.forward(tweet)
        b, _ = reg.forward(tweet)
        assert a == b

    def test_vocab_permutation_invariance(self):
        corpus = [mk_tweet("abc")]
        reg = tiny_regressor(corpus, seed=22)
        tweet = mk_tweet("cab")
        baseline = reg.score(tweet)
        # permute ids together with embedding columns
        perm = {"a": 2, "b": 0, "c": 1}
        old = reg.vocab.char_to_id
        new_vocab = CharVocab({ch: perm[ch] for ch in old})
        e_c = reg.params.table
        permuted = np.empty_like(e_c)
        for ch, old_id in old.items():
            permuted[:, perm[ch]] = e_c[:, old_id]
        permuted[:, new_vocab.unk_id] = e_c[:, reg.vocab.unk_id]
        reg2 = Regressor(ModelKind.C2W2S4PT,
                         build_params(ModelKind.C2W2S4PT,
                                      {**reg.tensors(), "e_c": permuted}),
                         new_vocab)
        assert reg2.score(tweet) == baseline

    def test_twenty_random_tiny_instances_gradient_check(self):
        from traitgru.train import grad_check

        err = grad_check(ModelKind.C2W2S4PT, n_trials=20, seed=77)
        assert err < 1e-4


class TestDropoutPlumbing:
    def test_masks_recorded_and_applied(self):
        reg = tiny_regressor([mk_tweet("ab cd")], seed=30)
        dp = DropoutPlan(rate=0.5, rng=SplitMix64(1).derive("dropout"))
        _, trace = reg.forward(mk_tweet("ab cd"), dp)
        e_w = birnn_output(trace.lower[0])
        assert trace.sent_mask is not None
        assert trace.mask is not None and trace.mask.shape == e_w.shape
        kept = trace.mask[0] != 0
        np.testing.assert_array_equal(
            trace.top.fwd[0].x[0, kept],  # the first word-level input row
            (e_w[0] * trace.mask[0])[kept])

    def test_rate_zero_plan_is_identity(self):
        reg = tiny_regressor([mk_tweet("ab cd")], seed=31)
        dp = DropoutPlan(rate=0.0, rng=SplitMix64(2))
        y_plain, _ = reg.forward(mk_tweet("ab"))
        y_dp, trace = reg.forward(mk_tweet("ab"), dp)
        assert y_plain == y_dp and trace.sent_mask is None

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            DropoutPlan(rate=1.0, rng=SplitMix64(1))

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS)
    def test_masked_backward_matches_finite_differences(self, kind):
        # A fresh plan of the same seed for every pass replays the masks,
        # so central differences see the function the backward pass took.
        tweet = mk_tweet("ab cd e")
        reg = tiny_regressor([tweet], kind=kind, seed=43)

        def plan():
            return DropoutPlan(0.5, SplitMix64(3).derive("dropout"))

        def loss():
            return (reg.forward(tweet, plan())[0] - 0.2) ** 2

        y_hat, trace = reg.forward(tweet, plan())
        assert np.any(trace.head.pre_relu > 0)  # gradients reach below the head
        assert (trace.mask is not None) == (kind != ModelKind.BI_GRU_CHAR)
        for mask in (trace.mask, trace.sent_mask):
            assert mask is None or 0.0 < np.count_nonzero(mask) < mask.size
        grads = reg.backward(trace, 2.0 * (y_hat - 0.2))
        eps, worst = 1e-5, 0.0
        for name, theta in reg.tensors().items():
            flat, analytic = theta.reshape(-1), grads[name].reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss()
                flat[i] = orig - eps
                lo = loss()
                flat[i] = orig
                numeric = (hi - lo) / (2.0 * eps)
                worst = max(worst, abs(analytic[i] - numeric)
                            / max(abs(analytic[i]), abs(numeric), 1e-8))
        assert worst < 1e-4


class TestMatvec:
    def test_nonfinite_result_aborts(self):
        # The head's w_eh @ x overflows; the check stops it before the score.
        head = MlpHead(w_eh=np.full((1, 2), 1e308), b_h=np.zeros(1),
                       w_hy=np.ones((1, 1)), b_y=np.zeros(1))
        with pytest.warns(RuntimeWarning), pytest.raises(FloatingPointError, match="mlp head"):
            head_forward(head, np.array([1e308, 1e308]))

    def test_nonfinite_score_aborts(self):
        # w_eh @ x is finite, and the output layer's product overflows.
        head = MlpHead(w_eh=np.full((2, 1), 1e308), b_h=np.zeros(2),
                       w_hy=np.full((1, 2), 10.0), b_y=np.zeros(1))
        with np.errstate(over="ignore"), pytest.raises(FloatingPointError,
                                                       match="mlp head .* non-finite score"):
            head_forward(head, np.array([1.0]))
