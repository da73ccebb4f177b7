import numpy as np
import pytest

from traitgru import train as T
from traitgru.data import build_tweets, generate_fixture
from traitgru.model import TRAINABLE_KINDS, DropoutPlan, ModelKind
from traitgru.rng import SplitMix64
from traitgru.train import (AdamState, TrainConfig, adam_step, check_gradients,
                            config_fingerprint, default_config,
                            format_config, grad_check, init_params,
                            parse_config_text, train)


def fixture_tweets(n_users=4, per_user=5, seed=3, signal="exclamation"):
    tweets, _ = build_tweets(generate_fixture(n_users, per_user, signal=signal, seed=seed))
    return tweets


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = default_config()
        assert (cfg.char_dim, cfg.hidden_size, cfg.mlp_dim) == (50, 256, 256)
        assert (cfg.dropout_rate, cfg.batch_size, cfg.epochs) == (0.5, 32, 100)
        assert (cfg.learning_rate, cfg.beta1, cfg.beta2, cfg.epsilon) == \
            (1e-3, 0.9, 0.999, 1e-8)

    def test_roundtrip_through_text(self):
        cfg = TrainConfig(learning_rate=0.01, epochs=7, clip_norm=2.5,
                          dropout_words=False, seed=99)
        assert parse_config_text(format_config(cfg)) == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown key"):
            parse_config_text("learning_rate = 0.1\nwarp_speed = 9\n")

    def test_comments_and_blanks_allowed(self):
        cfg = parse_config_text("# tiny run\n\nepochs = 3  # short\nseed = 5\n")
        assert cfg.epochs == 3 and cfg.seed == 5

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            parse_config_text("clip_norm = -1\n")

    def test_fingerprint_distinguishes_configs(self):
        assert config_fingerprint(TrainConfig()) != config_fingerprint(TrainConfig(seed=1))


class TestInitParams:
    DIMS = {"char_dim": 4, "char_hidden": 3, "word_hidden": 3, "mlp_dim": 2,
            "vocab_size": 5}

    def test_same_seed_bitwise_identical(self):
        a = init_params(ModelKind.C2W2S4PT, self.DIMS, seed=11)
        b = init_params(ModelKind.C2W2S4PT, self.DIMS, seed=11)
        for k, arr in a.tensors().items():
            np.testing.assert_array_equal(arr, b.tensors()[k], err_msg=k)

    def test_biases_zero(self):
        p = init_params(ModelKind.C2W2S4PT, self.DIMS, seed=2)
        for name, arr in p.tensors().items():
            if name.rsplit(".", 1)[-1].startswith("b_"):
                np.testing.assert_array_equal(arr, np.zeros_like(arr), err_msg=name)

    def test_embedding_range(self):
        p = init_params(ModelKind.C2W2S4PT, self.DIMS, seed=3)
        assert np.all(np.abs(p.table) <= 0.1)

    def test_glorot_sample_mean_near_zero(self):
        dims = {"char_dim": 50, "char_hidden": 256, "word_hidden": 256,
                "mlp_dim": 256, "vocab_size": 60}
        p = init_params(ModelKind.C2W2S4PT, dims, seed=4)
        w = p.head.w_eh  # 256 x 512
        bound = np.sqrt(6.0 / (256 + 512))
        assert np.all(np.abs(w) <= bound)
        n = w.size
        tol = 3.0 * bound / np.sqrt(3.0 * n)
        assert abs(w.mean()) < tol

    def test_weight_bound_respected(self):
        p = init_params(ModelKind.C2W2S4PT, self.DIMS, seed=5)
        w = p.levels[0].fwd.w_z
        bound = np.sqrt(6.0 / (3 + 4))
        assert np.all(np.abs(w) <= bound)


class TestDropout:
    def test_rate_zero_identity(self):
        v = np.array([1.0, -2.0, 3.0])
        mask = DropoutPlan(0.0, SplitMix64(1)).draw_mask(3)
        np.testing.assert_array_equal(v * mask, v)
        np.testing.assert_array_equal(mask, np.ones(3))

    def test_kept_components_scaled(self):
        plan = DropoutPlan(0.5, SplitMix64(2).derive("dropout"))
        v = np.full(100, 7.0)
        mask = plan.draw_mask(100)
        out = v * mask
        kept = mask != 0
        assert np.all(out[kept] == 14.0)
        assert np.all(out[~kept] == 0.0)

    def test_expectation_preserved(self):
        # Monte-Carlo over 1e5 seeded trials: per-component mean within 2%
        plan = DropoutPlan(0.5, SplitMix64(3).derive("dropout"))
        v = np.array([1.0, 2.0, 4.0])
        total = np.zeros(3)
        trials = 100_000
        for _ in range(trials):
            total += v * plan.draw_mask(3)
        np.testing.assert_allclose(total / trials, v, rtol=0.02)

    def test_rate_one_rejected(self):
        with pytest.raises(ValueError):
            DropoutPlan(1.0, SplitMix64(1))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        tensors = {"w": np.array([1.0, 2.0])}
        state = AdamState.for_tensors(tensors)
        adam_step(tensors, {"w": np.zeros(2)}, state, TrainConfig())
        np.testing.assert_array_equal(tensors["w"], [1.0, 2.0])

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first step is -lr / (1 + eps)
        tensors = {"w": np.array([0.0])}
        state = AdamState.for_tensors(tensors)
        cfg = TrainConfig(learning_rate=1e-3)
        adam_step(tensors, {"w": np.array([1.0])}, state, cfg)
        np.testing.assert_allclose(tensors["w"][0], -9.99999e-4, atol=1e-9)
        np.testing.assert_allclose(tensors["w"][0], -1e-3 / (1 + 1e-8), atol=1e-15)

    def test_first_step_opposes_gradient_sign(self):
        rng = SplitMix64(4)
        g = rng.uniforms(20, -1, 1)
        g[np.abs(g) < 1e-3] = 0.5
        tensors = {"w": np.zeros(20)}
        state = AdamState.for_tensors(tensors)
        adam_step(tensors, {"w": g}, state, TrainConfig())
        assert np.all(np.sign(tensors["w"]) == -np.sign(g))

    def test_lr_zero_identity(self):
        tensors = {"w": np.array([3.0])}
        state = AdamState.for_tensors(tensors)
        adam_step(tensors, {"w": np.array([5.0])}, state, TrainConfig(learning_rate=0.0))
        assert tensors["w"][0] == 3.0

    def test_shape_mismatch_rejected(self):
        tensors = {"w": np.zeros(2)}
        state = AdamState.for_tensors(tensors)
        with pytest.raises(ValueError):
            adam_step(tensors, {"w": np.zeros(3)}, state, TrainConfig())


def tiny_cfg(**kw):
    base = dict(char_dim=3, hidden_size=4, mlp_dim=4, word_dim=3,
                dropout_rate=0.0, epochs=5, batch_size=4, seed=1)
    base.update(kw)
    return TrainConfig(**base)


class TestTrainLoop:
    def test_deterministic_checkpoint(self, tmp_path):
        from traitgru import checkpoint as C

        tweets = fixture_tweets()
        cfg = tiny_cfg(epochs=3, dropout_rate=0.5)
        paths = []
        for run in range(2):
            ckpt, _ = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
            path = tmp_path / f"run{run}.ckpt"
            C.save(ckpt, path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()

    def test_loss_decreases_on_learnable_fixture(self):
        tweets = fixture_tweets(n_users=6, per_user=6)
        cfg = tiny_cfg(epochs=15, learning_rate=5e-3)
        _, reports = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
        assert reports[-1].loss < reports[0].loss

    def test_dropout_off_training_equals_inference_forward(self):
        tweets = fixture_tweets()
        cfg = tiny_cfg(epochs=1)
        ckpt, reports = train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
        assert cfg.dropout_rate == 0.0 and reports[0].loss >= 0.0

    def test_fold_plan_holdout_and_validation(self):
        from traitgru.data import kfold_split

        tweets = fixture_tweets(n_users=5, per_user=4)
        plan = kfold_split(tweets, 4, "tweet", seed=7)
        cfg = tiny_cfg(epochs=2)
        ckpt, reports = train(ModelKind.C2W2S4PT, tweets, "ext", cfg,
                              fold_plan=plan, fold_index=0)
        assert all(r.val_rmse is not None for r in reports)
        # vocabulary must come from training folds only
        train_chars = set()
        for i in plan.train_indices(0):
            for tok in tweets[i].tokens:
                train_chars.update(tok)
        assert set(ckpt.vocab.char_to_id) == train_chars

    def test_untrainable_kind_rejected(self):
        with pytest.raises(ValueError, match="not trainable"):
            train(ModelKind.AVERAGE, fixture_tweets(), "ext", tiny_cfg())

    def test_empty_training_set_rejected(self):
        with pytest.raises(ValueError):
            train(ModelKind.C2W2S4PT, [], "ext", tiny_cfg())

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_names_trait_epoch_batch_and_tweet(self):
        # The first step moves every weight by about the learning rate, so
        # the next batch's scores overflow.
        with pytest.raises(FloatingPointError) as info:
            train(ModelKind.C2W2S4PT, fixture_tweets(), "ext", tiny_cfg(learning_rate=1e300))
        assert str(info.value).endswith("(trait ext, epoch 1, batch 2, training tweet 7)")
        assert "non-finite" in str(info.value)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
    def test_non_finite_validation_names_trait_epoch_and_validation(self, kind):
        # One batch per epoch: the only step moves every weight by about
        # the learning rate, so the held-out fold's scores overflow.
        from traitgru.data import kfold_split

        tweets = fixture_tweets()
        plan = kfold_split(tweets, 4, "tweet", seed=7)
        cfg = tiny_cfg(learning_rate=1e300, batch_size=len(tweets), epochs=1)
        with pytest.raises(FloatingPointError) as info:
            train(kind, tweets, "ext", cfg, fold_plan=plan, fold_index=0)
        assert str(info.value).endswith("(trait ext, epoch 1, validation)")
        assert "non-finite" in str(info.value)

    def test_word_baseline_trains(self):
        tweets = fixture_tweets(n_users=3, per_user=4)
        ckpt, reports = train(ModelKind.BI_GRU_WORD, tweets, "ext", tiny_cfg(epochs=2))
        assert ckpt.kind == ModelKind.BI_GRU_WORD and len(reports) == 2


class TestGradCheck:
    def test_all_kinds_below_threshold(self):
        for kind in (ModelKind.C2W2S4PT, ModelKind.BI_GRU_CHAR, ModelKind.BI_GRU_WORD):
            err = grad_check(kind, n_trials=5, seed=15)
            assert err < 1e-4, kind

    def test_zero_loss_configuration_exact_zero(self):
        # zero params and zero target: loss is identically 0 around theta,
        # so analytic and numeric gradients agree exactly
        from traitgru.model import ModelKind, Regressor
        from traitgru.data import TraitScores, Tweet, build_char_vocab

        tweet = Tweet("u1", "ab", ("ab",), TraitScores(0, 0, 0, 0, 0))
        vocab = build_char_vocab([tweet])
        dims = {"char_dim": 2, "char_hidden": 2, "word_hidden": 2, "mlp_dim": 2,
                "vocab_size": vocab.size}
        reg = Regressor(ModelKind.C2W2S4PT,
                        init_params(ModelKind.C2W2S4PT, dims, seed=0, scheme="zeros"),
                        vocab)
        assert check_gradients(reg, tweet, y=0.0) == 0.0

    def test_corrupted_gradient_detected(self):
        rng = SplitMix64(16)
        reg, tweet, y = T._random_tiny_instance(ModelKind.C2W2S4PT, rng)
        clean = check_gradients(reg, tweet, y)
        corrupted = check_gradients(reg, tweet, y, corrupt=("char_fwd.u_h", 1e-2))
        assert clean < 1e-4 < corrupted

    def test_average_kind_rejected(self):
        with pytest.raises(ValueError):
            grad_check(ModelKind.AVERAGE, n_trials=1)


def test_clip_gradients():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = T.clip_gradients(grads, clip_norm=1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)


def test_clipping_then_two_adam_steps_match_a_hand_computed_update():
    cfg = TrainConfig(learning_rate=0.1, beta1=0.5, beta2=0.75, epsilon=0.01)
    tensors = {"a": np.array([1.0, -2.0]), "b": np.array([0.5])}
    state = AdamState.for_tensors(tensors)
    # Step 1: the norm of (3, -4, 12) is 13, clipped to 6.5, so g = (1.5, -2, 6).
    grads = {"a": np.array([3.0, -4.0]), "b": np.array([12.0])}
    assert T.clip_gradients(grads, clip_norm=6.5) == pytest.approx(13.0)
    np.testing.assert_allclose(grads["a"], [1.5, -2.0], rtol=1e-15)
    np.testing.assert_allclose(grads["b"], [6.0], rtol=1e-15)
    adam_step(tensors, grads, state, cfg)
    # m = 0.5 g, v = 0.25 g^2; corrected by 1 - 0.5 and 1 - 0.75, the step
    # is lr * g / (|g| + eps).
    np.testing.assert_allclose(tensors["a"], [1.0 - 0.1 * 1.5 / 1.51, -2.0 + 0.1 * 2.0 / 2.01],
                               rtol=1e-14)
    np.testing.assert_allclose(tensors["b"], [0.5 - 0.1 * 6.0 / 6.01], rtol=1e-14)
    # Step 2: the norm of (1, 0, 0) is 1, under the bound, so g is unchanged.
    grads = {"a": np.array([1.0, 0.0]), "b": np.array([0.0])}
    assert T.clip_gradients(grads, clip_norm=6.5) == 1.0
    np.testing.assert_array_equal(grads["a"], [1.0, 0.0])
    before = {k: v.copy() for k, v in tensors.items()}
    adam_step(tensors, grads, state, cfg)
    # m2 = 0.5 m1 + 0.5 g2 and v2 = 0.75 v1 + 0.25 g2^2, bias-corrected by
    # 1 - 0.5^2 = 0.75 and 1 - 0.75^2 = 0.4375: (m2, v2) is (0.875, 0.671875)
    # for a[0], (-0.5, 0.75) for a[1] and (1.5, 6.75) for b.
    def step(m2, v2):
        return -0.1 * (m2 / 0.75) / (np.sqrt(v2 / 0.4375) + 0.01)

    np.testing.assert_allclose(tensors["a"] - before["a"],
                               [step(0.875, 0.671875), step(-0.5, 0.75)], rtol=1e-13)
    np.testing.assert_allclose(tensors["b"] - before["b"], [step(1.5, 6.75)], rtol=1e-13)
    assert state.t == 2


def test_shuffle_stream_independent_of_dropout():
    # toggling dropout must not change batch order: epoch order comes from
    # the shuffle stream alone
    seed = 123
    shuffle_a = SplitMix64(seed).derive("shuffle")
    shuffle_b = SplitMix64(seed).derive("shuffle")
    _ = SplitMix64(seed).derive("dropout").uniforms(1000)
    order_a = list(range(20))
    order_b = list(range(20))
    shuffle_a.shuffle(order_a)
    shuffle_b.shuffle(order_b)
    assert order_a == order_b
