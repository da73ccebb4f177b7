import math

import numpy as np
import pytest

from traitgru import cli
from traitgru import train as T
from traitgru.data import build_tweets, generate_fixture
from traitgru.model import TRAINABLE_KINDS, DropoutPlan, ModelKind
from traitgru.rng import SplitMix64
from traitgru.train import (AdamState, TrainConfig, adam_step, check_gradients,
                            format_config, grad_check, init_params, parse_config_text,
                            train)


def fixture_tweets(n_users=4, per_user=5, seed=3, signal="exclamation"):
    tweets, _ = build_tweets(generate_fixture(n_users, per_user, signal=signal, seed=seed))
    return tweets


class TestConfig:
    def test_defaults_match_reference_protocol(self):
        cfg = TrainConfig()
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

    def test_lines_end_only_at_newline_and_carriage_return(self):
        # A form feed or U+0085 inside a comment does not start a new line,
        # and line numbers count only \n, \r\n and \r.
        cfg = parse_config_text("epochs = 3  # short\x0cseed = 5\r\n# note\x85seed = 6\n")
        assert cfg.epochs == 3 and cfg.seed == 0
        with pytest.raises(ValueError, match="config line 3: unknown key"):
            parse_config_text("seed = 1\r# a\u2028b\nwarp = 9\n")

    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError):
            TrainConfig(dropout_rate=1.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            parse_config_text("clip_norm = -1\n")


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


def adam_for(theta):
    return AdamState(m=np.zeros_like(theta), v=np.zeros_like(theta))


class TestAdam:
    def test_zero_gradient_is_noop(self):
        w = np.array([1.0, 2.0])
        adam_step(w, np.zeros(2), adam_for(w), TrainConfig())
        np.testing.assert_array_equal(w, [1.0, 2.0])

    def test_first_step_closed_form(self):
        # m_hat = g, v_hat = g^2, so the first step is -lr / (1 + eps)
        w = np.array([0.0])
        cfg = TrainConfig(learning_rate=1e-3)
        adam_step(w, np.array([1.0]), adam_for(w), cfg)
        np.testing.assert_allclose(w[0], -9.99999e-4, atol=1e-9)
        np.testing.assert_allclose(w[0], -1e-3 / (1 + 1e-8), atol=1e-15)

    def test_first_step_opposes_gradient_sign(self):
        rng = SplitMix64(4)
        g = rng.uniforms(20, -1, 1)
        g[np.abs(g) < 1e-3] = 0.5
        w = np.zeros(20)
        adam_step(w, g, adam_for(w), TrainConfig())
        assert np.all(np.sign(w) == -np.sign(g))

    def test_lr_zero_identity(self):
        w = np.array([3.0])
        adam_step(w, np.array([5.0]), adam_for(w), TrainConfig(learning_rate=0.0))
        assert w[0] == 3.0

    def test_shape_mismatch_rejected(self):
        w = np.zeros(2)
        with pytest.raises(ValueError):
            adam_step(w, np.zeros(3), adam_for(w), TrainConfig())

    def test_sliced_update_equals_a_whole_vector_update(self, monkeypatch):
        # 2 x ADAM_SLICE + 3 entries: two full slices and a short last one.
        n = 2 * T.ADAM_SLICE + 3
        rng = np.random.default_rng(7)
        cfg = TrainConfig(learning_rate=0.01)
        sliced = rng.standard_normal(n)
        whole = sliced.copy()
        sliced_state, whole_state = adam_for(sliced), adam_for(whole)
        for _ in range(3):
            g = rng.standard_normal(n)
            adam_step(sliced, g, sliced_state, cfg)
            with monkeypatch.context() as m:
                m.setattr(T, "ADAM_SLICE", n)
                adam_step(whole, g, whole_state, cfg)
            assert sliced.tobytes() == whole.tobytes()
            assert sliced_state.m.tobytes() == whole_state.m.tobytes()
            assert sliced_state.v.tobytes() == whole_state.v.tobytes()
        assert sliced_state.t == whole_state.t == 3


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

    def test_model_larger_than_physical_memory_refused_before_allocation(self, monkeypatch):
        # Parameters, gradients and two Adam moments: 4 x 8 bytes per entry.
        # init_params is replaced, so nothing of the model is ever allocated.
        from math import prod

        from traitgru.model import tensor_shapes

        tweets = fixture_tweets()
        cfg = tiny_cfg()
        vocab = T.build_vocab_for(ModelKind.C2W2S4PT, tweets)
        dims = T.model_dims(ModelKind.C2W2S4PT, cfg, vocab)
        need = 32 * sum(prod(shape) for _, shape in tensor_shapes(ModelKind.C2W2S4PT, dims))

        def not_allocated(*args, **kwargs):
            raise RuntimeError("init_params reached")

        monkeypatch.setattr(T, "init_params", not_allocated)
        monkeypatch.setattr(T, "physical_memory", lambda: need - 1)
        with pytest.raises(ValueError, match=f"needs {need} bytes .* has {need - 1} bytes"):
            train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
        monkeypatch.setattr(T, "physical_memory", lambda: need)
        with pytest.raises(RuntimeError, match="init_params reached"):
            train(ModelKind.C2W2S4PT, tweets, "ext", cfg)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_step_names_trait_epoch_batch_and_tweet(self):
        # The first step moves every weight by about the learning rate, so
        # the next batch's scores overflow.
        with pytest.raises(FloatingPointError) as info:
            train(ModelKind.C2W2S4PT, fixture_tweets(), "ext", tiny_cfg(learning_rate=1e300))
        assert str(info.value).endswith("(trait ext, epoch 1, batch 2, training tweet 7)")
        assert "non-finite" in str(info.value)

    def test_non_finite_in_a_later_tweet_of_a_pack_names_that_tweet(self, monkeypatch):
        # One batch, packed whole.  Only tweets 5 and 12 use the character
        # "z", whose embedding column is NaN, so the pack fails and the
        # first of them is named.
        from dataclasses import replace

        tweets = fixture_tweets()
        for i in (5, 12):
            tweets[i] = replace(tweets[i], normalized_text=tweets[i].normalized_text + " zz",
                                tokens=tweets[i].tokens + ("zz",))
        build_vocab_for, init = T.build_vocab_for, T.init_params
        vocabs, packs = [], []

        def recording_vocab(*args):
            vocabs.append(build_vocab_for(*args))
            return vocabs[-1]

        def poisoned_init(*args):
            params = init(*args)
            params.table[:, vocabs[-1].id_of("z")] = np.nan
            return params

        real_forward = T.Regressor.forward_units

        def spy(self, units, dropout=None):
            packs.append(len(units))
            return real_forward(self, units, dropout)

        monkeypatch.setattr(T, "build_vocab_for", recording_vocab)
        monkeypatch.setattr(T, "init_params", poisoned_init)
        monkeypatch.setattr(T.Regressor, "forward_units", spy)
        cfg = tiny_cfg(batch_size=len(tweets), dropout_rate=0.5)
        with pytest.raises(FloatingPointError) as info:
            train(ModelKind.C2W2S4PT, tweets, "ext", cfg)
        assert str(info.value).endswith("(trait ext, epoch 1, batch 1, training tweet 5)")
        assert "non-finite" in str(info.value)
        assert packs[0] == len(tweets)

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

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_non_finite_corruption_reads_nan(self, delta):
        # max() over Python floats drops a NaN comparison; the checker must not.
        reg, tweet, y = default_instances(ModelKind.C2W2S4PT, 1)[0]
        assert check_gradients(reg, tweet, y) < 1e-4
        assert math.isnan(check_gradients(reg, tweet, y, corrupt=("w_eh", delta)))

    @pytest.mark.parametrize("delta", [math.nan, math.inf])
    def test_a_non_finite_instance_fails_the_command(self, delta, monkeypatch, capsys):
        # The second of three instances reads NaN; the later, finite one
        # must not hide it.
        real, calls = T.check_gradients, []

        def second_corrupted(reg, tweet, y, eps):
            calls.append(1)
            return real(reg, tweet, y, eps,
                        corrupt=("w_eh", delta) if len(calls) == 2 else None)

        monkeypatch.setattr(T, "check_gradients", second_corrupted)
        assert cli.main(["gradcheck", "--trials", "3"]) == 1
        assert len(calls) == 3
        assert capsys.readouterr().out == "max relative error: nan\n"

    def test_probes_leave_the_model_untouched(self):
        reg, tweet, y = default_instances(ModelKind.C2W2S4PT, 1)[0]
        before = reg.params.flat.tobytes()
        assert check_gradients(reg, tweet, y) < 1e-4
        assert reg.params.flat.tobytes() == before
        with pytest.raises(FloatingPointError, match="overflow"):
            check_gradients(reg, tweet, y, eps=1e300)
        assert reg.params.flat.tobytes() == before

    @pytest.mark.parametrize("kind", TRAINABLE_KINDS, ids=lambda k: k.value)
    def test_stacked_probe_scores_equal_traced_scores_bit_for_bit(self, kind, monkeypatch):
        # Chunks of the default budget, of one probe pair and of three
        # pairs with an uneven last chunk; every tensor group compared.
        reg, tweet, _ = default_instances(kind, 1)[0]
        n, eps = len(reg.params.flat), 1e-5
        assert n % 3
        want = scored_one_at_a_time(reg, tweet, eps)
        # Entry ranges of the table, each level's directions and the head's tensors.
        ends = np.cumsum([view.size for view in reg.params.values()])
        groups = {}
        for name, lo, hi in zip(reg.params, [0, *ends[:-1]], ends):
            group = name.split(".")[0]
            groups[group] = (groups.get(group, (lo,))[0], hi)
        spec = reg.params.spec
        levels = [prefix + d for prefix, _ in spec.levels for d in ("fwd", "bwd")]
        assert list(groups) == [spec.table, *levels, "w_eh", "b_h", "w_hy", "b_y"]
        rows, final_rows = [], T.final_rows

        def spy(params, units):
            rows.append(len(params.flat))
            return final_rows(params, units)

        monkeypatch.setattr(T, "final_rows", spy)
        for pairs, sizes in ((None, None), (1, [2] * n), (3, [6] * (n // 3) + [2 * (n % 3)])):
            if pairs is not None:
                monkeypatch.setattr(T, "PROBE_BUDGET_BYTES", pairs * 2 * reg.params.flat.nbytes)
            rows.clear()
            got = T.probe_scores(reg, tweet, eps)
            assert sizes is None or rows == sizes
            assert sum(rows) == 2 * n
            for group, (lo, hi) in groups.items():
                assert (got[2 * lo:2 * hi].view(np.int64)
                        == want[2 * lo:2 * hi].view(np.int64)).all(), (pairs, group)

    def test_check_gradients_scores_two_probes_per_entry(self, monkeypatch):
        reg, tweet, y = default_instances(ModelKind.C2W2S4PT, 1)[0]
        passes = count_passes(monkeypatch)
        check_gradients(reg, tweet, y)
        assert passes == {"forward": 1, "probes": 2 * len(reg.params.flat)}

    @pytest.mark.parametrize("kind, want", [("c2w2s4pt", 4160), ("bigru-char", 1982),
                                            ("bigru-word", 1882)])
    def test_five_default_instances_take_the_benchmarks_passes(self, kind, want, monkeypatch):
        # perfbench's Gradcheck.PASSES: per instance, the target's score,
        # the analytic pass and two probes per parameter entry.
        sizes = [len(reg.params.flat) for reg, _, _ in default_instances(kind, 5)]
        passes = count_passes(monkeypatch)
        assert grad_check(kind, n_trials=5) < 1e-4
        assert sum(passes.values()) == sum(2 * n + 2 for n in sizes) == want


def default_instances(kind, n):
    """The first n instances of the default gradcheck (seed 20240)."""
    rng = SplitMix64(20240).derive("gradcheck")
    return [T._random_tiny_instance(kind, rng) for _ in range(n)]


def scored_one_at_a_time(reg, tweet, eps):
    """probe_scores by writing each probe into the model's vector and
    scoring it with the traced Regressor.score."""
    theta = reg.params.flat
    out = np.empty(2 * len(theta))
    for i in range(len(theta)):
        orig = theta[i]
        theta[i] = orig + eps
        out[2 * i] = reg.score(tweet)
        theta[i] = orig - eps
        out[2 * i + 1] = reg.score(tweet)
        theta[i] = orig
    return out


def count_passes(monkeypatch) -> dict:
    """Counts Regressor.forward calls and the parameter vectors of every
    stacked probe walk from now on."""
    passes = {"forward": 0, "probes": 0}
    forward, final_rows = T.Regressor.forward, T.final_rows

    def counted_forward(self, *args, **kwargs):
        passes["forward"] += 1
        return forward(self, *args, **kwargs)

    def counted_rows(params, units):
        passes["probes"] += len(params.flat)
        return final_rows(params, units)

    monkeypatch.setattr(T.Regressor, "forward", counted_forward)
    monkeypatch.setattr(T, "final_rows", counted_rows)
    return passes


def test_clip_gradients():
    grads = {"a": np.array([3.0]), "b": np.array([4.0])}
    norm = T.clip_gradients(grads, clip_norm=1.0)
    assert norm == pytest.approx(5.0)
    total = np.sqrt(sum(float(np.sum(g * g)) for g in grads.values()))
    assert total == pytest.approx(1.0)


def test_clipping_then_two_adam_steps_match_a_hand_computed_update():
    cfg = TrainConfig(learning_rate=0.1, beta1=0.5, beta2=0.75, epsilon=0.01)
    theta = np.array([1.0, -2.0, 0.5])
    tensors = {"a": theta[:2], "b": theta[2:]}
    state = adam_for(theta)
    # Step 1: the norm of (3, -4, 12) is 13, clipped to 6.5, so g = (1.5, -2, 6).
    g = np.array([3.0, -4.0, 12.0])
    grads = {"a": g[:2], "b": g[2:]}
    assert T.clip_gradients(grads, clip_norm=6.5) == pytest.approx(13.0)
    np.testing.assert_allclose(grads["a"], [1.5, -2.0], rtol=1e-15)
    np.testing.assert_allclose(grads["b"], [6.0], rtol=1e-15)
    adam_step(theta, g, state, cfg)
    # m = 0.5 g, v = 0.25 g^2; corrected by 1 - 0.5 and 1 - 0.75, the step
    # is lr * g / (|g| + eps).
    np.testing.assert_allclose(tensors["a"], [1.0 - 0.1 * 1.5 / 1.51, -2.0 + 0.1 * 2.0 / 2.01],
                               rtol=1e-14)
    np.testing.assert_allclose(tensors["b"], [0.5 - 0.1 * 6.0 / 6.01], rtol=1e-14)
    # Step 2: the norm of (1, 0, 0) is 1, under the bound, so g is unchanged.
    g = np.array([1.0, 0.0, 0.0])
    grads = {"a": g[:2], "b": g[2:]}
    assert T.clip_gradients(grads, clip_norm=6.5) == 1.0
    np.testing.assert_array_equal(grads["a"], [1.0, 0.0])
    before = {k: v.copy() for k, v in tensors.items()}
    adam_step(theta, g, state, cfg)
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
