import math
from dataclasses import replace

import numpy as np
import pytest

from traitgru.data import build_tweets, generate_fixture
from traitgru.evaluate import (TweetPrediction, aggregate_user,
                               average_baseline_fit, render_table, report_csv,
                               rmse_tweet, rmse_user, run_cv)
from traitgru.model import ModelKind, mse_loss
from traitgru.train import TrainConfig


def preds(pairs, user="u1", trait="ext"):
    return [TweetPrediction(index=i, user_id=user, trait=trait, y_hat=p, y=y)
            for i, (p, y) in enumerate(pairs)]


class TestRmseTweet:
    def test_perfect(self):
        assert rmse_tweet(preds([(0.1, 0.1), (-0.2, -0.2)])) == 0.0

    def test_symmetric_errors(self):
        assert rmse_tweet(preds([(0.1, 0.0), (-0.1, 0.0)])) == pytest.approx(0.1)

    def test_hand_case(self):
        got = rmse_tweet(preds([(0.1, 0.0), (0.2, 0.0), (0.3, 0.0)]))
        assert got == pytest.approx(0.21602468994692867, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse_tweet([])

    def test_equals_sqrt_of_mse(self):
        rng = np.random.default_rng(0)
        pairs = [(float(a), float(b)) for a, b in
                 zip(rng.uniform(-1, 1, 40), rng.uniform(-0.5, 0.5, 40))]
        p = preds(pairs)
        lhs = rmse_tweet(p)
        rhs = math.sqrt(mse_loss([x.y_hat for x in p], [x.y for x in p]))
        assert abs(lhs - rhs) < 1e-12


class TestAggregateUser:
    def test_mean_of_user_predictions(self):
        p = preds([(0.1, 0.3), (0.3, 0.3)])
        [(uid, y_hat, y)] = aggregate_user(p)
        assert uid == "u1" and y_hat == pytest.approx(0.2) and y == 0.3

    def test_single_tweet_user(self):
        [(_, y_hat, _)] = aggregate_user(preds([(0.42, 0.1)]))
        assert y_hat == 0.42

    def test_three_users_hand_set(self):
        p = (preds([(0.1, 0.2), (0.5, 0.2)], user="a")
             + preds([(0.0, -0.1)], user="b")
             + preds([(-0.2, 0.0), (0.2, 0.0), (0.3, 0.0)], user="c"))
        got = {uid: y_hat for uid, y_hat, _ in aggregate_user(p)}
        assert got["a"] == pytest.approx(0.3)
        assert got["b"] == pytest.approx(0.0)
        assert got["c"] == pytest.approx(0.1)

    def test_inconsistent_labels_rejected(self):
        p = [TweetPrediction(0, "u1", "ext", 0.1, 0.2),
             TweetPrediction(1, "u1", "ext", 0.1, 0.3)]
        with pytest.raises(ValueError, match="inconsistent"):
            aggregate_user(p)


class TestRmseUser:
    def test_perfect_users(self):
        assert rmse_user([("a", 0.1, 0.1), ("b", -0.3, -0.3)]) == 0.0

    def test_two_user_hand_case(self):
        assert rmse_user([("a", 0.0, 0.1), ("b", 0.0, -0.1)]) == pytest.approx(0.1)

    def test_constant_mean_predictor_equals_population_std(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            scores = rng.uniform(-0.5, 0.5, size=rng.integers(2, 30))
            mean = float(scores.mean())
            pairs = [(f"u{i}", mean, float(s)) for i, s in enumerate(scores)]
            pop_std = float(np.sqrt(np.mean((scores - scores.mean()) ** 2)))
            assert abs(rmse_user(pairs) - pop_std) < 1e-12


class TestAverageBaseline:
    def test_mean_of_training_scores(self):
        assert average_baseline_fit([0.1, 0.3]) == pytest.approx(0.2)

    def test_symmetric_scores(self):
        assert average_baseline_fit([-0.2, 0.2]) == 0.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            average_baseline_fit([])

    def test_heldout_rmse_equals_rms_deviation_from_train_mean(self):
        records = generate_fixture(6, 4, signal="exclamation", seed=8)
        tweets, _ = build_tweets(records)
        train, held = tweets[:16], tweets[16:]
        mean = average_baseline_fit(t.traits.ext for t in train)
        p = [TweetPrediction(i, t.user_id, "ext", mean, t.traits.ext)
             for i, t in enumerate(held)]
        expected = math.sqrt(sum((t.traits.ext - mean) ** 2 for t in held)
                             / len(held))
        assert rmse_tweet(p) == pytest.approx(expected, abs=1e-15)


class TestRunCv:
    def fixture(self, n_users=6, per_user=5, seed=4):
        tweets, _ = build_tweets(generate_fixture(n_users, per_user,
                                                  signal="exclamation", seed=seed))
        return tweets

    def test_average_kind_reproducible(self):
        tweets = self.fixture()
        a = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=3)
        b = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=3)
        assert a.fold_rmse == b.fold_rmse and a.pooled_rmse == b.pooled_rmse

    def test_k5_and_k10_supported(self):
        tweets = self.fixture(n_users=10, per_user=4)
        for k in (5, 10):
            rep = run_cv(ModelKind.AVERAGE, tweets, "ext", k, "tweet", seed=1)
            assert len(rep.fold_rmse) == k

    def test_user_level_average(self):
        tweets = self.fixture(n_users=6)
        rep = run_cv(ModelKind.AVERAGE, tweets, "ext", 3, "user", seed=2)
        assert len(rep.fold_rmse) == 3
        assert all(d.train_mean is not None for d in rep.details)

    def test_pooled_rmse_squared_is_weighted_mean_of_fold_mses(self):
        tweets = self.fixture(n_users=7, per_user=5)
        rep = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=9)
        weighted = sum(n * r * r for n, r in zip(rep.fold_sizes, rep.fold_rmse))
        total = sum(rep.fold_sizes)
        assert abs(rep.pooled_rmse ** 2 - weighted / total) < 1e-12

    def test_no_leakage_of_vocab_or_mean(self):
        # the held-out fold's unique character must not enter the vocabulary,
        # and the baseline mean must come from training scores only
        from traitgru.data import kfold_split

        tweets = self.fixture(n_users=5, per_user=4, seed=12)
        cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2,
                          epochs=1, dropout_rate=0.0, seed=0)
        rep = run_cv(ModelKind.C2W2S4PT, tweets, "ext", 4, "tweet", cfg, seed=5)
        plan = kfold_split(tweets, 4, "tweet", 5)
        for fold, detail in enumerate(rep.details):
            train_chars = set()
            for i in plan.train_indices(fold):
                for tok in tweets[i].tokens:
                    train_chars.update(tok)
            assert detail.vocab_size == len(train_chars) + 1  # chars + UNK

        rep_avg = run_cv(ModelKind.AVERAGE, tweets, "ext", 4, "tweet", seed=5)
        for fold, detail in enumerate(rep_avg.details):
            expected = sum(tweets[i].traits.ext for i in plan.train_indices(fold)) \
                / len(plan.train_indices(fold))
            assert detail.train_mean == pytest.approx(expected, abs=1e-15)

    def test_trainable_kind_runs(self):
        tweets = self.fixture(n_users=4, per_user=4)
        cfg = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2,
                          epochs=2, dropout_rate=0.0, batch_size=8, seed=0)
        rep = run_cv(ModelKind.C2W2S4PT, tweets, "ext", 4, "tweet", cfg, seed=1)
        assert len(rep.fold_rmse) == 4 and rep.pooled_rmse > 0

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_held_out_scoring_names_the_fold(self):
        # One batch per fold: the only step moves every weight by about the
        # learning rate, so the held-out fold's scores overflow.
        tweets = self.fixture(n_users=4, per_user=4)
        cfg = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2, epochs=1,
                          dropout_rate=0.0, batch_size=len(tweets), learning_rate=1e300)
        with pytest.raises(FloatingPointError) as info:
            run_cv(ModelKind.C2W2S4PT, tweets, "ext", 4, "tweet", cfg, seed=1)
        assert str(info.value).endswith("(trait ext, fold 0, held-out scoring)")
        assert "non-finite" in str(info.value)

    @pytest.mark.parametrize("kind", [ModelKind.AVERAGE, ModelKind.C2W2S4PT])
    def test_user_with_two_labels_rejected_before_any_training(self, kind, monkeypatch):
        tweets = self.fixture(n_users=6, per_user=3)
        tweets[1] = replace(tweets[1], traits=replace(tweets[1].traits, ext=0.25))
        calls = []
        monkeypatch.setattr("traitgru.train.train", lambda *a, **kw: calls.append(a))
        cfg = TrainConfig(char_dim=2, hidden_size=2, mlp_dim=2, word_dim=2, epochs=1)
        with pytest.raises(ValueError, match="user u001 carries inconsistent labels"):
            run_cv(kind, tweets, "ext", 3, "user", cfg, seed=0)
        assert calls == []

    def test_clamped_predictions_are_the_unclamped_ones_clamped(self):
        # A large learning rate drives some held-out scores out of range.
        tweets = self.fixture(n_users=4, per_user=4)
        cfg = TrainConfig(char_dim=2, hidden_size=3, mlp_dim=3, word_dim=2, epochs=2,
                          dropout_rate=0.0, batch_size=4, learning_rate=0.5)
        raw, clamped = (run_cv(ModelKind.C2W2S4PT, tweets, "ext", 4, "tweet",
                               replace(cfg, clamp_outputs=clamp), seed=1,
                               keep_predictions=True).predictions
                        for clamp in (False, True))
        assert any(abs(p.y_hat) > 0.5 for p in raw)
        assert [p.index for p in clamped] == [p.index for p in raw]
        assert [p.y_hat for p in clamped] == [min(0.5, max(-0.5, p.y_hat)) for p in raw]

    def test_unknown_trait_rejected(self):
        with pytest.raises(ValueError):
            run_cv(ModelKind.AVERAGE, self.fixture(), "charm", 5, "tweet", seed=0)

    @pytest.mark.parametrize("kind", [ModelKind.C2W2S4PT, ModelKind.BI_GRU_CHAR,
                                      ModelKind.BI_GRU_WORD])
    def test_trainable_kind_without_a_config_rejected(self, kind):
        with pytest.raises(ValueError, match="needs a training config"):
            run_cv(kind, self.fixture(), "ext", 4, "tweet", seed=0)


class TestReports:
    def test_csv_row_counts(self):
        tweets = TestRunCv().fixture(n_users=5, per_user=4)
        rep = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=0)
        lines = report_csv([rep]).strip().splitlines()
        assert lines[0] == "model,trait,k,level,fold,rmse"
        assert len(lines) == 1 + 5 + 1  # header + folds + pooled
        assert lines[-1].split(",")[4] == "-1"

    def test_table_has_trait_columns(self):
        tweets = TestRunCv().fixture(n_users=5, per_user=4)
        rep = run_cv(ModelKind.AVERAGE, tweets, "ext", 5, "tweet", seed=0)
        table = render_table([rep])
        assert "EXT" in table and "STA" in table and "average" in table


def test_prediction_label_range_guard():
    with pytest.raises(ValueError):
        TweetPrediction(0, "u1", "ext", 0.0, 0.7)
    TweetPrediction(0, "u1", "ext", 1.7, 0.5)  # model output unconstrained
