"""Everything that groups tweets by user, pinned on a corpus whose users'
tweets interleave: each user's ascending tweet indices, users in order of
first appearance."""

from traitgru.data import build_tweets, generate_fixture, kfold_split, tweets_by_user
from traitgru.evaluate import TweetPrediction, aggregate_user, run_cv
from traitgru.model import ModelKind
from traitgru.rng import SplitMix64
from traitgru.viz import select_extremes


def interleaved_tweets():
    records = generate_fixture(6, 4, signal="exclamation", seed=6)
    SplitMix64(2).shuffle(records)
    tweets, _ = build_tweets(records)
    return tweets


def test_interleaved_users_keep_their_folds_rows_picks_and_rmses():
    tweets = interleaved_tweets()
    assert tweets_by_user(tweets) == {
        "u001": [0, 6, 12, 14], "u002": [1, 8, 11, 13], "u003": [2, 16, 17, 19],
        "u004": [3, 5, 7, 20], "u005": [4, 9, 10, 18], "u006": [15, 21, 22, 23],
    }
    plans = {(level, seed): kfold_split(tweets, 3, level, seed).assignment
             for level in ("tweet", "user") for seed in (0, 1)}
    assert plans == {
        ("tweet", 0): (2, 1, 0, 0, 0, 0, 0, 1, 0, 1, 2, 2, 1, 1, 0, 2, 2, 1, 1, 2, 2, 1, 2, 0),
        ("tweet", 1): (2, 0, 1, 2, 1, 2, 0, 1, 2, 2, 0, 0, 2, 1, 1, 2, 1, 2, 0, 0, 0, 1, 1, 0),
        ("user", 0): (2, 0, 0, 1, 2, 1, 2, 1, 0, 2, 2, 0, 2, 0, 2, 1, 0, 0, 2, 0, 1, 1, 1, 1),
        ("user", 1): (1, 1, 2, 0, 0, 0, 1, 0, 1, 0, 0, 1, 1, 1, 1, 2, 2, 2, 0, 2, 0, 2, 2, 2),
    }
    preds = [TweetPrediction(i, tw.user_id, "ext", 0.1 * i - 0.6, tw.traits.ext)
             for i, tw in enumerate(tweets)]
    assert aggregate_user(preds) == [
        ("u001", 0.20000000000000012, -0.3),
        ("u002", 0.22500000000000006, -0.19999999999999998),
        ("u003", 0.7500000000000001, -0.09999999999999998),
        ("u004", 0.275, 5.551115123125783e-17),
        ("u005", 0.42500000000000004, 0.10000000000000003),
        ("u006", 1.425, 0.2),
    ]
    assert select_extremes(tweets, "ext", 2, seed=0) == ([12, 14], [15, 22])
    assert select_extremes(tweets, "ext", 2, seed=1) == ([8, 13], [15, 18])
    tweet = run_cv(ModelKind.AVERAGE, tweets, "ext", 3, "tweet", seed=4)
    assert tweet.fold_rmse == [0.1754458605952275, 0.1754458605952275, 0.16583123951776998]
    assert tweet.pooled_rmse == 0.17230060940112774
    user = run_cv(ModelKind.AVERAGE, tweets, "ext", 3, "user", seed=4)
    assert user.fold_rmse == [0.21213203435596428, 0.21360009363293825, 0.125]
    assert user.pooled_rmse == 0.18819316317727028
