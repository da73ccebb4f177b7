"""RMSE metrics, the constant-mean baseline, and cross-validation.

Tweet-level RMSE is the root mean squared error over individual tweets.
User-level RMSE first averages each user's tweet predictions into one
user prediction (every tweet of a user carries the same label).  The
headline cross-validation number is the pooled RMSE over the union of
all held-out predictions; the mean of per-fold RMSEs is also reported.
"""

import math
from dataclasses import dataclass, field, replace

from .data import TRAITS, kfold_split, tweets_by_user
from .model import ModelKind
from .rng import SplitMix64


@dataclass
class TweetPrediction:
    index: int
    user_id: str
    trait: str
    y_hat: float
    y: float

    def __post_init__(self):
        if not (-0.5 <= self.y <= 0.5):
            raise ValueError(f"true score {self.y} outside [-0.5, 0.5]")


def rmse_tweet(preds) -> float:
    if not preds:
        raise ValueError("rmse_tweet requires at least one prediction")
    return math.sqrt(sum((p.y - p.y_hat) ** 2 for p in preds) / len(preds))


def _user_label(uid, labels) -> float:
    """The one label a user's tweets share; two labels are an error."""
    labels = set(labels)
    if len(labels) != 1:
        raise ValueError(f"user {uid} carries inconsistent labels {sorted(labels)}")
    return labels.pop()


def aggregate_user(preds) -> list:
    """Per-user (user_id, mean prediction, shared label), in first-seen order."""
    return [(uid, sum(preds[i].y_hat for i in idxs) / len(idxs),
             _user_label(uid, (preds[i].y for i in idxs)))
            for uid, idxs in tweets_by_user(preds).items()]


def rmse_user(user_pairs) -> float:
    if not user_pairs:
        raise ValueError("rmse_user requires at least one user")
    return math.sqrt(sum((y - y_hat) ** 2 for _, y_hat, y in user_pairs) / len(user_pairs))


def average_baseline_fit(train_scores) -> float:
    """The average baseline's constant prediction: the training-set mean."""
    scores = list(train_scores)
    if not scores:
        raise ValueError("average baseline needs at least one training score")
    return sum(scores) / len(scores)


@dataclass
class FoldDetail:
    """Per-fold bookkeeping exposed for leakage checks."""

    train_mean: float = None
    vocab_size: int = None


@dataclass
class CvReport:
    kind: ModelKind
    trait: str
    k: int
    level: str
    fold_rmse: list
    fold_sizes: list
    pooled_rmse: float
    fold_mean_rmse: float
    details: list = field(default_factory=list)
    predictions: list = field(default_factory=list)


def _level_rmse(preds, level: str) -> float:
    if level == "user":
        return rmse_user(aggregate_user(preds))
    return rmse_tweet(preds)


def run_cv(kind: ModelKind, tweets, trait: str, k: int, level: str,
           cfg=None, seed: int = 0, keep_predictions: bool = False) -> CvReport:
    """k-fold cross-validation of one model kind on one trait.

    Each fold is an independent deterministic job: its training seed is
    derived from (seed, fold index).  Vocabulary and the baseline mean
    are computed from the training folds only.  At user level every
    user's tweets must share one label for the trait, which is checked
    before any fold is trained.
    """
    from .train import train

    kind = ModelKind(kind)
    if trait not in TRAITS:
        raise ValueError(f"unknown trait {trait!r}")
    if cfg is None and kind != ModelKind.AVERAGE:
        raise ValueError(f"cross-validating {kind.value} needs a training config, got None")
    if level == "user":
        for uid, idxs in tweets_by_user(tweets).items():
            _user_label(uid, (tweets[i].traits.get(trait) for i in idxs))
    plan = kfold_split(tweets, k, level, seed)
    all_preds = []
    fold_rmse = []
    fold_sizes = []
    details = []
    for fold in range(k):
        test_idx = plan.test_indices(fold)
        test_tweets = [tweets[i] for i in test_idx]
        if kind == ModelKind.AVERAGE:
            train_tweets = [tweets[i] for i in plan.train_indices(fold)]
            if level == "user":  # each user's score counts once
                train_tweets = [train_tweets[idxs[0]]
                                for idxs in tweets_by_user(train_tweets).values()]
            mean = average_baseline_fit(tw.traits.get(trait) for tw in train_tweets)
            y_hats = [mean] * len(test_tweets)
            details.append(FoldDetail(train_mean=mean))
        else:
            fold_seed = SplitMix64(seed).derive(f"fold{fold}").next_u64() % (2**31)
            ckpt, _ = train(kind, tweets, trait, replace(cfg, seed=fold_seed), plan, fold,
                            validate=False)
            reg = ckpt.to_regressor()
            try:
                y_hats = reg.score_many(test_tweets)[0].tolist()
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} (trait {trait}, fold {fold}, held-out "
                                         f"scoring)") from e
            if cfg.clamp_outputs:
                y_hats = [min(0.5, max(-0.5, y_hat)) for y_hat in y_hats]
            details.append(FoldDetail(vocab_size=reg.vocab.size))
        fold_preds = [TweetPrediction(index=i, user_id=tw.user_id, trait=trait, y_hat=y_hat,
                                      y=tw.traits.get(trait))
                      for i, tw, y_hat in zip(test_idx, test_tweets, y_hats)]
        fold_rmse.append(_level_rmse(fold_preds, level))
        fold_sizes.append(len(fold_preds))
        all_preds.extend(fold_preds)
    return CvReport(
        kind=kind, trait=trait, k=k, level=level, fold_rmse=fold_rmse,
        fold_sizes=fold_sizes, pooled_rmse=_level_rmse(all_preds, level),
        fold_mean_rmse=sum(fold_rmse) / len(fold_rmse), details=details,
        predictions=all_preds if keep_predictions else [],
    )


def report_csv(reports) -> str:
    """CSV rows `model,trait,k,level,fold,rmse`; the pooled row uses fold=-1."""
    lines = ["model,trait,k,level,fold,rmse"]
    for rep in reports:
        for fold, r in enumerate(rep.fold_rmse):
            lines.append(f"{rep.kind.value},{rep.trait},{rep.k},{rep.level},{fold},{r!r}")
        lines.append(f"{rep.kind.value},{rep.trait},{rep.k},{rep.level},-1,{rep.pooled_rmse!r}")
    return "\n".join(lines) + "\n"


def _table_cells(traits: dict, attr: str) -> str:
    return " ".join(f"{getattr(traits[t], attr):>7.4f}" if t in traits else f"{'-':>7}"
                    for t in TRAITS)


def render_table(reports) -> str:
    """One row per model kind, one column per trait (pooled RMSE)."""
    by_kind = {}
    for rep in reports:
        by_kind.setdefault(rep.kind.value, {})[rep.trait] = rep
    header = f"{'model':<12} {'k':>3} {'level':<6} " + " ".join(f"{t.upper():>7}" for t in TRAITS)
    lines = [header, "-" * len(header)]
    for kind_name, traits in by_kind.items():
        any_rep = next(iter(traits.values()))
        lines.append(f"{kind_name:<12} {any_rep.k:>3} {any_rep.level:<6} "
                     + _table_cells(traits, "pooled_rmse"))
        lines.append(f"{'  fold-mean':<12} {'':>3} {'':<6} "
                     + _table_cells(traits, "fold_mean_rmse"))
    return "\n".join(lines)
