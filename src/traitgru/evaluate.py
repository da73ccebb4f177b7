"""RMSE metrics, the constant-mean baseline, and cross-validation.

Tweet-level RMSE is the root mean squared error over individual tweets.
User-level RMSE first averages each user's tweet predictions into one
user prediction (every tweet of a user carries the same label).  The
headline cross-validation number is the pooled RMSE over the union of
all held-out predictions; the mean of per-fold RMSEs is also reported.
"""

import math
from dataclasses import dataclass, field, replace

from .data import TRAITS, kfold_split
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


def aggregate_user(preds) -> list:
    """Per-user (user_id, mean prediction, shared label), in first-seen order."""
    order = []
    by_user = {}
    for p in preds:
        if p.user_id not in by_user:
            by_user[p.user_id] = []
            order.append(p.user_id)
        by_user[p.user_id].append(p)
    out = []
    for uid in order:
        group = by_user[uid]
        labels = {p.y for p in group}
        if len(labels) != 1:
            raise ValueError(f"user {uid} carries inconsistent labels {sorted(labels)}")
        out.append((uid, sum(p.y_hat for p in group) / len(group), group[0].y))
    return out


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
    """Per-fold bookkeeping exposed for leakage checks and reports."""

    fold: int
    train_count: int
    test_count: int
    rmse: float
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
    fingerprint: str
    seed: int
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
    are computed from the training folds only.
    """
    from .train import config_fingerprint, train

    kind = ModelKind(kind)
    if trait not in TRAITS:
        raise ValueError(f"unknown trait {trait!r}")
    if cfg is None and kind != ModelKind.AVERAGE:
        raise ValueError(f"cross-validating {kind.value} needs a training config, got None")
    plan = kfold_split(tweets, k, level, seed)
    all_preds = []
    fold_rmse = []
    fold_sizes = []
    details = []
    for fold in range(k):
        train_idx = plan.train_indices(fold)
        test_idx = plan.test_indices(fold)
        test_tweets = [tweets[i] for i in test_idx]
        detail = FoldDetail(fold=fold, train_count=len(train_idx),
                            test_count=len(test_idx), rmse=float("nan"))
        if kind == ModelKind.AVERAGE:
            train_tweets = [tweets[i] for i in train_idx]
            if level == "user":
                seen = {}
                for tw in train_tweets:
                    seen.setdefault(tw.user_id, tw.traits.get(trait))
                mean = average_baseline_fit(seen.values())
            else:
                mean = average_baseline_fit(tw.traits.get(trait) for tw in train_tweets)
            detail.train_mean = mean
            fold_preds = [
                TweetPrediction(index=i, user_id=tw.user_id, trait=trait,
                                y_hat=mean, y=tw.traits.get(trait))
                for i, tw in zip(test_idx, test_tweets)
            ]
        else:
            fold_seed = SplitMix64(seed).derive(f"fold{fold}").next_u64() % (2**31)
            fold_cfg = replace(cfg, seed=fold_seed)
            ckpt, _ = train(kind, tweets, trait, fold_cfg, plan, fold, validate=False)
            reg = ckpt.to_regressor()
            detail.vocab_size = reg.vocab.size
            try:
                y_hats = reg.score_many(test_tweets)[0]
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} (trait {trait}, fold {fold}, held-out "
                                         f"scoring)") from e
            fold_preds = []
            for i, tw, y_hat in zip(test_idx, test_tweets, y_hats.tolist()):
                if cfg is not None and cfg.clamp_outputs:
                    y_hat = min(0.5, max(-0.5, y_hat))
                fold_preds.append(TweetPrediction(index=i, user_id=tw.user_id,
                                                  trait=trait, y_hat=y_hat,
                                                  y=tw.traits.get(trait)))
        r = _level_rmse(fold_preds, level)
        detail.rmse = r
        fold_rmse.append(r)
        fold_sizes.append(len(fold_preds))
        details.append(detail)
        all_preds.extend(fold_preds)
    pooled = _level_rmse(all_preds, level)
    fingerprint = config_fingerprint(cfg) if cfg is not None else "none"
    return CvReport(
        kind=kind, trait=trait, k=k, level=level, fold_rmse=fold_rmse,
        fold_sizes=fold_sizes, pooled_rmse=pooled,
        fold_mean_rmse=sum(fold_rmse) / len(fold_rmse), fingerprint=fingerprint,
        seed=seed, details=details,
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
