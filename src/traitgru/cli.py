"""Command-line entry point: train / eval / predict / visualize / gradcheck / fixture.

Exit codes: 0 success, 1 runtime error, 2 usage error.  Every command
that takes --seed is bit-reproducible; nothing seeds from the clock.
"""

import argparse
import math
import sys

from . import checkpoint as ckpt_mod
from . import data as data_mod
from . import evaluate as eval_mod
from . import gru
from . import train as train_mod
from . import viz as viz_mod
from .model import ModelKind, TRAINABLE_KINDS

TRAIT_CHOICES = list(data_mod.TRAITS)
MODEL_CHOICES = [k.value for k in TRAINABLE_KINDS]
ALL_MODEL_CHOICES = [k.value for k in ModelKind]

GRADCHECK_THRESHOLD = 1e-4

THREADS_HELP = ("threads for training: at 2 or more, a model with hidden size >= "
                f"{gru.CONCURRENT_MIN_HIDDEN} trains each bi-GRU level's two directions "
                "at once; results are identical for any value (default: the CPUs this "
                "process may run on)")


def _checked(convert, ok, expected: str):
    """An argparse type: the converted value, a usage error unless ok(value)."""

    def parse(value: str):
        x = convert(value)
        if not ok(x):
            raise argparse.ArgumentTypeError(f"expected {expected}, got {value}")
        return x

    parse.__name__ = convert.__name__  # argparse says "invalid int value" on a bad literal
    return parse


_positive_int = _checked(int, lambda n: n >= 1, "a positive integer")
_positive_float = _checked(float, lambda x: math.isfinite(x) and x > 0,
                           "a finite positive number")
_non_negative_float = _checked(float, lambda x: math.isfinite(x) and x >= 0,
                               "a finite non-negative number")
_fold_count = _checked(int, lambda k: k >= 2, "at least 2 folds")
_tail_quantile = _checked(float, lambda x: 0.0 < x <= 0.5, "a quantile in (0, 0.5]")


def _load_config(args) -> train_mod.TrainConfig:
    cfg = train_mod.load_config(args.config) if args.config else train_mod.TrainConfig()
    if getattr(args, "seed", None) is not None:
        from dataclasses import replace

        cfg = replace(cfg, seed=args.seed)
    return cfg


def _load_tweets(args):
    tweets, report = data_mod.load_tweets(args.data)
    print(f"{args.data}: {report.summary()}", file=sys.stderr)
    if getattr(args, "load_report", None):
        import json

        with open(args.load_report, "w", encoding="utf-8") as fh:
            json.dump(report.as_dict(), fh, indent=2, sort_keys=True)
    if not tweets:
        raise ValueError(f"{args.data}: no usable records")
    return tweets


def cmd_train(args) -> int:
    gru.set_threads(args.threads)
    cfg = _load_config(args)
    tweets = _load_tweets(args)
    report_fh = open(args.report, "w", encoding="utf-8", newline="\n") if args.report else None
    try:
        on_epoch = None
        if report_fh is not None:
            report_fh.write(train_mod.EPOCH_CSV_HEADER)

            def on_epoch(r):
                report_fh.write(train_mod.epoch_csv_row(r))
                report_fh.flush()

        ckpt, reports = train_mod.train(ModelKind(args.model), tweets, args.trait, cfg,
                                        on_epoch=on_epoch)
    finally:
        if report_fh is not None:
            report_fh.close()
    ckpt_mod.save(ckpt, args.out)
    print(f"trained {args.model} on {len(tweets)} tweets for trait {args.trait}; "
          f"final epoch loss {reports[-1].loss:.6f}", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    gru.set_threads(args.threads)
    kind = ModelKind(args.model_kind)
    cfg = _load_config(args)
    tweets = _load_tweets(args)
    traits = TRAIT_CHOICES if args.trait == "all" else [args.trait]
    reports = [
        eval_mod.run_cv(kind, tweets, trait, args.k, args.level, cfg, args.seed)
        for trait in traits
    ]
    print(eval_mod.render_table(reports))
    if args.csv:
        with open(args.csv, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(eval_mod.report_csv(reports))
    return 0


def cmd_predict(args) -> int:
    ckpt = ckpt_mod.load(args.model)
    reg = ckpt.to_regressor()
    if args.text is not None:
        lines = [args.text]
    else:
        lines = data_mod.split_lines(sys.stdin.read())
    no_traits = data_mod.TraitScores(0, 0, 0, 0, 0)
    per_line = [data_mod.build_tweets([data_mod.RawRecord("stdin", line, no_traits)])[0]
                for line in lines]
    scores = iter(reg.score_many([tweets[0] for tweets in per_line if tweets])[0])
    for tweets in per_line:
        print(f"{next(scores):.6f}" if tweets else "NA")
    return 0


def cmd_visualize(args) -> int:
    ckpt = ckpt_mod.load(args.model)
    reg = ckpt.to_regressor()
    tweets = _load_tweets(args)
    low, high = viz_mod.select_extremes(tweets, args.trait, args.n, seed=args.seed,
                                        tail=args.tail)
    chosen = [(i, "LOW") for i in low] + [(i, "HIGH") for i in high]
    embeddings = reg.score_many([tweets[i] for i, _ in chosen])[1]
    pca = viz_mod.pca_fit(embeddings)
    if pca.zero_variance:
        print(f"warning: components {pca.zero_variance} carry no variance", file=sys.stderr)
    points = []
    for (i, label), emb in zip(chosen, embeddings):
        pc1, pc2 = viz_mod.pca_project(pca, emb)
        points.append(viz_mod.ScatterPoint(pc1=pc1, pc2=pc2, label=label,
                                           text=tweets[i].normalized_text))
    viz_mod.export_scatter(points, args.out, args.format)
    print(f"wrote {len(points)} points to {args.out} "
          f"(explained variance {pca.explained_variance[0]:.4g}, "
          f"{pca.explained_variance[1]:.4g})", file=sys.stderr)
    return 0


def cmd_gradcheck(args) -> int:
    worst = train_mod.grad_check(ModelKind(args.model_kind), n_trials=args.trials,
                                 eps=args.eps, seed=args.seed)
    print(f"max relative error: {worst:.3e}")
    return 0 if worst < GRADCHECK_THRESHOLD else 1


def cmd_fixture(args) -> int:
    records = data_mod.generate_fixture(args.users, args.tweets_per_user,
                                        signal=args.signal, noise=args.noise,
                                        seed=args.seed)
    data_mod.save_dataset(records, args.out)
    print(f"wrote {len(records)} records to {args.out}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="traitgru",
        description="Character-to-word-to-sentence GRU regression of personality "
                    "trait scores on short texts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train one model for one trait")
    p.add_argument("--data", required=True, help="dataset TSV path")
    p.add_argument("--trait", required=True, choices=TRAIT_CHOICES)
    p.add_argument("--model", required=True, choices=MODEL_CHOICES)
    p.add_argument("--config", help="training config file (key = value lines)")
    p.add_argument("--seed", type=int, help="overrides the config seed")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--report", help="epoch CSV output path")
    p.add_argument("--load-report", help="write the load report as JSON")
    p.add_argument("--threads", type=_positive_int, default=gru.available_cpus(),
                   help=THREADS_HELP)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="k-fold cross-validation")
    p.add_argument("--data", required=True)
    p.add_argument("--model-kind", required=True, choices=ALL_MODEL_CHOICES)
    p.add_argument("--trait", required=True, choices=TRAIT_CHOICES + ["all"])
    p.add_argument("--k", type=_fold_count, default=10,
                   help="fold count (the reference protocol uses 5 or 10)")
    p.add_argument("--level", required=True, choices=["tweet", "user"])
    p.add_argument("--config", help="training config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--csv", help="write per-fold CSV here")
    p.add_argument("--load-report", help="write the load report as JSON")
    p.add_argument("--threads", type=_positive_int, default=gru.available_cpus(),
                   help=THREADS_HELP)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("predict", help="score text with a trained checkpoint")
    p.add_argument("--model", required=True, help="checkpoint path")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--text", help="score a single text")
    group.add_argument("--stdin", action="store_true", help="score one text per stdin line")
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("visualize", help="PCA scatter of extreme-trait tweets")
    p.add_argument("--model", required=True, help="checkpoint path")
    p.add_argument("--data", required=True)
    p.add_argument("--trait", required=True, choices=TRAIT_CHOICES)
    p.add_argument("--n", type=_positive_int, default=50, help="tweets per tail")
    p.add_argument("--tail", type=_tail_quantile, default=0.25, help="user-score tail quantile")
    p.add_argument("--out", required=True)
    p.add_argument("--format", required=True, choices=["csv", "svg"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_visualize)

    p = sub.add_parser("gradcheck", help="finite-difference gradient oracle")
    p.add_argument("--model-kind", default=ModelKind.C2W2S4PT.value, choices=MODEL_CHOICES)
    p.add_argument("--trials", type=_positive_int, default=20)
    p.add_argument("--eps", type=_positive_float, default=1e-5)
    p.add_argument("--seed", type=int, default=20240)
    p.set_defaults(func=cmd_gradcheck)

    p = sub.add_parser("fixture", help="generate a synthetic dataset")
    p.add_argument("--users", type=_positive_int, required=True)
    p.add_argument("--tweets-per-user", type=_positive_int, required=True)
    p.add_argument("--signal", default="exclamation", choices=list(data_mod.FIXTURE_SIGNALS))
    p.add_argument("--noise", type=_non_negative_float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_fixture)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, MemoryError, ckpt_mod.CheckpointError,
            ArithmeticError) as e:
        print(f"error: {str(e) or type(e).__name__}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
