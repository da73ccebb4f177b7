"""Mini-batch training with Adam, plus the finite-difference gradient checker.

Training is exactly reproducible: (seed, corpus, config) determine the
checkpoint bit-for-bit.  Shuffling and dropout use independent streams
derived from the master seed, so turning dropout off never perturbs the
batch order.  Per-batch gradients are the mean over examples, reduced in
ascending example-index order.

Each example is one forward and one backward pass over one tweet; the
model packs the words of that tweet into one character pass (see
model.py) but never packs several tweets, so the reduction order above
is unchanged.  The dropout stream is consumed per example in that
ascending order: the character level draws nothing, then the word masks
in token order, then the sentence mask.  The per-epoch validation pass
computes no gradients and scores the held-out tweets packed together
(Regressor.score_many).
"""

import math
import time
from dataclasses import dataclass, fields

import numpy as np

from .checkpoint import Checkpoint
from .data import Tweet, TraitScores, WordVocab, build_char_vocab, build_word_vocab
from .model import (DropoutPlan, ModelKind, Regressor, empty_params, mse_loss, spec_of,
                    zero_grads)
from .rng import SplitMix64


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    epsilon: float = 1e-8
    batch_size: int = 32
    epochs: int = 100
    dropout_rate: float = 0.5
    dropout_words: bool = True
    dropout_sentence: bool = True
    seed: int = 0
    init_scheme: str = "glorot"
    clip_norm: float = None
    char_dim: int = 50
    hidden_size: int = 256
    mlp_dim: int = 256
    word_dim: int = 256
    clamp_outputs: bool = False

    def __post_init__(self):
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        for name in ("beta1", "beta2"):
            if not (0.0 <= getattr(self, name) < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if not (math.isfinite(self.epsilon) and self.epsilon > 0.0):
            raise ValueError(f"epsilon must be finite and > 0, got {self.epsilon}")
        if not (0.0 <= self.dropout_rate < 1.0):
            raise ValueError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.init_scheme not in ("glorot", "zeros"):
            raise ValueError(f"unknown init_scheme {self.init_scheme!r}")
        if self.clip_norm is not None and not (math.isfinite(self.clip_norm)
                                               and self.clip_norm > 0):
            raise ValueError(f"clip_norm must be positive and finite, or none, "
                             f"got {self.clip_norm}")
        for name in ("char_dim", "hidden_size", "mlp_dim", "word_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


_BOOL_FIELDS = {"dropout_words", "dropout_sentence", "clamp_outputs"}
_INT_FIELDS = {"batch_size", "epochs", "seed", "char_dim", "hidden_size", "mlp_dim", "word_dim"}


def default_config() -> TrainConfig:
    return TrainConfig()


def parse_config_text(text: str) -> TrainConfig:
    """key = value lines; '#' comments and blank lines allowed; unknown keys fail."""
    known = {f.name for f in fields(TrainConfig)}
    values = {}
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in known:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        if key in _BOOL_FIELDS:
            if val.lower() not in ("true", "false"):
                raise ValueError(f"config line {line_no}: {key} must be true or false")
            values[key] = val.lower() == "true"
        elif key == "init_scheme":
            values[key] = val
        elif key == "clip_norm" and val.lower() == "none":
            values[key] = None
        else:
            number = int if key in _INT_FIELDS else float
            try:
                values[key] = number(val)
            except ValueError:
                what = "an integer" if number is int else "a number"
                raise ValueError(f"config line {line_no}: {key} must be {what}, "
                                 f"got {val!r}") from None
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_config_text(fh.read())


def format_config(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        v = getattr(cfg, f.name)
        if f.name in _BOOL_FIELDS:
            v = "true" if v else "false"
        elif f.name == "clip_norm" and v is None:
            v = "none"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_fingerprint(cfg: TrainConfig) -> str:
    import hashlib

    return hashlib.sha256(format_config(cfg).encode()).hexdigest()[:12]


def config_as_dict(cfg: TrainConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}


@dataclass
class AdamState:
    """First/second moment estimates per tensor plus the step counter."""

    m: dict
    v: dict
    t: int = 0

    @classmethod
    def for_tensors(cls, tensors: dict) -> "AdamState":
        return cls(m={k: np.zeros_like(a) for k, a in tensors.items()},
                   v={k: np.zeros_like(a) for k, a in tensors.items()})


@dataclass
class EpochReport:
    epoch: int
    loss: float
    val_rmse: float = None
    seconds: float = 0.0


def _glorot(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniforms(rows * cols, -bound, bound).reshape(rows, cols)


def _init_values(name: str, shape, rng: SplitMix64) -> np.ndarray:
    if name in ("e_c", "e_w"):
        return rng.derive(name).uniforms(int(np.prod(shape)), -0.1, 0.1).reshape(shape)
    return _glorot(rng.derive(name), shape[0], shape[1])


def model_dims(kind: ModelKind, cfg: TrainConfig, vocab) -> dict:
    """Dimension record stored in checkpoints: the table width, the hidden
    size of every level (all levels train at cfg.hidden_size), the MLP
    width and the vocabulary size."""
    spec = spec_of(kind)
    dims = {spec.table_dim: getattr(cfg, spec.table_dim)}
    dims.update((hidden_key, cfg.hidden_size) for _, hidden_key in spec.levels)
    dims.update(mlp_dim=cfg.mlp_dim, vocab_size=vocab.size)
    return dims


def init_params(kind: ModelKind, dims: dict, seed: int, scheme: str = "glorot"):
    """Deterministic initialization: Glorot-uniform weights, zero biases,
    embedding columns uniform in [-0.1, 0.1].  Each tensor draws from its
    own name-derived stream, so values do not depend on creation order;
    the draws fill the named views of the kind's stacked bundle."""
    rng = SplitMix64(seed).derive("init")
    params = empty_params(kind, dims)
    if scheme != "zeros":
        for name, view in params.tensors().items():
            if not name.rsplit(".", 1)[-1].startswith("b_"):
                view[...] = _init_values(name, view.shape, rng)
    return params


def adam_step(tensors: dict, grads: dict, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with bias correction, in place on the tensors."""
    if set(tensors) != set(grads):
        raise ValueError("gradient keys do not match parameter keys")
    state.t += 1
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.epsilon, cfg.learning_rate
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for k, theta in tensors.items():
        g = grads[k]
        if g.shape != theta.shape:
            raise ValueError(f"gradient shape {g.shape} != parameter shape {theta.shape} for {k}")
        m = state.m[k]
        v = state.v[k]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        theta -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


def clip_gradients(grads: dict, clip_norm: float) -> float:
    """Scale gradients so the global L2 norm is at most clip_norm."""
    total = 0.0
    for g in grads.values():
        total += float(np.sum(g * g))
    norm = np.sqrt(total)
    if norm > clip_norm and norm > 0.0:
        scale = clip_norm / norm
        for g in grads.values():
            g *= scale
    return norm


def build_vocab_for(kind: ModelKind, tweets):
    spec = spec_of(kind)
    if spec.vocab is WordVocab:
        return build_word_vocab(tweets)
    return build_char_vocab(tweets, source=spec.source)


def _chunked(seq, size):
    for i in range(0, len(seq), size):
        yield seq[i:i + size]


def train(kind: ModelKind, tweets, trait: str, cfg: TrainConfig,
          fold_plan=None, fold_index: int = None, validate: bool = True,
          on_epoch=None):
    """Train one model for one trait; returns (Checkpoint, [EpochReport]).

    With a fold plan, training uses every fold except fold_index and the
    held-out fold supplies a per-epoch validation RMSE (validate=False
    skips that inference pass).  The vocabulary is always built from the
    training records only.  on_epoch(report) fires as each epoch ends,
    e.g. to stream the epoch CSV.  A training step's FloatingPointError is
    raised again naming the trait, epoch, batch and index in tweets; the
    validation pass's naming the trait, the epoch and validation.
    """
    kind = ModelKind(kind)
    spec_of(kind)  # rejects a kind that has no row in the spec table
    if fold_plan is not None:
        train_idx = fold_plan.train_indices(fold_index)
        val_idx = fold_plan.test_indices(fold_index)
    else:
        train_idx = list(range(len(tweets)))
        val_idx = []
    train_tweets = [tweets[i] for i in train_idx]
    if not train_tweets:
        raise ValueError("empty training set")
    val_tweets = [tweets[i] for i in val_idx]
    vocab = build_vocab_for(kind, train_tweets)
    dims = model_dims(kind, cfg, vocab)
    params = init_params(kind, dims, cfg.seed, cfg.init_scheme)
    reg = Regressor(kind=kind, params=params, vocab=vocab)
    tensors = reg.tensors()
    adam = AdamState.for_tensors(tensors)
    shuffle_rng = SplitMix64(cfg.seed).derive("shuffle")
    dropout_rng = SplitMix64(cfg.seed).derive("dropout")
    ys = [tw.traits.get(trait) for tw in train_tweets]
    val_ys = [tw.traits.get(trait) for tw in val_tweets]
    reports = []
    n = len(train_tweets)
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = list(range(n))
        shuffle_rng.shuffle(order)
        sq_sum = 0.0
        for batch_no, batch in enumerate(_chunked(order, cfg.batch_size), start=1):
            batch = sorted(batch)
            grads = zero_grads(reg.params)
            inv = 1.0 / len(batch)
            for i in batch:
                dp = None
                if cfg.dropout_rate > 0.0:
                    dp = DropoutPlan(cfg.dropout_rate, dropout_rng,
                                     cfg.dropout_words, cfg.dropout_sentence)
                try:
                    y_hat, trace = reg.forward(train_tweets[i], dp)
                except FloatingPointError as e:
                    raise FloatingPointError(
                        f"{e} (trait {trait}, epoch {epoch}, batch {batch_no}, "
                        f"training tweet {train_idx[i]})") from e
                err = y_hat - ys[i]
                sq_sum += err * err
                reg.backward(trace, 2.0 * err * inv, grads)
            if cfg.clip_norm is not None:
                clip_gradients(grads, cfg.clip_norm)
            adam_step(tensors, grads, adam, cfg)
        val_rmse = None
        if val_tweets and validate:
            try:
                preds = reg.score_many(val_tweets)[0]
            except FloatingPointError as e:
                raise FloatingPointError(f"{e} (trait {trait}, epoch {epoch}, validation)") from e
            val_rmse = float(np.sqrt(mse_loss(preds, val_ys)))
        report = EpochReport(epoch=epoch, loss=sq_sum / n, val_rmse=val_rmse,
                             seconds=time.perf_counter() - started)
        reports.append(report)
        if on_epoch is not None:
            on_epoch(report)
    ckpt = Checkpoint(kind=kind, dims=dims, vocab=vocab,
                      config=config_as_dict(cfg), tensors=tensors)
    return ckpt, reports


EPOCH_CSV_HEADER = "epoch,loss,val_rmse,seconds\n"


def epoch_csv_row(r: EpochReport) -> str:
    val = "" if r.val_rmse is None else repr(r.val_rmse)
    return f"{r.epoch},{r.loss!r},{val},{r.seconds:.3f}\n"


_GRADCHECK_ALPHABET = "abcdefg"


def _random_tiny_instance(kind: ModelKind, rng: SplitMix64, cfg_dims=None):
    """Random tiny regressor plus one input tweet for gradient checking."""
    sizes = cfg_dims or {}
    d_c = sizes.get("char_dim", (1, 2, 3, 5)[rng.below(4)])
    h = sizes.get("hidden_size", (1, 2, 3, 5)[rng.below(4)])
    m = sizes.get("mlp_dim", (1, 2, 3)[rng.below(3)])
    n_words = 1 + rng.below(3)
    words = []
    for _ in range(n_words):
        length = 1 + rng.below(4)
        words.append("".join(_GRADCHECK_ALPHABET[rng.below(len(_GRADCHECK_ALPHABET))]
                             for _ in range(length)))
    tweet = Tweet(user_id="u1", normalized_text=" ".join(words), tokens=tuple(words),
                  traits=TraitScores(0, 0, 0, 0, 0))
    vocab = build_vocab_for(kind, [tweet])
    cfg = TrainConfig(char_dim=d_c, hidden_size=h, mlp_dim=m, word_dim=d_c,
                      dropout_rate=0.0, seed=rng.below(2**31))
    dims = model_dims(kind, cfg, vocab)
    params = init_params(kind, dims, cfg.seed)
    reg = Regressor(kind=kind, params=params, vocab=vocab)
    # Target near the model output keeps the loss small, so float rounding
    # of L(theta +/- eps) stays well under the checker's 1e-8 floor and the
    # comparison measures the gradients, not the arithmetic of the probe.
    y = reg.score(tweet) + rng.uniform(-0.1, 0.1)
    return reg, tweet, y


def check_gradients(reg: Regressor, tweet, y: float, eps: float = 1e-5,
                    corrupt: tuple = None) -> float:
    """Max relative error of analytic vs central-difference gradients.

    The loss is the squared error of a single example.  corrupt=(name,
    delta) perturbs one analytic gradient entry, as a sensitivity canary
    for the checker itself.
    """
    y_hat, trace = reg.forward(tweet)
    analytic = reg.backward(trace, 2.0 * (y_hat - y))
    if corrupt is not None:
        name, delta = corrupt
        flat = analytic[name].reshape(-1)
        flat[0] += delta
    worst = 0.0
    for name, theta in reg.tensors().items():
        a_flat = analytic[name].reshape(-1)
        t_flat = theta.reshape(-1)
        for i in range(t_flat.shape[0]):
            orig = t_flat[i]
            t_flat[i] = orig + eps
            lo_hi = (reg.score(tweet) - y) ** 2
            t_flat[i] = orig - eps
            lo_lo = (reg.score(tweet) - y) ** 2
            t_flat[i] = orig
            numeric = (lo_hi - lo_lo) / (2.0 * eps)
            denom = max(abs(a_flat[i]), abs(numeric), 1e-8)
            worst = max(worst, abs(a_flat[i] - numeric) / denom)
    return worst


def grad_check(kind: ModelKind, n_trials: int = 20, eps: float = 1e-5,
               seed: int = 20240, dims: dict = None) -> float:
    """Max relative error over n random tiny instances of the given kind."""
    kind = ModelKind(kind)
    spec_of(kind)
    rng = SplitMix64(seed).derive("gradcheck")
    worst = 0.0
    for _ in range(n_trials):
        reg, tweet, y = _random_tiny_instance(kind, rng, dims)
        worst = max(worst, check_gradients(reg, tweet, y, eps))
    return worst
