"""Mini-batch training with Adam, plus the finite-difference gradient checker.

Training is exactly reproducible: (seed, corpus, config) determine the
checkpoint bit-for-bit.  Shuffling and dropout use independent streams
derived from the master seed, so turning dropout off never perturbs the
batch order.  Per-batch gradients are the mean over examples.  They
accumulate in one bundle laid out like the parameters (model.zero_grads)
whose vector grads.flat is zeroed in place per batch, and Adam updates
the parameter vector from it and its two moment vectors in fixed slices.

A mini-batch runs as consecutive packs of its tweets, in ascending
example-index order: one forward and one backward pass per pack
(Regressor.forward_units), with every level packed over all the pack's
tweets, so a level costs about its longest sequence's steps, not the
sum of all of them.  A pack holds the traces of all its tweets until its
backward pass, arrays whose bytes are a fixed multiple of its rows (see
gru.RnnTrace), so a pack is as many consecutive tweets as keep the
lowest level's input projection within PACK_BUDGET_BYTES (a tweet over
it runs alone).  Gradients are exact for any packing; only their
summation order, and so the last bits of a checkpoint, depend on it, and
a batch of one is a pack of one.  The dropout stream is consumed per
example in ascending order whatever the packing: the character level
draws nothing, then the word masks in token order, then the sentence
mask.  Each training tweet's unit ids and pack cost are computed once
per train call.  Before any parameter is allocated, train refuses a
model whose parameters, gradients and two Adam moments would not fit in
the machine's physical memory.  The per-epoch validation pass computes
no gradients and scores the held-out tweets packed together
(Regressor.score_many).

The gradient checker compares Regressor.backward with central
differences of the squared error, entry by entry of the parameter
vector (grads.flat).  Its 2 x (entries) probes are independent, so they
run in chunks: a chunk of k entries is 2k perturbed copies of the
parameter vector, stacked as the rows of one matrix and scored in one
trace-free walk (model.final_rows, model.mlp_forward), whose scores
equal the traced Regressor.score of each copy bit for bit.  The model's
own vector is never written.
"""

import copy
import math
import os
import time
from dataclasses import dataclass, fields, replace

import numpy as np

from .checkpoint import Checkpoint
from .data import (Tweet, TraitScores, WordVocab, build_char_vocab, build_word_vocab,
                   read_text, split_lines)
from .model import (DropoutPlan, ModelKind, ModelParams, Regressor, budgeted_chunks,
                    empty_params, final_rows, mlp_forward, mse_loss, projection_bytes,
                    spec_of, tensor_shapes, zero_grads)
from .rng import SplitMix64

# Bytes of the lowest level's input projection (see model.projection_bytes)
# that one training pack may take.  A pack's trace arrays stay alive until
# its backward pass; at the lowest level they take 2 x (d + 5h) floats per
# row against the projection's 3h, about 3.5 times the budget at d=50,
# h=256, plus the levels above.
PACK_BUDGET_BYTES = 1536 << 10

# Entries that one Adam pass updates at a time.  Its temporaries are then
# slice-sized: at paper dimensions a whole-vector pass allocates several
# of 1.8 M floats each, and raised peak memory by 23 to 25 MB.
ADAM_SLICE = 1 << 16

# Bytes of stacked parameter vectors that one chunk of gradient-check
# probes may take: two vectors per parameter entry, and an entry whose
# pair is over the budget runs alone.  The walk's own arrays (its input
# projection, say) are not counted: the peak over one five-trial
# grad_check per kind was 301-392 KB (tracemalloc), 2.3 to 3.0 times the
# budget.  On a shared 2-core host the benchmark's gradcheck workload ran
# about a third faster at 256 KiB, with about 0.3 MB more peak RSS.
PROBE_BUDGET_BYTES = 128 << 10


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


def parse_config_text(text: str) -> TrainConfig:
    """key = value lines; '#' comments and blank lines allowed; unknown keys fail.
    Each value parses by its field's declared type; clip_norm may be none."""
    types = {f.name: f.type for f in fields(TrainConfig)}
    values = {}
    for line_no, raw in enumerate(split_lines(text), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {line_no}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in types:
            raise ValueError(f"config line {line_no}: unknown key {key!r}")
        if key in values:
            raise ValueError(f"config line {line_no}: duplicate key {key!r}")
        ftype = types[key]
        if ftype is bool:
            if val.lower() not in ("true", "false"):
                raise ValueError(f"config line {line_no}: {key} must be true or false")
            values[key] = val.lower() == "true"
        elif ftype is str:
            values[key] = val
        elif key == "clip_norm" and val.lower() == "none":
            values[key] = None
        else:
            try:
                values[key] = ftype(val)
            except ValueError:
                what = "an integer" if ftype is int else "a number"
                raise ValueError(f"config line {line_no}: {key} must be {what}, "
                                 f"got {val!r}") from None
    return TrainConfig(**values)


def load_config(path) -> TrainConfig:
    """parse_config_text of a UTF-8 file as data.read_text reads it."""
    return parse_config_text(read_text(path))


def format_config(cfg: TrainConfig) -> str:
    lines = []
    for f in fields(TrainConfig):
        v = getattr(cfg, f.name)
        if f.type is bool:
            v = "true" if v else "false"
        elif f.name == "clip_norm" and v is None:
            v = "none"
        lines.append(f"{f.name} = {v}")
    return "\n".join(lines) + "\n"


def config_as_dict(cfg: TrainConfig) -> dict:
    return {f.name: getattr(cfg, f.name) for f in fields(TrainConfig)}


@dataclass
class AdamState:
    """First and second moment estimates, one vector each laid out like
    the parameter vector, plus the step counter."""

    m: np.ndarray
    v: np.ndarray
    t: int = 0


@dataclass
class EpochReport:
    epoch: int
    loss: float
    val_rmse: float = None
    seconds: float = 0.0


def _glorot(rng: SplitMix64, rows: int, cols: int) -> np.ndarray:
    bound = np.sqrt(6.0 / (rows + cols))
    return rng.uniforms(rows * cols, -bound, bound).reshape(rows, cols)


def model_dims(kind: ModelKind, cfg: TrainConfig, vocab) -> dict:
    """Dimension record stored in checkpoints: the table width, the hidden
    size of every level (all levels train at cfg.hidden_size), the MLP
    width and the vocabulary size."""
    spec = spec_of(kind)
    dims = {spec.table_dim: getattr(cfg, spec.table_dim)}
    dims.update((hidden_key, cfg.hidden_size) for _, hidden_key in spec.levels)
    dims.update(mlp_dim=cfg.mlp_dim, vocab_size=vocab.size)
    return dims


def physical_memory() -> int:
    """Bytes of physical memory of this machine."""
    return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")


def init_params(kind: ModelKind, dims: dict, seed: int, scheme: str = "glorot"):
    """Deterministic initialization of the kind's bundle, by the shape of
    each tensor: the spec's embedding table uniform in [-0.1, 0.1], every
    other matrix Glorot-uniform, and the vectors, which are exactly the
    biases, left at zero.  Each tensor draws from its own name-derived
    stream, so values do not depend on creation order."""
    rng = SplitMix64(seed).derive("init")
    params = empty_params(kind, dims)
    if scheme != "zeros":
        for name, view in params.items():
            if name == params.spec.table:
                view[...] = rng.derive(name).uniforms(view.size, -0.1, 0.1).reshape(view.shape)
            elif view.ndim == 2:
                view[...] = _glorot(rng.derive(name), *view.shape)
    return params


def adam_step(theta: np.ndarray, g: np.ndarray, state: AdamState, cfg: TrainConfig) -> None:
    """One Adam update with bias correction, in place on the parameter
    vector theta, from the gradient vector g, ADAM_SLICE entries at a time."""
    if g.shape != theta.shape:
        raise ValueError(f"gradient shape {g.shape} != parameter shape {theta.shape}")
    state.t += 1
    b1, b2, eps, lr = cfg.beta1, cfg.beta2, cfg.epsilon, cfg.learning_rate
    c1 = 1.0 - b1 ** state.t
    c2 = 1.0 - b2 ** state.t
    for lo in range(0, len(theta), ADAM_SLICE):
        part = slice(lo, lo + ADAM_SLICE)
        m, v, gs = state.m[part], state.v[part], g[part]
        m *= b1
        m += (1.0 - b1) * gs
        v *= b2
        v += (1.0 - b2) * gs * gs
        theta[part] -= lr * (m / c1) / (np.sqrt(v / c2) + eps)


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


def _pack_step(reg: Regressor, units: list, ys: list, dropout, scale: float,
               grads: ModelParams) -> list:
    """One forward and one backward pass over a pack of training tweets:
    adds the gradients of scale * (y_hat - y)^2 of each into grads and
    returns their errors y_hat - y, in order.  The pack's traces are freed
    on return."""
    y_hat, trace = reg.forward_units(units, dropout)
    errs = [float(y) - target for y, target in zip(y_hat, ys)]
    reg.backward(trace, [2.0 * err * scale for err in errs], grads)
    return errs


def _first_failing(reg: Regressor, units: list, pack: list, replay, error):
    """(index, error) of the first tweet of a pack that failed whose own
    pass fails, each run alone on the pack's dropout draws replayed; the
    pack's first tweet and error if none does alone."""
    for i in pack:
        try:
            reg.forward_units([units[i]], replay)
        except FloatingPointError as e:
            return i, e
    return pack[0], error


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
    validation pass's naming the trait, the epoch and validation.  A model
    whose parameters, gradients and two Adam moments (4 x 8 bytes per
    entry) exceed physical memory is refused with ValueError before
    anything of it is allocated.
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
    need = 4 * 8 * sum(math.prod(shape) for _, shape in tensor_shapes(kind, dims))
    have = physical_memory()
    if need > have:
        raise ValueError(f"{kind.value} at these dimensions needs {need} bytes for its "
                         f"parameters, gradients and Adam moments; this machine has "
                         f"{have} bytes of physical memory")
    params = init_params(kind, dims, cfg.seed, cfg.init_scheme)
    reg = Regressor(kind=kind, params=params, vocab=vocab)
    adam = AdamState(m=np.zeros_like(params.flat), v=np.zeros_like(params.flat))
    grads = zero_grads(params)
    shuffle_rng = SplitMix64(cfg.seed).derive("shuffle")
    dropout_rng = SplitMix64(cfg.seed).derive("dropout")
    dropout = None
    if cfg.dropout_rate > 0.0:
        dropout = DropoutPlan(cfg.dropout_rate, dropout_rng, cfg.dropout_words,
                              cfg.dropout_sentence)
    units = [reg.unit_ids(tw) for tw in train_tweets]
    cost = projection_bytes(params, units)
    ys = [tw.traits.get(trait) for tw in train_tweets]
    val_ys = [tw.traits.get(trait) for tw in val_tweets]
    reports = []
    n = len(train_tweets)
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = list(range(n))
        shuffle_rng.shuffle(order)
        sq_sum = 0.0
        for batch_no, bounds in enumerate(budgeted_chunks([1] * n, cfg.batch_size), start=1):
            batch = sorted(order[slice(*bounds)])
            grads.flat.fill(0.0)
            for lo, hi in budgeted_chunks([cost[i] for i in batch], PACK_BUDGET_BYTES):
                pack = batch[lo:hi]
                rng_before = copy.copy(dropout_rng)
                try:
                    errs = _pack_step(reg, [units[i] for i in pack], [ys[i] for i in pack],
                                      dropout, 1.0 / len(batch), grads)
                except FloatingPointError as e:
                    replay = dropout and replace(dropout, rng=rng_before)
                    i, e = _first_failing(reg, units, pack, replay, e)
                    raise FloatingPointError(
                        f"{e} (trait {trait}, epoch {epoch}, batch {batch_no}, "
                        f"training tweet {train_idx[i]})") from e
                for err in errs:
                    sq_sum += err * err
            if cfg.clip_norm is not None:
                clip_gradients(grads, cfg.clip_norm)
            adam_step(params.flat, grads.flat, adam, cfg)
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
                      config=config_as_dict(cfg), tensors=params)
    return ckpt, reports


EPOCH_CSV_HEADER = "epoch,loss,val_rmse,seconds\n"


def epoch_csv_row(r: EpochReport) -> str:
    val = "" if r.val_rmse is None else repr(r.val_rmse)
    return f"{r.epoch},{r.loss!r},{val},{r.seconds:.3f}\n"


_GRADCHECK_ALPHABET = "abcdefg"


def _random_tiny_instance(kind: ModelKind, rng: SplitMix64):
    """Random tiny regressor plus one input tweet for gradient checking."""
    d_c = (1, 2, 3, 5)[rng.below(4)]
    h = (1, 2, 3, 5)[rng.below(4)]
    m = (1, 2, 3)[rng.below(3)]
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


def probe_scores(reg: Regressor, tweet, eps: float) -> np.ndarray:
    """The tweet's score with parameter entry i moved by +eps (at 2i) and
    by -eps (at 2i + 1), every other entry as it is.

    Consecutive entries are probed together, within PROBE_BUDGET_BYTES:
    the chunk's perturbed vectors are the rows of one matrix, scored in
    one trace-free walk over the stacked bundle.  reg is not written.
    """
    theta = reg.params.flat
    units = [reg.unit_ids(tweet)]
    scores = np.empty(2 * len(theta))
    for lo, hi in budgeted_chunks([2 * theta.nbytes] * len(theta), PROBE_BUDGET_BYTES):
        j = np.arange(hi - lo)
        probes = np.tile(theta, (2 * len(j), 1))
        probes[2 * j, lo + j] += eps
        probes[2 * j + 1, lo + j] -= eps
        stack = empty_params(reg.kind, reg.params.dims, probes)
        scores[2 * lo:2 * hi] = mlp_forward(stack.head, final_rows(stack, units))[0][:, 0]
        del probes, stack  # before the next chunk's tile: one chunk is alive at a time
    return scores


def check_gradients(reg: Regressor, tweet, y: float, eps: float = 1e-5,
                    corrupt: tuple = None) -> float:
    """Max relative error of analytic vs central-difference gradients; NaN
    if any entry's comparison is not finite.

    The loss is the squared error of a single example; a probe's loss that
    overflows raises FloatingPointError.  corrupt=(name, delta) perturbs
    one analytic gradient entry, as a sensitivity canary for the checker
    itself.
    """
    y_hat, trace = reg.forward(tweet)
    analytic = reg.backward(trace, 2.0 * (y_hat - y))
    if corrupt is not None:
        name, delta = corrupt
        analytic[name].reshape(-1)[0] += delta
    scores = probe_scores(reg, tweet, eps)
    with np.errstate(over="raise"):
        loss = (scores - y) ** 2
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite entry reads NaN
        numeric = (loss[0::2] - loss[1::2]) / (2.0 * eps)
        denom = np.maximum(np.maximum(np.abs(analytic.flat), np.abs(numeric)), 1e-8)
        return float(np.max(np.abs(analytic.flat - numeric) / denom))


def grad_check(kind: ModelKind, n_trials: int = 20, eps: float = 1e-5,
               seed: int = 20240) -> float:
    """Max relative error over n random tiny instances of the given kind;
    NaN if any instance's is."""
    kind = ModelKind(kind)
    spec_of(kind)
    rng = SplitMix64(seed).derive("gradcheck")
    worst = 0.0
    for _ in range(n_trials):
        reg, tweet, y = _random_tiny_instance(kind, rng)
        worst = np.maximum(worst, check_gradients(reg, tweet, y, eps))
    return float(worst)
