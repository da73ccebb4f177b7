"""The hierarchical char->word->sentence regressor and the two RNN baselines.

Every trainable kind is one regressor: an embedding table, a stack of
bidirectional GRU levels and a one-hidden-layer MLP (ReLU) head that
maps the top level's output to a scalar score.  One walk over the
levels serves every kind:

1. look up the table columns of the tweet's units: the tokens' characters
   for C2W2S4PT, the tokens for the word baseline and the characters of
   the normalized text for the character baseline (a column lookup is
   the one-hot product, mathematically identical);
2. run each level below the top as a bi-GRU packed over the tokens, so
   each token becomes one row: the concatenated final states of its two
   directions.  In C2W2S4PT that level composes each word from its
   characters (Ling et al. 2015, arXiv:1508.02096);
3. run the top level over the rows, as a pack of one, and the head over
   its one output row, the sentence vector (flat_forward).

The backward pass walks the same steps in reverse (flat_backward, then
the lower levels) and ends in one scatter-add into the table columns
that were looked up.

The three kinds differ only in what SPECS holds for each: the embedding
table and its width, the bi-GRU levels bottom-up, the vocabulary and
where its units come from, and whether the top level's inputs take the
word-site mask.  One ModelParams class holds any kind's tensors and is
itself their read-only mapping of name to tensor, in the order the spec
gives, which is the checkpoint order.  checkpoint.load fills a zero
bundle from empty_params in place and Checkpoint.to_regressor uses that
bundle as is, so a loaded model is never rebuilt or copied.

Inverted dropout can be applied at two sites during training: to each
row entering the top level (the composed word vectors, or the word
baseline's lookups) and to the sentence vector entering the MLP.  The
masks are drawn in that order, the rows' as one draw, so the dropout
stream is consumed deterministically; inference never applies a mask.

A level below the top packs all tokens of one tweet into one pass: the
tokens are sorted by length, longest first and stable among equal
lengths, and step t advances only the tokens longer than t, without
padding, as one matrix product per direction (the stacked, batched cell
follows Appleyard et al. 2016).  In training, packing stops at the tweet
boundary on purpose: packing a whole mini-batch would keep the traces of
all its tweets alive at once (47 MB for 32 tweets of 64 characters on
average at paper dimensions), while one tweet's traces are freed as soon
as its gradients are added.

Scoring without gradients (Regressor.score_many, behind predict,
visualize, cross-validation's held-out folds and the per-epoch
validation) keeps no traces, so it packs across tweets: each level runs
over the sequences of a chunk of tweets at once, and the head is one
product over their sentence vectors.  A chunk's size is bounded by
SCORE_BUDGET_BYTES, the memory of the input projection that an unroll
takes before its time loop.  score and embedding stay the traced
one-tweet pass, which the gradient checker probes.
"""

import math
from collections import OrderedDict
from collections.abc import Mapping
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .data import CharVocab, WordVocab
from .gru import (TENSOR_NAMES, BiRnnParams, BiRnnTrace, GruParams, birnn_backward,
                  birnn_final, birnn_forward, birnn_output, require_finite)
from .rng import SplitMix64

# Bytes that the input projection X W^T of one unroll, hoisted out of its
# time loop, may take when score_many packs several tweets into one pass.
SCORE_BUDGET_BYTES = 4 << 20


class ModelKind(str, Enum):
    AVERAGE = "average"
    BI_GRU_CHAR = "bigru-char"
    BI_GRU_WORD = "bigru-word"
    C2W2S4PT = "c2w2s4pt"


@dataclass(frozen=True)
class KindSpec:
    """What tells one trainable kind from another.

    Every kind is an embedding table, one or more bi-GRU levels and the
    MLP head; the spec names the parts.  It holds names and plain values
    only, never functions, so the code that reads it calls the module's
    functions by their global names.
    """

    table: str        # embedding tensor name
    table_dim: str    # dims key of its width, also the TrainConfig field
    levels: tuple     # (tensor-name prefix, hidden-size dims key) per level, bottom-up
    vocab: type       # CharVocab or WordVocab
    source: str       # ids come from the "tokens" or the normalized "text"
    mask_top: bool    # word-site dropout on the top level's inputs


SPECS = {
    ModelKind.C2W2S4PT: KindSpec("e_c", "char_dim",
                                 (("char_", "char_hidden"), ("word_", "word_hidden")),
                                 CharVocab, "tokens", True),
    ModelKind.BI_GRU_CHAR: KindSpec("e_c", "char_dim", (("char_", "hidden"),),
                                    CharVocab, "text", False),
    ModelKind.BI_GRU_WORD: KindSpec("e_w", "word_dim", (("word_", "hidden"),),
                                    WordVocab, "tokens", True),
}
TRAINABLE_KINDS = tuple(SPECS)


def spec_of(kind) -> KindSpec:
    kind = ModelKind(kind)
    if kind not in SPECS:
        raise ValueError(f"kind {kind.value} is not trainable")
    return SPECS[kind]


@dataclass
class DropoutPlan:
    """Training-time dropout configuration; masks come from a shared stream."""

    rate: float
    rng: SplitMix64
    on_words: bool = True
    on_sentence: bool = True

    def __post_init__(self):
        if not (0.0 <= self.rate < 1.0):
            raise ValueError(f"dropout rate must be in [0, 1), got {self.rate}")

    def draw_mask(self, n: int) -> np.ndarray:
        """Inverted-dropout mask: kept entries carry 1/(1-rate), dropped 0."""
        keep = self.rng.uniforms(n) >= self.rate
        return keep.astype(np.float64) / (1.0 - self.rate)


@dataclass
class MlpHead:
    """ReLU hidden layer plus linear output: y = w_hy @ relu(w_eh x + b_h) + b_y."""

    w_eh: np.ndarray  # mlp_dim x in_dim
    b_h: np.ndarray   # mlp_dim
    w_hy: np.ndarray  # 1 x mlp_dim
    b_y: np.ndarray   # shape (1,)

    def __post_init__(self):
        m, _ = self.w_eh.shape
        if self.b_h.shape != (m,):
            raise ValueError(f"b_h shape {self.b_h.shape} != ({m},)")
        if self.w_hy.shape != (1, m):
            raise ValueError(f"w_hy shape {self.w_hy.shape} != (1, {m})")
        if self.b_y.shape != (1,):
            raise ValueError(f"b_y shape {self.b_y.shape} != (1,)")

    @property
    def in_dim(self) -> int:
        return self.w_eh.shape[1]

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            [("w_eh", self.w_eh), ("b_h", self.b_h), ("w_hy", self.w_hy), ("b_y", self.b_y)]
        )


@dataclass
class HeadTrace:
    x_fed: np.ndarray      # input after any dropout mask
    pre_relu: np.ndarray
    h_s: np.ndarray
    y: float


@dataclass
class ModelParams(Mapping):
    """All tensors of one trainable kind: the embedding table (width x
    vocabulary), one bi-GRU per level of the kind's spec, bottom-up, and
    the head.  The shape chain is validated level by level.

    The bundle is also the read-only mapping of tensor name to tensor, in
    the order the spec gives, which is the checkpoint order; each GRU
    direction's nine named tensors are views of its stacked W, U and b.
    """

    kind: ModelKind
    table: np.ndarray
    levels: tuple  # BiRnnParams, one per spec level
    head: MlpHead
    spec: KindSpec = field(init=False, repr=False, compare=False)
    _named: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = spec = spec_of(self.kind)
        if len(self.levels) != len(spec.levels):
            raise ValueError(f"{self.kind.value} has {len(spec.levels)} rnn levels, "
                             f"got {len(self.levels)}")
        need, what = self.table.shape[0], f"embedding dim {self.table.shape[0]}"
        for (prefix, _), rnn in zip(spec.levels, self.levels):
            level = prefix.rstrip("_")
            if rnn.input_size != need:
                raise ValueError(f"{level} rnn input {rnn.input_size} != {what}")
            need, what = 2 * rnn.hidden_size, f"2 * {level} hidden {rnn.hidden_size}"
        if self.head.in_dim != need:
            raise ValueError(f"mlp input {self.head.in_dim} != {what}")
        self._named = {spec.table: self.table}
        for (prefix, _), rnn in zip(spec.levels, self.levels):
            self._named.update(rnn.tensors(prefix))
        self._named.update(self.head.tensors())

    def __getitem__(self, name: str) -> np.ndarray:
        return self._named[name]

    def __iter__(self):
        return iter(self._named)

    def __len__(self) -> int:
        return len(self._named)

    def tensors(self) -> "ModelParams":
        return self


@dataclass
class Trace:
    """What the backward pass of one tweet reads, for every kind."""

    mask: np.ndarray       # word-site mask on the top level's input rows; None when unmasked
    top: BiRnnTrace
    e_s: np.ndarray        # the sentence vector
    sent_mask: np.ndarray  # None when no sentence-site dropout
    head: HeadTrace
    ids: np.ndarray = None  # the table columns looked up, in order
    lower: list = ()        # BiRnnTrace of each level below the top, packed over the tokens


def head_forward(head: MlpHead, x: np.ndarray) -> HeadTrace:
    pre = require_finite("mlp head", head.w_eh @ x) + head.b_h
    h_s = np.maximum(pre, 0.0)
    y = float(head.w_hy[0] @ h_s) + float(head.b_y[0])
    if not math.isfinite(y):
        raise FloatingPointError("mlp head produced a non-finite score")
    return HeadTrace(x_fed=x, pre_relu=pre, h_s=h_s, y=y)


def head_scores(head: MlpHead, E: np.ndarray) -> np.ndarray:
    """head_forward's score for each row of E, one product per layer."""
    pre = require_finite("mlp head", E @ head.w_eh.T) + head.b_h
    y = np.maximum(pre, 0.0) @ head.w_hy[0] + head.b_y[0]
    if not np.isfinite(y).all():
        raise FloatingPointError("mlp head produced a non-finite score")
    return y


def _head_backward(head: MlpHead, tr: HeadTrace, d_y: float, grads: dict) -> np.ndarray:
    d_h_s = head.w_hy[0] * d_y
    d_pre = d_h_s * (tr.pre_relu > 0)
    grads["w_hy"] += d_y * tr.h_s[None, :]
    grads["b_y"] += d_y
    grads["w_eh"] += np.outer(d_pre, tr.x_fed)
    grads["b_h"] += d_pre
    return head.w_eh.T @ d_pre


def zero_grads(params: ModelParams) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((k, np.zeros_like(v)) for k, v in params.items())


def _add_grads(grads: dict, prefix: str, delta: dict) -> None:
    for k, v in delta.items():
        grads[prefix + k] += v


def flat_forward(params: ModelParams, xs: np.ndarray, dropout: DropoutPlan = None):
    """The top level and the head, which every kind ends in, over input
    rows xs (one per word or character); returns (score, trace).

    The word-site mask, when the spec asks for one, is one draw over all
    rows in row order; the sentence mask is drawn after it.
    """
    dropping = dropout is not None and dropout.rate > 0.0
    mask = None
    if dropping and dropout.on_words and params.spec.mask_top:
        mask = dropout.draw_mask(xs.size).reshape(xs.shape)
        xs = xs * mask
    top = birnn_forward(params.levels[-1], xs, [len(xs)])
    e_s = birnn_output(top)[0]
    sent_mask = dropout.draw_mask(e_s.shape[0]) if dropping and dropout.on_sentence else None
    head = head_forward(params.head, e_s * sent_mask if sent_mask is not None else e_s)
    return head.y, Trace(mask=mask, top=top, e_s=e_s, sent_mask=sent_mask, head=head)


def flat_backward(params: ModelParams, trace: Trace, d_y: float, grads: dict) -> np.ndarray:
    """Adds the head's and the top level's gradients, scaled by d_y, to
    grads; returns the gradient on flat_forward's input rows."""
    d_in = _head_backward(params.head, trace.head, d_y, grads)
    d_e_s = d_in * trace.sent_mask if trace.sent_mask is not None else d_in
    g, d_xs = birnn_backward(params.levels[-1], trace.top, d_e_s[None])
    _add_grads(grads, params.spec.levels[-1][0], g)
    return d_xs * trace.mask if trace.mask is not None else d_xs


def mse_loss(preds, truths) -> float:
    """Mean squared error over paired sequences."""
    if len(preds) != len(truths):
        raise ValueError(f"length mismatch: {len(preds)} predictions vs {len(truths)} truths")
    if len(preds) == 0:
        raise ValueError("mse_loss requires at least one pair")
    p = np.asarray(preds, dtype=np.float64)
    t = np.asarray(truths, dtype=np.float64)
    return float(np.mean((t - p) ** 2))


def _gru_shapes(prefix: str, d_in: int, h: int) -> list:
    shape = {"w": (h, d_in), "u": (h, h), "b": (h,)}
    return [(f"{prefix}{direction}.{name}", shape[name[0]])
            for direction in ("fwd", "bwd") for name in TENSOR_NAMES]


def tensor_shapes(kind: ModelKind, dims: dict) -> list:
    """(name, shape) of every tensor of the kind, in checkpoint order."""
    spec = spec_of(kind)
    width = dims[spec.table_dim]
    shapes = [(spec.table, (width, dims["vocab_size"]))]
    for prefix, hidden_key in spec.levels:
        shapes += _gru_shapes(prefix, width, dims[hidden_key])
        width = 2 * dims[hidden_key]
    m = dims["mlp_dim"]
    return shapes + [("w_eh", (m, width)), ("b_h", (m,)), ("w_hy", (1, m)), ("b_y", (1,))]


def empty_params(kind: ModelKind, dims: dict) -> ModelParams:
    """The kind's zero-filled bundle: its tensors are exactly the names and
    shapes of tensor_shapes, in that order."""
    spec = spec_of(kind)
    width = dims[spec.table_dim]
    table = np.zeros((width, dims["vocab_size"]))
    levels = []
    for _, hidden_key in spec.levels:
        h = dims[hidden_key]
        levels.append(BiRnnParams(GruParams.zeros(width, h), GruParams.zeros(width, h)))
        width = 2 * h
    m = dims["mlp_dim"]
    head = MlpHead(w_eh=np.zeros((m, width)), b_h=np.zeros(m), w_hy=np.zeros((1, m)),
                   b_y=np.zeros(1))
    return ModelParams(ModelKind(kind), table, tuple(levels), head)


@dataclass
class Regressor:
    """One trainable model: kind, its parameter bundle and its vocabulary."""

    kind: ModelKind
    params: ModelParams
    vocab: object  # the spec's vocabulary class

    def tensors(self) -> ModelParams:
        return self.params

    def unit_ids(self, tweet):
        """(table columns to look up, lengths): for a kind with a level
        below the top, the characters of every token in order and each
        token's length; otherwise one column per unit and no lengths."""
        spec = self.params.spec
        units = tweet.tokens if spec.source == "tokens" else tweet.normalized_text
        if not units:
            raise ValueError("cannot encode a tweet without input units")
        if len(spec.levels) > 1:
            per_unit = [self.vocab.ids_of(u) for u in units]
            return (np.fromiter((i for ids in per_unit for i in ids), dtype=np.intp),
                    [len(ids) for ids in per_unit])
        return np.array([self.vocab.id_of(u) for u in units], dtype=np.intp), None

    def forward(self, tweet, dropout: DropoutPlan = None):
        """(score, trace) for one tweet (anything with tokens/normalized_text)."""
        ids, lengths = self.unit_ids(tweet)
        x = self.params.table.T[ids]
        lower = []
        for rnn in self.params.levels[:-1]:
            lower.append(birnn_forward(rnn, x, lengths))
            x = birnn_output(lower[-1])
        y, trace = flat_forward(self.params, x, dropout)
        trace.ids, trace.lower = ids, lower
        return y, trace

    def backward(self, trace: Trace, d_y: float, grads: dict = None) -> dict:
        """Exact gradients of the score w.r.t. every tensor, scaled by d_y.

        The input rows' gradients land in the table columns of the units
        seen, in one scatter-add.  Pass grads to accumulate across examples.
        """
        params = self.params
        if grads is None:
            grads = zero_grads(params)
        d_x = flat_backward(params, trace, d_y, grads)
        below = list(zip(params.spec.levels, params.levels, trace.lower))
        for (prefix, _), rnn, tr in reversed(below):
            g, d_x = birnn_backward(rnn, tr, d_x)
            _add_grads(grads, prefix, g)
        np.add.at(grads[params.spec.table].T, trace.ids, d_x)
        return grads

    def score_many(self, tweets):
        """(scores, sentence vectors) of many tweets, in their order: the
        walk of forward without dropout and without traces.

        Consecutive tweets are scored together in chunks whose lowest
        level's input projection fits SCORE_BUDGET_BYTES (a tweet over it
        runs alone).  Each level runs packed over all sequences of a
        chunk: the lower levels over the tokens of its tweets, the top
        level over its tweets; the head is one product over their
        sentence vectors.  Scores agree with score's to rounding (the
        matrix products block other row counts), not bit for bit.
        """
        params = self.params
        units = [self.unit_ids(tw) for tw in tweets]
        row_bytes = 24 * max(rnn.hidden_size for rnn in params.levels)  # 3h float64s
        cost = [len(ids) * row_bytes for ids, _ in units]
        E = np.empty((len(units), 2 * params.levels[-1].hidden_size))
        lo = 0
        while lo < len(units):
            hi, size = lo + 1, cost[lo]
            while hi < len(units) and size + cost[hi] <= SCORE_BUDGET_BYTES:
                size += cost[hi]
                hi += 1
            chunk = units[lo:hi]
            x = params.table.T[np.concatenate([ids for ids, _ in chunk])]
            if len(params.levels) > 1:
                lengths = [n for _, ls in chunk for n in ls]
                for rnn in params.levels[:-1]:
                    x = birnn_final(rnn, x, lengths)
            rows = [len(ids) if ls is None else len(ls) for ids, ls in chunk]
            E[lo:hi] = birnn_final(params.levels[-1], x, rows)
            lo = hi
        return head_scores(params.head, E), E

    def score(self, tweet) -> float:
        return self.forward(tweet)[0]

    def embedding(self, tweet) -> np.ndarray:
        """Sentence vector fed to the MLP head (inference, no dropout)."""
        return self.forward(tweet)[1].e_s
