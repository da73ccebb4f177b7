"""The hierarchical char->word->sentence regressor and the two RNN baselines.

Every trainable kind is one regressor: an embedding table, a stack of
bidirectional GRU levels and a one-hidden-layer MLP (ReLU) head that
maps the top level's output to a scalar score.  One walk over the
levels serves every kind:

1. look up the table columns of the tweets' units: the tokens' characters
   for C2W2S4PT, the tokens for the word baseline and the characters of
   the normalized text for the character baseline (a column lookup is
   the one-hot product, mathematically identical);
2. run each level below the top as a bi-GRU packed over the tokens, so
   each token becomes one row: the concatenated final states of its two
   directions.  In C2W2S4PT that level composes each word from its
   characters (Ling et al. 2015, arXiv:1508.02096);
3. run the top level over the rows, one sequence per tweet, and the head
   over its output rows, the sentence vectors (flat_forward).

The backward pass walks the same steps in reverse (flat_backward, then
the lower levels) and ends in one scatter-add into the table columns
that were looked up.

The three kinds differ only in what SPECS holds for each: the embedding
table and its width, the bi-GRU levels bottom-up, the vocabulary and
where its units come from, and whether the top level's inputs take the
word-site mask.  One ModelParams class holds any kind's tensors and is
itself their read-only mapping of name to tensor, in the checkpoint
order.  empty_params lays them out once, as consecutive views of one
float64 vector (flat); gradient and Adam moment vectors share that
layout.  The gradient is such a bundle too (zero_grads): the backward
pass adds into its levels, head and table as the forward pass reads the
parameters'.  checkpoint.load fills a zero bundle in place and
Checkpoint.to_regressor uses it as is, so a loaded model is never copied.

Inverted dropout can be applied at two sites during training: to each
row entering the top level (the composed word vectors, or the word
baseline's lookups) and to the sentence vector entering the MLP.  Each
tweet draws its rows' mask and then its sentence mask, and a pack of
tweets draws them in tweet order as one call to the stream, so the
stream is consumed as if the tweets ran one at a time; inference never
applies a mask.

Every pass runs a pack of tweets given by their unit_ids
(Regressor.forward_units; forward is the pack of one).  A level below
the top packs all tokens of all the pack's tweets into one pass: the
tokens are sorted by length, longest first and stable among equal
lengths, and step t advances only the tokens longer than t, without
padding, as one matrix product per direction (the stacked, batched cell
follows Appleyard et al. 2016).  The top level runs over the tweets the
same way, and the head is one product per layer over their sentence
vectors (mlp_forward).  A pack keeps the traces of all its tweets alive
until its backward pass: per level and direction, one gru.RnnTrace of
arrays holding the input rows and 5h floats per packed row.  So training
cuts each mini-batch into consecutive packs whose lowest level's input
projection stays under a byte budget (budgeted_chunks, projection_bytes).

Scoring without gradients (Regressor.score_many, behind predict,
visualize, cross-validation's held-out folds and the per-epoch
validation) keeps no traces, so its chunks may be larger: a chunk's size
is bounded by SCORE_BUDGET_BYTES, the memory of the input projection
that an unroll takes before its time loop.  Its walk, final_rows and
mlp_forward, also runs many parameter vectors at once: empty_params over
a (P, n) matrix stacks P bundles on a leading axis, and every tensor,
row and score of the walk gains that axis.  The gradient checker scores
its perturbed copies of a model that way.  score and embedding stay the
traced pass of one tweet.
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

    @property
    def in_dim(self) -> int:
        return self.w_eh.shape[-1]

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict(
            [("w_eh", self.w_eh), ("b_h", self.b_h), ("w_hy", self.w_hy), ("b_y", self.b_y)]
        )


@dataclass
class ModelParams(Mapping):
    """All tensors of one trainable kind: the embedding table (width x
    vocabulary), one bi-GRU per level of the kind's spec, bottom-up, and
    the head, each a view of the one vector flat (see empty_params, the
    only constructor).

    The bundle is also the read-only mapping of tensor name to tensor, in
    the order the spec gives, which is the checkpoint order; each GRU
    direction's nine named tensors are views of its stacked W, U and b.
    """

    kind: ModelKind
    dims: dict
    flat: np.ndarray
    table: np.ndarray
    levels: tuple  # BiRnnParams, one per spec level
    head: MlpHead
    spec: KindSpec = field(init=False, repr=False, compare=False)
    _named: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        self.spec = spec = spec_of(self.kind)
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
    """What the backward pass of a pack of tweets reads, for every kind."""

    mask: np.ndarray       # word-site masks on the top level's input rows; None when unmasked
    top: BiRnnTrace        # the top level, one sequence per tweet
    e_s: np.ndarray        # the sentence vectors, one row per tweet
    sent_mask: np.ndarray  # sentence-site masks, one row per tweet; None when unmasked
    pre_relu: np.ndarray   # the head's hidden pre-activations, one row per tweet
    ids: np.ndarray = None  # the table columns looked up, in order
    lower: list = ()        # BiRnnTrace of each level below the top, packed over the tokens


def mlp_forward(head: MlpHead, X: np.ndarray):
    """The head's score of each row of X, one product per layer; returns
    (scores, hidden pre-activations).  A stacked head scores a stack of
    rows per parameter set."""
    pre = require_finite("mlp head", X @ head.w_eh.mT) + head.b_h[..., None, :]
    y = (np.maximum(pre, 0.0) @ head.w_hy.mT)[..., 0] + head.b_y
    if not np.isfinite(y).all():
        raise FloatingPointError("mlp head produced a non-finite score")
    return y, pre


def mlp_backward(head: MlpHead, X: np.ndarray, pre: np.ndarray, d_y: np.ndarray,
                 grads: MlpHead) -> np.ndarray:
    """Adds the head's gradients over rows X, each row's scaled by its d_y,
    into the gradient head grads; returns the gradient on X."""
    d_pre = np.outer(d_y, head.w_hy[0]) * (pre > 0)
    grads.w_hy += d_y @ np.maximum(pre, 0.0)
    grads.b_y += d_y.sum()
    grads.w_eh += d_pre.T @ X
    grads.b_h += d_pre.sum(axis=0)
    return d_pre @ head.w_eh


def zero_grads(params: ModelParams) -> ModelParams:
    """A zero gradient bundle of params' layout: every tensor a view of the
    one gradient vector grads.flat."""
    return empty_params(params.kind, params.dims)


def _draw_masks(params: ModelParams, dropout: DropoutPlan, rows: list, width: int):
    """(word-site masks, one row per top-level input row; sentence masks,
    one row per tweet), None for a site without dropout.

    Each tweet draws its rows' mask in row order and then its sentence
    mask; a pack's draws are one call to the stream, in tweet order.
    """
    if dropout is None or dropout.rate == 0.0:
        return None, None
    w = width if dropout.on_words and params.spec.mask_top else 0
    s = 2 * params.levels[-1].hidden_size if dropout.on_sentence else 0
    if not (w or s):
        return None, None
    ends = np.cumsum([n * w + s for n in rows])
    draw = dropout.draw_mask(int(ends[-1]))
    at_sentence = (ends - s)[:, None] + np.arange(s)
    in_rows = np.ones(len(draw), dtype=bool)
    in_rows[at_sentence] = False
    return (draw[in_rows].reshape(-1, width) if w else None,
            draw[at_sentence] if s else None)


def flat_forward(params: ModelParams, xs: np.ndarray, rows: list, dropout: DropoutPlan = None):
    """The top level and the head, which every kind ends in, over the input
    rows xs (one per word or character) of a pack of tweets, rows[i] of
    them for tweet i; returns (scores, trace)."""
    mask, sent_mask = _draw_masks(params, dropout, rows, xs.shape[1])
    if mask is not None:
        xs = xs * mask
    top = birnn_forward(params.levels[-1], xs, rows)
    e_s = birnn_output(top)
    y, pre = mlp_forward(params.head, e_s * sent_mask if sent_mask is not None else e_s)
    return y, Trace(mask=mask, top=top, e_s=e_s, sent_mask=sent_mask, pre_relu=pre)


def flat_backward(params: ModelParams, trace: Trace, d_y: np.ndarray,
                  grads: ModelParams) -> np.ndarray:
    """Adds the head's and the top level's gradients, each tweet's scaled by
    its d_y, into grads; returns the gradient on flat_forward's input rows."""
    sent_mask = trace.sent_mask
    fed = trace.e_s * sent_mask if sent_mask is not None else trace.e_s
    d_in = mlp_backward(params.head, fed, trace.pre_relu, d_y, grads.head)
    g, d_xs = birnn_backward(params.levels[-1], trace.top,
                             d_in * sent_mask if sent_mask is not None else d_in)
    grads.levels[-1].accumulate(g)
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


def empty_params(kind: ModelKind, dims: dict, flat: np.ndarray = None) -> ModelParams:
    """The kind's bundle over one float64 vector, a new zero one unless
    flat is given: its tensors are exactly the names and shapes of
    tensor_shapes, in that order, and are consecutive views of the vector
    at running offsets.  A direction's w_z, w_r, w_h run is its stacked W,
    and likewise for U and b.

    Over a C-contiguous (P, n) matrix, one parameter vector per row, the
    bundle is P bundles stacked on a leading axis: each tensor is the
    (P, *shape) view of its columns."""
    spec = spec_of(kind)
    if flat is None:
        flat = np.zeros(sum(math.prod(shape) for _, shape in tensor_shapes(kind, dims)))
    at = 0

    def take(*shape):
        nonlocal at
        lo, at = at, at + math.prod(shape)
        return flat[..., lo:at].reshape(flat.shape[:-1] + shape)

    width = dims[spec.table_dim]
    table = take(width, dims["vocab_size"])
    levels = []
    for _, hidden_key in spec.levels:
        h = dims[hidden_key]
        levels.append(BiRnnParams(*(GruParams(take(3 * h, width), take(3 * h, h), take(3 * h))
                                    for _ in ("fwd", "bwd"))))
        width = 2 * h
    m = dims["mlp_dim"]
    head = MlpHead(w_eh=take(m, width), b_h=take(m), w_hy=take(1, m), b_y=take(1))
    return ModelParams(ModelKind(kind), dims, flat, table, tuple(levels), head)


def projection_bytes(params: ModelParams, units: list) -> list:
    """Per tweet given by its unit_ids, the bytes of its rows of the input
    projection that the lowest level's unroll takes before its time loop:
    3h float64s per unit, h the largest hidden size."""
    row_bytes = 24 * max(rnn.hidden_size for rnn in params.levels)
    return [len(ids) * row_bytes for ids, _ in units]


def budgeted_chunks(costs, budget):
    """(lo, hi) bounds of consecutive runs of items, in order: a run takes
    items while their summed cost fits budget, and an item over the budget
    runs alone."""
    lo = 0
    while lo < len(costs):
        hi, size = lo + 1, costs[lo]
        while hi < len(costs) and size + costs[hi] <= budget:
            size += costs[hi]
            hi += 1
        yield lo, hi
        lo = hi


def _joined(units: list):
    """(the table columns of a pack's units, concatenated; the token
    lengths of all its tweets, None for a one-level kind; the top level's
    input rows per tweet)."""
    ids = np.concatenate([u for u, _ in units])
    if units[0][1] is None:
        return ids, None, [len(u) for u, _ in units]
    return ids, [n for _, ls in units for n in ls], [len(ls) for _, ls in units]


def final_rows(params: ModelParams, units: list) -> np.ndarray:
    """The sentence vectors of a pack of tweets given by their unit_ids,
    one row per tweet in their order: the walk of Regressor.forward_units
    without dropout and without traces.  A stacked bundle (see
    empty_params) gives a stack of rows per parameter set."""
    ids, lengths, rows = _joined(units)
    x = params.table.mT[..., ids, :]
    for rnn in params.levels[:-1]:
        x = birnn_final(rnn, x, lengths)
    return birnn_final(params.levels[-1], x, rows)


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

    def forward_units(self, units: list, dropout: DropoutPlan = None):
        """(scores, trace) of a pack of tweets given by their unit_ids, in
        their order: every level runs once over the whole pack."""
        ids, lengths, rows = _joined(units)
        x = self.params.table.T[ids]
        lower = []
        for rnn in self.params.levels[:-1]:
            lower.append(birnn_forward(rnn, x, lengths))
            x = birnn_output(lower[-1])
        y, trace = flat_forward(self.params, x, rows, dropout)
        trace.ids, trace.lower = ids, lower
        return y, trace

    def forward(self, tweet, dropout: DropoutPlan = None):
        """(score, trace) for one tweet: the pack of one."""
        y, trace = self.forward_units([self.unit_ids(tweet)], dropout)
        return float(y[0]), trace

    def backward(self, trace: Trace, d_y, grads: ModelParams = None) -> ModelParams:
        """Exact gradients of the scores of a pack w.r.t. every tensor, each
        tweet's scaled by its entry of d_y (a number for a pack of one), as
        a gradient bundle (zero_grads): pass grads to add into it instead.

        The input rows' gradients land in the table columns of the units
        seen, in one scatter-add into grads.table.
        """
        params = self.params
        d_y = np.array(d_y, dtype=np.float64).reshape(-1)
        if d_y.shape != (len(trace.e_s),):
            raise ValueError(f"{d_y.size} upstream gradients for a pack of {len(trace.e_s)}")
        grads = zero_grads(params) if grads is None else grads
        d_x = flat_backward(params, trace, d_y, grads)
        for rnn, into, tr in reversed(list(zip(params.levels, grads.levels, trace.lower))):
            g, d_x = birnn_backward(rnn, tr, d_x)
            into.accumulate(g)
        np.add.at(grads.table.T, trace.ids, d_x)
        return grads

    def score_many(self, tweets):
        """(scores, sentence vectors) of many tweets, in their order: the
        walk of forward_units without dropout and without traces.

        Consecutive tweets are scored together in chunks whose lowest
        level's input projection fits SCORE_BUDGET_BYTES (a tweet over it
        runs alone).  Scores agree with score's to rounding (the matrix
        products block other row counts), not bit for bit.
        """
        params = self.params
        units = [self.unit_ids(tw) for tw in tweets]
        E = np.empty((len(units), 2 * params.levels[-1].hidden_size))
        for lo, hi in budgeted_chunks(projection_bytes(params, units), SCORE_BUDGET_BYTES):
            E[lo:hi] = final_rows(params, units[lo:hi])
        return mlp_forward(params.head, E)[0], E

    def score(self, tweet) -> float:
        return self.forward(tweet)[0]

    def embedding(self, tweet) -> np.ndarray:
        """Sentence vector fed to the MLP head (inference, no dropout)."""
        return self.forward(tweet)[1].e_s[0]
