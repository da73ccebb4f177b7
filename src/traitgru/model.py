"""The hierarchical char->word->sentence regressor and the two RNN baselines.

A sentence is encoded bottom-up: each word's characters run through a
character-level bidirectional GRU whose two final states concatenate
into the word vector; the word vectors run through a word-level
bidirectional GRU whose two final states concatenate into the sentence
vector; a one-hidden-layer MLP (ReLU) maps that to a scalar score.

The character one-hot multiplication is realized as a column lookup
into the embedding table, which is mathematically identical.  Both
character directions share the embedding table; the word baseline
likewise shares its lookup table across directions.

Inverted dropout can be applied at two sites during training: to each
embedding vector entering the top-level recurrent encoder (the composed
word vectors here, the lookup vectors in the baselines' word case) and
to the sentence vector entering the MLP.  Inference never applies a
mask.

The three trainable kinds differ only in what SPECS holds for each: the
embedding table and its width, the bi-GRU levels bottom-up, the
vocabulary and where its units come from, and whether the top level's
inputs take the word-site mask.  One ModelParams class holds any kind's
tensors, in the order the spec gives, which is the checkpoint order.

All words of one tweet share one character pass.  Their characters are
concatenated in token order and packed: the words are sorted by length,
longest first and stable among equal lengths, and step t advances only
the words longer than t, without padding, as one matrix product per
direction (Ling et al. 2015, arXiv:1508.02096, compose words this way;
the stacked, batched cell follows Appleyard et al. 2016).  The backward
pass runs once over those steps, and the embedding gradient is one
scatter-add over the concatenated character ids.  The word level and
both baselines run the same unroll over a single sequence.

Packing stops at the tweet boundary on purpose: packing a whole
mini-batch would keep the traces of all its tweets alive at once (47 MB
for 32 tweets of 64 characters on average at paper dimensions), while
one tweet's traces are freed as soon as its gradients are added.
"""

from collections import OrderedDict
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import kernel
from .data import CharVocab, WordVocab
from .gru import (TENSOR_NAMES, BiRnnParams, BiRnnTrace, GruParams, birnn_backward,
                  birnn_forward, birnn_output)
from .rng import SplitMix64


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
class SentenceTrace:
    """Everything the end-to-end backward pass needs."""

    tokens: tuple
    char_ids: np.ndarray     # every token's character ids, concatenated in token order
    chars: BiRnnTrace        # the packed character pass over all tokens
    e_w: np.ndarray          # word vectors, one row per token
    word_mask: np.ndarray    # same shape as e_w; None when no word-site dropout
    x_fed: np.ndarray        # e_w after the mask: the word-level input
    word_birnn: BiRnnTrace
    e_s: np.ndarray
    sent_mask: np.ndarray  # None when no sentence-site dropout
    head: HeadTrace = None


@dataclass
class ModelParams:
    """All tensors of one trainable kind: the embedding table (width x
    vocabulary), one bi-GRU per level of the kind's spec, bottom-up, and
    the head.  The shape chain is validated level by level."""

    kind: ModelKind
    table: np.ndarray
    levels: tuple  # BiRnnParams, one per spec level
    head: MlpHead
    spec: KindSpec = field(init=False, repr=False, compare=False)

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

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        spec = self.spec
        out = OrderedDict([(spec.table, self.table)])
        for (prefix, _), rnn in zip(spec.levels, self.levels):
            out.update(rnn.tensors(prefix))
        out.update(self.head.tensors())
        return out


@dataclass
class FlatTrace:
    """Trace for the single-level baselines."""

    ids: list
    masks: np.ndarray  # per-position input masks, one row each; None when unmasked
    birnn: BiRnnTrace
    e_s: np.ndarray
    sent_mask: np.ndarray
    head: HeadTrace = None


def _compose_words(params: ModelParams, vocab: CharVocab, tokens):
    """One packed character pass over all tokens: (concatenated character
    ids, its trace, word vectors with one row per token)."""
    ids = [vocab.ids_of(tok) for tok in tokens]
    char_ids = np.fromiter((i for word in ids for i in word), dtype=np.intp)
    chars = birnn_forward(params.levels[0], params.table.T[char_ids], [len(w) for w in ids])
    return char_ids, chars, birnn_output(chars)


def _head_forward(head: MlpHead, x: np.ndarray) -> HeadTrace:
    pre = kernel.matvec(head.w_eh, x) + head.b_h
    h_s = kernel.relu_v(pre)
    y = float(head.w_hy[0] @ h_s) + float(head.b_y[0])
    return HeadTrace(x_fed=x, pre_relu=pre, h_s=h_s, y=y)


def predict(head: MlpHead, e_s: np.ndarray, mask: np.ndarray = None) -> float:
    """MLP head on the sentence vector; mask only during training."""
    x = e_s * mask if mask is not None else e_s
    return _head_forward(head, x).y


def _head_backward(head: MlpHead, tr: HeadTrace, d_y: float, grads: dict) -> np.ndarray:
    d_h_s = head.w_hy[0] * d_y
    d_pre = d_h_s * (tr.pre_relu > 0)
    grads["w_hy"] += d_y * tr.h_s[None, :]
    grads["b_y"] += d_y
    grads["w_eh"] += np.outer(d_pre, tr.x_fed)
    grads["b_h"] += d_pre
    return head.w_eh.T @ d_pre


def _words_dropped(dropout: DropoutPlan) -> bool:
    return dropout is not None and dropout.on_words and dropout.rate > 0.0


def _sentence_mask(dropout: DropoutPlan, n: int):
    if dropout is not None and dropout.on_sentence and dropout.rate > 0.0:
        return dropout.draw_mask(n)
    return None


def encode_sentence(params: ModelParams, vocab: CharVocab, tokens,
                    dropout: DropoutPlan = None):
    """Bottom-up encoding; returns (sentence vector, trace).

    The characters of all tokens run through the character bi-GRU in one
    packed pass: the tokens are sorted by length, longest first (stable),
    and step t advances only the tokens longer than t, as one matrix
    product per direction.  The character level draws no dropout.  Word
    masks are then drawn in token order (one draw of tokens x 2h values,
    the same stream values as one draw per token), then the sentence
    mask, so the dropout stream is consumed deterministically.
    """
    if not tokens:
        raise ValueError("cannot encode an empty token sequence")
    char_ids, chars, e_w = _compose_words(params, vocab, tokens)
    word_mask = None
    x = e_w
    if params.spec.mask_top and _words_dropped(dropout):
        word_mask = dropout.draw_mask(e_w.size).reshape(e_w.shape)
        x = e_w * word_mask
    wt = birnn_forward(params.levels[1], x)
    e_s = birnn_output(wt)
    return e_s, SentenceTrace(
        tokens=tuple(tokens), char_ids=char_ids, chars=chars, e_w=e_w, word_mask=word_mask,
        x_fed=x, word_birnn=wt, e_s=e_s, sent_mask=_sentence_mask(dropout, e_s.shape[0]),
    )


def forward_tweet(params: ModelParams, vocab: CharVocab, tokens,
                  dropout: DropoutPlan = None):
    """Full forward pass; returns (score, trace ready for backward_full)."""
    e_s, trace = encode_sentence(params, vocab, tokens, dropout)
    x = e_s * trace.sent_mask if trace.sent_mask is not None else e_s
    trace.head = _head_forward(params.head, x)
    return trace.head.y, trace


def zero_grads(params) -> "OrderedDict[str, np.ndarray]":
    return OrderedDict((k, np.zeros_like(v)) for k, v in params.tensors().items())


def _add_grads(grads: dict, prefix: str, delta: dict) -> None:
    for k, v in delta.items():
        grads[prefix + k] += v


def backward_full(params: ModelParams, trace: SentenceTrace, d_y: float,
                  grads: dict = None) -> dict:
    """Exact gradients of the score w.r.t. every tensor, scaled by d_y.

    The packed character pass is differentiated in one backward pass per
    direction, and its input gradients land in the embedding columns of
    the characters actually seen, in one scatter-add.  Pass grads to
    accumulate across examples.
    """
    if trace.head is None:
        raise ValueError("trace has no head stage; run forward_tweet first")
    if grads is None:
        grads = zero_grads(params)
    spec = params.spec
    (char_prefix, _), (word_prefix, _) = spec.levels
    char_rnn, word_rnn = params.levels
    d_in = _head_backward(params.head, trace.head, d_y, grads)
    d_e_s = d_in * trace.sent_mask if trace.sent_mask is not None else d_in
    wg, d_x = birnn_backward(word_rnn, trace.word_birnn, d_e_s)
    _add_grads(grads, word_prefix, wg)
    d_e_w = d_x * trace.word_mask if trace.word_mask is not None else d_x
    cg, d_cs = birnn_backward(char_rnn, trace.chars, d_e_w)
    _add_grads(grads, char_prefix, cg)
    np.add.at(grads[spec.table].T, trace.char_ids, d_cs)
    return grads


def flat_forward(params: ModelParams, ids: list, dropout: DropoutPlan = None):
    """Shared forward for the single-level baselines over embedding ids."""
    if not ids:
        raise ValueError("cannot encode an empty id sequence")
    xs = params.table.T[ids]
    masks = None
    if params.spec.mask_top and _words_dropped(dropout):
        masks = dropout.draw_mask(xs.size).reshape(xs.shape)
        xs = xs * masks
    bt = birnn_forward(params.levels[0], xs)
    e_s = birnn_output(bt)
    sent_mask = _sentence_mask(dropout, e_s.shape[0])
    x = e_s * sent_mask if sent_mask is not None else e_s
    head = _head_forward(params.head, x)
    trace = FlatTrace(ids=list(ids), masks=masks, birnn=bt, e_s=e_s,
                      sent_mask=sent_mask, head=head)
    return head.y, trace


def flat_backward(params: ModelParams, trace: FlatTrace, d_y: float,
                  grads: dict = None) -> dict:
    if grads is None:
        grads = zero_grads(params)
    spec = params.spec
    ((prefix, _),) = spec.levels
    d_in = _head_backward(params.head, trace.head, d_y, grads)
    d_e_s = d_in * trace.sent_mask if trace.sent_mask is not None else d_in
    bg, d_xs = birnn_backward(params.levels[0], trace.birnn, d_e_s)
    _add_grads(grads, prefix, bg)
    if trace.masks is not None:
        d_xs = d_xs * trace.masks
    np.add.at(grads[spec.table].T, trace.ids, d_xs)
    return grads


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
    shapes = []
    for direction in ("fwd", "bwd"):
        for name in ("w_z", "w_r", "w_h"):
            shapes.append((f"{prefix}{direction}.{name}", (h, d_in)))
        for name in ("u_z", "u_r", "u_h"):
            shapes.append((f"{prefix}{direction}.{name}", (h, h)))
        for name in ("b_z", "b_r", "b_h"):
            shapes.append((f"{prefix}{direction}.{name}", (h,)))
    return shapes


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


def _gru_from(tensors: dict, prefix: str) -> GruParams:
    return GruParams(**{name: tensors[prefix + name] for name in TENSOR_NAMES})


def build_params(kind: ModelKind, tensors: dict) -> ModelParams:
    """Assemble a parameter bundle from named tensors (checkpoint path).

    GRU tensors that are the row blocks of one stacked array, as the
    tensors() of every bundle are, are used in place; others are copied
    into a new stack.
    """
    spec = spec_of(kind)
    levels = tuple(BiRnnParams(_gru_from(tensors, prefix + "fwd."),
                               _gru_from(tensors, prefix + "bwd."))
                   for prefix, _ in spec.levels)
    head = MlpHead(w_eh=tensors["w_eh"], b_h=tensors["b_h"],
                   w_hy=tensors["w_hy"], b_y=tensors["b_y"])
    return ModelParams(ModelKind(kind), tensors[spec.table], levels, head)


def empty_params(kind: ModelKind, dims: dict):
    """The kind's zero-filled bundle, allocated from tensor_shapes: its
    tensors() are exactly those names and shapes, in that order, and each
    GRU direction's nine are views of its stacked W, U and b."""
    tensors = {}
    for name, shape in tensor_shapes(kind, dims):
        if name.endswith(".w_z"):
            h, d = shape
            prefix = name[:-len("w_z")]
            tensors.update((prefix + k, v) for k, v in GruParams.zeros(d, h).tensors().items())
        elif name not in tensors:
            tensors[name] = np.zeros(shape)
    return build_params(kind, tensors)


def _units(spec: KindSpec, tweet):
    return tweet.tokens if spec.source == "tokens" else tweet.normalized_text


@dataclass
class Regressor:
    """One trainable model: kind, its parameter bundle and its vocabulary.

    A kind of two levels composes each token from its characters (the
    packed pass of forward_tweet); a kind of one level looks each unit
    up in its table (flat_forward).
    """

    kind: ModelKind
    params: ModelParams
    vocab: object  # the spec's vocabulary class

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return self.params.tensors()

    def forward(self, tweet, dropout: DropoutPlan = None):
        """(score, trace) for one tweet (anything with tokens/normalized_text)."""
        spec = self.params.spec
        units = _units(spec, tweet)
        if len(spec.levels) > 1:
            return forward_tweet(self.params, self.vocab, units, dropout)
        return flat_forward(self.params, [self.vocab.id_of(u) for u in units], dropout)

    def backward(self, trace, d_y: float, grads: dict = None) -> dict:
        if len(self.params.levels) > 1:
            return backward_full(self.params, trace, d_y, grads)
        return flat_backward(self.params, trace, d_y, grads)

    def score(self, tweet) -> float:
        return self.forward(tweet)[0]

    def embedding(self, tweet) -> np.ndarray:
        """Sentence vector fed to the MLP head (inference, no dropout)."""
        spec = self.params.spec
        if len(spec.levels) > 1:
            return encode_sentence(self.params, self.vocab, _units(spec, tweet))[0]
        _, trace = self.forward(tweet)
        return trace.e_s
