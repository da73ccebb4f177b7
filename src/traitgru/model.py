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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import kernel
from .data import CharVocab
from .gru import (TENSOR_NAMES, BiRnnParams, BiRnnTrace, GruParams, birnn_backward,
                  birnn_forward, birnn_output)
from .rng import SplitMix64


class ModelKind(str, Enum):
    AVERAGE = "average"
    BI_GRU_CHAR = "bigru-char"
    BI_GRU_WORD = "bigru-word"
    C2W2S4PT = "c2w2s4pt"


TRAINABLE_KINDS = (ModelKind.C2W2S4PT, ModelKind.BI_GRU_CHAR, ModelKind.BI_GRU_WORD)


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
class ModelDims:
    char_dim: int = 50
    char_hidden: int = 256
    word_hidden: int = 256
    mlp_dim: int = 256

    def __post_init__(self):
        for name in ("char_dim", "char_hidden", "word_hidden", "mlp_dim"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")


@dataclass
class ModelParams:
    """All tensors of the hierarchical model; the shape chain is validated."""

    e_c: np.ndarray  # char_dim x |C|
    char_birnn: BiRnnParams
    word_birnn: BiRnnParams
    head: MlpHead

    def __post_init__(self):
        if self.char_birnn.input_size != self.e_c.shape[0]:
            raise ValueError(
                f"char rnn input {self.char_birnn.input_size} != embedding dim {self.e_c.shape[0]}"
            )
        if self.word_birnn.input_size != 2 * self.char_birnn.hidden_size:
            raise ValueError(
                f"word rnn input {self.word_birnn.input_size} != "
                f"2 * char hidden {self.char_birnn.hidden_size}"
            )
        if self.head.in_dim != 2 * self.word_birnn.hidden_size:
            raise ValueError(
                f"mlp input {self.head.in_dim} != 2 * word hidden {self.word_birnn.hidden_size}"
            )

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict([("e_c", self.e_c)])
        out.update(self.char_birnn.tensors("char_"))
        out.update(self.word_birnn.tensors("word_"))
        out.update(self.head.tensors())
        return out


@dataclass
class CharGruParams:
    """Character-only baseline: one bi-GRU over the whole normalized text."""

    e_c: np.ndarray
    birnn: BiRnnParams
    head: MlpHead

    def __post_init__(self):
        if self.birnn.input_size != self.e_c.shape[0]:
            raise ValueError("char rnn input dim != embedding dim")
        if self.head.in_dim != 2 * self.birnn.hidden_size:
            raise ValueError("mlp input dim != 2 * hidden")

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict([("e_c", self.e_c)])
        out.update(self.birnn.tensors("char_"))
        out.update(self.head.tensors())
        return out


@dataclass
class WordGruParams:
    """Word-only baseline: trainable token lookup plus one bi-GRU."""

    e_w: np.ndarray  # word_dim x |V|
    birnn: BiRnnParams
    head: MlpHead

    def __post_init__(self):
        if self.birnn.input_size != self.e_w.shape[0]:
            raise ValueError("word rnn input dim != embedding dim")
        if self.head.in_dim != 2 * self.birnn.hidden_size:
            raise ValueError("mlp input dim != 2 * hidden")

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict([("e_w", self.e_w)])
        out.update(self.birnn.tensors("word_"))
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


def embed_chars(vocab: CharVocab, e_c: np.ndarray, word: str) -> list:
    """Column-lookup embedding of each character; unseen chars map to UNK."""
    if not word:
        raise ValueError("cannot embed an empty word")
    return [e_c[:, vocab.id_of(c)] for c in word]


def _compose_words(params: ModelParams, vocab: CharVocab, tokens):
    """One packed character pass over all tokens: (concatenated character
    ids, its trace, word vectors with one row per token)."""
    ids = [vocab.ids_of(tok) for tok in tokens]
    char_ids = np.fromiter((i for word in ids for i in word), dtype=np.intp)
    chars = birnn_forward(params.char_birnn, params.e_c.T[char_ids], [len(w) for w in ids])
    return char_ids, chars, birnn_output(chars)


def compose_word(params: ModelParams, vocab: CharVocab, word: str) -> np.ndarray:
    """Word vector: [final fwd char state ; final bwd char state]."""
    return _compose_words(params, vocab, (word,))[2][0]


def _head_forward(head: MlpHead, x: np.ndarray) -> HeadTrace:
    pre = kernel.matvec(head.w_eh, x) + head.b_h
    h_s = kernel.relu_v(pre)
    y = float(head.w_hy[0] @ h_s) + float(head.b_y[0])
    return HeadTrace(x_fed=x, pre_relu=pre, h_s=h_s, y=y)


def predict(params, e_s: np.ndarray, mask: np.ndarray = None) -> float:
    """MLP head on the sentence vector; mask only during training."""
    head = params.head if hasattr(params, "head") else params
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
    if _words_dropped(dropout):
        word_mask = dropout.draw_mask(e_w.size).reshape(e_w.shape)
        x = e_w * word_mask
    wt = birnn_forward(params.word_birnn, x)
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
    d_in = _head_backward(params.head, trace.head, d_y, grads)
    d_e_s = d_in * trace.sent_mask if trace.sent_mask is not None else d_in
    wg, d_x = birnn_backward(params.word_birnn, trace.word_birnn, d_e_s)
    _add_grads(grads, "word_", wg)
    d_e_w = d_x * trace.word_mask if trace.word_mask is not None else d_x
    cg, d_cs = birnn_backward(params.char_birnn, trace.chars, d_e_w)
    _add_grads(grads, "char_", cg)
    np.add.at(grads["e_c"].T, trace.char_ids, d_cs)
    return grads


def flat_forward(params, ids: list, dropout: DropoutPlan = None,
                 mask_inputs: bool = False):
    """Shared forward for the single-level baselines over embedding ids."""
    if not ids:
        raise ValueError("cannot encode an empty id sequence")
    table = params.e_c if isinstance(params, CharGruParams) else params.e_w
    xs = table.T[ids]
    masks = None
    if mask_inputs and _words_dropped(dropout):
        masks = dropout.draw_mask(xs.size).reshape(xs.shape)
        xs = xs * masks
    bt = birnn_forward(params.birnn, xs)
    e_s = birnn_output(bt)
    sent_mask = _sentence_mask(dropout, e_s.shape[0])
    x = e_s * sent_mask if sent_mask is not None else e_s
    head = _head_forward(params.head, x)
    trace = FlatTrace(ids=list(ids), masks=masks, birnn=bt, e_s=e_s,
                      sent_mask=sent_mask, head=head)
    return head.y, trace


def flat_backward(params, trace: FlatTrace, d_y: float, grads: dict = None) -> dict:
    if grads is None:
        grads = zero_grads(params)
    prefix = "char_" if isinstance(params, CharGruParams) else "word_"
    table_key = "e_c" if isinstance(params, CharGruParams) else "e_w"
    d_in = _head_backward(params.head, trace.head, d_y, grads)
    d_e_s = d_in * trace.sent_mask if trace.sent_mask is not None else d_in
    bg, d_xs = birnn_backward(params.birnn, trace.birnn, d_e_s)
    _add_grads(grads, prefix, bg)
    if trace.masks is not None:
        d_xs = d_xs * trace.masks
    np.add.at(grads[table_key].T, trace.ids, d_xs)
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
    if kind == ModelKind.C2W2S4PT:
        d_c, h_c = dims["char_dim"], dims["char_hidden"]
        h_w, m = dims["word_hidden"], dims["mlp_dim"]
        shapes = [("e_c", (d_c, dims["vocab_size"]))]
        shapes += _gru_shapes("char_", d_c, h_c)
        shapes += _gru_shapes("word_", 2 * h_c, h_w)
        head_in = 2 * h_w
    elif kind == ModelKind.BI_GRU_CHAR:
        d_c, h, m = dims["char_dim"], dims["hidden"], dims["mlp_dim"]
        shapes = [("e_c", (d_c, dims["vocab_size"]))]
        shapes += _gru_shapes("char_", d_c, h)
        head_in = 2 * h
    elif kind == ModelKind.BI_GRU_WORD:
        d_w, h, m = dims["word_dim"], dims["hidden"], dims["mlp_dim"]
        shapes = [("e_w", (d_w, dims["vocab_size"]))]
        shapes += _gru_shapes("word_", d_w, h)
        head_in = 2 * h
    else:
        raise ValueError(f"kind {kind} has no tensors")
    shapes += [("w_eh", (m, head_in)), ("b_h", (m,)), ("w_hy", (1, m)), ("b_y", (1,))]
    return shapes


def _gru_from(tensors: dict, prefix: str) -> GruParams:
    return GruParams(**{name: tensors[prefix + name] for name in TENSOR_NAMES})


def build_params(kind: ModelKind, tensors: dict):
    """Assemble a parameter bundle from named tensors (checkpoint path).

    GRU tensors that are the row blocks of one stacked array, as the
    tensors() of every bundle are, are used in place; others are copied
    into a new stack.
    """
    head = MlpHead(w_eh=tensors["w_eh"], b_h=tensors["b_h"],
                   w_hy=tensors["w_hy"], b_y=tensors["b_y"])
    if kind == ModelKind.C2W2S4PT:
        return ModelParams(
            e_c=tensors["e_c"],
            char_birnn=BiRnnParams(_gru_from(tensors, "char_fwd."), _gru_from(tensors, "char_bwd.")),
            word_birnn=BiRnnParams(_gru_from(tensors, "word_fwd."), _gru_from(tensors, "word_bwd.")),
            head=head,
        )
    if kind == ModelKind.BI_GRU_CHAR:
        return CharGruParams(
            e_c=tensors["e_c"],
            birnn=BiRnnParams(_gru_from(tensors, "char_fwd."), _gru_from(tensors, "char_bwd.")),
            head=head,
        )
    if kind == ModelKind.BI_GRU_WORD:
        return WordGruParams(
            e_w=tensors["e_w"],
            birnn=BiRnnParams(_gru_from(tensors, "word_fwd."), _gru_from(tensors, "word_bwd.")),
            head=head,
        )
    raise ValueError(f"kind {kind} has no tensor bundle")


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


@dataclass
class Regressor:
    """One trainable model: kind, its parameter bundle and its vocabulary."""

    kind: ModelKind
    params: object
    vocab: object  # CharVocab or WordVocab

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return self.params.tensors()

    def forward(self, tweet, dropout: DropoutPlan = None):
        """(score, trace) for one tweet (anything with tokens/normalized_text)."""
        if self.kind == ModelKind.C2W2S4PT:
            return forward_tweet(self.params, self.vocab, tweet.tokens, dropout)
        if self.kind == ModelKind.BI_GRU_CHAR:
            ids = self.vocab.ids_of(tweet.normalized_text)
            return flat_forward(self.params, ids, dropout, mask_inputs=False)
        if self.kind == ModelKind.BI_GRU_WORD:
            ids = [self.vocab.id_of(t) for t in tweet.tokens]
            return flat_forward(self.params, ids, dropout, mask_inputs=True)
        raise ValueError(f"kind {self.kind} is not a forward model")

    def backward(self, trace, d_y: float, grads: dict = None) -> dict:
        if self.kind == ModelKind.C2W2S4PT:
            return backward_full(self.params, trace, d_y, grads)
        return flat_backward(self.params, trace, d_y, grads)

    def score(self, tweet) -> float:
        return self.forward(tweet)[0]

    def embedding(self, tweet) -> np.ndarray:
        """Sentence vector fed to the MLP head (inference, no dropout)."""
        if self.kind == ModelKind.C2W2S4PT:
            return encode_sentence(self.params, self.vocab, tweet.tokens)[0]
        _, trace = self.forward(tweet)
        return trace.e_s
