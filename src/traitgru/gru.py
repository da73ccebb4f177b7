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
the same cell step and the same BPTT loop, and every trace holds (B, h)
rows.

gru_cell holds the gate math of a step.  gru_forward wraps its values in
the trace that backpropagation reads; rnn_final and birnn_final run the
same steps keeping only the state rows, for scoring without gradients.

The bidirectional encoder runs one parameter set forward over the
sequence and an independent set over the reversed sequence, then
concatenates the two final hidden states.  Both directions start from
the zero vector.
"""

from collections import OrderedDict
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

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
    the gates in z, r, h order.

    w_z ... b_h are C-contiguous row-slice views of W, U and b, so every
    named tensor and its stacked array are the same memory: updating a
    named tensor in place updates the stack.
    """

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray):
        h3, h = U.shape
        if h3 != 3 * h or W.ndim != 2 or W.shape[0] != h3 or b.shape != (h3,):
            raise ValueError(f"stacked shapes W {W.shape}, U {U.shape}, b {b.shape} "
                             f"are not (3h x d), (3h x h), (3h)")
        self.W, self.U, self.b = W, U, b
        self.w_z, self.w_r, self.w_h = W[:h], W[h:2 * h], W[2 * h:]
        self.u_z, self.u_r, self.u_h = U[:h], U[h:2 * h], U[2 * h:]
        self.b_z, self.b_r, self.b_h = b[:h], b[h:2 * h], b[2 * h:]

    @property
    def input_size(self) -> int:
        return self.W.shape[1]

    @property
    def hidden_size(self) -> int:
        return self.U.shape[1]

    def tensors(self) -> "OrderedDict[str, np.ndarray]":
        return OrderedDict((name, getattr(self, name)) for name in TENSOR_NAMES)

    @classmethod
    def zeros(cls, input_size: int, hidden_size: int) -> "GruParams":
        h, d = hidden_size, input_size
        return cls(np.zeros((3 * h, d)), np.zeros((3 * h, h)), np.zeros(3 * h))


class GateInput(NamedTuple):
    """A step's input rows x with their projection x W^T + b, which
    rnn_unroll computes for all steps in one product."""

    x: np.ndarray
    a: np.ndarray


@dataclass(slots=True)
class GruCellTrace:
    """Everything one step needs for its exact backward pass.

    Fields are (B, h) rows, one per sequence active at the step, or (h,)
    vectors when gru_forward is given one input vector.
    hu is the projected previous state U_h @ h_prev, kept so the reset
    gate's gradient does not recompute it.
    """

    x: np.ndarray
    h_prev: np.ndarray
    z: np.ndarray
    r: np.ndarray
    h_tilde: np.ndarray
    h_new: np.ndarray
    hu: np.ndarray


@dataclass
class BiRnnParams:
    """Forward- and backward-direction parameter sets (shapes must match)."""

    fwd: GruParams
    bwd: GruParams

    def __post_init__(self):
        if (self.fwd.input_size, self.fwd.hidden_size) != (self.bwd.input_size, self.bwd.hidden_size):
            raise ValueError(
                f"direction shape mismatch: fwd {self.fwd.input_size}x{self.fwd.hidden_size}, "
                f"bwd {self.bwd.input_size}x{self.bwd.hidden_size}"
            )

    @property
    def input_size(self) -> int:
        return self.fwd.input_size

    @property
    def hidden_size(self) -> int:
        return self.fwd.hidden_size

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
    fwd: list
    bwd: list
    packing: Packing


def gru_cell(p: GruParams, a: np.ndarray, h_prev: np.ndarray):
    """The gate math of one step, given the projected inputs a = x W^T + b:
    (z, r, hu, h_tilde, h_new), with hu a view of the product h_prev U^T."""
    h = p.hidden_size
    g = h_prev @ p.U.T
    zr = sigmoid(a[..., :2 * h] + g[..., :2 * h])
    z, r = zr[..., :h], zr[..., h:]
    hu = g[..., 2 * h:]
    h_tilde = np.tanh(a[..., 2 * h:] + r * hu)
    h_new = h_tilde + z * (h_prev - h_tilde)
    require_finite("gru_forward", h_new)
    return z, r, hu, h_tilde, h_new


def gru_forward(p: GruParams, x, h_prev: np.ndarray) -> GruCellTrace:
    """One cell step; returns the full trace (h_new is trace.h_new).

    x is (d,) with h_prev (h,), or B rows (B, d) with h_prev (B, h); or a
    GateInput carrying x together with its precomputed projection.
    """
    if isinstance(x, GateInput):  # from rnn_unroll, which checked the shapes
        x, a = x
    else:
        h = p.hidden_size
        if x.ndim not in (1, 2) or x.shape[-1] != p.input_size:
            raise ValueError(f"x shape {x.shape} != ({p.input_size},) or (B, {p.input_size})")
        if h_prev.shape != x.shape[:-1] + (h,):
            raise ValueError(f"h_prev shape {h_prev.shape} != {x.shape[:-1] + (h,)}")
        a = x @ p.W.T + p.b
    z, r, hu, h_tilde, h_new = gru_cell(p, a, h_prev)
    # hu is copied, so the trace does not keep all of h_prev U^T alive.
    return GruCellTrace(x=x, h_prev=h_prev, z=z, r=r, h_tilde=h_tilde, h_new=h_new,
                        hu=hu.copy())


def gru_backward(p: GruParams, trace: GruCellTrace, d_h_new: np.ndarray):
    """Exact gradients of one step of one sequence, (h,) vectors, given the
    upstream gradient on h_new; the step-by-step reference for
    rnn_backward, applied to one row of a packed trace.

    Returns (param gradient dict keyed like GruParams.tensors(), gradient
    w.r.t. x, gradient w.r.t. h_prev), the triple rnn_backward returns.
    """
    if d_h_new.shape != trace.h_new.shape:
        raise ValueError(f"d_h_new shape {d_h_new.shape} != {trace.h_new.shape}")
    t = trace
    d_z = d_h_new * (t.h_prev - t.h_tilde)
    d_h_tilde = d_h_new * (1.0 - t.z)
    d_a_h = d_h_tilde * (1.0 - t.h_tilde * t.h_tilde)
    d_r = d_a_h * t.hu
    d_hu = d_a_h * t.r
    d_a_z = d_z * t.z * (1.0 - t.z)
    d_a_r = d_r * t.r * (1.0 - t.r)
    d_x = p.w_z.T @ d_a_z + p.w_r.T @ d_a_r + p.w_h.T @ d_a_h
    d_h_prev = d_h_new * t.z + p.u_z.T @ d_a_z + p.u_r.T @ d_a_r + p.u_h.T @ d_hu
    blocks = [np.outer(a, t.x) for a in (d_a_z, d_a_r, d_a_h)]
    blocks += [np.outer(a, t.h_prev) for a in (d_a_z, d_a_r, d_hu)]
    blocks += [d_a_z, d_a_r, d_a_h]
    return dict(zip(TENSOR_NAMES, blocks)), d_x, d_h_prev


def _projected(p: GruParams, xs, batch_sizes):
    """The packed input rows and their projection X W^T + b, which every
    step of an unroll reads, taken as one product before the time loop."""
    X = np.asarray(xs, dtype=np.float64)
    if len(X) == 0:
        raise ValueError("an unroll requires a non-empty sequence")
    if X.ndim != 2 or X.shape[1] != p.input_size:
        raise ValueError(f"inputs of shape {X.shape[1:]} != ({p.input_size},)")
    if sum(batch_sizes) != len(X):
        raise ValueError(f"batch sizes {batch_sizes} do not fit {len(X)} rows")
    A = X @ p.W.T
    A += p.b
    return X, A


def rnn_unroll(p: GruParams, xs, h0: np.ndarray, batch_sizes) -> list:
    """Run the cell over packed rows starting from h0; one trace per step.

    xs is (N, d) rows packed step-major (see Packing): step t takes the
    next batch_sizes[t] rows, and h0 is (batch_sizes[0], h).
    trace[t].h_prev is the leading rows of trace[t-1].h_new.
    """
    X, A = _projected(p, xs, batch_sizes)
    if h0.shape != (batch_sizes[0], p.hidden_size):
        raise ValueError(f"h0 shape {h0.shape} != {(batch_sizes[0], p.hidden_size)}")
    traces = []
    h = h0
    start = 0
    for b in batch_sizes:
        end = start + b
        tr = gru_forward(p, GateInput(X[start:end], A[start:end]), h[:b])
        traces.append(tr)
        h = tr.h_new
        start = end
    return traces


def rnn_final(p: GruParams, xs, batch_sizes) -> np.ndarray:
    """Each packed sequence's state after its own last step, (B, h) in
    packed order, from the zero state: rnn_unroll's cell steps keeping
    no trace, only the state rows, each final row written as its
    sequence ends."""
    _, A = _projected(p, xs, batch_sizes)
    out = np.empty((batch_sizes[0], p.hidden_size))
    h = np.zeros_like(out)
    start = 0
    for b, b_next in zip(batch_sizes, batch_sizes[1:] + [0]):
        end = start + b
        h = gru_cell(p, A[start:end], h[:b])[-1]
        out[b_next:b] = h[b_next:]
        start = end
    return out


def rnn_backward(p: GruParams, traces: list, d_h_last: np.ndarray):
    """Backpropagation through time when only each sequence's final state
    feeds the loss.

    traces come from rnn_unroll; d_h_last is (B, h), in packed order.  The
    recurrent chain walks the steps in reverse exactly as gru_backward
    does (see the cross-check test), with one product through U per step;
    the weight gradients are one product each over all steps.

    Returns (param gradient dict keyed like GruParams.tensors(), input
    gradients with one row per input row of the unroll, gradient w.r.t. h0).
    """
    h = p.hidden_size
    X = np.vstack([tr.x for tr in traces])
    H = np.vstack([tr.h_prev for tr in traces])
    G = np.empty((len(X), 3 * h))  # [a_z | a_r | d_hu]: the gradient through U
    A_h = np.empty((len(X), h))
    D = np.array(d_h_last, dtype=np.float64)  # running gradient on each sequence's state
    U = p.U
    end = len(X)
    for tr in reversed(traces):
        b = len(tr.h_new)
        end -= b
        d_h = D[:b]
        g = G[end:end + b]
        a_h = d_h * (1.0 - tr.z) * (1.0 - tr.h_tilde * tr.h_tilde)
        A_h[end:end + b] = a_h
        g[:, :h] = d_h * (tr.h_prev - tr.h_tilde) * tr.z * (1.0 - tr.z)
        g[:, h:2 * h] = a_h * tr.hu * tr.r * (1.0 - tr.r)
        g[:, 2 * h:] = a_h * tr.r
        D[:b] = d_h * tr.z + g @ U
    d_U = G.T @ H
    G[:, 2 * h:] = A_h  # now [a_z | a_r | a_h]: the gradient through W and b
    d_W = G.T @ X
    d_b = G.sum(axis=0)
    blocks = [m[i * h:(i + 1) * h] for m in (d_W, d_U, d_b) for i in range(3)]
    return dict(zip(TENSOR_NAMES, blocks)), G @ p.W, D


def _packed_inputs(xs, lengths):
    X = np.asarray(xs, dtype=np.float64)
    pk = pack(lengths)
    if len(pk.fwd) != len(X):
        raise ValueError(f"lengths add up to {len(pk.fwd)}, not to the {len(X)} inputs")
    return X, pk


def birnn_forward(p: BiRnnParams, xs, lengths) -> BiRnnTrace:
    """Unroll both directions over sequences of these lengths, concatenated
    in order in xs; each direction runs all of them at once, packed, and
    the backward direction consumes each sequence reversed."""
    X, pk = _packed_inputs(xs, lengths)
    h0 = np.zeros((len(pk.order), p.hidden_size))
    return BiRnnTrace(fwd=rnn_unroll(p.fwd, X[pk.fwd], h0, pk.batch_sizes),
                      bwd=rnn_unroll(p.bwd, X[pk.bwd], h0, pk.batch_sizes), packing=pk)


def _last_states(traces: list, out: np.ndarray) -> None:
    """Writes each packed sequence's state after its own last step into
    the rows of out, in packed order."""
    done = 0
    for tr in reversed(traces):
        b = len(tr.h_new)
        if b > done:
            out[done:b] = tr.h_new[done:]
            done = b


def _in_own_order(pk: Packing, by_length: np.ndarray) -> np.ndarray:
    out = np.empty_like(by_length)
    out[pk.order] = by_length
    return out


def birnn_output(trace: BiRnnTrace) -> np.ndarray:
    """[final forward state ; backward state at sequence position 1], one
    row per sequence, in their own order."""
    h = trace.fwd[0].h_new.shape[1]
    by_length = np.empty((len(trace.packing.order), 2 * h))
    _last_states(trace.fwd, by_length[:, :h])
    _last_states(trace.bwd, by_length[:, h:])
    return _in_own_order(trace.packing, by_length)


def birnn_final(p: BiRnnParams, xs, lengths) -> np.ndarray:
    """birnn_output of birnn_forward(p, xs, lengths), computed without
    traces: one row per sequence, in their own order."""
    X, pk = _packed_inputs(xs, lengths)
    by_length = np.hstack([rnn_final(p.fwd, X[pk.fwd], pk.batch_sizes),
                           rnn_final(p.bwd, X[pk.bwd], pk.batch_sizes)])
    return _in_own_order(pk, by_length)


def birnn_backward(p: BiRnnParams, trace: BiRnnTrace, d_out: np.ndarray):
    """Gradients of birnn_output w.r.t. both directions and the inputs.

    d_out has one row per sequence.  Returns (grad dict keyed fwd.*/bwd.*,
    input gradients with one row per input, in the order of xs).
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
    grads = {f"fwd.{k}": v for k, v in g_fwd.items()}
    grads.update({f"bwd.{k}": v for k, v in g_bwd.items()})
    return grads, d_xs
